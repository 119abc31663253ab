"""The library's threads: the null-subspace basis, the Monte Carlo blocks
and the residual scan are bit-identical on any number of workers, and each
call owns its threads, so it nests, forks and leaves no thread behind."""

import hashlib
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from twinspace import (
    BLOCK_SIZE,
    DEFAULT_TOL,
    Measurement,
    MeasurementValidationError,
    MixtureExperiment,
    NullSubspace,
    PrePostExperiment,
    TwoStateVector,
    builtin_workspace,
    random_measurement,
    scan_separable_residual,
    simulate,
    validate_abl,
    zero_constraints,
)
from twinspace import core, distinguish, structure
from twinspace.distinguish import _SCAN_BATCH

WS = builtin_workspace()
KET0, KET1, PLUS = WS.state("ket0"), WS.state("ket1"), WS.state("plus")
DIAGONAL = WS.measurement("diagonal")
WORKERS = (1, 2, 3, 5)  # 5: more workers than the Monte Carlo blocks


def _basis_digest(m: Measurement) -> str:
    """SHA-256 of the bytes of a freshly built basis, in order."""
    h = hashlib.sha256()
    for b in NullSubspace(m).basis:
        h.update(b.matrix.tobytes())
    return h.hexdigest()


def _set_workers(monkeypatch, n: int) -> None:
    """Pretend the process has ``n`` library threads, both for the map and
    for the basis chunks that are sized by it."""
    for module in (core, structure):
        monkeypatch.setattr(module, "_workers", lambda: n)


def _per_worker_count(monkeypatch, run) -> list:
    """``run()`` once with each of WORKERS library threads."""
    out = []
    for n in WORKERS:
        _set_workers(monkeypatch, n)
        out.append(run())
    return out


def _nearly_commuting(dim: int, k: int, seed: int) -> Measurement:
    """A random measurement with Hermitian noise of up to DEFAULT_TOL per
    entry on each projector, halved until Measurement accepts it."""
    m = random_measurement(dim, k, [29, seed])
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((k, dim, dim))
         + 1j * rng.standard_normal((k, dim, dim)))
    noise = [e / np.max(np.abs(e)) for e in g + g.conj().transpose(0, 2, 1)]
    scale = DEFAULT_TOL
    while True:
        try:
            return Measurement([p.matrix + scale * e
                                for p, e in zip(m.projectors, noise)])
        except MeasurementValidationError:
            scale /= 2


@pytest.mark.parametrize("dim, k", [(1, 1), (2, 2), (16, 5), (64, 64),
                                    (64, 7)])
def test_basis_is_bitwise_equal_on_any_worker_count(monkeypatch, dim, k):
    m = random_measurement(dim, k, [71, dim, k])
    digests = _per_worker_count(monkeypatch, lambda: _basis_digest(m))
    assert digests == [digests[0]] * len(WORKERS)


def test_basis_of_nearly_commuting_projectors_is_bitwise_equal(monkeypatch):
    """An accepted outside measurement whose projectors commute only
    within DEFAULT_TOL, so the projection step does real work."""
    m = _nearly_commuting(16, 5, 3)
    p, q = m.projectors[0].matrix, m.projectors[1].matrix
    assert 0.0 < np.max(np.abs(p @ q - q @ p)) <= DEFAULT_TOL
    digests = _per_worker_count(monkeypatch, lambda: _basis_digest(m))
    assert digests == [digests[0]] * len(WORKERS)


TRIALS = 3 * BLOCK_SIZE + 137
EXPERIMENTS = {
    "one component": PrePostExperiment(KET0, KET1, DIAGONAL, TRIALS, 5),
    "two components": MixtureExperiment(
        ((0.3, KET0, PLUS), (0.7, PLUS, KET1)), DIAGONAL, TRIALS, 5),
}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_monte_carlo_is_bitwise_equal_on_any_worker_count(monkeypatch, name):
    exp = EXPERIMENTS[name]
    counts = _per_worker_count(
        monkeypatch, lambda: simulate(exp).outcome_counts.tolist())
    reports = _per_worker_count(monkeypatch,
                                lambda: validate_abl(exp).to_json())
    assert counts == [counts[0]] * len(WORKERS)
    assert reports == [reports[0]] * len(WORKERS)
    assert reports[0]["successes"] == sum(counts[0])


def test_map_keeps_item_order(monkeypatch):
    _set_workers(monkeypatch, 2)
    assert core._map(lambda x: x * x, range(50)) == [x * x for x in range(50)]


def test_nested_map_inside_a_share_completes_in_item_order(monkeypatch):
    """Every share, the caller's included, opens a map of its own."""
    _set_workers(monkeypatch, 3)
    out = core._map(lambda x: core._map(lambda y: (x, y), range(5)),
                    range(4))
    assert out == [[(x, y) for y in range(5)] for x in range(4)]


def test_map_leaves_no_thread_running(monkeypatch):
    _set_workers(monkeypatch, 4)
    before = threading.enumerate()
    idents = core._map(lambda _: threading.get_ident(), range(8))
    assert idents[::4] == [threading.get_ident()] * 2  # share 0: the caller
    assert threading.enumerate() == before


@pytest.mark.parametrize("bad", range(7))
def test_an_error_in_any_share_reaches_the_caller(monkeypatch, bad):
    """Item ``bad`` of seven, in share bad % 3 of three; the call's threads
    are gone when the error arrives."""
    _set_workers(monkeypatch, 3)
    before = threading.enumerate()

    def fn(x):
        if x == bad:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=f"^item {bad}$"):
        core._map(fn, range(7))
    assert threading.enumerate() == before


def _rank_one_system(d: int, seed: int):
    """The zero constraints of P_0 on a random rank-one measurement: z = d - 1
    generic complex constraints (none at d = 1)."""
    m = random_measurement(d, d, seed)
    return zero_constraints(TwoStateVector(m.projectors[0].matrix), [m])


SCANS = {
    "d = 1, z = 0": (1, 1000),
    "d = 3, one batch": (3, _SCAN_BATCH),
    "d = 3, partial last batch": (3, 3 * _SCAN_BATCH + 700),
    "d = 16, two batches": (16, 2 * _SCAN_BATCH),
}


@pytest.mark.parametrize("switch", [None, 1e-6])
@pytest.mark.parametrize("name", SCANS)
def test_scan_is_bitwise_equal_on_any_worker_count(monkeypatch, name,
                                                   switch):
    """Also with the interpreter switching threads every microsecond."""
    d, samples = SCANS[name]
    system = _rank_one_system(d, d)
    interval = sys.getswitchinterval()
    try:
        if switch is not None:
            sys.setswitchinterval(switch)
        floors = _per_worker_count(
            monkeypatch,
            lambda: scan_separable_residual(system, samples, 7).hex())
    finally:
        sys.setswitchinterval(interval)
    assert floors == [floors[0]] * len(WORKERS)
    assert (floors[0] == (0.0).hex()) == (d == 1)


class _Batch1Fails:
    """Batch 1's generator: its draws raise."""

    def standard_normal(self, shape):
        raise FloatingPointError("batch 1")


@pytest.mark.parametrize("n", WORKERS)
def test_an_error_in_a_scan_draw_reaches_the_caller(monkeypatch, n):
    _set_workers(monkeypatch, n)
    rng = distinguish._rng
    monkeypatch.setattr(distinguish, "_rng", lambda seed, *keys: (
        _Batch1Fails() if keys == (1,) else rng(seed, *keys)))
    before = threading.enumerate()
    with pytest.raises(FloatingPointError, match="^batch 1$"):
        scan_separable_residual(_rank_one_system(3, 3), 3 * _SCAN_BATCH, 0)
    assert threading.enumerate() == before


def test_threaded_scan_holds_at_most_two_draws(monkeypatch):
    """Three d = 16 batches on two workers: each worker holds one
    (4, 273, 16) float64 chunk draw and its 1 MB of amplitudes, never a
    whole (4, 2**16, 16) batch draw of 32 MB."""
    _set_workers(monkeypatch, 2)
    system = _rank_one_system(16, 0)
    tracemalloc.start()
    try:
        scan_separable_residual(system, 3 * _SCAN_BATCH, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _child_digest(conn):
    conn.send(_basis_digest(random_measurement(16, 4, [72])))
    conn.close()


def test_forked_child_builds_its_own_pool(monkeypatch):
    """After the parent mapped on threads, a forked child still builds a
    d = 16 basis, on a pool of its own."""
    _set_workers(monkeypatch, 2)
    expected = _basis_digest(random_measurement(16, 4, [72]))
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_digest, args=(send,))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "forked child hung building the basis"
        assert recv.recv() == expected
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def no_blas_vars(monkeypatch):
    for name in BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_workers_yield_to_unpinned_blas(no_blas_vars):
    assert core._workers() == 1


def test_workers_with_one_blas_thread_use_every_core(no_blas_vars):
    no_blas_vars.setenv("OPENBLAS_NUM_THREADS", "1")
    assert core._workers() == len(os.sched_getaffinity(0))


def test_workers_read_the_first_positive_blas_variable(no_blas_vars):
    cores = len(os.sched_getaffinity(0))
    no_blas_vars.setenv("MKL_NUM_THREADS", "1")
    assert core._workers() == cores
    for unset in ("0", "-1", "many", "", "²"):
        no_blas_vars.setenv("OPENBLAS_NUM_THREADS", unset)
        assert core._workers() == cores
    no_blas_vars.setenv("OMP_NUM_THREADS", str(cores))
    assert core._workers() == 1
    no_blas_vars.setenv("OPENBLAS_NUM_THREADS", "1")
    assert core._workers() == cores
    no_blas_vars.setenv("OPENBLAS_NUM_THREADS", str(2 * cores))
    assert core._workers() == 1
