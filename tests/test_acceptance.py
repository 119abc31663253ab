"""Acceptance gate: one test per shipped guarantee, with the stated
tolerances and runtime budgets.  Each test prints a single pass line with
its measured numbers (visible under ``pytest -rA`` or ``-s``)."""

import hashlib
import timeit
from time import perf_counter

import numpy as np
import pytest

from twinspace import (
    Mixture,
    NoStoryInMixtureError,
    PrePostExperiment,
    StateVector,
    TwoStateVector,
    abl_probabilities,
    distribution_gap,
    find_story_measurement,
    is_traceless,
    joint_probabilities,
    mixture_statistics,
    null_subspace,
    outcome_amplitudes,
    random_measurement,
    reduce_qutrit_family,
    scan_separable_residual,
    separable_feasibility,
    validate_abl,
    zero_constraints,
)
from twinspace.cli import main
from twinspace.core import DEFAULT_TOL
from twinspace.distinguish import FeasibilityVerdict
from twinspace.errors import NotAStoryError
from twinspace.workspace import QUTRIT_FAMILY, Workspace, builtin_workspace

WS = builtin_workspace()
E01 = WS.vector("ket0_bra1")
QUBIT_IDENTITY = WS.vector("qubit_identity")
QUTRIT_SIGNED = WS.vector("qutrit_signed")
DIAGONAL = WS.measurement("diagonal")
CLASSICAL = WS.mixture("classical_qubit")
FAMILY = tuple(WS.measurement(n) for n in QUTRIT_FAMILY)

# frozen digest of the exact-reduction derivation text
REDUCTION_SHA256 = \
    "56671770d5238343f916bb9b04f76b7e9a12d19e5895706502d4e97d62be14d0"


def _report(n, detail, elapsed, budget):
    assert elapsed < budget, (
        f"criterion {n} took {elapsed:.2f}s, budget {budget:g}s"
    )
    print(f"criterion {n:>2}: PASS  {detail}  [{elapsed:.2f}s < {budget:g}s]")


def _random_mats(rng, count, dim):
    return (rng.standard_normal((count, dim, dim))
            + 1j * rng.standard_normal((count, dim, dim)))


def test_criterion_01_abl_golden_values():
    """(0.5, 0.5) for pre |0>, post |1>, diagonal measurement; < 1 ms."""
    dist = abl_probabilities(E01, DIAGONAL)
    assert abs(dist[0] - 0.5) <= 1e-12
    assert abs(dist[1] - 0.5) <= 1e-12
    best = min(timeit.repeat(
        lambda: abl_probabilities(E01, DIAGONAL), number=1, repeat=50
    ))
    _report(1, f"probabilities ({dist[0]!r}, {dist[1]!r}), "
               f"best call {best * 1e6:.0f}us", best, 1e-3)


def test_criterion_02_story_totality():
    """Every nonzero vector gets a story certificate: 10^4 per dim 2..6."""
    t0 = perf_counter()
    worst_rel = np.inf
    for dim in range(2, 7):
        rng = np.random.default_rng([202, dim])
        mats = _random_mats(rng, 10_000, dim)
        for mat in mats:
            v = TwoStateVector(mat)
            cert = find_story_measurement(v)
            rel = cert.amplitude_magnitude / v.hs_norm
            assert rel > 1e-8
            worst_rel = min(worst_rel, rel)
    _report(2, f"5x10^4 certificates, worst amplitude {worst_rel:.3e}*||v||",
            perf_counter() - t0, 30.0)


def test_criterion_03_null_dimension_law():
    """Kernel dimension is exactly dim^2 - k: dims 2..6, k 1..dim, 50 each."""
    t0 = perf_counter()
    cells = 0
    for dim in range(2, 7):
        for k in range(1, dim + 1):
            for rep in range(50):
                m = random_measurement(dim, k, [303, dim, k, rep])
                # dim states the law; d^2 minus the SVD rank of the k
                # constraint rows v -> Tr(P_i v) measures it
                rows = np.stack([p.matrix.T.ravel() for p in m.projectors])
                s = np.linalg.svd(rows, compute_uv=False)
                measured = dim * dim - int(np.sum(s > 1e-9 * s[0]))
                assert measured == null_subspace(m).dim == dim * dim - k
            cells += 1
    _report(3, f"{cells} (dim, k) cells x 50 measurements, all exact",
            perf_counter() - t0, 60.0)


def test_criterion_04_null_linearity():
    """a*u + b*w stays story-less for kernel members u, w: 10^3 tuples."""
    t0 = perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(1000):
        dim = 2 + trial % 4
        k = 1 + trial % dim
        m = random_measurement(dim, k, [404, trial])
        ns = null_subspace(m)
        if ns.dim == 0:
            continue  # dim 1 never reaches here; guard stays for clarity
        cu = rng.standard_normal(ns.dim) + 1j * rng.standard_normal(ns.dim)
        cw = rng.standard_normal(ns.dim) + 1j * rng.standard_normal(ns.dim)
        u = sum(c * b.matrix for c, b in zip(cu, ns.basis))
        w = sum(c * b.matrix for c, b in zip(cw, ns.basis))
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        combo = TwoStateVector(a * u + b * w)
        amp = float(np.max(np.abs(outcome_amplitudes(combo, m))))
        assert amp <= 1e-9
        worst = max(worst, amp)
    _report(4, f"10^3 combinations, max outcome amplitude {worst:.3e}",
            perf_counter() - t0, 10.0)


def test_criterion_05_time_reversal_indistinguishable():
    """Story verdicts and ABL statistics survive conjugate transposition:
    10^3 vectors x 10^2 measurements in dimension 4."""
    t0 = perf_counter()
    dim = 4
    rng = np.random.default_rng(505)
    mats = _random_mats(rng, 1000, dim)
    rev = mats.conj().transpose(0, 2, 1)
    norms = np.linalg.norm(mats, axis=(1, 2))
    worst_gap = 0.0
    for j in range(100):
        m = random_measurement(dim, 1 + j % dim, [515, j])
        stacked = np.stack([p.matrix for p in m.projectors])
        amps = np.einsum("kij,vji->vk", stacked, mats)
        amps_rev = np.einsum("kij,vji->vk", stacked, rev)
        w, w_rev = np.abs(amps) ** 2, np.abs(amps_rev) ** 2
        story = np.sqrt(w.max(axis=1)) > DEFAULT_TOL * norms
        story_rev = np.sqrt(w_rev.max(axis=1)) > DEFAULT_TOL * norms
        np.testing.assert_array_equal(story, story_rev)
        dist = w[story] / w[story].sum(axis=1, keepdims=True)
        dist_rev = w_rev[story] / w_rev[story].sum(axis=1, keepdims=True)
        gap = float(np.max(np.abs(dist - dist_rev))) if story.any() else 0.0
        assert gap <= 1e-10
        worst_gap = max(worst_gap, gap)
    _report(5, f"10^5 (vector, measurement) pairs, max gap {worst_gap:.3e}",
            perf_counter() - t0, 60.0)


def test_criterion_06_replication_by_classical_mixture():
    """Both bundled qubit targets match the equal-weight classical mixture
    on 10^3 random one- and two-outcome measurements."""
    t0 = perf_counter()
    worst = 0.0
    skipped = 0
    for trial in range(1000):
        k = 1 + trial % 2
        m = random_measurement(2, k, [606, trial])
        dist_mix = mixture_statistics(CLASSICAL, m)
        for target in (E01, QUBIT_IDENTITY):
            try:
                dist_t = mixture_statistics(Mixture.point(target), m)
            except NoStoryInMixtureError:
                # only the traceless target on a single-outcome measurement
                # lacks conditional statistics; nothing to compare there
                assert target is E01 and k == 1 and is_traceless(target)
                skipped += 1
                continue
            gap = distribution_gap(dist_t, dist_mix)
            assert gap <= 1e-10
            worst = max(worst, gap)
    _report(6, f"max gap {worst:.3e} over 2x10^3 comparisons "
               f"({skipped} story-less target cases)",
            perf_counter() - t0, 10.0)


def test_criterion_07_exact_reduction():
    """The signed-qutrit system reduces, coefficient by coefficient, to the
    contradictory diagonal system; output is byte-stable."""
    t0 = perf_counter()
    system = zero_constraints(QUTRIT_SIGNED, FAMILY)
    report = reduce_qutrit_family(system)
    expected = (
        {(1, 1): 1.0, (2, 2): 1.0},
        {(0, 0): 1.0, (2, 2): 1.0},
        {(0, 0): 0.5, (0, 1): -0.5, (1, 0): -0.5, (1, 1): 0.5, (2, 2): 1.0},
        {(0, 0): 0.5, (0, 1): -0.5j, (1, 0): 0.5j, (1, 1): 0.5, (2, 2): 1.0},
    )
    assert report.equations == expected
    assert report.reduced_equations == (
        expected[0], expected[1], {(0, 1): 1.0}, {(1, 0): 1.0}
    )
    assert report.contradiction
    again = reduce_qutrit_family(zero_constraints(QUTRIT_SIGNED, FAMILY))
    assert again.text == report.text
    digest = hashlib.sha256(report.text.encode("utf-8")).hexdigest()
    assert digest == REDUCTION_SHA256
    _report(7, f"coefficients exact, contradiction derived, sha {digest[:12]}",
            perf_counter() - t0, 1.0)


def test_criterion_08_numerical_infeasibility():
    """No separable replication of the signed-qutrit target: 200 descents
    plus a 10^6-point blind scan, every residual >= 1e-6."""
    t0 = perf_counter()
    system = zero_constraints(QUTRIT_SIGNED, FAMILY)
    report = separable_feasibility(system, starts=200, seed=0)
    assert report.verdict is FeasibilityVerdict.INFEASIBLE_EVIDENCE
    assert report.best_residual >= 1e-6
    floor = scan_separable_residual(system, samples=1_000_000, seed=0)
    assert floor >= 1e-6
    _report(8, f"best descent {report.best_residual:.3e}, "
               f"scan floor {floor:.3e}", perf_counter() - t0, 120.0)


def _random_experiment(index, trials=100_000):
    """A seeded random separable experiment in d = 2 or 3 whose nonzero
    outcomes all expect >= 100 post-selected successes."""
    dim = 2 + index % 2
    for attempt in range(100):
        rng = np.random.default_rng([909, index, attempt])
        k = int(rng.integers(2, dim + 1))
        m = random_measurement(dim, k, [919, index, attempt])
        pre = StateVector.normalized(
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        post = StateVector.normalized(
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        try:
            exp = PrePostExperiment(pre, post, m, trials,
                                    seed=int(rng.integers(2**31)))
        except NotAStoryError:
            continue
        joint = joint_probabilities(exp)
        if np.all((joint <= 1e-12) | (trials * joint >= 100.0)):
            return exp
    raise AssertionError(f"no viable experiment for index {index}")


def test_criterion_09_monte_carlo_vs_abl():
    """20 random separable experiments at 10^5 trials: frequencies within
    4 binomial standard errors, at least 19/20 passing."""
    t0 = perf_counter()
    results = [validate_abl(_random_experiment(i)).passed for i in range(20)]
    passed = sum(results)
    assert passed >= 19
    _report(9, f"{passed}/20 experiments within 4 sigma",
            perf_counter() - t0, 60.0)


def test_criterion_10_traceless_gate():
    """Non-traceless vectors form stories with every measurement; all
    constructed story-less vectors are traceless."""
    t0 = perf_counter()
    dim = 3
    rng = np.random.default_rng(1010)
    mats = np.empty((0, dim, dim), dtype=np.complex128)
    while mats.shape[0] < 1000:
        batch = _random_mats(rng, 1500, dim)
        traces = np.abs(np.trace(batch, axis1=1, axis2=2))
        norms = np.linalg.norm(batch, axis=(1, 2))
        mats = np.concatenate([mats, batch[traces > 0.1 * norms]])
    mats = mats[:1000]
    norms = np.linalg.norm(mats, axis=(1, 2))

    storyless_checked = 0
    for j in range(100):
        m = random_measurement(dim, 1 + j % dim, [1020, j])
        stacked = np.stack([p.matrix for p in m.projectors])
        amps = np.einsum("kij,vji->vk", stacked, mats)
        assert np.all(np.max(np.abs(amps), axis=1) > DEFAULT_TOL * norms)

        ns = null_subspace(m)
        members = [b.matrix for b in ns.basis]
        for _ in range(3):
            c = rng.standard_normal(ns.dim) + 1j * rng.standard_normal(ns.dim)
            members.append(sum(ci * b.matrix for ci, b in zip(c, ns.basis)))
        for mat in members:
            v = TwoStateVector(mat)
            assert abs(np.trace(mat)) <= 1e-9 * v.hs_norm
            storyless_checked += 1
    _report(10, f"10^5 story checks, {storyless_checked} story-less vectors "
                "all traceless", perf_counter() - t0, 30.0)


def test_criterion_11_cli_contract(tmp_path, capsys):
    """reproduce 1|2|3 exit 0; workspace round trip byte-exact; no-story
    invocations exit 2."""
    t0 = perf_counter()
    for example in ("1", "2", "3"):
        assert main(["reproduce", example]) == 0

    text = builtin_workspace().dumps()
    assert Workspace.loads(text).dumps() == text
    path = tmp_path / "ws.json"
    builtin_workspace().dump(path)
    assert Workspace.load(path).dumps() == path.read_text()

    assert main(["abl", "ket0_bra1", "computational"]) == 2
    assert main(["montecarlo", "ket0", "ket1", "computational"]) == 2
    elapsed = perf_counter() - t0
    capsys.readouterr()  # swallow the CLI output before reporting
    _report(11, "reproduce 1|2|3 pass, round trip byte-exact, "
                "no-story exits 2", elapsed, 10.0)
