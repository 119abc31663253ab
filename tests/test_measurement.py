"""Projective measurements, outcome amplitudes, story predicate, ABL rule."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twinspace.measurement as measurement_module
from twinspace import (
    DEFAULT_TOL,
    MAX_DIM,
    DimensionMismatchError,
    Measurement,
    MeasurementValidationError,
    NotAStoryError,
    NotCompleteError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthogonalError,
    OutcomeDistribution,
    Projector,
    ShapeMismatchError,
    StateVector,
    TwoStateVector,
    abl_probabilities,
    find_story_measurement,
    forms_story,
    is_traceless,
    measurement_from_basis_grouping,
    measurement_from_observable,
    outcome_amplitudes,
    random_measurement,
    validate_measurement,
)
from twinspace.core import array_to_json as matrix_to_json
from twinspace.workspace import builtin_workspace

S = 2.0 ** -0.5
KET0 = StateVector.basis_state(2, 0)
KET1 = StateVector.basis_state(2, 1)
PLUS = StateVector([S, S])
MINUS = StateVector([S, -S])

E01 = TwoStateVector.separable(KET0, KET1)          # pre |0>, post |1>
DIAGONAL = measurement_from_basis_grouping([PLUS, MINUS], [[0], [1]],
                                           labels=["+", "-"])
COMPUTATIONAL = measurement_from_basis_grouping([KET0, KET1], [[0], [1]],
                                                labels=["0", "1"])


# ---------------------------------------------------------------------------
# Projector validation
# ---------------------------------------------------------------------------

def test_projector_rejects_non_hermitian():
    for matrix in ([[1.0, 1.0], [0.0, 0.0]], np.full((2, 2), np.nan)):
        with pytest.raises(NotHermitianError):
            Projector(np.array(matrix))


def test_projector_rejects_non_idempotent():
    nearly = np.array([[1.0, 1e-4], [1e-4, 0.0]])  # idempotency defect ~1e-8
    for matrix in (0.5 * np.eye(2), nearly):
        with pytest.raises(NotIdempotentError):
            Projector(matrix)


def test_projector_rank():
    assert Projector(np.eye(3)).rank == 3
    assert Projector(np.diag([1.0, 0.0, 1.0])).rank == 2


def test_onto_state_normalizes_input():
    p = Projector.onto_state(StateVector([2.0, 2.0]))
    np.testing.assert_allclose(p.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


# ---------------------------------------------------------------------------
# Measurement validation
# ---------------------------------------------------------------------------

def test_measurement_names_first_non_orthogonal_pair():
    p0 = Projector.onto_state(KET0)
    pp = Projector.onto_state(PLUS)
    with pytest.raises(NotOrthogonalError) as exc:
        Measurement((p0, pp))
    assert exc.value.pair == (0, 1)


def test_measurement_requires_completeness():
    with pytest.raises(NotCompleteError):
        Measurement((Projector.onto_state(KET0),))


def test_measurement_label_count_must_match():
    with pytest.raises(ShapeMismatchError):
        Measurement((Projector(np.eye(2)),), labels=("a", "b"))


@pytest.mark.parametrize("labels", ["ab", 5, {"a", "b"}])
def test_measurement_labels_must_be_a_sequence_of_names(labels):
    """A string is not a list of its characters, and an int or a set is not
    a sequence: each is a library error, not a bare TypeError or a silent
    reading."""
    with pytest.raises(ShapeMismatchError, match="labels must be"):
        Measurement(COMPUTATIONAL.projectors, labels)


def test_measurement_rejects_mixed_dims():
    with pytest.raises(DimensionMismatchError):
        Measurement((Projector(np.eye(2)), Projector(np.eye(3))))


def test_trivial_measurement():
    m = Measurement.trivial(3)
    assert m.num_outcomes == 1
    np.testing.assert_array_equal(m.projectors[0].matrix, np.eye(3))


@pytest.mark.parametrize("dim", [2.5, True, np.float64(2.0), "2", None])
def test_trivial_measurement_refuses_a_dimension_that_is_no_integer(dim):
    with pytest.raises(ShapeMismatchError, match="dimension must be an integer"):
        Measurement.trivial(dim)


def test_validate_measurement_accepts_raw_matrices():
    m = validate_measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                             labels=["up", "down"])
    assert m.labels == ("up", "down")
    assert m.num_outcomes == 2


def test_validate_measurement_names_the_offending_projector():
    with pytest.raises(NotHermitianError) as exc:
        validate_measurement([np.diag([1.0, 0.0]), [[0, 1], [0, 1]]])
    assert exc.value.index == 1
    assert str(exc.value) == "projector is not Hermitian"


ZERO_OUTCOME = [np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0])]


def test_measurement_refuses_zero_projector():
    with pytest.raises(MeasurementValidationError) as exc:
        Measurement(tuple(Projector(p) for p in ZERO_OUTCOME))
    assert exc.value.index == 1


def test_validate_measurement_refuses_zero_projector():
    with pytest.raises(MeasurementValidationError) as exc:
        validate_measurement([np.zeros((2, 2)), np.eye(2)])
    assert exc.value.index == 0


def test_basis_grouping_refuses_empty_group():
    with pytest.raises(MeasurementValidationError) as exc:
        measurement_from_basis_grouping([KET0, KET1], [[0, 1], []])
    assert exc.value.index == 1


def test_measurement_from_json_refuses_zero_projector():
    obj = {"dim": 2,
           "projectors": [[[[float(z.real), float(z.imag)] for z in row]
                           for row in p] for p in ZERO_OUTCOME]}
    with pytest.raises(MeasurementValidationError) as exc:
        Measurement.from_json(obj)
    assert exc.value.index == 1


def test_measurement_json_round_trip():
    obj = DIAGONAL.to_json()
    back = Measurement.from_json(obj)
    for p, q in zip(back.projectors, DIAGONAL.projectors):
        np.testing.assert_array_equal(p.matrix, q.matrix)
    assert back.labels == DIAGONAL.labels


# ---------------------------------------------------------------------------
# Constructors from bases and observables
# ---------------------------------------------------------------------------

def test_basis_grouping_builds_rank_sums():
    basis = [StateVector.basis_state(3, i) for i in range(3)]
    m = measurement_from_basis_grouping(basis, [[0], [1, 2]])
    assert [p.rank for p in m.projectors] == [1, 2]


def test_basis_grouping_rejects_non_orthonormal():
    with pytest.raises(NotOrthogonalError) as exc:
        measurement_from_basis_grouping([KET0, PLUS], [[0], [1]])
    assert exc.value.pair is not None


def test_basis_grouping_rejects_bad_partition():
    basis = [KET0, KET1]
    with pytest.raises(ShapeMismatchError):
        measurement_from_basis_grouping(basis, [[0], [0, 1]])
    with pytest.raises(ShapeMismatchError):
        measurement_from_basis_grouping(basis, [[0]])
    with pytest.raises(ShapeMismatchError):
        measurement_from_basis_grouping(basis, [[0], []])
    with pytest.raises(ShapeMismatchError):
        measurement_from_basis_grouping([], [])
    # Not a sequence of sequences of integers: refused before iteration.
    for grouping in ([0, 1], 5, [[0], 1], "01", None):
        with pytest.raises(ShapeMismatchError, match="sequence of index"):
            measurement_from_basis_grouping(basis, grouping)


def test_basis_grouping_refuses_non_integer_entries_and_mixed_dims():
    """A bool or non-integer group entry is a shape fault, and a basis
    state of another dimension a dimension fault, before numpy sees them;
    numpy integers are entries like any other."""
    for grouping in ([[0.5], [1]], [[True], [False]], [[0], ["1"]]):
        with pytest.raises(ShapeMismatchError, match="grouping entry"):
            measurement_from_basis_grouping([KET0, KET1], grouping)
    with pytest.raises(DimensionMismatchError):
        measurement_from_basis_grouping(
            [KET0, StateVector.basis_state(3, 1)], [[0], [1]])
    m = measurement_from_basis_grouping([KET0, KET1],
                                        [[np.int64(1)], [np.int32(0)]])
    assert m.projectors[0].matrix[1, 1] == 1.0


@pytest.mark.parametrize("basis", [np.eye(3), list(np.eye(3)), 5,
                                   [StateVector.basis_state(3, 0), "x"]],
                         ids=["array", "array rows", "number", "mixed"])
def test_basis_grouping_refuses_a_basis_of_non_states(basis):
    """The basis is read through the one iterable gate, and a member that
    is not a StateVector is a shape fault, not a bare numpy or attribute
    error."""
    with pytest.raises(ShapeMismatchError):
        measurement_from_basis_grouping(basis, [[0], [1], [2]])


def test_basis_grouping_takes_any_iterable_of_states():
    basis = (StateVector.basis_state(3, i) for i in range(3))
    m = measurement_from_basis_grouping(basis, [[0, 2], [1]])
    assert [p.rank for p in m.projectors] == [2, 1]


def test_ragged_matrices_are_shape_faults():
    ragged = [[1.0, 0.0], [0.0]]
    with pytest.raises(ShapeMismatchError, match="ragged"):
        Projector(ragged)
    with pytest.raises(ShapeMismatchError, match="ragged"):
        validate_measurement([np.diag([1.0, 0.0]), ragged])
    with pytest.raises(ShapeMismatchError, match="ragged"):
        measurement_from_observable(ragged)
    with pytest.raises(ShapeMismatchError, match="ragged"):
        OutcomeDistribution([0.5, [0.5]])


def test_observable_spectral_measurement():
    pauli_z = np.diag([1.0, -1.0])
    m = measurement_from_observable(pauli_z)
    assert m.num_outcomes == 2
    # ascending eigenvalue order
    assert m.labels == ("-1.0", "1.0")
    np.testing.assert_allclose(m.projectors[0].matrix, np.diag([0.0, 1.0]),
                               atol=1e-12)


def test_observable_clusters_degenerate_eigenvalues():
    m = measurement_from_observable(np.diag([1.0, 1.0, 0.0]))
    assert m.num_outcomes == 2
    assert [p.rank for p in m.projectors] == [1, 2]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_observable_at_the_edge_of_the_float_range():
    """A spectral range or a cluster sum beyond the float range neither
    merges outcomes nor overflows a label."""
    m = measurement_from_observable(np.diag([1e308, -1e308]))
    assert m.labels == ("-1e+308", "1e+308")
    np.testing.assert_array_equal(m.projectors[0].matrix, np.diag([0.0, 1.0]))
    m = measurement_from_observable(np.diag([1.5e308, 1.5e308, -1.5e308]))
    assert m.labels == ("-1.5e+308", "1.5e+308")
    assert [p.rank for p in m.projectors] == [1, 2]


def test_observable_constant_spectrum_is_trivial():
    m = measurement_from_observable(2.5 * np.eye(3))
    assert m.num_outcomes == 1


def test_observable_must_be_hermitian():
    for observable in ([[0.0, 1.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]],
                       [[1.0, np.inf], [0.0, 1.0]]):
        with pytest.raises(NotHermitianError):
            measurement_from_observable(np.array(observable))


# ---------------------------------------------------------------------------
# Outcome amplitudes, stories, ABL
# ---------------------------------------------------------------------------

def test_outcome_amplitudes_golden():
    # <1|P_+|0> = 1/2, <1|P_-|0> = -1/2
    amps = outcome_amplitudes(E01, DIAGONAL)
    np.testing.assert_allclose(amps, [0.5, -0.5], atol=1e-15)


def test_outcome_amplitudes_sum_to_trace():
    rng = np.random.default_rng(3)
    v = TwoStateVector(rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
    amps = outcome_amplitudes(v, DIAGONAL)
    assert np.sum(amps) == pytest.approx(np.trace(v.matrix), abs=1e-12)


def test_outcome_amplitudes_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        outcome_amplitudes(E01, Measurement.trivial(3))


def test_forms_story():
    assert forms_story(E01, DIAGONAL)
    # every computational outcome amplitude of |0><1| vanishes
    assert not forms_story(E01, COMPUTATIONAL)


def test_abl_golden_values():
    dist = abl_probabilities(E01, DIAGONAL)
    assert abs(dist[0] - 0.5) <= 1e-12
    assert abs(dist[1] - 0.5) <= 1e-12


def test_abl_deterministic_outcome():
    # pre |0>, post |+>: only the first computational outcome survives
    v = TwoStateVector.separable(KET0, PLUS)
    dist = abl_probabilities(v, COMPUTATIONAL)
    np.testing.assert_allclose(dist.probabilities, [1.0, 0.0], atol=1e-15)


def test_abl_raises_without_story():
    with pytest.raises(NotAStoryError):
        abl_probabilities(E01, COMPUTATIONAL)


#: The complex factor and scales from 1e-300 to 1e300; beyond about
#: 1e154 (and below 1e-154) squared entries overflow (underflow).
SCALES = [1e-7 - 2e3j, 1e-300, 1e-200, 1e-162, 1e-158, 1e154, 1e200, 1e300]
#: Subnormal scales, down to the smallest float: exact on entries 0 and +-1.
SUBNORMAL_SCALES = [1e-310, 5e-324]
#: The rules rescale before squaring, so no scale makes numpy warn.
NO_RUNTIME_WARNING = pytest.mark.filterwarnings("error::RuntimeWarning")


@NO_RUNTIME_WARNING
def test_abl_scale_invariant():
    rng = np.random.default_rng(5)
    for dim, m in ((3, random_measurement(3, 2, 99)), (2, DIAGONAL)):
        v = TwoStateVector(rng.standard_normal((dim, dim))
                           + 1j * rng.standard_normal((dim, dim)))
        base = abl_probabilities(v, m).probabilities
        for scale in SCALES:
            scaled = abl_probabilities(TwoStateVector(scale * v.matrix), m)
            np.testing.assert_allclose(scaled.probabilities, base,
                                       atol=1e-12, err_msg=f"scale {scale}")


@NO_RUNTIME_WARNING
def test_story_verdicts_scale_invariant():
    """forms_story, abl_probabilities, find_story_measurement and
    is_traceless give the unit-scale verdict at every scale, subnormal
    ones included."""
    for matrix, scale in itertools.product(
            (np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]),
            SCALES + SUBNORMAL_SCALES):
        v = TwoStateVector(np.asarray(matrix, dtype=complex))
        s = TwoStateVector(scale * v.matrix)
        story = forms_story(v, COMPUTATIONAL)
        assert forms_story(s, COMPUTATIONAL) == story
        assert is_traceless(s) == is_traceless(v)
        assert find_story_measurement(s).case is find_story_measurement(v).case
        if story:
            np.testing.assert_allclose(
                abl_probabilities(s, COMPUTATIONAL).probabilities,
                abl_probabilities(v, COMPUTATIONAL).probabilities, atol=1e-12)
        else:
            with pytest.raises(NotAStoryError):
                abl_probabilities(s, COMPUTATIONAL)


@NO_RUNTIME_WARNING
def test_state_norm_is_scale_safe():
    """StateVector.norm, normalized, TwoStateVector.unit and
    Projector.onto_state hold where the sum of squares overflows or
    underflows, down to subnormal entries; inside the safe range the norm
    is numpy's, bit for bit."""
    assert StateVector([1e200, 1e200]).norm == pytest.approx(
        2.0 ** 0.5 * 1e200, rel=1e-15)
    assert StateVector([1e-310, 1e-310]).norm == pytest.approx(
        2.0 ** 0.5 * 1e-310, rel=1e-12)
    for amps in ([1e200, 1e200], [1e-200, 0.0], [1e-300j, 3e-300],
                 [1e-310, 1e-310], [5e-324, 5e-324j]):
        assert StateVector.normalized(amps).norm == pytest.approx(
            1.0, abs=1e-15)
    for scale in SUBNORMAL_SCALES:
        assert TwoStateVector(scale * np.eye(2)).unit().hs_norm == \
            pytest.approx(1.0, abs=1e-15)
    np.testing.assert_array_equal(
        Projector.onto_state(StateVector([1e200, 0.0])).matrix,
        np.diag([1.0, 0.0]))
    rng = np.random.default_rng(8)
    for dim in (1, 2, 5, MAX_DIM):
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        assert StateVector(amps).norm == float(np.linalg.norm(amps))


def test_abl_matches_the_plain_rule_bit_for_bit():
    """Inside the safe range the ABL rule is |A_i|^2 / sum_j |A_j|^2 on
    the complex amplitudes, to the last bit."""
    rng = np.random.default_rng(9)
    for dim in (1, 2, 3, 8):
        m = random_measurement(dim, dim, [9, dim])
        v = TwoStateVector(rng.standard_normal((dim, dim))
                           + 1j * rng.standard_normal((dim, dim)))
        weights = np.abs(outcome_amplitudes(v, m)) ** 2
        np.testing.assert_array_equal(abl_probabilities(v, m).probabilities,
                                      weights / float(np.sum(weights)))


@pytest.mark.parametrize("seed", [-1, [-1, 0], [3, -2], 1.5])
def test_random_measurement_refuses_a_seed_numpy_cannot_take(seed):
    with pytest.raises(ShapeMismatchError, match="seed"):
        random_measurement(2, 2, seed)


def test_distribution_container():
    dist = OutcomeDistribution([0.25, 0.75])
    assert len(dist) == 2
    assert dist[1] == 0.75
    assert list(dist) == [0.25, 0.75]


def test_distribution_rejects_bad_probabilities():
    with pytest.raises(ShapeMismatchError):
        OutcomeDistribution([0.5, 0.6])
    with pytest.raises(ShapeMismatchError):
        OutcomeDistribution([-0.1, 1.1])
    with pytest.raises(ShapeMismatchError):
        OutcomeDistribution([np.nan, 1.0])
    with pytest.raises(ShapeMismatchError):
        OutcomeDistribution([])


# ---------------------------------------------------------------------------
# Random measurements
# ---------------------------------------------------------------------------

def test_random_measurement_deterministic_in_seed():
    a = random_measurement(4, 3, 7)
    b = random_measurement(4, 3, 7)
    c = random_measurement(4, 3, 8)
    for p, q in zip(a.projectors, b.projectors):
        np.testing.assert_array_equal(p.matrix, q.matrix)
    assert any(
        not np.array_equal(p.matrix, q.matrix)
        for p, q in zip(a.projectors, c.projectors)
    )


def test_random_measurement_accepts_seed_sequences():
    a = random_measurement(2, 2, [3, 1])
    b = random_measurement(2, 2, [3, 1])
    np.testing.assert_array_equal(a.projectors[0].matrix,
                                  b.projectors[0].matrix)


def per_trial_haar_draw(dim, k, seed):
    """One Haar-random measurement's (k, d, d) stack, drawn and built one
    matrix at a time: QR of a complex Gaussian, the phase fix, a column
    order, k - 1 cuts, and P_g = cols cols^dagger per column group."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    order = rng.permutation(dim)
    cuts = (np.sort(rng.choice(dim - 1, size=k - 1, replace=False) + 1)
            if k > 1 else np.array([], dtype=int))
    bounds = [0, *cuts.tolist(), dim]
    return np.array([q[:, order[a:b]] @ q[:, order[a:b]].conj().T
                     for a, b in zip(bounds[:-1], bounds[1:])])


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


@pytest.mark.parametrize("seed", [0, 7, [5, 3], 2 ** 40])
@pytest.mark.parametrize("dim, k", [(1, 1), (2, 1), (2, 2), (3, 2), (5, 5),
                                    (8, 4), (16, 5), (64, 2)])
def test_random_measurement_is_the_per_trial_haar_draw(dim, k, seed):
    """random_measurement gives, bit for bit, the measurement drawn and
    built one matrix at a time."""
    np.testing.assert_array_equal(
        bits(random_measurement(dim, k, seed)._stacked),
        bits(per_trial_haar_draw(dim, k, seed)))


@pytest.mark.parametrize("seed", [7, [7, 3]])
@pytest.mark.parametrize("dim, k", sorted({(d, k) for d in (1, 2, 3, 8, 64)
                                           for k in (1, 2, d) if k <= d}))
def test_random_stacks_equal_single_draws_bit_for_bit(dim, k, seed):
    """Trial t of a stacked draw on (seed, keys) is random_measurement of
    [seed, *keys[t]], to the last bit, whatever the other trials are."""
    trials = 3 if dim == 64 else 12
    keys = [(t,) for t in range(trials)] + [(1, 5), (0,)]
    stacks = measurement_module._random_stacks(dim, k, seed, keys)
    assert stacks.shape == (len(keys), k, dim, dim)
    assert not stacks.flags.writeable
    for key, stack in zip(keys, stacks):
        np.testing.assert_array_equal(
            bits(stack),
            bits(random_measurement(dim, k, [seed, *key])._stacked))


def test_random_stacks_check_their_arguments_before_drawing(monkeypatch):
    """A bad dimension or outcome count is refused before any seeding."""
    calls = []
    monkeypatch.setattr(measurement_module, "_rng",
                        lambda *a: calls.append(a))
    for dim, k in ((0, 1), (3, 4), (3, 0), (2.0, 1), (MAX_DIM + 1, 1)):
        with pytest.raises(ShapeMismatchError):
            measurement_module._random_stacks(dim, k, 0, [(0,)])
    assert calls == []


def test_random_measurement_ranks_partition_dimension():
    for dim in range(2, 6):
        for k in range(1, dim + 1):
            m = random_measurement(dim, k, 1000 * dim + k)
            assert m.num_outcomes == k
            assert sum(p.rank for p in m.projectors) == dim


def test_random_measurement_rejects_bad_outcome_count():
    with pytest.raises(ShapeMismatchError):
        random_measurement(3, 0, 0)
    with pytest.raises(ShapeMismatchError):
        random_measurement(3, 4, 0)


@pytest.mark.parametrize("dim, k", [(2.5, 1), (True, 1), (np.float64(2.0), 1),
                                    (2, 1.5), (2, True), (2, np.float64(1.0))])
def test_random_measurement_refuses_a_dimension_or_count_that_is_no_integer(
        dim, k):
    with pytest.raises(ShapeMismatchError, match="must be an integer"):
        random_measurement(dim, k, 0)
    assert random_measurement(np.int64(2), np.int32(1), 0).dim == 2


# ---------------------------------------------------------------------------
# The one measurement rule
# ---------------------------------------------------------------------------

def reference_fault(mats):
    """The measurement rule as an independent loop over numpy matrices:
    (error class, index or pair) of the first violation, or None."""
    for i, p in enumerate(mats):
        if not np.max(np.abs(p - p.conj().T)) <= DEFAULT_TOL:
            return NotHermitianError, i
    for i, p in enumerate(mats):
        if not np.max(np.abs(p @ p - p)) <= DEFAULT_TOL:
            return NotIdempotentError, i
    for i, p in enumerate(mats):
        if round(np.trace(p).real) < 1:
            return MeasurementValidationError, i
    for i, j in itertools.combinations(range(len(mats)), 2):
        if not np.max(np.abs(mats[i] @ mats[j])) <= DEFAULT_TOL:
            return NotOrthogonalError, (i, j)
    if not np.max(np.abs(sum(mats) - np.eye(len(mats[0])))) <= DEFAULT_TOL:
        return NotCompleteError, None
    return None


def library_fault(mats):
    try:
        validate_measurement(mats)
    except MeasurementValidationError as err:
        return type(err), err.pair if err.pair is not None else err.index
    return None


def unitary_blocks(d, k, rng):
    """k nonempty blocks of orthonormal columns of a random unitary."""
    q = np.linalg.qr(rng.standard_normal((d, d))
                     + 1j * rng.standard_normal((d, d)))[0]
    cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
    return np.split(q, cuts, axis=1)


def inject(kind, blocks, size, rng):
    """Projectors of ``blocks`` with one fault of ``kind``; the sized kinds
    get a largest defect of about ``size``.  Returns the matrices and the
    (class, index or pair) the fault should raise."""
    mats = [b @ b.conj().T for b in blocks]
    d, i = len(mats[0]), int(rng.integers(len(mats)))
    if kind == "hermitian":
        a = int(rng.integers(d))
        mats[i] = mats[i].copy()
        mats[i][a, a] += 0.5j * size          # P^dagger - P = -i size at (a, a)
        return mats, (NotHermitianError, i)
    if kind == "idempotent":
        v = blocks[i][:, 0]
        vv = np.outer(v, v.conj())            # P + c vv^+ squares to P + (2c + c^2) vv^+
        mats[i] = mats[i] + size / np.max(np.abs(vv)) * vv
        return mats, (NotIdempotentError, i)
    if kind == "orthogonal":
        i, j = sorted(int(x) for x in rng.choice(len(mats), 2, replace=False))
        u, v = blocks[i][:, 0], blocks[j][:, 0]
        uv = np.outer(u, v.conj())            # (P_i + c(uv^+ + vu^+)) P_j = c uv^+
        mats[i] = mats[i] + size / np.max(np.abs(uv)) * (uv + uv.conj().T)
        return mats, (NotOrthogonalError, (i, j))
    # The structural faults have no size: an outcome of rank 0, or one
    # missing, is refused however small the rest of the error.
    if kind == "rank0":
        i = int(rng.integers(len(mats) + 1))
        mats.insert(i, np.zeros((d, d)))
        return mats, (MeasurementValidationError, i)
    del mats[i]
    return mats, (NotCompleteError, None)


FAULTS = ("hermitian", "idempotent", "rank0", "orthogonal", "complete")


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       d=st.sampled_from([*range(1, 9), MAX_DIM]),
       kind=st.sampled_from(FAULTS), data=st.data())
def test_one_rule_matches_reference(seed, d, kind, data):
    """One fault at 10 (and 2) tol raises its class at the reference's
    index or pair; at 0.1 (and 0.45) tol a sized fault is accepted.  The
    inner sizes pin the tolerance within a factor of about two: for an
    orthogonality fault the completeness defect can reach twice its size."""
    two = kind in ("orthogonal", "complete")
    assume(d >= 2 or not two)
    k = data.draw(st.integers(2 if two else 1, min(d, 8)))
    blocks = unitary_blocks(d, k, np.random.default_rng([seed, 0]))
    for scale in (10.0, 2.0, 0.45, 0.1):
        mats, expected = inject(kind, blocks, scale * DEFAULT_TOL,
                                np.random.default_rng([seed, 1]))
        reference = reference_fault(mats)
        assert library_fault(mats) == reference
        if scale > 1.0 or kind in ("rank0", "complete"):
            assert reference == expected
        else:
            assert reference is None


def test_projectors_are_read_only_views_of_the_stack():
    for m in (DIAGONAL, random_measurement(MAX_DIM, 5, 1),
              validate_measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])):
        for p, row in zip(m.projectors, m._stacked):
            assert np.shares_memory(p.matrix, m._stacked)
            np.testing.assert_array_equal(p.matrix, row)
            assert not p.matrix.flags.writeable


def test_every_builder_checks_one_stack(monkeypatch):
    """The four entry points of outside matrices reach the rule once, on
    the (k, d, d) stack, and build no intermediate Projector (which would
    check its own matrix); the five builders of a unitary frame, valid by
    construction, never reach it."""
    shapes = []
    check = measurement_module._check_projectors
    monkeypatch.setattr(measurement_module, "_check_projectors",
                        lambda stack: shapes.append(stack.shape) or check(stack))
    outside = [
        lambda: Measurement((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
        lambda: validate_measurement([np.diag([1.0, 0.0]),
                                      np.diag([0.0, 1.0])]),
        lambda: Measurement.from_json(DIAGONAL.to_json()),
        lambda: measurement_from_basis_grouping([KET0, KET1], [[0], [1]]),
    ]
    trusted = [
        lambda: random_measurement(4, 3, 0),
        lambda: measurement_from_observable(np.diag([1.0, 2.0, 2.0])),
        lambda: Measurement.trivial(3),
        lambda: find_story_measurement(E01).measurement,
        lambda: Projector.onto_state(PLUS),
    ]
    for build in outside:
        shapes.clear()
        build()
        assert shapes == [(2, 2, 2)]
    for build in trusted:
        shapes.clear()
        build()
        assert shapes == []


def assert_the_rule_accepts(m):
    """The measurement rule, the reference, accepts a trusted build and
    stores the same stack, bit for bit, and the same labels."""
    again = Measurement(m.projectors, m.labels)
    assert again._stacked.shape == m._stacked.shape
    assert again._stacked.tobytes() == m._stacked.tobytes()
    assert again.labels == m.labels


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, MAX_DIM), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_random_measurements_pass_the_rule(dim, seed, data):
    k = data.draw(st.integers(1, dim))
    assert_the_rule_accepts(random_measurement(dim, k, seed))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       spectrum=st.lists(st.integers(-2, 2), min_size=1, max_size=12),
       log_scale=st.floats(-300.0, 300.0))
def test_observable_measurements_pass_the_rule(seed, spectrum, log_scale):
    """Degenerate spectra (repeated integer eigenvalues) in a random
    eigenframe, at scales 1e-300 to 1e300."""
    d = len(spectrum)
    u = unitary_blocks(d, 1, np.random.default_rng(seed))[0]
    h = (u * np.array(spectrum, dtype=float)) @ u.conj().T
    h = 10.0 ** log_scale * (h + h.conj().T) / 2
    assert_the_rule_accepts(measurement_from_observable(h))


@pytest.mark.parametrize("dim", [1, 2, 3, MAX_DIM])
def test_trivial_measurements_pass_the_rule(dim):
    assert_the_rule_accepts(Measurement.trivial(dim))


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2, 3, MAX_DIM]),
       seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["any", "antisymmetric", "zero diagonal"]))
def test_story_witness_measurements_pass_the_rule(dim, seed, shape):
    """Every witness case: a random matrix, an antisymmetric one and one
    with a zero diagonal; the witness projector passes the projector
    rule."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if shape == "antisymmetric":
        a = a - a.T
    elif shape == "zero diagonal":
        np.fill_diagonal(a, 0.0)
    assume(np.any(a))
    cert = find_story_measurement(TwoStateVector(a))
    assert_the_rule_accepts(cert.measurement)
    p = Projector.onto_state(cert.witness).matrix
    assert Projector(p).matrix.tobytes() == p.tobytes()


NAN_PROJECTORS = [np.array([[1.0, np.nan], [np.nan, 0.0]]), np.diag([0.0, 1.0])]


def test_non_finite_entries_are_refused():
    with pytest.raises(NotHermitianError) as exc:
        validate_measurement(NAN_PROJECTORS)
    assert exc.value.index == 0
    with pytest.raises(NotHermitianError) as exc:
        validate_measurement([np.diag([1.0, 0.0]), np.diag([0.0, np.inf])])
    assert exc.value.index == 1
    with pytest.raises(NotHermitianError) as exc:
        validate_measurement([np.full((2, 2), np.nan)])
    assert exc.value.index == 0
    with pytest.raises(NotHermitianError):
        Measurement.from_json({"dim": 2, "projectors": [
            matrix_to_json(p) for p in NAN_PROJECTORS]})


@pytest.mark.parametrize("build", [
    lambda: Measurement.trivial(MAX_DIM + 1),
    lambda: validate_measurement([np.eye(MAX_DIM + 1)]),
    lambda: random_measurement(80, 2, 0),
    lambda: measurement_from_observable(np.diag(np.arange(66.0))),
    lambda: Measurement.trivial(0),
    lambda: Measurement.trivial(-1),
    lambda: validate_measurement([np.zeros((0, 0))]),
    # Refused before any d x d array exists (10**6 x 10**6 would not fit).
    lambda: Measurement.trivial(10**6),
    lambda: random_measurement(10**6, 2, 0),
])
def test_dimension_outside_1_to_max_dim_is_refused(build):
    with pytest.raises(ShapeMismatchError, match="dimension"):
        build()


def json_digest(m):
    return hashlib.sha256(json.dumps(m.to_json(), sort_keys=True)
                          .encode()).hexdigest()


# Taken before the measurement rule moved onto the stack: the projector
# bytes every builder stores did not change.
BUNDLED_MEASUREMENT_SHA256 = {
    "circular":
        "972a83b66bba174026e48d8243d82da3556738f8052a36dfed6d310feb5a50f1",
    "computational":
        "c6ac6ff68d0faba352c7deb314d4f9e3a2fac9bcb1a04e9fbe141b90881f075a",
    "diagonal":
        "ca243fda90a4c07e58792c1422b107aa1a5bb4be8c2e7e75b0ed90f5a5d5c4be",
    "identity_qubit":
        "78364e04bf637a79c2568e5a1d8be50cf575dfaf207dee1b8f43ee3d2a4e169b",
    "identity_qutrit":
        "4abf1ba3eef7deab11e0c2f67b3e1ecaadd34f08f76b4422ce9eedd2e25b40e1",
    "qutrit_family_1":
        "88e2c51ed5c5d7b6bc150e913762a44f0cd66874ddc178669ee6b8de22f2d98f",
    "qutrit_family_2":
        "8d97b9d09945a3b8b98e2f27c3b950775fd370ab9b3c60a59d0cef9cb512f3f8",
    "qutrit_family_3":
        "88093856b72b772aeffb6abece99dc366409654153dcf2867552f543678e5269",
    "qutrit_family_4":
        "169b918a00aac0de150f69bbb6774cf113aec9ae25d296253ce8b5004aa6dd9e",
}

RANDOM_MEASUREMENT_SHA256 = {
    (1, 1, 0):
        "8fbf2f88b2f2ed1f89f16af5c91df6ff759dc09aaf7dcd39ab3e7ae7c57e2ba3",
    (2, 1, 1):
        "0729198474ff3a2330f52a12c9f9cdf44e2728f1b05629d94bc99985fd4dca9d",
    (2, 2, 2):
        "301b03e67138aa8fe706867b1e447c8c08fefc12d580eafba85ccd3a62c37944",
    (3, 2, 3):
        "f1e06e5970fb81279d62a0c075684dc2af7f10091da350d3a7da2318877f15e2",
    (4, 3, 4):
        "0cf408e952578f735d8e72997f43176014d16100c1d630c09f99f5270f27b8bb",
    (8, 5, 5):
        "dc7fc19b9a7a07810941fea056c70029bed3266249b163f3d2a3717a5fbc6824",
    (16, 7, 6):
        "28624189da0d97a4d6c82053f26fda80c6b0af680b249a166f7d7961c320cdcb",
    (33, 12, 7):
        "ea89ec90668f13906d83b47d91cb04d9bd7273e6ddf6be4bb2cd7b552f8e42fc",
    (64, 2, 8):
        "bbdb7d25ea54f6decd9e6cd8b707e891a89491dbc374cebf5e35e94584ba7aed",
    (64, 64, 9):
        "5c9d11c6020161c3be2186a8da59f75aef3edb21c0bb274b0d99b9285446fbae",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_MEASUREMENT_SHA256))
def test_bundled_measurement_json_is_pinned(name):
    m = builtin_workspace().measurement(name)
    assert json_digest(m) == BUNDLED_MEASUREMENT_SHA256[name]


@pytest.mark.parametrize("dim,k,seed", sorted(RANDOM_MEASUREMENT_SHA256))
def test_random_measurement_json_is_pinned(dim, k, seed):
    digest = json_digest(random_measurement(dim, k, seed))
    assert digest == RANDOM_MEASUREMENT_SHA256[(dim, k, seed)]
