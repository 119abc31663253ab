"""Projective measurements, outcome amplitudes, story predicate, ABL rule."""

import numpy as np
import pytest

from twinspace import (
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
    forms_story,
    measurement_from_basis_grouping,
    measurement_from_observable,
    outcome_amplitudes,
    random_measurement,
    validate_measurement,
)

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
    with pytest.raises(NotHermitianError):
        Projector(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_projector_rejects_non_idempotent():
    with pytest.raises(NotIdempotentError):
        Projector(0.5 * np.eye(2))


def test_projector_rank():
    assert Projector(np.eye(3)).rank == 3
    assert Projector(np.diag([1.0, 0.0, 1.0])).rank == 2


def test_onto_state_normalizes_input():
    p = Projector.onto_state(StateVector([2.0, 2.0]))
    np.testing.assert_allclose(p.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_projector_tolerance_is_adjustable():
    nearly = np.array([[1.0, 1e-4], [1e-4, 0.0]])  # idempotency defect ~1e-8
    with pytest.raises(NotIdempotentError):
        Projector(nearly)
    Projector(nearly, tol=1e-6)  # accepted under a loose tolerance


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


def test_measurement_rejects_mixed_dims():
    with pytest.raises(DimensionMismatchError):
        Measurement((Projector(np.eye(2)), Projector(np.eye(3))))


def test_trivial_measurement():
    m = Measurement.trivial(3)
    assert m.num_outcomes == 1
    np.testing.assert_array_equal(m.projectors[0].matrix, np.eye(3))


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


def test_observable_constant_spectrum_is_trivial():
    m = measurement_from_observable(2.5 * np.eye(3))
    assert m.num_outcomes == 1


def test_observable_must_be_hermitian():
    with pytest.raises(NotHermitianError):
        measurement_from_observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


def test_abl_scale_invariant():
    rng = np.random.default_rng(5)
    v = TwoStateVector(rng.standard_normal((3, 3))
                       + 1j * rng.standard_normal((3, 3)))
    m = random_measurement(3, 2, 99)
    base = abl_probabilities(v, m).probabilities
    scaled = abl_probabilities(TwoStateVector((1e-7 - 2e3j) * v.matrix), m)
    np.testing.assert_allclose(scaled.probabilities, base, atol=1e-12)


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
