"""Story construction for arbitrary vectors; null subspaces of measurements."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinspace import (
    MAX_DIM,
    KernelDimensionError,
    Measurement,
    NotAStoryError,
    NullSubspace,
    StoryCase,
    TwoStateVector,
    abl_probabilities,
    builtin_workspace,
    find_story_measurement,
    forms_story,
    is_traceless,
    membership_in_null,
    null_subspace,
    outcome_amplitudes,
    random_measurement,
    trace_functional,
)

RNG = np.random.default_rng(411)


def random_two_state(dim, rng=RNG):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return TwoStateVector(m)


def random_null_member(ns, rng=RNG):
    """A random linear combination of the null-subspace basis."""
    coeffs = rng.standard_normal(ns.dim) + 1j * rng.standard_normal(ns.dim)
    mat = sum(c * b.matrix for c, b in zip(coeffs, ns.basis))
    return TwoStateVector(mat)


# ---------------------------------------------------------------------------
# Witness construction: the three cases
# ---------------------------------------------------------------------------

def test_diagonal_case():
    v = TwoStateVector(np.diag([0.0, 3.0j, 0.0]))
    cert = find_story_measurement(v)
    assert cert.case is StoryCase.DIAGONAL
    np.testing.assert_array_equal(cert.witness.amplitudes, [0, 1, 0])
    assert cert.amplitude_magnitude == pytest.approx(3.0, abs=1e-12)


def test_antisymmetric_case():
    v = TwoStateVector(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    cert = find_story_measurement(v)
    assert cert.case is StoryCase.ANTISYMMETRIC
    # witness (|0> + i|1>)/sqrt(2) picks up the full off-diagonal weight
    np.testing.assert_allclose(cert.witness.amplitudes,
                               [2.0**-0.5, 1j * 2.0**-0.5], atol=1e-15)
    assert cert.amplitude_magnitude == pytest.approx(2.0, abs=1e-12)


def test_symmetric_offdiagonal_case():
    v = TwoStateVector(np.array([[0.0, 1.0], [0.0, 0.0]]))  # |0> (x) <1|
    cert = find_story_measurement(v)
    assert cert.case is StoryCase.SYMMETRIC_OFFDIAG
    np.testing.assert_allclose(np.abs(cert.witness.amplitudes),
                               [2.0**-0.5, 2.0**-0.5], atol=1e-15)
    assert cert.amplitude_magnitude == pytest.approx(0.5, abs=1e-12)


def test_certificate_measurement_forms_story():
    for trial in range(200):
        dim = 2 + trial % 5
        v = random_two_state(dim)
        cert = find_story_measurement(v)
        assert forms_story(v, cert.measurement)
        amp = abs(outcome_amplitudes(v, cert.measurement)[0])
        assert cert.amplitude_magnitude == pytest.approx(amp, rel=1e-12)


def test_certificate_on_traceless_vectors():
    """Traceless input exercises the off-diagonal branches."""
    for trial in range(100):
        dim = 2 + trial % 4
        m = RNG.standard_normal((dim, dim)) + 1j * RNG.standard_normal((dim, dim))
        np.fill_diagonal(m, 0.0)
        cert = find_story_measurement(TwoStateVector(m))
        assert cert.case in (StoryCase.ANTISYMMETRIC,
                             StoryCase.SYMMETRIC_OFFDIAG)
        assert forms_story(TwoStateVector(m), cert.measurement)


def test_dimension_one_story():
    v = TwoStateVector(np.array([[2.0j]]))
    cert = find_story_measurement(v)
    assert cert.case is StoryCase.DIAGONAL
    assert cert.measurement.num_outcomes == 1
    assert cert.amplitude_magnitude == pytest.approx(2.0)


def test_find_story_builds_no_measurement(monkeypatch):
    """The certificate amplitude is read off the witness projector alone;
    the measurement is built only when asked for."""
    def refuse(self):
        raise AssertionError("find_story_measurement built a Measurement")

    v = random_two_state(4)
    monkeypatch.setattr(Measurement, "__post_init__", refuse)
    cert = find_story_measurement(v)
    monkeypatch.undo()
    amp = abs(outcome_amplitudes(v, cert.measurement)[0])
    assert cert.amplitude_magnitude == amp


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
def test_story_certificate_total(seed, dim):
    rng = np.random.default_rng(seed)
    v = random_two_state(dim, rng)
    cert = find_story_measurement(v)
    assert cert.amplitude_magnitude > 1e-8 * v.hs_norm


# ---------------------------------------------------------------------------
# Traceless predicate
# ---------------------------------------------------------------------------

def test_is_traceless():
    assert is_traceless(TwoStateVector(np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert is_traceless(TwoStateVector(np.diag([1.0, -1.0])))
    assert not is_traceless(TwoStateVector(np.eye(2)))


def test_non_traceless_forms_story_with_every_measurement():
    v = TwoStateVector(np.diag([1.0, 1.0 + 0.5j, -0.5]))
    for k in (1, 2, 3):
        for seed in range(20):
            assert forms_story(v, random_measurement(3, k, [41, k, seed]))


# ---------------------------------------------------------------------------
# Null subspaces
# ---------------------------------------------------------------------------

def test_null_dimension_law_small():
    for dim in range(2, 5):
        for k in range(1, dim + 1):
            for seed in range(5):
                m = random_measurement(dim, k, [17, dim, k, seed])
                assert null_subspace(m).dim == dim * dim - k
                # measured: the k constraint rows v -> Tr(P_i v) have rank k
                rows = np.stack([p.matrix.T.ravel() for p in m.projectors])
                assert np.linalg.matrix_rank(rows) == k


@pytest.mark.parametrize("k", [1, MAX_DIM // 2, MAX_DIM])
def test_null_dimension_and_membership_need_no_svd(monkeypatch, k):
    """dim is the law dim^2 - k and membership the negated story rule: at
    MAX_DIM neither runs the d^2 x d^2 SVD behind the basis, which a bare
    NullSubspace defers and null_subspace computes."""
    m = random_measurement(MAX_DIM, k, [19, k])

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    ns = NullSubspace(m)
    assert ns.dim == MAX_DIM ** 2 - k
    assert not membership_in_null(TwoStateVector(np.eye(MAX_DIM)), ns)
    assert membership_in_null(near_threshold_vector(m, k, 0.0), ns)
    with pytest.raises(AssertionError, match="svd"):
        ns.basis
    with pytest.raises(AssertionError, match="svd"):
        null_subspace(m)


def test_null_dimension_one_outcome():
    ns = null_subspace(random_measurement(3, 1, 0))
    assert ns.dim == 8  # the traceless vectors


def test_null_trivial_dimension_one():
    m = random_measurement(1, 1, 0)
    ns = null_subspace(m)
    assert ns.dim == 0
    assert not membership_in_null(TwoStateVector(np.array([[1.0]])), ns)


def test_null_basis_is_orthonormal_and_storyless():
    m = random_measurement(4, 3, 21)
    ns = null_subspace(m)
    flat = np.stack([b.matrix.reshape(-1) for b in ns.basis])
    np.testing.assert_allclose(flat @ flat.conj().T, np.eye(ns.dim),
                               atol=1e-12)
    for b in ns.basis:
        assert not forms_story(b, m)
        assert membership_in_null(b, ns)


def test_null_basis_vectors_are_frozen_matrices():
    """The basis shares one block instead of copying per vector; each
    vector must still hold a read-only C-contiguous complex matrix."""
    ns = null_subspace(random_measurement(3, 2, 22))
    for b in ns.basis:
        assert b.matrix.dtype == np.complex128
        assert b.matrix.shape == (3, 3)
        assert b.matrix.flags.c_contiguous
        assert not b.matrix.flags.writeable
        with pytest.raises(ValueError):
            b.matrix[0, 0] = 1.0


def test_null_membership_closed_under_combinations():
    m = random_measurement(3, 2, 33)
    ns = null_subspace(m)
    for _ in range(25):
        v = random_null_member(ns)
        assert membership_in_null(v, ns)
        assert not forms_story(v, m)


def test_membership_fails_off_the_subspace():
    m = random_measurement(3, 2, 34)
    ns = null_subspace(m)
    inside = random_null_member(ns)
    outside = random_two_state(3)  # generic: forms a story
    assert forms_story(outside, m)
    assert not membership_in_null(outside, ns)
    mixed = TwoStateVector(inside.matrix + 0.1 * outside.matrix)
    assert not membership_in_null(mixed, ns)


def test_membership_agrees_with_story_predicate():
    """Membership implies no story; generic non-members form stories."""
    for seed in range(30):
        dim = 2 + seed % 3
        k = 1 + seed % dim
        m = random_measurement(dim, k, [55, seed])
        ns = null_subspace(m)
        if ns.dim:
            u = random_null_member(ns)
            assert not forms_story(u, m)
        w = random_two_state(dim)
        assert membership_in_null(w, ns) == (not forms_story(w, m))


def test_storyless_vectors_are_traceless():
    for seed in range(20):
        m = random_measurement(3, 2, [70, seed])
        ns = null_subspace(m)
        for b in ns.basis:
            assert is_traceless(b)
        assert is_traceless(random_null_member(ns))


def test_membership_dim_mismatch():
    ns = null_subspace(random_measurement(2, 2, 0))
    with pytest.raises(KernelDimensionError):
        membership_in_null(random_two_state(3), ns)


def test_trace_is_sum_of_outcome_amplitudes():
    """The trace functional decomposes over any measurement's outcomes."""
    for seed in range(10):
        v = random_two_state(4)
        m = random_measurement(4, 1 + seed % 4, [88, seed])
        amps = outcome_amplitudes(v, m)
        assert np.sum(amps) == pytest.approx(trace_functional(v), abs=1e-12)


# ---------------------------------------------------------------------------
# One story predicate: abl, forms_story and membership agree near tolerance
# ---------------------------------------------------------------------------

#: max |A_i| = 8e-11 sits below tol * ||v|| = 1e-10 while the l2 norm of the
#: amplitudes (1.13e-10) sits above it.
NEAR_THRESHOLD = np.array([[8e-11, 1.0], [0.0, 8e-11]])


def near_threshold_vector(m, seed, eps):
    """A unit null member of ``m`` plus ``eps`` times a unit generic vector.

    The null member is a generic matrix minus its components along the
    projectors, which are mutually orthogonal with Tr(P_i P_i) = rank P_i.
    """
    rng = np.random.default_rng(seed)
    d = m.dim
    g, h = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(2))
    amps = outcome_amplitudes(TwoStateVector(h), m)
    null = h - sum(a / p.rank * p.matrix for a, p in zip(amps, m.projectors))
    if d > 1:
        null /= np.linalg.norm(null)
    else:
        null = np.zeros((1, 1))
    return TwoStateVector(null + eps * g / np.linalg.norm(g))


def abl_raises(v, m):
    try:
        abl_probabilities(v, m)
    except NotAStoryError:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       k=st.integers(1, 6), log_eps=st.floats(-12.0, -8.0))
def test_one_story_predicate_near_threshold(seed, dim, k, log_eps):
    m = random_measurement(dim, min(k, dim), [97, seed])
    v = near_threshold_vector(m, seed, 10.0 ** log_eps)
    raised = abl_raises(v, m)
    assert raised == (not forms_story(v, m))
    assert raised == membership_in_null(v, null_subspace(m))


@lru_cache(maxsize=None)
def max_dim_measurement(k):
    return random_measurement(MAX_DIM, k, [98, k])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, MAX_DIM]),
       log_eps=st.floats(-12.0, -8.0))
def test_one_story_predicate_near_threshold_max_dim(seed, k, log_eps):
    m = max_dim_measurement(k)
    v = near_threshold_vector(m, seed, 10.0 ** log_eps)
    assert abl_raises(v, m) == (not forms_story(v, m))


def test_near_threshold_example():
    v = TwoStateVector(NEAR_THRESHOLD)
    m = builtin_workspace().measurement("computational")
    assert not forms_story(v, m)
    assert abl_raises(v, m)
    assert membership_in_null(v, null_subspace(m))


def test_near_threshold_inputs_reach_both_verdicts():
    """The epsilon range of the property tests straddles the threshold."""
    m = random_measurement(4, 3, 5)
    verdicts = {forms_story(near_threshold_vector(m, 0, eps), m)
                for eps in (1e-12, 1e-8)}
    assert verdicts == {True, False}
