"""Core twin-space algebra: constructors, inner product, time reversal,
Schmidt decomposition, JSON codecs."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinspace
from twinspace import (
    DimensionMismatchError,
    SchmidtDecomposition,
    ShapeMismatchError,
    StateVector,
    TwoStateVector,
    ZeroVectorError,
    hs_inner,
    is_separable,
    schmidt,
    time_reverse,
    trace_functional,
)

RNG = np.random.default_rng(20230817)

INV_SQRT2 = 2.0 ** -0.5


def random_two_state(dim, rng=RNG):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return TwoStateVector(m)


# ---------------------------------------------------------------------------
# StateVector
# ---------------------------------------------------------------------------

def test_state_vector_rejects_zero():
    with pytest.raises(ZeroVectorError):
        StateVector(np.zeros(3))


def test_state_vector_rejects_non_finite():
    with pytest.raises(ZeroVectorError):
        StateVector([1.0, np.nan])
    with pytest.raises(ZeroVectorError):
        StateVector([np.inf, 0.0])


def test_state_vector_rejects_matrix_input():
    with pytest.raises(ShapeMismatchError):
        StateVector(np.eye(2))
    with pytest.raises(ShapeMismatchError, match="ragged"):
        StateVector([1.0, [0.0, 1.0]])


def test_state_vector_is_read_only():
    s = StateVector([1.0, 2.0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 5.0


def test_state_vector_normalized():
    s = StateVector.normalized([3.0, 4.0j])
    assert s.norm == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(s.amplitudes, [0.6, 0.8j])


def test_basis_state():
    s = StateVector.basis_state(4, 2)
    np.testing.assert_array_equal(s.amplitudes, [0, 0, 1, 0])
    with pytest.raises(ShapeMismatchError):
        StateVector.basis_state(4, 4)


# ---------------------------------------------------------------------------
# TwoStateVector
# ---------------------------------------------------------------------------

def test_two_state_vector_requires_square():
    with pytest.raises(ShapeMismatchError):
        TwoStateVector(np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError, match="ragged"):
        TwoStateVector([[1.0, 0.0], [0.0]])


def test_two_state_vector_rejects_zero():
    with pytest.raises(ZeroVectorError):
        TwoStateVector(np.zeros((2, 2)))


def test_separable_is_outer_product():
    ket = StateVector([1.0, 2.0j])
    bra = StateVector([3.0, -1.0j])
    v = TwoStateVector.separable(ket, bra)
    np.testing.assert_allclose(
        v.matrix, np.outer(ket.amplitudes, bra.amplitudes.conj())
    )


def test_separable_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        TwoStateVector.separable(StateVector([1.0, 0]), StateVector([1.0, 0, 0]))


def test_from_pairs_superposes():
    k0, k1 = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
    v = TwoStateVector.from_pairs([(0.5, k0, k0), (-0.5j, k1, k0)])
    np.testing.assert_allclose(v.matrix, [[0.5, 0.0], [-0.5j, 0.0]])


def test_from_pairs_rejects_cancellation():
    k0 = StateVector.basis_state(2, 0)
    with pytest.raises(ZeroVectorError):
        TwoStateVector.from_pairs([(1.0, k0, k0), (-1.0, k0, k0)])
    with pytest.raises(ZeroVectorError):
        TwoStateVector.from_pairs([])


def test_unit_rescales():
    v = TwoStateVector(np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert v.unit().hs_norm == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt inner product and trace functional
# ---------------------------------------------------------------------------

def test_hs_inner_matrix_units():
    e00 = TwoStateVector(np.array([[1.0, 0], [0, 0]]))
    e01 = TwoStateVector(np.array([[0, 1.0], [0, 0]]))
    assert hs_inner(e00, e00) == pytest.approx(1.0)
    assert hs_inner(e00, e01) == pytest.approx(0.0)


def test_hs_inner_identity_against_unit():
    # <<1/sqrt(2) | e00>> = Tr((1/sqrt 2) e00) = 1/sqrt(2)
    ident = TwoStateVector(np.eye(2) / np.sqrt(2.0))
    e00 = TwoStateVector.separable(
        StateVector.basis_state(2, 0), StateVector.basis_state(2, 0)
    )
    assert hs_inner(ident, e00) == pytest.approx(INV_SQRT2, abs=1e-15)


def test_hs_inner_separable_factorizes():
    """<< |a><b| , |c><d| >> = <a|c> <d|b>."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c, d = (
            StateVector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            for _ in range(4)
        )
        lhs = hs_inner(TwoStateVector.separable(a, b),
                       TwoStateVector.separable(c, d))
        rhs = (np.vdot(a.amplitudes, c.amplitudes)
               * np.vdot(d.amplitudes, b.amplitudes))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_hs_inner_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        hs_inner(random_two_state(2), random_two_state(3))


def test_trace_functional_is_transition_amplitude():
    psi = StateVector.normalized([1.0, 1.0j, 0.0])
    phi = StateVector.normalized([1.0, 0.0, 1.0])
    v = TwoStateVector.separable(psi, phi)
    assert trace_functional(v) == pytest.approx(
        np.vdot(phi.amplitudes, psi.amplitudes), abs=1e-15
    )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6))
def test_hs_inner_conjugate_symmetry(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_two_state(dim, rng)
    b = random_two_state(dim, rng)
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)), abs=1e-10)
    norm_sq = hs_inner(a, a)
    assert norm_sq.imag == pytest.approx(0.0, abs=1e-12)
    assert norm_sq.real == pytest.approx(a.hs_norm**2, rel=1e-12)


# ---------------------------------------------------------------------------
# Time reversal
# ---------------------------------------------------------------------------

def test_time_reverse_is_involution():
    v = random_two_state(4)
    np.testing.assert_array_equal(time_reverse(time_reverse(v)).matrix, v.matrix)


def test_time_reverse_swaps_pre_and_post():
    a = StateVector.normalized([1.0, 2.0j])
    b = StateVector.normalized([1.0, -1.0])
    fwd = TwoStateVector.separable(a, b)
    np.testing.assert_allclose(
        time_reverse(fwd).matrix, TwoStateVector.separable(b, a).matrix,
        atol=1e-15,
    )


def test_time_reverse_is_antilinear():
    v = random_two_state(3)
    c = 0.7 - 1.3j
    scaled = TwoStateVector(c * v.matrix)
    np.testing.assert_allclose(
        time_reverse(scaled).matrix,
        np.conj(c) * time_reverse(v).matrix,
        atol=1e-15,
    )


def test_time_reverse_conjugates_trace():
    v = random_two_state(5)
    assert trace_functional(time_reverse(v)) == pytest.approx(
        np.conj(trace_functional(v)), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Schmidt decomposition and separability
# ---------------------------------------------------------------------------

def test_schmidt_reconstructs_matrix():
    v = random_two_state(4)
    dec = schmidt(v)
    assert isinstance(dec, SchmidtDecomposition)
    recon = sum(
        c * np.outer(l.amplitudes, r.amplitudes.conj())
        for c, l, r in zip(dec.coefficients, dec.left, dec.right)
    )
    np.testing.assert_allclose(recon, v.matrix, atol=1e-12)


def test_schmidt_coefficients_descending_and_normed():
    v = random_two_state(5)
    dec = schmidt(v)
    assert np.all(np.diff(dec.coefficients) <= 0)
    assert np.sum(dec.coefficients**2) == pytest.approx(v.hs_norm**2, rel=1e-12)


def test_schmidt_vectors_orthonormal():
    dec = schmidt(random_two_state(4))
    lmat = np.column_stack([s.amplitudes for s in dec.left])
    rmat = np.column_stack([s.amplitudes for s in dec.right])
    np.testing.assert_allclose(lmat.conj().T @ lmat, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(rmat.conj().T @ rmat, np.eye(4), atol=1e-12)


def test_schmidt_rank_on_known_cases():
    e01 = TwoStateVector(np.array([[0, 1.0], [0, 0]]))
    ident = TwoStateVector(np.eye(2) / np.sqrt(2.0))
    signed = TwoStateVector(np.diag([1.0, 1.0, -1.0]) / np.sqrt(3.0))
    assert schmidt(e01).rank() == 1
    assert schmidt(ident).rank() == 2
    assert schmidt(signed).rank() == 3


def test_is_separable():
    assert is_separable(TwoStateVector(np.array([[0, 1.0], [0, 0]])))
    assert not is_separable(TwoStateVector(np.eye(2) / np.sqrt(2.0)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
def test_separable_always_rank_one(seed, dim):
    rng = np.random.default_rng(seed)
    ket = StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    bra = StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    assert is_separable(TwoStateVector.separable(ket, bra))


def test_is_separable_scale_invariant():
    v = random_two_state(3)
    scaled = TwoStateVector(1e-6j * v.matrix)
    assert is_separable(v) == is_separable(scaled)


def test_no_function_takes_a_tolerance():
    """Every rule compares at the constant DEFAULT_TOL: no function, method
    or dataclass field of the package is a settable tolerance."""
    for info in pkgutil.iter_modules(twinspace.__path__):
        module = importlib.import_module(f"twinspace.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            funcs = ([f for f in vars(obj).values() if inspect.isfunction(f)]
                     if inspect.isclass(obj) else [obj])
            for f in filter(inspect.isfunction, funcs):
                assert not any("tol" in p for p in
                               inspect.signature(f).parameters), f


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_state_vector_json_round_trip():
    s = StateVector([0.1, -0.25j, 1.0 / 3.0])
    back = StateVector.from_json(s.to_json())
    np.testing.assert_array_equal(back.amplitudes, s.amplitudes)


def test_two_state_vector_json_round_trip():
    v = random_two_state(3)
    back = TwoStateVector.from_json(v.to_json())
    np.testing.assert_array_equal(back.matrix, v.matrix)


def test_json_declared_dim_must_match():
    obj = StateVector([1.0, 0.0]).to_json()
    obj["dim"] = 3
    with pytest.raises(ShapeMismatchError):
        StateVector.from_json(obj)
