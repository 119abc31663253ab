"""Core twin-space algebra: constructors, inner product, time reversal,
Schmidt decomposition, JSON codecs."""

import dataclasses
import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinspace
from twinspace import (
    DimensionMismatchError,
    FeasibilityReport,
    FeasibilityVerdict,
    Measurement,
    MixtureExperiment,
    OutcomeDistribution,
    PrePostExperiment,
    Projector,
    SchmidtDecomposition,
    ShapeMismatchError,
    StateVector,
    TwoStateVector,
    TrialLog,
    ZeroVectorError,
    abl_probabilities,
    empirical_distribution,
    find_story_measurement,
    hs_inner,
    is_separable,
    measurement_from_observable,
    mixture_statistics,
    schmidt,
    time_reverse,
    trace_functional,
)
from twinspace import montecarlo
from twinspace.core import (
    _canonical_json,
    _number_leaf,
    array_from_json,
    array_to_json,
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


@pytest.mark.parametrize("build", [
    lambda: StateVector(["a", "b"]),
    lambda: Projector([["a"]]),
    lambda: Measurement([[["a"]]]),
    lambda: measurement_from_observable([["a"]]),
    lambda: TwoStateVector([[{}]]),
    lambda: TwoStateVector([[10**400]]),
    lambda: OutcomeDistribution(["a"]),
    lambda: TwoStateVector.from_json({"dim": 1, "matrix": [[[{}, 0.0]]]}),
])
def test_entries_that_are_no_numbers_are_shape_faults(build):
    """One conversion gate: an entry that does not convert to a number is
    a ShapeMismatchError, not a bare ValueError, TypeError or
    OverflowError."""
    with pytest.raises(ShapeMismatchError, match="not numeric"):
        build()


def test_entries_that_convert_keep_their_value():
    assert StateVector([2**70, 1]).amplitudes[0] == 2.0 ** 70
    with pytest.raises(ZeroVectorError, match="non-finite"):
        StateVector([None, 1])  # None converts to NaN, refused as before


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


def test_basis_state_refuses_what_is_no_index_or_dimension():
    """A bool or non-integer index, and a dimension above the cap, are
    shape faults; numpy integers are indices like any other."""
    for index in (True, False, 1.5, np.float64(1.0), "1", None):
        with pytest.raises(ShapeMismatchError, match="basis index"):
            StateVector.basis_state(2, index)
    with pytest.raises(ShapeMismatchError, match="above the supported cap"):
        StateVector.basis_state(2 ** 62, 0)
    np.testing.assert_array_equal(
        StateVector.basis_state(np.int64(3), np.int32(1)).amplitudes,
        [0, 1, 0])


@pytest.mark.parametrize("dim", [2.5, True, np.float64(2.0), "2", None])
def test_basis_state_refuses_a_dimension_that_is_no_integer(dim):
    with pytest.raises(ShapeMismatchError, match="dimension must be an integer"):
        StateVector.basis_state(dim, 0)


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


def test_separable_keeps_its_check_where_the_product_underflows():
    tiny = StateVector([1e-200, 0.0])
    with pytest.raises(ZeroVectorError, match="identically zero"):
        TwoStateVector.separable(tiny, tiny)
    with pytest.raises(ZeroVectorError, match="identically zero"):
        TwoStateVector.from_pairs([(1.0, tiny, tiny)])


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


K0 = StateVector.basis_state(2, 0)


@pytest.mark.parametrize("terms", [
    [(1.0, K0, K0), ("a", K0, K0)], [({}, K0, K0)], [(10**400, K0, K0)],
    [([1.0, 2.0], K0, K0)], [(1.0, K0, K0), (1.0,)],
    [(1.0, [1.0, 0.0], K0)], [K0], 5,
], ids=["string-weight", "dict-weight", "huge-weight", "array-weight",
        "short-term", "list-ket", "bare-state", "not-iterable"])
def test_from_pairs_refuses_a_malformed_term(terms):
    """Terms are an iterable of (weight, StateVector, StateVector) tuples
    whose weight passes the one conversion gate; anything else is a shape
    fault."""
    with pytest.raises(ShapeMismatchError):
        TwoStateVector.from_pairs(terms)


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


def _pairs_reference(array):
    """The per-entry [float(re), float(im)] writer, nested per axis."""
    if array.ndim == 0:
        z = complex(array)
        return [float(z.real), float(z.imag)]
    return [_pairs_reference(sub) for sub in array]


@pytest.mark.parametrize("shape", [(1,), (5,), (3, 3), (4, 2, 2)])
def test_codec_matches_the_per_entry_reference(shape):
    """The one writer gives the per-entry writer's lists, and the one
    reader gives back every bit: signed zeros, subnormals, extremes."""
    rng = np.random.default_rng(sum(shape))
    specials = np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1 / 3])
    parts = rng.standard_normal(shape + (2,))
    parts.reshape(-1)[:specials.size] = specials[:parts.size]
    array = np.empty(shape, dtype=np.complex128)
    array.real, array.imag = parts[..., 0], parts[..., 1]
    text = array_to_json(array)
    assert text == _pairs_reference(array)
    back = array_from_json(json.loads(json.dumps(text)), len(shape), "test")
    assert back.shape == shape
    assert back.tobytes() == np.ascontiguousarray(array).tobytes()


def _reference_json(value):
    return json.dumps(value, indent=2, sort_keys=True)


#: Numbers at the edges of json's rendering: signed zero, the smallest
#: subnormal, both sides of repr's switch to exponents, nan and infinities,
#: integers beyond 64 bits, and bools beside the 1 and 1.0 they equal.
EDGE_NUMBERS = st.sampled_from([
    -0.0, 0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e15, math.nan, math.inf,
    -math.inf, 2 ** 63, -(2 ** 63) - 1, 2 ** 64 + 1, True, False, 1, 1.0])
NUMBERS = st.one_of(st.floats(), st.integers(), EDGE_NUMBERS)
STRINGS = st.one_of(st.text(max_size=8), st.sampled_from(
    ['"', "\\", 'a "quoted" \\ path', "caf\u00e9 \u4e2d", "], [", "]],\n[[",
     "1.0", "n"]))
SCALARS = st.one_of(NUMBERS, STRINGS, st.none())


def _nested(flat, shape):
    """``flat`` as nested lists of ``shape``."""
    for n in reversed(shape[1:]):
        flat = [flat[i:i + n] for i in range(0, len(flat), n)]
    return flat


@st.composite
def rectangular(draw):
    """A rectangular nest of 1-4 axes, mostly of finite floats, placed
    inside 0-3 levels of lists and dicts."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    size = math.prod(shape)
    items = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.integers(-3, 3), NUMBERS)
    value = _nested(draw(st.lists(items, min_size=size, max_size=size)),
                    shape)
    for wrap in draw(st.lists(st.sampled_from(["list", "dict"]),
                              max_size=3)):
        value = [value, 0.5] if wrap == "list" else {"b": value, "a": 1}
    return value


JSON_VALUES = st.recursive(
    st.one_of(SCALARS, rectangular()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(STRINGS, children, max_size=4),
        # uniform depth, unequal lengths
        st.lists(st.lists(NUMBERS, max_size=3), min_size=2, max_size=3)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_canonical_writer_is_json_dumps(value):
    assert _canonical_json(value) == _reference_json(value)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [[], []], [[1.0], [2.0, 3.0]], [[1.0], 2.0], [1.0, None],
    [1.0, "1.0"], [[1.0, {}]], [True, 1, 1.0], [[True], [1]], [math.nan],
    [[0.5, -math.inf]], [(1.0, 2.0)], [[2 ** 64, -0.0]], {"k": [[1e16]]},
    [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]],
])
def test_canonical_writer_on_boundary_nests(value):
    assert _canonical_json(value) == _reference_json(value)


def test_canonical_writer_on_the_d16_nullspace_payload():
    """The 6 MB basis of ``nullspace --json`` at d = 16 renders through the
    one-fill path, and to json's own bytes."""
    m = twinspace.random_measurement(16, 8, 0)
    payload = {"command": "nullspace", "dim": 16, "basis": [
        b.to_json() for b in twinspace.NullSubspace(m).basis]}
    assert _number_leaf(payload["basis"][0]["matrix"], 3) is not None
    assert _canonical_json(payload) == _reference_json(payload)


# ---------------------------------------------------------------------------
# Results built without a second check
# ---------------------------------------------------------------------------

V3 = random_two_state(3, np.random.default_rng(12))
E01 = TwoStateVector([[0.0, 1.0], [0.0, 0.0]])
ANTISYMMETRIC = TwoStateVector([[0.0, 1.0], [-1.0, 0.0]])
UNIT_PAIR = (StateVector.normalized([1.0, 1j]),
             StateVector.normalized([2.0, 1.0]))
WS = twinspace.builtin_workspace()


def _schmidt_vectors(_):
    sd = schmidt(V3)
    return [*sd.left, *sd.right]


def _pair_vectors(monkeypatch):
    """The per-component vectors an experiment builds, and a story vector."""
    seen = []
    rows = montecarlo._story_rows

    def spy(comps, m):
        seen.extend(v for _, v in comps)
        return rows(comps, m)

    monkeypatch.setattr(montecarlo, "_story_rows", spy)
    diagonal = WS.measurement("diagonal")
    exp = PrePostExperiment(*UNIT_PAIR, diagonal, 10, 0)
    MixtureExperiment(((0.5, *UNIT_PAIR),
                       (0.5, WS.state("ket0"), WS.state("ket1"))),
                      diagonal, 10, 0)
    assert len(seen) == 3
    return [*seen, exp.story_vector()]


def _validation_prediction(monkeypatch):
    seen = []
    build = montecarlo._build_validation

    def spy(counts, trials, predicted, *rest):
        seen.append(predicted)
        return build(counts, trials, predicted, *rest)

    monkeypatch.setattr(montecarlo, "_build_validation", spy)
    exp = PrePostExperiment(WS.state("ket0"), WS.state("plus"),
                            WS.measurement("diagonal"), 2_000, 0)
    montecarlo.validate_abl(exp)
    return seen


# site: (call returning its results, checked builds it makes; only
# normalized checks, its raw input)
UNCHECKED_SITES = {
    "normalized": (lambda _: [StateVector.normalized([3.0, 4j, 0.0])], 1),
    "basis_state": (lambda _: [StateVector.basis_state(5, 3)], 0),
    "unit": (lambda _: [V3.unit()], 0),
    "time_reverse": (lambda _: [time_reverse(V3)], 0),
    "schmidt": (_schmidt_vectors, 0),
    "find_story_diagonal": (
        lambda _: [find_story_measurement(V3).witness], 0),
    "find_story_symmetric": (
        lambda _: [find_story_measurement(E01).witness], 0),
    "find_story_antisymmetric": (
        lambda _: [find_story_measurement(ANTISYMMETRIC).witness], 0),
    "witness_vector": (lambda _: [FeasibilityReport(
        FeasibilityVerdict.FEASIBLE, UNIT_PAIR, 0.0, 1, 0).witness_vector()],
        0),
    "experiments": (_pair_vectors, 0),
    "abl_probabilities": (
        lambda _: [abl_probabilities(V3, WS.measurement("qutrit_family_1"))],
        0),
    "mixture_statistics": (lambda _: [mixture_statistics(
        WS.mixture("classical_qubit"), WS.measurement("diagonal"))], 0),
    "empirical_distribution": (
        lambda _: [empirical_distribution(TrialLog([3, 0, 1], 9))], 0),
    "validation_prediction": (_validation_prediction, 0),
}


@pytest.mark.parametrize("site", sorted(UNCHECKED_SITES))
def test_unchecked_sites_store_what_the_constructor_would(site, builds,
                                                          monkeypatch):
    """Each internal result built without a second check holds a read-only
    C-contiguous array, bit for bit what its checked constructor stores
    for the same values, and the site runs no check beyond its own."""
    run, checked = UNCHECKED_SITES[site]
    results = run(monkeypatch)
    assert builds.of(kind="checked") == checked
    for obj in results:
        name = dataclasses.fields(obj)[0].name
        value = getattr(obj, name)
        assert not value.flags.writeable and value.flags.c_contiguous
        stored = getattr(type(obj)(value.copy()), name)
        assert stored.dtype == value.dtype and stored.shape == value.shape
        assert stored.tobytes() == value.tobytes()
