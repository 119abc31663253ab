"""Mixtures, replication, zero-constraint systems, separable feasibility,
and the exact qutrit reduction."""

import hashlib
import json

import numpy as np
import pytest

from twinspace import (
    DEFAULT_TOL,
    CertificationVerdict,
    DimensionMismatchError,
    FeasibilityReport,
    FeasibilityVerdict,
    Mixture,
    NoStoryInMixtureError,
    NotAStoryError,
    OutcomeDistribution,
    PrePostExperiment,
    SeparableInputError,
    ShapeMismatchError,
    StateVector,
    TwoStateVector,
    ZeroConstraintSystem,
    abl_probabilities,
    certify_strict_nonseparability,
    distribution_gap,
    forms_story,
    measurement_from_basis_grouping,
    mixture_statistics,
    outcome_amplitudes,
    random_measurement,
    reduce_qutrit_family,
    replicates_on,
    scan_separable_residual,
    search_distinguishing_measurement,
    separable_feasibility,
    time_reversal_equivalence_check,
    time_reverse,
    zero_constraints,
)
from twinspace.distinguish import DEFAULT_ANCHOR_FLOOR
from twinspace.workspace import QUTRIT_FAMILY, builtin_workspace

WS = builtin_workspace()

E00 = WS.vector("ket0_bra0")
E11 = WS.vector("ket1_bra1")
E01 = WS.vector("ket0_bra1")
QUBIT_IDENTITY = WS.vector("qubit_identity")
QUTRIT_SIGNED = WS.vector("qutrit_signed")
COMPUTATIONAL = WS.measurement("computational")
DIAGONAL = WS.measurement("diagonal")
CLASSICAL = WS.mixture("classical_qubit")
FAMILY = tuple(WS.measurement(n) for n in QUTRIT_FAMILY)


def qutrit_system():
    return zero_constraints(QUTRIT_SIGNED, FAMILY)


# ---------------------------------------------------------------------------
# Mixtures
# ---------------------------------------------------------------------------

def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ShapeMismatchError):
        Mixture(((0.5, E00), (0.6, E11)))
    with pytest.raises(ShapeMismatchError):
        Mixture(((-0.5, E00), (1.5, E11)))
    with pytest.raises(ShapeMismatchError):
        Mixture(())
    with pytest.raises(ShapeMismatchError):
        Mixture(((np.nan, E00), (1.0, E11)))
    with pytest.raises(ShapeMismatchError, match="inf"):
        Mixture(((10 ** 400, E00),))  # beyond a double: an infinity


@pytest.mark.parametrize("weight", ["a", "0.5", None, 1 + 0j, True,
                                    np.bool_(True), [1.0]])
def test_mixture_refuses_a_weight_that_is_no_real_number(weight):
    """One weight rule: a Python or numpy real number, not a bool."""
    with pytest.raises(ShapeMismatchError, match="real number"):
        Mixture(((weight, E00),))


@pytest.mark.parametrize("components", [
    ((1.0, E00, E00),), (1.0,), ((1.0,),), ((1.0, np.eye(2)),),
    ((1.0, WS.state("ket0")),), (0.5, E00), ((0.5, E00), "a"),
    5, np.array([(0.5, E00), (0.5, E11)], dtype=object),
    iter([(1.0, E00)]),
], ids=["triple", "bare weight", "weight only", "array", "state",
        "flat pair", "string", "int", "array of components",
        "iterator"])
def test_mixture_refuses_a_component_that_is_no_weighted_vector(components):
    """One component rule: a tuple or list of (weight, TwoStateVector)
    tuples or lists, checked before it is iterated or unpacked."""
    with pytest.raises(ShapeMismatchError, match="component"):
        Mixture(components)


def test_mixture_takes_list_components():
    mix = Mixture([[0.5, E00], [0.5, E11]])
    assert mix.components == ((0.5, E00), (0.5, E11))


def test_mixture_converts_numpy_weights_to_float():
    mix = Mixture(((np.float32(0.5), E00), (np.int64(0), E11),
                   (0.5, E01)))
    assert [type(w) for w, _ in mix.components] == [float, float, float]


def test_mixture_rejects_mixed_dims():
    with pytest.raises(DimensionMismatchError):
        Mixture(((0.5, E00), (0.5, QUTRIT_SIGNED)))


def test_mixture_point():
    mix = Mixture.point(E01)
    assert mix.components == ((1.0, E01),)


def test_mixture_statistics_convex_combination():
    dist = mixture_statistics(CLASSICAL, COMPUTATIONAL)
    np.testing.assert_allclose(dist.probabilities, [0.5, 0.5], atol=1e-15)


def test_mixture_statistics_skips_storyless_components():
    # |0><1| forms no computational story; weights renormalize onto |0><0|
    mix = Mixture(((0.5, E00), (0.5, E01)))
    dist = mixture_statistics(mix, COMPUTATIONAL)
    np.testing.assert_allclose(dist.probabilities, [1.0, 0.0], atol=1e-15)


def test_mixture_statistics_requires_some_story():
    with pytest.raises(NoStoryInMixtureError):
        mixture_statistics(Mixture.point(E01), COMPUTATIONAL)


def test_mixture_statistics_ignores_zero_weight_components():
    mix = Mixture(((1.0, E00), (0.0, E11)))
    dist = mixture_statistics(mix, COMPUTATIONAL)
    np.testing.assert_allclose(dist.probabilities, [1.0, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# Replication and search
# ---------------------------------------------------------------------------

def test_distribution_gap():
    a = abl_probabilities(E00, COMPUTATIONAL)
    b = abl_probabilities(E11, COMPUTATIONAL)
    assert distribution_gap(a, b) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatchError):
        distribution_gap(a, OutcomeDistribution([1 / 3, 1 / 3, 1 / 3]))


def test_replicates_on_golden_pair():
    assert replicates_on(Mixture.point(E01), CLASSICAL, DIAGONAL)


def test_replicates_on_story_mismatch_is_failure():
    # target forms no computational story but the mixture does
    assert not replicates_on(Mixture.point(E01), CLASSICAL, COMPUTATIONAL)


def test_replicates_on_matching_storyless_sides():
    a = Mixture.point(E01)
    b = Mixture.point(TwoStateVector(2.0j * E01.matrix))
    assert replicates_on(a, b, COMPUTATIONAL)


def test_identity_target_replicated_everywhere():
    target = Mixture.point(QUBIT_IDENTITY)
    for t in range(100):
        m = random_measurement(2, 1 + t % 2, [9, t])
        assert replicates_on(target, CLASSICAL, m)


def test_search_finds_separating_measurement():
    found = search_distinguishing_measurement(
        Mixture.point(E00), Mixture.point(E11), 50, 2, 0
    )
    assert found is not None
    assert found.gap > 1e-10
    da = mixture_statistics(Mixture.point(E00), found.measurement)
    db = mixture_statistics(Mixture.point(E11), found.measurement)
    assert distribution_gap(da, db) == pytest.approx(found.gap)


def test_search_reports_story_mismatch_as_unit_gap():
    # single-outcome measurements: traceless target never forms a story
    found = search_distinguishing_measurement(
        Mixture.point(E01), CLASSICAL, 10, 1, 0
    )
    assert found is not None
    assert found.trial_index == 0
    assert found.gap == 1.0


def test_search_exhausts_on_replicating_pair():
    assert search_distinguishing_measurement(
        Mixture.point(QUBIT_IDENTITY), CLASSICAL, 100, 2, 3
    ) is None


def test_search_deterministic_in_seed():
    a = search_distinguishing_measurement(Mixture.point(E00),
                                          Mixture.point(E11), 20, 2, 12)
    b = search_distinguishing_measurement(Mixture.point(E00),
                                          Mixture.point(E11), 20, 2, 12)
    assert a.trial_index == b.trial_index
    assert a.gap == b.gap


def test_time_reversal_equivalence():
    rng = np.random.default_rng(2)
    measurements = [random_measurement(3, 1 + t % 3, [31, t])
                    for t in range(30)]
    for _ in range(10):
        v = TwoStateVector(rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))
        assert time_reversal_equivalence_check(v, measurements)


# ---------------------------------------------------------------------------
# One gap rule, checked against an independent numpy reference
# ---------------------------------------------------------------------------

def reference_gap(a, b, m):
    """0.0 when neither side forms a story, 1.0 when one does, otherwise
    the max-norm gap of the prior-weighted statistics of the two sides."""
    projs = np.array([p.matrix for p in m.projectors])

    def statistics(components):
        weights, rows = [], []
        for w, v in components:
            amps = np.array([np.trace(p @ v.matrix) for p in projs])
            if w > 0 and np.max(np.abs(amps)) > 1e-10 * np.linalg.norm(v.matrix):
                weights.append(w)
                rows.append(np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2))
        if not weights:
            return None
        return np.array(weights) @ np.array(rows) / np.sum(weights)

    sa, sb = statistics(a.components), statistics(b.components)
    if sa is None or sb is None:
        return float((sa is None) != (sb is None))
    return float(np.max(np.abs(sa - sb)))


def random_vector(rng, d):
    return TwoStateVector(rng.standard_normal((d, d))
                          + 1j * rng.standard_normal((d, d)))


def storyless_vector(rng, d, m):
    """A random vector with every outcome amplitude of ``m`` removed."""
    x = random_vector(rng, d).matrix
    for p in m.projectors:
        x = x - p.matrix * np.trace(p.matrix @ x) / p.rank
    return TwoStateVector(x)


def random_mixture(rng, d, m):
    """1-4 components, some of zero weight, some forming no story on m
    (for d = 1 every vector forms a story on the one measurement)."""
    n = int(rng.integers(1, 5))
    weights = rng.random(n) * (rng.random(n) < 0.7)
    if not weights.any():
        weights[0] = 1.0
    comps = []
    for w in weights / weights.sum():
        storyless = d > 1 and rng.random() < 0.3
        comps.append((float(w), storyless_vector(rng, d, m) if storyless
                      else random_vector(rng, d)))
    return Mixture(tuple(comps))


def gap_cases(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 1 + i % 4
        k = int(rng.integers(1, d + 1))
        m = random_measurement(d, k, [seed, i])
        a = random_mixture(rng, d, m)
        kind = i % 3
        if kind == 0:    # the same mixture, components in another order
            b = Mixture(a.components[::-1])
        elif kind == 1:  # an independent mixture
            b = random_mixture(rng, d, m)
        else:            # a story-less point
            b = Mixture.point(storyless_vector(rng, d, m) if d > 1
                              else random_vector(rng, d))
        yield d, k, m, a, b


def test_replicates_on_is_the_reference_gap_rule():
    verdicts = set()
    for _, _, m, a, b in gap_cases(40, 120):
        expected = reference_gap(a, b, m) <= 1e-10
        assert replicates_on(a, b, m) == expected
        assert replicates_on(b, a, m) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_search_stops_at_first_reference_gap():
    outcomes_seen = set()
    for i, (d, k, _, a, b) in enumerate(gap_cases(41, 80)):
        trials, seed = 4, 100 + i
        found = search_distinguishing_measurement(a, b, trials, k, seed)
        expected = None
        for t in range(trials):
            gap = reference_gap(a, b, random_measurement(d, k, [seed, t]))
            if gap > 1e-10:
                expected = (t, gap)
                break
        if expected is None:
            assert found is None
            outcomes_seen.add("none")
            continue
        assert found is not None
        assert found.trial_index == expected[0]
        if expected[1] == 1.0:
            assert found.gap == 1.0
            outcomes_seen.add("mismatch")
        else:
            assert found.gap == pytest.approx(expected[1], rel=1e-9, abs=1e-12)
            outcomes_seen.add("gap")
    assert outcomes_seen == {"none", "mismatch", "gap"}


def test_time_reversal_check_is_replicates_on_per_measurement():
    rng = np.random.default_rng(42)
    for d in (1, 2, 3, 4):
        ms = [random_measurement(d, 1 + t % d, [43, d, t]) for t in range(4)]
        vectors = [random_vector(rng, d), E01 if d == 2 else random_vector(rng, d)]
        if d > 1:
            vectors.append(storyless_vector(rng, d, ms[0]))
        for v in vectors:
            expected = all(
                replicates_on(Mixture.point(v), Mixture.point(time_reverse(v)), m)
                for m in ms)
            assert time_reversal_equivalence_check(v, ms) == expected


def test_distributions_built_only_where_returned(builds):
    """Only the functions that return a distribution build one, without a
    second check; the verdict paths build none and check nothing again."""
    abl_probabilities(E00, DIAGONAL)
    assert builds.of(OutcomeDistribution) == 1
    mixture_statistics(CLASSICAL, DIAGONAL)
    assert builds.of(OutcomeDistribution) == 2
    replicates_on(Mixture.point(QUBIT_IDENTITY), CLASSICAL, DIAGONAL)
    assert search_distinguishing_measurement(
        Mixture.point(QUBIT_IDENTITY), CLASSICAL, 3, 2, 0) is None
    assert search_distinguishing_measurement(
        Mixture.point(E00), Mixture.point(E11), 3, 2, 0) is not None
    assert time_reversal_equivalence_check(QUBIT_IDENTITY,
                                           [COMPUTATIONAL, DIAGONAL])
    assert builds.of(OutcomeDistribution) == 2
    assert builds.of(kind="checked") == 0


# ---------------------------------------------------------------------------
# Zero-constraint systems
# ---------------------------------------------------------------------------

def test_zero_constraints_on_qutrit_family():
    system = qutrit_system()
    assert system.zero_outcomes == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert system.anchor == (0, 0)
    cs = system.constraint_matrices()
    assert cs.shape == (4, 3, 3)
    # coefficient matrices are the zero-outcome projectors, transposed
    np.testing.assert_allclose(
        cs[0], FAMILY[0].projectors[1].matrix.T, atol=1e-15
    )


def test_zero_system_keeps_its_own_family():
    """The system holds a tuple of the family it was given: appending to
    the caller's list later changes neither it nor its zero outcomes."""
    family = list(FAMILY)
    system = ZeroConstraintSystem(QUTRIT_SIGNED, family)
    family.append(COMPUTATIONAL)
    assert system.measurements == FAMILY
    assert system.zero_outcomes == qutrit_system().zero_outcomes
    assert zero_constraints(QUTRIT_SIGNED, iter(FAMILY)).measurements == FAMILY


def test_zero_constraints_requires_target_story():
    with pytest.raises(NotAStoryError):
        zero_constraints(E01, [COMPUTATIONAL])


def test_zero_constraints_empty_for_nowhere_zero_target():
    system = zero_constraints(QUBIT_IDENTITY, [COMPUTATIONAL, DIAGONAL])
    assert system.zero_outcomes == ()
    assert system.constraint_matrices().shape == (0, 2, 2)


def reference_zero_system(target, family):
    """Zero outcomes (|A_i| <= tol * ||target||) and anchor (largest
    |A_i| of the first measurement) from numpy amplitudes."""
    floor = 1e-10 * np.linalg.norm(target.matrix)
    mags = [np.abs([np.trace(p.matrix @ target.matrix) for p in m.projectors])
            for m in family]
    zeros = tuple((mi, oi) for mi, a in enumerate(mags)
                  for oi in range(len(a)) if a[oi] <= floor)
    return zeros, (0, int(np.argmax(mags[0])))


def test_zero_system_derived_from_target_and_family():
    rng = np.random.default_rng(21)
    cases = [(QUTRIT_SIGNED, FAMILY), (E00, (COMPUTATIONAL, DIAGONAL)),
             (QUBIT_IDENTITY, (DIAGONAL, COMPUTATIONAL))]
    for d in (1, 2, 3, 4):
        v = TwoStateVector(rng.standard_normal((d, d))
                           + 1j * rng.standard_normal((d, d)))
        cases.append((v, tuple(random_measurement(d, 1 + t % d, [d, t])
                               for t in range(3))))
    for target, family in cases:
        system = ZeroConstraintSystem(target, family)
        zeros, anchor = reference_zero_system(target, family)
        assert system.zero_outcomes == zeros
        assert system.anchor == anchor
        assert all(type(i) is int for z in zeros + (anchor,) for i in z)
        derived = zero_constraints(target, list(family))
        assert derived.zero_outcomes == zeros
        assert derived.anchor == anchor


@pytest.mark.parametrize("given", [{"zero_outcomes": ((0, 0),)},
                                   {"anchor": (0, 0)}])
def test_zero_system_takes_no_listed_zeros_or_anchor(given):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        ZeroConstraintSystem(E00, (COMPUTATIONAL,), **given)


def test_zero_system_refusals():
    with pytest.raises(ShapeMismatchError):
        ZeroConstraintSystem(E00, ())
    with pytest.raises(DimensionMismatchError):
        ZeroConstraintSystem(E00, FAMILY)
    with pytest.raises(NotAStoryError):
        ZeroConstraintSystem(E01, (DIAGONAL, COMPUTATIONAL))


def test_zero_outcomes_follow_the_story_rule():
    """Outcome i is zero iff |A_i| <= DEFAULT_TOL * ||target||, the story
    rule's floor (the ABL probability, |A_i|^2 / sum |A_j|^2, once counted
    outcomes up to 1e-5 * ||A|| in amplitude as zero)."""
    bump = np.zeros((3, 3))
    bump[0, 0] = 1e-6
    target = TwoStateVector(QUTRIT_SIGNED.matrix + bump)
    assert zero_constraints(target, FAMILY).zero_outcomes == ((0, 1),)
    report = certify_strict_nonseparability(target, FAMILY, 8, 0)
    assert report.verdict is CertificationVerdict.NOT_CERTIFIED
    for eps, zeros in ((0.5 * DEFAULT_TOL, ((0, 1),)), (2 * DEFAULT_TOL, ())):
        v = TwoStateVector(np.diag([1.0, eps]))
        assert zero_constraints(v, [COMPUTATIONAL]).zero_outcomes == zeros


def test_constraint_amplitude_matches_trace_functional():
    """C[k,l] a_k b_l equals Tr(P |alpha><conj beta|) for the same outcome."""
    system = qutrit_system()
    rng = np.random.default_rng(8)
    alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi = TwoStateVector(np.outer(alpha, beta))
    for c, (mi, oi) in zip(system.constraint_matrices(), system.zero_outcomes):
        direct = outcome_amplitudes(phi, system.measurements[mi])[oi]
        bilinear = alpha @ c @ beta
        assert bilinear == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# Separable feasibility
# ---------------------------------------------------------------------------

def test_feasibility_feasible_for_separable_target():
    # |0><0| satisfies its own zero constraints with alpha = beta = e0
    system = zero_constraints(E00, [COMPUTATIONAL, DIAGONAL])
    report = separable_feasibility(system, starts=16, seed=0)
    assert report.verdict is FeasibilityVerdict.FEASIBLE
    assert report.best_residual <= 1e-12
    witness = report.witness_vector()
    for c in system.constraint_matrices():
        amp = np.einsum("kl,k,l->", c, report.witness[0].amplitudes,
                        report.witness[1].amplitudes)
        assert abs(amp) <= 1e-6
    # the witness forms a story on the anchor outcome
    mi, oi = system.anchor
    amps = outcome_amplitudes(witness, system.measurements[mi])
    assert abs(amps[oi]) > 0.05


def test_feasibility_infeasible_for_qutrit_family():
    report = separable_feasibility(qutrit_system(), starts=32, seed=0)
    assert report.verdict is FeasibilityVerdict.INFEASIBLE_EVIDENCE
    assert report.witness is None
    assert report.best_residual >= 1e3 * 1e-12
    assert report.best_residual > 1e-4  # lands at the anchor-floor scale


def test_feasibility_deterministic_in_seed():
    system = qutrit_system()
    a = separable_feasibility(system, starts=8, seed=5)
    b = separable_feasibility(system, starts=8, seed=5)
    assert a.best_residual == b.best_residual


def _old_objective(cs, anchor, x):
    """The objective as computed before it returned a gradient: amplitudes
    from the flattened outer product, the anchor amplitude apart."""
    d = anchor.shape[0]
    ar, ai, br, bi = np.split(x, 4)
    alpha = ar + 1j * ai
    beta = br + 1j * bi
    alpha = alpha / np.linalg.norm(alpha)
    beta = beta / np.linalg.norm(beta)
    amps = cs.reshape(-1, d * d) @ np.outer(alpha, beta).reshape(-1)
    residual = float(np.sum(np.abs(amps) ** 2))
    anchor_amp = abs(np.dot(alpha, anchor @ beta))
    shortfall = max(0.0, DEFAULT_ANCHOR_FLOOR - anchor_amp)
    return residual + shortfall * shortfall, anchor_amp


def _gradient_systems():
    """(constraint matrices, anchor matrix) of the qutrit system and of
    seeded random systems at d = 2, 3, 4, whose matrices are transposed
    projectors of random measurements, neither diagonal nor real."""
    system = qutrit_system()
    yield pytest.param(system.constraint_matrices(), system.anchor_matrix(),
                       id="qutrit")
    for d in (2, 3, 4):
        m = random_measurement(d, d, [31, d])
        cs = np.array([p.matrix.T for p in m.projectors[:-1]])
        anchor = random_measurement(d, 2, [37, d]).projectors[0].matrix.T
        yield pytest.param(cs, anchor, id=f"d{d}")


@pytest.mark.parametrize("cs, anchor", list(_gradient_systems()))
@pytest.mark.parametrize("active", [True, False],
                         ids=["shortfall", "no-shortfall"])
def test_feasibility_gradient_matches_central_differences(cs, anchor, active):
    """The descent's exact Jacobian agrees with central differences of
    step-then-renormalize, and its value with the formula it replaced,
    with the anchor shortfall active (anchor scaled far below the floor)
    and inactive (far above it)."""
    from twinspace.distinguish import _descent_terms

    anchor = anchor * (1e-3 if active else 1e3)
    stack = np.concatenate([cs, anchor[np.newaxis]])
    d = anchor.shape[0]
    h = 1e-6
    # Row 0 is the point; rows 1.. step it by +-h along each coordinate
    # [Re alpha, Re beta, Im alpha, Im beta], then renormalize.
    steps = np.concatenate([np.zeros((1, 4 * d)), h * np.eye(4 * d),
                            -h * np.eye(4 * d)])
    steps = steps[:, :2 * d] + 1j * steps[:, 2 * d:]
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = rng.standard_normal(4 * d)
        ar, ai, br, bi = x.reshape(4, d)
        alpha = (ar + 1j * ai) / np.linalg.norm(ar + 1j * ai)
        beta = (br + 1j * bi) / np.linalg.norm(br + 1j * bi)
        a = alpha + steps[:, :d]
        b = beta + steps[:, d:]
        values, residuals, jacobian = _descent_terms(
            stack, a / np.linalg.norm(a, axis=1, keepdims=True),
            b / np.linalg.norm(b, axis=1, keepdims=True))
        old_value, anchor_amp = _old_objective(cs, anchor, x)
        assert (anchor_amp < DEFAULT_ANCHOR_FLOOR) == active
        assert abs(values[0] - old_value) <= 1e-14
        np.testing.assert_allclose(values, np.sum(residuals ** 2, axis=1),
                                   rtol=1e-15, atol=0)
        central = (residuals[1:4 * d + 1] - residuals[4 * d + 1:]).T / (2 * h)
        np.testing.assert_allclose(jacobian[0], central, rtol=0, atol=1e-6)


def test_feasibility_reaches_the_exact_qutrit_minimum():
    """200 starts find the exact minimum 3/1100 of the qutrit system."""
    report = separable_feasibility(qutrit_system(), starts=200, seed=0)
    assert report.best_residual == pytest.approx(3 / 1100, rel=1e-9, abs=0)


def test_feasibility_reports_solver_diagnostics():
    """The median number of kept steps per start is deterministic and
    reaches the JSON."""
    from twinspace.distinguish import _DESCENT_STEPS

    report = separable_feasibility(qutrit_system(), starts=8, seed=5)
    again = separable_feasibility(qutrit_system(), starts=8, seed=5)
    assert report.median_nit == again.median_nit
    assert 1 <= report.median_nit <= _DESCENT_STEPS
    assert report.to_json()["median_nit"] == report.median_nit


@pytest.mark.parametrize("d", [2, 3])
def test_feasibility_starts_do_not_depend_on_their_batch(d):
    """Each start's final value and (alpha, beta) are bit-identical whether
    it descends among 1, 8 or 64 starts."""
    from twinspace.distinguish import _descend

    m = random_measurement(d, d, [43, d])
    stack = np.array([p.matrix.T for p in m.projectors[1:]]
                     + [m.projectors[0].matrix.T])
    x = np.random.default_rng(47).standard_normal((64, 4, d))
    alpha, beta = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
    full = _descend(stack, alpha, beta)
    for lo, hi in ((0, 8), (8, 16), (56, 64), (0, 1), (5, 6), (63, 64)):
        part = _descend(stack, alpha[lo:hi], beta[lo:hi])
        for a, b in zip(part, full):
            np.testing.assert_array_equal(a, b[lo:hi])


def test_feasibility_rejects_zero_starts():
    with pytest.raises(ShapeMismatchError):
        separable_feasibility(qutrit_system(), starts=0, seed=0)


def test_feasibility_report_checks_its_witness():
    """A report's witness is two unit vectors of one dimension, refused
    otherwise when the report is built, so its vector is a valid one."""
    unit = StateVector.normalized([1.0, 1j])
    for witness, error in (((unit, StateVector([1.0, 0.0, 0.0])),
                            DimensionMismatchError),
                           ((StateVector([1e-200, 0.0]), unit),
                            ShapeMismatchError)):
        with pytest.raises(error):
            FeasibilityReport(FeasibilityVerdict.FEASIBLE, witness, 0.0, 1, 0)
    report = FeasibilityReport(FeasibilityVerdict.FEASIBLE, (unit, unit),
                               0.0, 1, 0)
    np.testing.assert_allclose(report.witness_vector().matrix,
                               [[0.5, 0.5j], [0.5j, -0.5]], atol=1e-16)


def test_scan_floor_confirms_infeasibility():
    floor = scan_separable_residual(qutrit_system(), samples=20000, seed=1)
    assert floor > 1e-4


@pytest.mark.parametrize("samples", [0, -5])
def test_scan_refuses_empty_work(samples):
    with pytest.raises(ShapeMismatchError):
        scan_separable_residual(qutrit_system(), samples, 1)


def test_counts_follow_one_rule():
    """Trials, starts and samples are integers >= 1, never a bool or a
    float: a shape fault on every path, the Monte Carlo experiments' at
    construction; numpy integers are counts like any other."""
    system = qutrit_system()
    point = Mixture.point(E01)
    calls = [
        lambda n: search_distinguishing_measurement(point, CLASSICAL, n, 2, 0),
        lambda n: scan_separable_residual(system, n, 0),
        lambda n: separable_feasibility(system, n, 0),
        lambda n: PrePostExperiment(WS.state("ket0"), WS.state("ket1"),
                                    DIAGONAL, n, 0),
    ]
    for call in calls:
        for bad in (2.5, 1.5, True, np.float64(3.0), "3", 0):
            with pytest.raises(ShapeMismatchError, match="must be"):
                call(bad)
        call(np.int64(1))


def test_scan_reaches_zero_on_feasible_system():
    system = zero_constraints(E00, [COMPUTATIONAL])
    floor = scan_separable_residual(system, samples=20000, seed=1)
    assert floor < 1e-2  # random sampling gets close to the solution manifold


# ---------------------------------------------------------------------------
# Exact reduction of the bundled qutrit system
# ---------------------------------------------------------------------------

EXPECTED_CONSTRAINTS = (
    {(1, 1): 1.0, (2, 2): 1.0},
    {(0, 0): 1.0, (2, 2): 1.0},
    {(0, 0): 0.5, (0, 1): -0.5, (1, 0): -0.5, (1, 1): 0.5, (2, 2): 1.0},
    {(0, 0): 0.5, (0, 1): -0.5j, (1, 0): 0.5j, (1, 1): 0.5, (2, 2): 1.0},
)


def test_reduction_snapped_coefficients():
    report = reduce_qutrit_family(qutrit_system())
    assert report.equations == EXPECTED_CONSTRAINTS


def test_reduction_reduced_system_and_contradiction():
    report = reduce_qutrit_family(qutrit_system())
    assert report.contradiction
    assert report.reduced_equations[2] == {(0, 1): 1.0}
    assert report.reduced_equations[3] == {(1, 0): 1.0}


def test_reduction_text_is_byte_stable():
    a = reduce_qutrit_family(qutrit_system())
    b = reduce_qutrit_family(qutrit_system())
    assert a.text == b.text
    assert a.text.endswith("\n")
    assert "hence m[0][1] = 0 and m[1][0] = 0" in a.text
    assert "contradiction" in a.text


def test_reduction_rejects_other_systems():
    qubit_system = zero_constraints(E00, [COMPUTATIONAL])
    with pytest.raises(ShapeMismatchError):
        reduce_qutrit_family(qubit_system)
    truncated = zero_constraints(QUTRIT_SIGNED, FAMILY[:2])
    with pytest.raises(ShapeMismatchError):
        reduce_qutrit_family(truncated)


@pytest.mark.parametrize("family", [
    FAMILY[:3],
    FAMILY[::-1],  # the same constraints in another order and anchor
    FAMILY[1:] + FAMILY[:1],
], ids=["first-three", "reversed", "rotated"])
def test_reduction_rejects_another_coefficient_stack(family):
    """One gate: the snapped stack must equal the bundled one."""
    system = zero_constraints(QUTRIT_SIGNED, family)
    with pytest.raises(ShapeMismatchError, match="bundled qutrit family"):
        reduce_qutrit_family(system)


def test_reduction_of_a_superset_family_gives_the_same_text():
    """The derivation depends on the coefficient stack alone: a measurement
    with no zero outcome adds no constraint and leaves the anchor."""
    superset = FAMILY + (WS.measurement("identity_qutrit"),)
    system = zero_constraints(QUTRIT_SIGNED, superset)
    assert system.zero_outcomes == qutrit_system().zero_outcomes
    report = reduce_qutrit_family(system)
    assert report.contradiction
    assert report.text == reduce_qutrit_family(qutrit_system()).text


def test_reduction_rejects_non_dyadic_coefficients():
    # a rotated family produces irrational projector entries
    s = StateVector.normalized([1.0, 2.0, 0.0])
    t = StateVector.normalized([2.0, -1.0, 0.0])
    q2 = StateVector.basis_state(3, 2)
    rotated = measurement_from_basis_grouping([s, t, q2], [[0], [1, 2]])
    # replace the third family member; the target still has the right zeros
    system = zero_constraints(
        QUTRIT_SIGNED, (FAMILY[0], FAMILY[1], rotated, FAMILY[3])
    )
    with pytest.raises(ShapeMismatchError):
        reduce_qutrit_family(system)


def test_reduction_json_shape():
    obj = reduce_qutrit_family(qutrit_system()).to_json()
    assert obj["contradiction"] is True
    assert len(obj["equations"]) == 4
    assert obj["text"].startswith("bilinear zero-constraint system")


def test_reduction_json_is_pinned():
    """Every coefficient, signed zeros included, in row-major order."""
    obj = reduce_qutrit_family(qutrit_system()).to_json()
    digest = hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == ("35f17e79229ccb3631f5042dc4cb586b"
                      "1faa9dc66fc02eb0bccb075faf29b91e")


# ---------------------------------------------------------------------------
# End-to-end certification
# ---------------------------------------------------------------------------

def test_certify_rejects_separable_target():
    with pytest.raises(SeparableInputError):
        certify_strict_nonseparability(E00, [COMPUTATIONAL], 4, 0)


def test_certify_qubit_identity_not_certified():
    family = [COMPUTATIONAL, DIAGONAL, WS.measurement("circular")]
    report = certify_strict_nonseparability(QUBIT_IDENTITY, family, 8, 0)
    assert report.verdict is CertificationVerdict.NOT_CERTIFIED
    assert report.feasibility.verdict is FeasibilityVerdict.FEASIBLE
    assert "not certified" in report.message


def test_not_certified_message_claims_no_replication():
    """FEASIBLE shows one separable vector meeting the zero constraints and
    the anchor floor, not that a mixture replicates the target."""
    family = [COMPUTATIONAL, DIAGONAL, WS.measurement("circular")]
    message = certify_strict_nonseparability(QUBIT_IDENTITY, family, 8,
                                             0).message
    assert "replicat" not in message
    assert "family exists" not in message
    assert "one separable vector meets every zero constraint" in message
    assert "anchor" in message


def test_certify_qutrit_signed_strict():
    report = certify_strict_nonseparability(QUTRIT_SIGNED, FAMILY, 32, 0)
    assert report.verdict is CertificationVerdict.STRICTLY_NONSEPARABLE_EVIDENCE
    assert report.system.zero_outcomes == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert "strictly non-separable" in report.message


def test_refuses_a_seed_numpy_cannot_take():
    """A negative seed is a ShapeMismatchError naming it, on every seeded
    path, before any descent or sample runs."""
    system = qutrit_system()
    for call in (lambda: separable_feasibility(system, 2, -1),
                 lambda: scan_separable_residual(system, 10, -1),
                 lambda: search_distinguishing_measurement(
                     Mixture.point(E01), CLASSICAL, 5, 2, -1)):
        with pytest.raises(ShapeMismatchError, match="seed.*-1"):
            call()


def test_valid_seeds_draw_the_same_streams():
    """The seeding path hands numpy the seed material unchanged."""
    from twinspace.core import _rng
    for seed, keys in ((0, ()), (7, (3,)), ([7, 3], ()), (2 ** 70, (1, 2))):
        material = [seed, *keys] if keys else seed
        np.testing.assert_array_equal(
            _rng(seed, *keys).random(4),
            np.random.default_rng(material).random(4))
