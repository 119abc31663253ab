"""Mixtures, replication, zero-constraint systems, separable feasibility,
and the exact qutrit reduction."""

import numpy as np
import pytest

from twinspace import (
    CertificationVerdict,
    DimensionMismatchError,
    FeasibilityVerdict,
    Mixture,
    NoStoryInMixtureError,
    NotAStoryError,
    OutcomeDistribution,
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


@pytest.fixture
def distribution_builds(monkeypatch):
    """Counts OutcomeDistribution constructions."""
    calls = []
    post_init = OutcomeDistribution.__post_init__

    def counting(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(OutcomeDistribution, "__post_init__", counting)
    return calls


def test_distributions_built_only_where_returned(distribution_builds):
    abl_probabilities(E00, DIAGONAL)
    assert len(distribution_builds) == 1
    mixture_statistics(CLASSICAL, DIAGONAL)
    assert len(distribution_builds) == 2
    replicates_on(Mixture.point(QUBIT_IDENTITY), CLASSICAL, DIAGONAL)
    assert search_distinguishing_measurement(
        Mixture.point(QUBIT_IDENTITY), CLASSICAL, 3, 2, 0) is None
    assert search_distinguishing_measurement(
        Mixture.point(E00), Mixture.point(E11), 3, 2, 0) is not None
    assert time_reversal_equivalence_check(QUBIT_IDENTITY,
                                           [COMPUTATIONAL, DIAGONAL])
    assert len(distribution_builds) == 2


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


def test_zero_constraints_requires_target_story():
    with pytest.raises(NotAStoryError):
        zero_constraints(E01, [COMPUTATIONAL])


def test_zero_constraints_empty_for_nowhere_zero_target():
    system = zero_constraints(QUBIT_IDENTITY, [COMPUTATIONAL, DIAGONAL])
    assert system.zero_outcomes == ()
    assert system.constraint_matrices().shape == (0, 2, 2)


def reference_zero_system(target, family):
    """Zero outcomes (p <= tol) and anchor from numpy ABL values."""
    dists = []
    for m in family:
        amps = np.array([np.trace(p.matrix @ target.matrix)
                         for p in m.projectors])
        dists.append(np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2))
    zeros = tuple((mi, oi) for mi, p in enumerate(dists)
                  for oi in range(len(p)) if p[oi] <= 1e-10)
    return zeros, (0, int(np.argmax(dists[0])))


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


def test_feasibility_rejects_zero_starts():
    with pytest.raises(ShapeMismatchError):
        separable_feasibility(qutrit_system(), starts=0, seed=0)


def test_scan_floor_confirms_infeasibility():
    floor = scan_separable_residual(qutrit_system(), samples=20000, seed=1)
    assert floor > 1e-4


@pytest.mark.parametrize("samples", [0, -5])
def test_scan_refuses_empty_work(samples):
    with pytest.raises(ShapeMismatchError):
        scan_separable_residual(qutrit_system(), samples, 1)


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


def test_certify_qutrit_signed_strict():
    report = certify_strict_nonseparability(QUTRIT_SIGNED, FAMILY, 32, 0)
    assert report.verdict is CertificationVerdict.STRICTLY_NONSEPARABLE_EVIDENCE
    assert report.system.zero_outcomes == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert "strictly non-separable" in report.message
