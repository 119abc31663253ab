"""Mixtures, replication, zero-constraint systems, separable feasibility,
and the exact qutrit reduction."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinspace import (
    DEFAULT_TOL,
    MAX_DIM,
    CertificationVerdict,
    DimensionMismatchError,
    FeasibilityReport,
    FeasibilityVerdict,
    Measurement,
    Mixture,
    NoStoryInMixtureError,
    NotAStoryError,
    OutcomeDistribution,
    PrePostExperiment,
    SearchResult,
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
    validate_abl,
    zero_constraints,
)
import twinspace.distinguish as distinguish_module
import twinspace.measurement as measurement_module
from twinspace.core import _rng
from twinspace.distinguish import (
    _CHUNK_ENTRIES,
    _SCAN_BATCH,
    DEFAULT_ANCHOR_FLOOR,
    _gaps,
    _statistics,
    trial_gaps,
)
from twinspace.measurement import _random_stacks
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


def per_trial_statistics(components, m):
    """The prior-weighted rule on one measurement, component by component:
    forms_story, abl_probabilities, Python sums in component order; None
    when no positive-weight component forms a story."""
    rows = [(w, v) for w, v in components if w > 0.0 and forms_story(v, m)]
    if not rows:
        return None
    total = sum(w for w, _ in rows)
    return sum((w / total) * abl_probabilities(v, m).probabilities
               for w, v in rows)


def per_trial_gap(a, b, m):
    """The gap rule on one measurement from per_trial_statistics."""
    sa = per_trial_statistics(a.components, m)
    sb = per_trial_statistics(b.components, m)
    if sa is None or sb is None:
        return float((sa is None) != (sb is None))
    return float(np.max(np.abs(sa - sb)))


def scaled(mix, factor):
    return Mixture(tuple((w, TwoStateVector(v.matrix * factor))
                         for w, v in mix.components))


def test_stacked_rule_equals_the_row_by_row_rule_bit_for_bit():
    """On a stack of trials, every trial's statistics and gap carry the
    bits of the row-by-row rule on its own measurement, also at scales
    whose squares leave the safe range (the scalar ABL rescue) and with
    k >= 8 outcomes, where numpy sums a row pairwise."""
    rng = np.random.default_rng(46)
    wide = [(d, d, None, random_mixture(rng, d, m), random_mixture(rng, d, m))
            for d in (9, 16) for m in [random_measurement(d, d, [46, d])]]
    for i, (d, k, _, a, b) in enumerate([*gap_cases(44, 40), *wide]):
        ms = [random_measurement(d, k, [44, i, t]) for t in range(5)]
        stacks = np.array([m._stacked for m in ms])
        for factor in (1.0, 1e-300, 1e-160, 1e160, 1e300):
            sa, sb = scaled(a, factor), scaled(b, factor)
            gaps, _ = _gaps(sa.components, sb.components, stacks)
            (stats, found), = _statistics(stacks, sa.components)
            for t, m in enumerate(ms):
                assert float.hex(float(gaps[t])) == float.hex(
                    per_trial_gap(sa, sb, m))
                expected = per_trial_statistics(sa.components, m)
                assert found[t] == (expected is not None)
                if expected is not None:
                    np.testing.assert_array_equal(stats[t], expected)
                    np.testing.assert_array_equal(
                        mixture_statistics(sa, m).probabilities, expected)


def test_trial_gaps_score_each_key_on_its_own_measurement():
    """trial_gaps scores trial t on random_measurement(d, k, [seed,
    *keys[t]]): its stack, gap and first-side statistics carry the bits of
    that measurement and of the row-by-row rule on it."""
    keys = [(1, t) for t in range(5)] + [(2, 7, t) for t in range(3)]
    for i, (d, k, _, a, b) in enumerate(gap_cases(47, 16)):
        gaps, stats, stacks = trial_gaps(a, b, k, 47 + i, keys)
        for t, key in enumerate(keys):
            m = random_measurement(d, k, [47 + i, *key])
            np.testing.assert_array_equal(stacks[t], m._stacked)
            assert float.hex(float(gaps[t])) == float.hex(
                per_trial_gap(a, b, m))
            expected = per_trial_statistics(a.components, m)
            if expected is not None:
                np.testing.assert_array_equal(stats[t], expected)


def near_cases(seed, count):
    """Points 3e-10 apart in relative norm, d = 2-4, two outcomes: most
    random measurements separate them, some do not."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 2 + i % 3
        v, w = random_vector(rng, d).matrix, random_vector(rng, d).matrix
        near = v + 3e-10 * np.linalg.norm(v) / np.linalg.norm(w) * w
        yield (d, 2, None, Mixture.point(TwoStateVector(v)),
               Mixture.point(TwoStateVector(near)))


def test_search_equals_the_per_trial_rule_bit_for_bit():
    """Over zero weights, storyless components, d = 1-4 and pairs that
    only some measurements separate, the stacked search stops at the trial
    where a loop of replicates_on on random_measurement(d, k, [seed, t])
    stops, with that trial's row-by-row gap and its projectors, to the
    last bit."""
    seen = set()
    cases = [*gap_cases(41, 80), *near_cases(45, 24)]
    for i, (d, k, _, a, b) in enumerate(cases):
        trials, seed = 9, 100 + i
        found = search_distinguishing_measurement(a, b, trials, k, seed)
        ms = [random_measurement(d, k, [seed, t]) for t in range(trials)]
        first = next((t for t, m in enumerate(ms)
                      if not replicates_on(a, b, m)), None)
        for m in ms[:first]:
            assert per_trial_gap(a, b, m) <= DEFAULT_TOL
        if first is None:
            assert found is None
            seen.add("none")
            continue
        assert found.trial_index == first
        assert float.hex(found.gap) == float.hex(
            per_trial_gap(a, b, ms[first]))
        np.testing.assert_array_equal(
            found.measurement._stacked.view(np.uint64),
            ms[first]._stacked.view(np.uint64))
        seen.add("mismatch" if found.gap == 1.0 else "gap")
        seen.add("later" if first else "first")
    assert seen == {"none", "mismatch", "gap", "first", "later"}


def counting_rng(monkeypatch):
    """Record every seeding of the stacked Haar draw."""
    calls = []

    def rng(seed, *keys):
        calls.append((seed, *keys))
        return _rng(seed, *keys)

    monkeypatch.setattr(measurement_module, "_rng", rng)
    return calls


def test_search_separating_at_trial_t_draws_at_most_2t_plus_1(monkeypatch):
    calls = counting_rng(monkeypatch)
    found = search_distinguishing_measurement(
        Mixture.point(E00), Mixture.point(E11), 10 ** 6, 2, 0)
    assert found.trial_index == 0
    assert 1 <= len(calls) <= 2
    for i, (d, k, _, a, b) in enumerate([*gap_cases(41, 80),
                                         *near_cases(45, 24)]):
        calls.clear()
        found = search_distinguishing_measurement(a, b, 40, k, 100 + i)
        if found is not None:
            assert len(calls) <= 2 * found.trial_index + 1
            assert calls[found.trial_index] == (100 + i, found.trial_index)


@pytest.mark.parametrize("k, chunks", [(2, [1, 2, 4, 8, 8, 8, 8, 1]),
                                       (64, [1] * 4)])
def test_search_chunks_stay_within_the_entry_budget(monkeypatch, k, chunks):
    """At d = 64 a chunk holds at most _CHUNK_ENTRIES complex entries, or
    one trial when a single trial's stack is larger."""
    sizes = []

    def spy(dim, k, seed, keys):
        stacks = _random_stacks(dim, k, seed, keys)
        assert stacks.size <= max(_CHUNK_ENTRIES, stacks[0].size)
        sizes.append(len(stacks))
        return stacks

    monkeypatch.setattr(distinguish_module, "_random_stacks", spy)
    rng = np.random.default_rng(64)
    a = Mixture.point(random_vector(rng, 64))
    assert search_distinguishing_measurement(a, a, sum(chunks), k, 0) is None
    assert sizes == chunks


def test_search_seed_fault_names_the_callers_seed():
    with pytest.raises(ShapeMismatchError, match=r"got -1 \("):
        search_distinguishing_measurement(Mixture.point(E01), CLASSICAL,
                                          5, 2, -1)


# ---------------------------------------------------------------------------
# Zero-constraint systems
# ---------------------------------------------------------------------------

def test_zero_constraints_on_qutrit_family():
    system = qutrit_system()
    assert system.zero_outcomes == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert system.anchor == (0, 0)
    cs = system.stack[:-1]
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
    assert system.stack.shape == (1, 2, 2)  # the anchor alone


@pytest.mark.parametrize("target, family", [
    (QUTRIT_SIGNED, FAMILY),
    (QUTRIT_SIGNED, FAMILY[:3]),
    (E00, (COMPUTATIONAL, DIAGONAL, WS.measurement("circular"))),
    (QUBIT_IDENTITY, (COMPUTATIONAL, DIAGONAL, WS.measurement("circular"))),
], ids=["qutrit-family", "qutrit-subfamily", "qubit-family-ket0_bra0",
        "qubit-family-identity-no-zeros"])
def test_system_stack_is_its_transposed_projectors(target, family):
    """The one coefficient stack: P^T of each zero outcome, then of the
    anchor, read-only C-contiguous complex128, bitwise."""
    system = zero_constraints(target, family)
    expected = np.array([family[mi].projectors[oi].matrix.T
                         for mi, oi in (*system.zero_outcomes, system.anchor)])
    stack = system.stack
    assert stack.shape == (len(system.zero_outcomes) + 1, *expected.shape[1:])
    assert stack.dtype == np.complex128
    assert stack.flags.c_contiguous and not stack.flags.writeable
    assert stack.tobytes() == expected.tobytes()


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
    for c, (mi, oi) in zip(system.stack[:-1], system.zero_outcomes):
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
    for c in system.stack[:-1]:
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
    yield pytest.param(system.stack[:-1], system.stack[-1], id="qutrit")
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


def rank_one_system(d, seed):
    """The zero-constraint system of the target P_0 on a Haar-random
    rank-one measurement: z = d - 1 generic complex constraints."""
    m = random_measurement(d, d, seed)
    return zero_constraints(TwoStateVector(m.projectors[0].matrix), [m])


def reference_floors(system, samples, seed):
    """Each batch's floor by the scan's definition: batch b draws its
    samples b * _SCAN_BATCH up to (b + 1) * _SCAN_BATCH from _rng(seed, b),
    one chunk of ``step`` samples at a time, as (Re alpha, Im alpha,
    Re beta, Im beta); unit rows, and one einsum for the amplitudes
    alpha^T C_z beta of each sample."""
    cs, d = system.stack[:-1], system.dim
    if len(cs) == 0:
        return [0.0]
    step = max(1, 2 ** 16 // (len(cs) * d))
    floors = []
    for i, lo in enumerate(range(0, samples, _SCAN_BATCH)):
        rng, n = _rng(seed, i), min(_SCAN_BATCH, samples - lo)
        g = np.concatenate([rng.standard_normal((4, min(step, n - c), d))
                            for c in range(0, n, step)], axis=1)
        a, b = g[0] + 1j * g[1], g[2] + 1j * g[3]
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        amps = np.einsum("nk,zkl,nl->nz", a, cs, b)
        floors.append(float(np.min(np.sum(np.abs(amps) ** 2, axis=1))))
    return floors


def reference_scan(system, samples, seed):
    return min(reference_floors(system, samples, seed))


@pytest.mark.parametrize("d, samples", [
    (1, 50),             # no zero outcome: z = 0
    (2, 3),
    (3, _SCAN_BATCH + 700),  # a whole batch, then a partial one
    (5, 2000),
    (8, 3000),           # z * d = 56: several chunks per batch
    (16, 3000),          # z * d = 240: a chunk of 273 samples
])
def test_scan_matches_its_definition(d, samples):
    system = rank_one_system(d, seed=d)
    assert len(system.zero_outcomes) == d - 1
    floor = scan_separable_residual(system, samples, 3)
    expected = reference_scan(system, samples, 3)
    assert floor == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert (floor == 0.0) == (d == 1)


def test_scan_minimum_past_the_first_batch_matches_its_definition():
    """Three d = 4 batches whose least floor is batch 2's."""
    system = rank_one_system(4, seed=4)
    floors = reference_floors(system, 3 * _SCAN_BATCH, 11)
    assert int(np.argmin(floors)) == 2
    floor = scan_separable_residual(system, 3 * _SCAN_BATCH, 11)
    assert floor == pytest.approx(min(floors), rel=1e-12, abs=0.0)


def test_scan_of_whole_batches_extends_a_shorter_one():
    system = qutrit_system()
    floors = [scan_separable_residual(system, k * _SCAN_BATCH, 5)
              for k in (1, 2, 3)]
    assert floors[0] >= floors[1] >= floors[2] > 0.0
    per_batch = reference_floors(system, 3 * _SCAN_BATCH, 5)
    for k, floor in enumerate(floors, 1):
        assert floor == pytest.approx(min(per_batch[:k]), rel=1e-12, abs=0.0)


def test_scan_memory_is_bounded_by_the_batch_draw():
    """Three d = 16 batches, each drawn one (4, 273, 16) float64 chunk at a
    time: no batch draw (32 MB at 2**16 samples) and no (n, d^2) pair
    array is held."""
    system = rank_one_system(16, seed=0)
    assert len(system.zero_outcomes) == 15
    tracemalloc.start()
    try:
        scan_separable_residual(system, 3 * _SCAN_BATCH, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_scan_runs_at_max_dim():
    system = rank_one_system(MAX_DIM, seed=1)
    floor = scan_separable_residual(system, 100, 0)
    assert floor == pytest.approx(reference_scan(system, 100, 0), rel=1e-12)
    assert 0.0 < floor < 1.0


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


@pytest.mark.parametrize("seed", ["bad", -1, 2.5])
def test_scan_refuses_a_bad_seed_without_zero_constraints(seed):
    """With no zero constraint the scan has nothing to sample, and still
    refuses the seed."""
    system = zero_constraints(QUBIT_IDENTITY, [WS.measurement("identity_qubit")])
    assert system.zero_outcomes == ()
    with pytest.raises(ShapeMismatchError, match="seed"):
        scan_separable_residual(system, 10, seed)


REPORTS = {
    "search": lambda i: search_distinguishing_measurement(
        Mixture.point(E00), Mixture.point(E11), i(5), 2, i(3)),
    "feasibility": lambda i: separable_feasibility(qutrit_system(), 2, i(0)),
    "abl validation": lambda i: validate_abl(PrePostExperiment(
        WS.state("ket0"), WS.state("ket1"), DIAGONAL, i(20000), i(0))),
}


@pytest.mark.parametrize("name", REPORTS)
def test_reports_of_numpy_integers_serialize_as_of_ints(name):
    expected = json.dumps(REPORTS[name](int).to_json())
    assert json.dumps(REPORTS[name](np.int64).to_json()) == expected


@pytest.mark.parametrize("build", [
    lambda i: FeasibilityReport(FeasibilityVerdict.INCONCLUSIVE, None, 1.0,
                                i(2), i(0)),
    lambda i: SearchResult(DIAGONAL, 0.5, i(1), i(3), i(0)),
], ids=["feasibility", "search"])
def test_reports_built_by_hand_store_plain_integers(build):
    """A report built outside the library's builders stores numpy
    integers as Python ints, so it serializes."""
    report = build(np.int64)
    assert json.dumps(report.to_json()) == json.dumps(build(int).to_json())
    for name in ("starts", "trial_index", "trials", "seed"):
        assert type(getattr(report, name, 0)) is int


def test_report_of_an_array_seed_serializes_as_of_a_list():
    report = separable_feasibility(qutrit_system(), 2, np.array([1, 2]))
    assert report.seed == [1, 2]
    assert report.to_json() == separable_feasibility(
        qutrit_system(), 2, [1, 2]).to_json()


def test_valid_seeds_draw_the_same_streams():
    """The seeding path hands numpy the seed material unchanged."""
    from twinspace.core import _rng
    for seed, keys in ((0, ()), (7, (3,)), ([7, 3], ()), (2 ** 70, (1, 2))):
        material = [seed, *keys] if keys else seed
        np.testing.assert_array_equal(
            _rng(seed, *keys).random(4),
            np.random.default_rng(material).random(4))


# ---------------------------------------------------------------------------
# Properties of generic inputs, and invariance under unitary conjugation
# ---------------------------------------------------------------------------
# Generic inputs of d <= 4 and 1-3 components, built from the seeds that
# hypothesis draws.  Conjugating every vector and projector by one unitary U
# keeps each outcome amplitude Tr(P Psi), so no verdict may change.

SEEDS = st.integers(0, 2**32 - 1)


def haar_unitary(rng, d):
    """A Haar-random d x d unitary: the QR of a complex Gaussian matrix,
    with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def conjugated(u, x):
    """U x U^dagger of a two-state vector, a measurement or a mixture."""
    if isinstance(x, Measurement):
        return Measurement([u @ p.matrix @ u.conj().T for p in x.projectors])
    if isinstance(x, Mixture):
        return Mixture(tuple((w, conjugated(u, v)) for w, v in x.components))
    return TwoStateVector(u @ x.matrix @ u.conj().T)


def generic_case(seed, d):
    """A generator, a random measurement with 1..d outcomes, and a mixture
    of 1-3 generic components of positive weight."""
    rng = np.random.default_rng(seed)
    m = random_measurement(d, int(rng.integers(1, d + 1)),
                           int(rng.integers(2**32)))
    weights = rng.random(int(rng.integers(1, 4))) + 0.1
    mix = Mixture(tuple((float(w), random_vector(rng, d))
                        for w in weights / weights.sum()))
    return rng, m, mix


def planted_replica(mix, m):
    """A point mixture with the statistics of ``mix`` on ``m`` alone: the
    vector sum_i sqrt(p_i) / rank_i P_i has amplitude sqrt(p_i) on P_i."""
    p = mixture_statistics(mix, m).probabilities
    return Mixture.point(TwoStateVector(sum(
        np.sqrt(pi) / q.rank * q.matrix for pi, q in zip(p, m.projectors))))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, d=st.integers(1, 4))
def test_a_mixture_replicates_itself(seed, d):
    _, m, mix = generic_case(seed, d)
    assert replicates_on(mix, mix, m)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, d=st.integers(1, 4), planted=st.booleans())
def test_verdicts_are_invariant_under_conjugation(seed, d, planted):
    """Mixture b is either generic or planted to replicate a on m; the
    planted one no longer does on the conjugated m unless b is conjugated
    too."""
    rng, m, a = generic_case(seed, d)
    b = planted_replica(a, m) if planted else generic_case(seed + 1, d)[2]
    v = random_vector(rng, d)
    u = haar_unitary(rng, d)
    verdict = replicates_on(a, b, m)
    assert verdict or not planted
    assert replicates_on(*(conjugated(u, x) for x in (a, b, m))) == verdict
    assert time_reversal_equivalence_check(
        conjugated(u, v), [conjugated(u, m)]) == \
        time_reversal_equivalence_check(v, [m])


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, d=st.integers(1, 4))
def test_mixture_statistics_are_invariant_under_conjugation(seed, d):
    rng, m, mix = generic_case(seed, d)
    u = haar_unitary(rng, d)
    np.testing.assert_allclose(
        mixture_statistics(conjugated(u, mix), conjugated(u, m)).probabilities,
        mixture_statistics(mix, m).probabilities, rtol=0.0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_conjugated_qutrit_stays_strictly_nonseparable(seed):
    u = haar_unitary(np.random.default_rng(seed), 3)
    report = certify_strict_nonseparability(
        conjugated(u, QUTRIT_SIGNED), [conjugated(u, m) for m in FAMILY],
        24, 0)
    assert report.verdict is CertificationVerdict.STRICTLY_NONSEPARABLE_EVIDENCE
