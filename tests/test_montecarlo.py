"""Born-rule simulation of pre/post-selected experiments against the ABL
prediction, including block-seeded reproducibility and mixtures."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twinspace import (
    BLOCK_SIZE,
    DimensionMismatchError,
    InsufficientTrialsError,
    Mixture,
    MixtureExperiment,
    NoSuccessesError,
    NotAStoryError,
    PrePostExperiment,
    ShapeMismatchError,
    StateVector,
    TrialLog,
    TwinspaceError,
    TwoStateVector,
    empirical_distribution,
    forms_story,
    joint_probabilities,
    mixture_statistics,
    outcome_amplitudes,
    random_measurement,
    simulate,
    simulate_mixture,
    validate_abl,
    validate_mixture_abl,
)
from twinspace.montecarlo import _build_validation
from twinspace.workspace import builtin_workspace

WS = builtin_workspace()
KET0 = WS.state("ket0")
KET1 = WS.state("ket1")
PLUS = WS.state("plus")
COMPUTATIONAL = WS.measurement("computational")
DIAGONAL = WS.measurement("diagonal")

GOLDEN = PrePostExperiment(KET0, KET1, DIAGONAL, trials=100_000, seed=42)


def _outcome_model(pre, post, m):
    """Reference sampling model, written out independently of the package:
    Born probabilities p_i = <pre|P_i|pre> and acceptances
    q_i = |<post|P_i|pre>|^2 / p_i."""
    stack = np.stack([proj.matrix for proj in m.projectors])
    p = np.einsum("i,kij,j->k", pre.amplitudes.conj(), stack,
                  pre.amplitudes).real
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    overlap = np.einsum("i,kij,j->k", post.amplitudes.conj(), stack,
                        pre.amplitudes)
    joint = np.abs(overlap) ** 2
    q = np.divide(joint, p, out=np.zeros_like(joint), where=p > 0)
    return p, np.clip(q, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Experiment validation
# ---------------------------------------------------------------------------

def test_experiment_requires_unit_states():
    with pytest.raises(ShapeMismatchError):
        PrePostExperiment(StateVector([1.0, 1.0]), KET1, DIAGONAL, 100, 0)


def test_experiment_requires_matching_dims():
    with pytest.raises(DimensionMismatchError):
        PrePostExperiment(WS.state("qutrit0"), KET1, DIAGONAL, 100, 0)


def test_experiment_requires_positive_trials():
    with pytest.raises(ShapeMismatchError):
        PrePostExperiment(KET0, KET1, DIAGONAL, 0, 0)


@pytest.mark.parametrize("weight", [np.nan, np.inf])
def test_mixture_experiment_refuses_non_finite_weight(weight):
    with pytest.raises(ShapeMismatchError):
        MixtureExperiment(((weight, PLUS, PLUS), (1.0, KET0, KET1)),
                          DIAGONAL, 1000, 0)


def test_experiment_requires_story():
    # measuring in the computational basis can never post-select |1> from |0>
    with pytest.raises(NotAStoryError):
        PrePostExperiment(KET0, KET1, COMPUTATIONAL, 100, 0)


def test_mixture_story_gate_counts_only_positive_weights():
    # only the zero-weight component forms a computational story
    with pytest.raises(NotAStoryError):
        MixtureExperiment(((1.0, KET0, KET1), (0.0, PLUS, PLUS)),
                          COMPUTATIONAL, 20000, 0)


def test_zero_weight_component_leaves_prediction_unchanged():
    alone = PrePostExperiment(KET0, PLUS, DIAGONAL, 20000, 0)
    padded = MixtureExperiment(((1.0, KET0, PLUS), (0.0, KET1, PLUS)),
                               DIAGONAL, 20000, 0)
    np.testing.assert_array_equal(joint_probabilities(padded),
                                  joint_probabilities(alone))


def test_each_component_is_built_once(builds):
    """Constructing an experiment builds one separable two-state vector per
    component, from its checked unit states without a second check;
    predicting, simulating and validating it build none, and nothing on
    these paths is checked again."""
    exp = PrePostExperiment(KET0, KET1, DIAGONAL, 20_000, 0)
    assert builds.of(TwoStateVector) == 1
    mexp = MixtureExperiment(((0.5, PLUS, PLUS), (0.0, KET0, KET0),
                              (0.5, KET0, KET1)), DIAGONAL, 20_000, 0)
    assert builds.of(TwoStateVector) == 4
    joint_probabilities(exp)
    joint_probabilities(mexp)
    simulate(exp)
    simulate_mixture(mexp)
    validate_abl(exp)
    validate_mixture_abl(mexp)
    assert builds.of(TwoStateVector) == 4
    assert builds.of(kind="checked") == 0


def test_story_vector_is_separable_pair():
    """The experiment's joint table, one row for its one component, holds
    the squared outcome amplitudes of the separable pair |pre> (x) <post|."""
    pre, post = GOLDEN.components[0][1:]
    np.testing.assert_array_equal(GOLDEN._joint, [np.abs(outcome_amplitudes(
        TwoStateVector.separable(pre, post), DIAGONAL)) ** 2])


# ---------------------------------------------------------------------------
# Joint probabilities
# ---------------------------------------------------------------------------

def test_joint_probabilities_golden():
    # sampling p = (1/2, 1/2); acceptance |<1|P_pm|0>|^2 / p = 1/2 each
    np.testing.assert_allclose(joint_probabilities(GOLDEN), [0.25, 0.25],
                               atol=1e-15)
    assert joint_probabilities(GOLDEN).sum() == pytest.approx(0.5, abs=1e-15)


def test_joint_probabilities_deterministic_branch():
    exp = PrePostExperiment(KET0, PLUS, COMPUTATIONAL, 1000, 0)
    np.testing.assert_allclose(joint_probabilities(exp), [0.5, 0.0],
                               atol=1e-15)


# ---------------------------------------------------------------------------
# Simulation determinism and sharding
# ---------------------------------------------------------------------------

def test_simulate_bit_for_bit_deterministic():
    a = simulate(GOLDEN)
    b = simulate(GOLDEN)
    np.testing.assert_array_equal(a.outcome_counts, b.outcome_counts)


def test_simulate_seed_changes_counts():
    other = PrePostExperiment(KET0, KET1, DIAGONAL, 100_000, 43)
    assert not np.array_equal(simulate(GOLDEN).outcome_counts,
                              simulate(other).outcome_counts)


def test_block_accumulation_matches_manual_shards():
    """A long run equals the sum of independently re-drawn per-block shards."""
    trials = 2 * BLOCK_SIZE + 137
    exp = PrePostExperiment(KET0, KET1, DIAGONAL, trials, seed=7)
    full = simulate(exp).outcome_counts

    # shard-by-shard rebuild from the documented contract: block b draws its
    # generator from (seed, b), outcome stream first, acceptance second
    p, q = _outcome_model(KET0, KET1, DIAGONAL)
    cum = np.cumsum(p)
    total = np.zeros(2, dtype=np.int64)
    offset, block = 0, 0
    while offset < trials:
        n = min(BLOCK_SIZE, trials - offset)
        rng = np.random.default_rng([7, block])
        outcomes = np.minimum(
            np.searchsorted(cum, rng.random(n), side="right"), 1
        )
        accepted = rng.random(n) < q[outcomes]
        total += np.bincount(outcomes[accepted], minlength=2)
        offset += n
        block += 1
    np.testing.assert_array_equal(full, total)


def test_mixture_block_accumulation_matches_manual_shards():
    """The mixture contract: block b draws from (seed, b), the component
    stream first, then the outcome stream, then acceptance."""
    trials = 2 * BLOCK_SIZE + 137
    comps = ((0.25, PLUS, PLUS), (0.75, KET0, KET1))
    full = simulate_mixture(
        MixtureExperiment(comps, DIAGONAL, trials, seed=7)).outcome_counts

    models = [_outcome_model(pre, post, DIAGONAL) for _, pre, post in comps]
    cum_w = np.cumsum([w for w, _, _ in comps])
    total = np.zeros(2, dtype=np.int64)
    offset, block = 0, 0
    while offset < trials:
        n = min(BLOCK_SIZE, trials - offset)
        rng = np.random.default_rng([7, block])
        comp = np.minimum(np.searchsorted(cum_w, rng.random(n), side="right"), 1)
        u = rng.random(n)
        outcomes = np.empty(n, dtype=np.int64)
        for c, (p, _) in enumerate(models):
            outcomes[comp == c] = np.searchsorted(np.cumsum(p), u[comp == c],
                                                  side="right")
        outcomes = np.minimum(outcomes, 1)
        q = np.stack([qc for _, qc in models])[comp, outcomes]
        accepted = rng.random(n) < q
        total += np.bincount(outcomes[accepted], minlength=2)
        offset += n
        block += 1
    np.testing.assert_array_equal(full, total)


def test_trial_log_validation():
    with pytest.raises(ShapeMismatchError):
        TrialLog(np.array([5, 6]), trials=10)  # counts exceed trials
    with pytest.raises(ShapeMismatchError):
        TrialLog(np.array([-1, 0]), trials=10)
    # Counts are whole numbers, never truncated; trials follow the count
    # rule.
    for counts, trials in (([1.5, 2], 10), ([np.nan, 1], 10), ([2**70], 10),
                           ([1, 2], "x"), ([1, 2], 0), ([1, 2], True)):
        with pytest.raises(ShapeMismatchError):
            TrialLog(counts, trials)
    log = TrialLog([1.0, 2.0], np.int64(10))
    np.testing.assert_array_equal(log.outcome_counts, [1, 2])
    assert log.outcome_counts.dtype == np.int64 and type(log.trials) is int


def test_simulate_builds_its_log_without_a_second_check(monkeypatch):
    exp = PrePostExperiment(KET0, KET1, DIAGONAL, trials=100, seed=3)
    expected = simulate(exp).outcome_counts

    def refuse(self):
        raise AssertionError("TrialLog checked again")

    monkeypatch.setattr(TrialLog, "__post_init__", refuse)
    log = simulate(exp)
    np.testing.assert_array_equal(log.outcome_counts, expected)
    assert log.trials == 100 and not log.outcome_counts.flags.writeable


# ---------------------------------------------------------------------------
# Empirical distributions and validation
# ---------------------------------------------------------------------------

def test_empirical_distribution():
    log = TrialLog(np.array([30, 10]), trials=100)
    dist = empirical_distribution(log)
    np.testing.assert_allclose(dist.probabilities, [0.75, 0.25])


def test_empirical_distribution_requires_successes():
    with pytest.raises(NoSuccessesError):
        empirical_distribution(TrialLog(np.array([0, 0]), trials=5))


def test_success_rate_matches_prediction():
    log = simulate(GOLDEN)
    rate = log.successes / GOLDEN.trials
    se = np.sqrt(0.5 * 0.5 / GOLDEN.trials)
    assert abs(rate - joint_probabilities(GOLDEN).sum()) < 4 * se


def test_validate_abl_golden_passes():
    report = validate_abl(GOLDEN)
    assert report.passed
    assert report.successes > 0
    for row in report.rows:
        assert row.predicted == pytest.approx(0.5, abs=1e-12)
        assert row.deviation_sigmas < 4.0


def test_validate_abl_deterministic_outcome():
    exp = PrePostExperiment(
        WS.state("qutrit0"), WS.state("qutrit0"),
        WS.measurement("qutrit_family_1"), 50_000, 3,
    )
    report = validate_abl(exp)
    assert report.passed
    assert report.rows[0].predicted == pytest.approx(1.0)
    assert report.rows[0].empirical == 1.0


def test_validate_abl_needs_enough_expected_successes():
    small = PrePostExperiment(KET0, KET1, DIAGONAL, trials=200, seed=0)
    with pytest.raises(ValueError):
        validate_abl(small)


def test_insufficient_trials_is_a_twinspace_error():
    small = PrePostExperiment(KET0, KET1, DIAGONAL, trials=200, seed=0)
    with pytest.raises(InsufficientTrialsError) as exc:
        validate_abl(small)
    assert isinstance(exc.value, TwinspaceError)
    assert isinstance(exc.value, ValueError)


def test_validation_flags_biased_counts():
    from twinspace import abl_probabilities

    predicted = abl_probabilities(TwoStateVector.separable(KET0, KET1),
                                  DIAGONAL)
    biased = _build_validation(np.array([40_000, 10_000]), 100_000,
                               predicted, DIAGONAL.labels, 4.0)
    assert not biased.passed
    assert "FAIL" in biased.format_table()


def test_format_table_shape():
    table = validate_abl(GOLDEN).format_table()
    lines = table.splitlines()
    assert lines[0].startswith("outcome")
    assert lines[-1].endswith("pass")
    assert len(lines) == 2 + DIAGONAL.num_outcomes


# ---------------------------------------------------------------------------
# Mixture experiments
# ---------------------------------------------------------------------------

def classical_experiment(trials=60_000, seed=11):
    return MixtureExperiment(
        ((0.5, KET0, KET0), (0.5, KET1, KET1)),
        COMPUTATIONAL, trials, seed,
    )


@pytest.mark.parametrize("pre, post, m, trials, seed", [
    (KET0, KET1, DIAGONAL, 100_000, 42),
    (PLUS, KET0, COMPUTATIONAL, 30_000, 5),
    (WS.state("qutrit_plus"), WS.state("qutrit_plus_i"),
     WS.measurement("qutrit_family_3"), 50_000, 9),
], ids=["golden", "zero_outcome", "qutrit"])
def test_one_component_mixture_is_the_pre_post_experiment(pre, post, m,
                                                           trials, seed):
    """A pre/post experiment is the one-component mixture: same seed, same
    counts and the same validation rows."""
    exp = PrePostExperiment(pre, post, m, trials, seed)
    mexp = MixtureExperiment(((1.0, pre, post),), m, trials, seed)
    np.testing.assert_array_equal(simulate(exp).outcome_counts,
                                  simulate_mixture(mexp).outcome_counts)
    a, b = validate_abl(exp), validate_mixture_abl(mexp)
    assert [astuple(row) for row in a.rows] == [astuple(row) for row in b.rows]
    assert (a.trials, a.successes, a.passed) == (b.trials, b.successes, b.passed)


def test_pre_post_experiment_is_a_mixture_experiment():
    exp = PrePostExperiment(KET0, KET1, DIAGONAL, 1000, 0)
    assert type(exp) is MixtureExperiment
    assert exp.components == ((1.0, KET0, KET1),)
    assert (exp.measurement, exp.trials, exp.seed) == (DIAGONAL, 1000, 0)
    assert simulate_mixture is simulate
    assert validate_mixture_abl is validate_abl


@pytest.mark.parametrize("components", [
    ((1.0, KET0),), ((1.0, KET0, KET1, KET1),), (1.0,),
    ((1.0, KET0, [0.0, 1.0]),), ((1.0, WS.vector("ket0_bra1"), KET1),),
], ids=["pair", "quadruple", "bare weight", "list post", "vector pre"])
def test_mixture_experiment_refuses_a_component_that_is_no_pair(components):
    """One component rule: a (weight, pre, post) tuple or list of states,
    checked before it is unpacked."""
    with pytest.raises(ShapeMismatchError, match="component"):
        MixtureExperiment(components, DIAGONAL, 1000, 0)


@pytest.mark.parametrize("measurement", ["x", np.eye(2), None],
                         ids=["string", "matrix", "none"])
def test_mixture_experiment_refuses_a_measurement_that_is_no_measurement(
        measurement):
    """The measurement is checked as the components are: a library error,
    not an AttributeError from its first use."""
    with pytest.raises(ShapeMismatchError, match="Measurement"):
        MixtureExperiment(((1.0, KET0, KET1),), measurement, 100, 0)
    with pytest.raises(ShapeMismatchError, match="Measurement"):
        PrePostExperiment(KET0, KET1, measurement, 100, 0)


@pytest.mark.parametrize("pre, post", [(KET0, [0.0, 1.0]),
                                       ([1.0, 0.0], KET1)])
def test_pre_post_experiment_refuses_a_state_that_is_no_state_vector(pre,
                                                                    post):
    with pytest.raises(ShapeMismatchError, match="component"):
        PrePostExperiment(pre, post, DIAGONAL, 1000, 0)


def test_mixture_experiment_validation():
    with pytest.raises(ShapeMismatchError):
        MixtureExperiment(((0.7, KET0, KET0), (0.5, KET1, KET1)),
                          COMPUTATIONAL, 100, 0)
    with pytest.raises(NotAStoryError):
        MixtureExperiment(((0.5, KET0, KET1), (0.5, KET1, KET0)),
                          COMPUTATIONAL, 100, 0)


def test_simulate_mixture_deterministic():
    a = simulate_mixture(classical_experiment())
    b = simulate_mixture(classical_experiment())
    np.testing.assert_array_equal(a.outcome_counts, b.outcome_counts)


def test_mixture_agrees_with_convex_statistics():
    """The classical mixture has symmetric success rates, so the simulated
    conditional frequencies must match the convex-combination rule."""
    mexp = classical_experiment()
    report = validate_mixture_abl(mexp)
    assert report.passed
    mix = WS.mixture("classical_qubit")
    predicted = mixture_statistics(mix, COMPUTATIONAL)
    for row, p in zip(report.rows, predicted):
        assert row.predicted == pytest.approx(p, abs=1e-12)


def test_mixture_on_diagonal_measurement():
    mexp = MixtureExperiment(((0.5, KET0, KET0), (0.5, KET1, KET1)),
                             DIAGONAL, 60_000, 4)
    report = validate_mixture_abl(mexp)
    assert report.passed
    for row in report.rows:
        assert row.predicted == pytest.approx(0.5, abs=1e-12)


def test_mixture_prediction_weights_by_post_selection_success():
    """plus->plus always passes post-selection and lands on '+'; ket0->ket1
    passes a quarter of the time per outcome.  The success-weighted rule
    predicts (0.625, 0.125) / 0.75 = (5/6, 1/6), not the prior-weighted
    (3/4, 1/4)."""
    mexp = MixtureExperiment(((0.5, PLUS, PLUS), (0.5, KET0, KET1)),
                             DIAGONAL, 100_000, 0)
    report = validate_mixture_abl(mexp)
    assert [row.predicted for row in report.rows] == pytest.approx(
        [5.0 / 6.0, 1.0 / 6.0], abs=1e-12)
    assert report.sigma_bound == 4.0
    assert report.passed


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 4), n_pairs=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_two_mixture_rules_are_one_rule(d, n_pairs, seed):
    """Sampling pair c at u_c = w_c / S_c, with S_c = sum_j |A_j(v_c)|^2
    its success rate, gives the prior-weighted statistics of the weights
    w_c.  A zero-weight component and, from d = 2, a component with no
    story ride along on both sides."""
    rng = np.random.default_rng(seed)
    m = random_measurement(d, int(rng.integers(1, d + 1)), seed)

    def unit():
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return StateVector(z / np.linalg.norm(z))

    pairs = [(unit(), unit()) for _ in range(n_pairs)]
    vectors = [TwoStateVector.separable(pre, post) for pre, post in pairs]
    rates = [float(np.sum(np.abs(outcome_amplitudes(v, m)) ** 2))
             for v in vectors]
    assume(min(rates) > 1e-6)
    prior = list(rng.random(n_pairs) + 0.1)
    sampled = [w / s for w, s in zip(prior, rates)]
    pairs.append(pairs[0])
    prior.append(0.0)
    sampled.append(0.0)
    if d > 1:
        # pre in the range of P_0 and post orthogonal to it: every
        # <post|P_i|pre> vanishes.
        cols = m.projectors[0].matrix
        pre = StateVector.normalized(cols[:, np.argmax(np.abs(cols).sum(0))])
        z = unit().amplitudes
        post = StateVector.normalized(
            z - np.vdot(pre.amplitudes, z) * pre.amplitudes)
        pairs.append((pre, post))
        assert not forms_story(TwoStateVector.separable(pre, post), m)
        prior.append(0.3)
        sampled.append(0.3)
    vectors = [TwoStateVector.separable(pre, post) for pre, post in pairs]
    prior = np.array(prior) / sum(prior)
    sampled = np.array(sampled) / sum(sampled)
    stats = mixture_statistics(Mixture(tuple(zip(prior, vectors))), m)
    mexp = MixtureExperiment(tuple((u, pre, post) for u, (pre, post)
                                   in zip(sampled, pairs)), m, 1, seed)
    joint = joint_probabilities(mexp)
    np.testing.assert_allclose(joint / joint.sum(), stats.probabilities,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("bound", [np.inf, np.nan, 0.0, -1.0])
def test_validation_refuses_meaningless_sigma_bound(bound):
    with pytest.raises(ShapeMismatchError):
        validate_abl(GOLDEN, bound)
    mexp = MixtureExperiment(((0.5, PLUS, PLUS), (0.5, KET0, KET1)),
                             DIAGONAL, 20000, 0)
    with pytest.raises(ShapeMismatchError):
        validate_mixture_abl(mexp, bound)


@pytest.mark.parametrize("bound", ["4", None, True, 4 + 0j])
def test_validation_refuses_a_sigma_bound_that_is_no_real_number(bound):
    """A bool is no bound: True used to run a 1-sigma check."""
    with pytest.raises(ShapeMismatchError, match="real number"):
        validate_abl(GOLDEN, bound)
    mexp = MixtureExperiment(((0.5, PLUS, PLUS), (0.5, KET0, KET1)),
                             DIAGONAL, 20000, 0)
    with pytest.raises(ShapeMismatchError, match="real number"):
        validate_mixture_abl(mexp, bound)


@pytest.mark.parametrize("weight", ["1", "0.5", None, 1 + 0j, True])
def test_mixture_experiment_refuses_a_weight_that_is_no_real_number(weight):
    with pytest.raises(ShapeMismatchError, match="real number"):
        MixtureExperiment(((weight, KET0, KET1), (0.5, PLUS, PLUS)),
                          DIAGONAL, 1000, 0)


def test_simulation_refuses_a_negative_seed():
    """Refused when the experiment is built, so no simulation can start."""
    with pytest.raises(ShapeMismatchError, match="seed.*-1"):
        PrePostExperiment(KET0, KET1, DIAGONAL, trials=100, seed=-1)
    with pytest.raises(ShapeMismatchError, match="seed.*-1"):
        MixtureExperiment(((1.0, KET0, KET1),), DIAGONAL, 100, -1)


def test_validate_abl_refuses_an_experiment_expecting_too_few_successes():
    """Both joint probabilities sit below montecarlo._JOINT_FLOOR, so no
    outcome falls under the per-outcome rule; the experiment as a whole
    expects 2e-7 successes and is refused before it simulates."""
    s = 1e-13
    pre = StateVector.normalized([np.sqrt(1.0 - s), np.sqrt(s)])
    post = StateVector.normalized([np.sqrt(s), np.sqrt(1.0 - s)])
    exp = PrePostExperiment(pre, post, COMPUTATIONAL, 10**6, 0)
    np.testing.assert_allclose(joint_probabilities(exp), [s, s], rtol=1e-9)
    with pytest.raises(InsufficientTrialsError, match="successes"):
        validate_abl(exp)
