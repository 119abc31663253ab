"""Born-rule simulation of pre/post-selected experiments against the ABL
prediction, including block-seeded reproducibility and mixtures."""

from dataclasses import astuple

import numpy as np
import pytest

from twinspace import (
    BLOCK_SIZE,
    DimensionMismatchError,
    InsufficientTrialsError,
    MixtureExperiment,
    NoSuccessesError,
    NotAStoryError,
    PrePostExperiment,
    ShapeMismatchError,
    StateVector,
    TrialLog,
    TwinspaceError,
    empirical_distribution,
    joint_probabilities,
    merge_logs,
    mixture_statistics,
    simulate,
    simulate_mixture,
    success_probability,
    validate_abl,
    validate_mixture_abl,
)
from twinspace.montecarlo import _build_validation, _outcome_model
from twinspace.workspace import builtin_workspace

WS = builtin_workspace()
KET0 = WS.state("ket0")
KET1 = WS.state("ket1")
PLUS = WS.state("plus")
COMPUTATIONAL = WS.measurement("computational")
DIAGONAL = WS.measurement("diagonal")

GOLDEN = PrePostExperiment(KET0, KET1, DIAGONAL, trials=100_000, seed=42)


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


def test_story_vector_is_separable_pair():
    np.testing.assert_allclose(
        GOLDEN.story_vector().matrix,
        np.outer(KET0.amplitudes, KET1.amplitudes.conj()),
    )


# ---------------------------------------------------------------------------
# Joint probabilities
# ---------------------------------------------------------------------------

def test_joint_probabilities_golden():
    # sampling p = (1/2, 1/2); acceptance |<1|P_pm|0>|^2 / p = 1/2 each
    np.testing.assert_allclose(joint_probabilities(GOLDEN), [0.25, 0.25],
                               atol=1e-15)
    assert success_probability(GOLDEN) == pytest.approx(0.5, abs=1e-15)


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


def test_merge_logs_adds():
    a = TrialLog(np.array([3, 4]), trials=10)
    b = TrialLog(np.array([1, 0]), trials=5)
    merged = merge_logs(a, b)
    np.testing.assert_array_equal(merged.outcome_counts, [4, 4])
    assert merged.trials == 15
    assert merged.successes == 8
    with pytest.raises(ShapeMismatchError):
        merge_logs(a, TrialLog(np.array([1, 2, 3]), trials=6))


def test_trial_log_validation():
    with pytest.raises(ShapeMismatchError):
        TrialLog(np.array([5, 6]), trials=10)  # counts exceed trials
    with pytest.raises(ShapeMismatchError):
        TrialLog(np.array([-1, 0]), trials=10)


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
    assert abs(rate - success_probability(GOLDEN)) < 4 * se


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

    predicted = abl_probabilities(GOLDEN.story_vector(), DIAGONAL)
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


@pytest.mark.parametrize("bound", [np.inf, np.nan, 0.0, -1.0])
def test_validation_refuses_meaningless_sigma_bound(bound):
    with pytest.raises(ShapeMismatchError):
        validate_abl(GOLDEN, bound)
    mexp = MixtureExperiment(((0.5, PLUS, PLUS), (0.5, KET0, KET1)),
                             DIAGONAL, 20000, 0)
    with pytest.raises(ShapeMismatchError):
        validate_mixture_abl(mexp, bound)
