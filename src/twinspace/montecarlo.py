r"""Operational validation of the ABL rule by Born-rule simulation.

A separable two-state vector |pre> (x) <post| has a direct laboratory
reading: prepare ``pre``, perform the intermediate projective measurement,
then post-select on ``post``.  Each simulated trial samples outcome i with
probability <pre|P_i|pre>, collapses to P_i|pre>/||.||, and accepts the
trial with probability |<post|collapsed>|^2.

A mixture experiment draws its (pre, post) pair per trial from classical
weights; a ``PrePostExperiment`` is the one-component mixture, and both
run through one check, one sampler and one predictor.  Post-selection
weights each component by its success rate, so for unit pairs
v_c = |pre_c> (x) <post_c| the accepted outcome frequencies follow the
success-weighted rule

    Prob(i) = sum_c w_c |A_i(v_c)|^2 / sum_j sum_c w_c |A_j(v_c)|^2

over the story-forming components, which for one pair is the ABL rule of
the story (|pre> (x) <post|, measurement).  ``validate_abl`` and
``validate_mixture_abl`` compare against it with per-outcome binomial
standard-error bounds.  It matches the prior-weighted rule of
``distinguish.mixture_statistics`` only when all story-forming components
share one success rate (as in the bundled symmetric demos).

Trials are processed in fixed-size blocks; block b draws its generator
from the seed material (base seed, b) and takes from it, per block, the
component stream (only when there are several components), then the
outcome stream, then the acceptance stream.  Totals are sums over blocks,
so a run is reproducible bit-for-bit and independent of how blocks would
be distributed across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector, TwoStateVector
from .errors import (
    DimensionMismatchError,
    InsufficientTrialsError,
    NoSuccessesError,
    NotAStoryError,
    ShapeMismatchError,
)
from .measurement import (
    Measurement,
    OutcomeDistribution,
    _check_weights,
    _story_amplitudes,
    forms_story,
)

#: Trials per RNG block (the shard granularity of the seeding contract).
BLOCK_SIZE = 8192

#: Unit-norm slack accepted for pre/post states.
_NORM_TOL = 1e-9


def _check_experiment(components, measurement: Measurement,
                      trials: int) -> tuple:
    """The one experiment check; returns the components with float weights."""
    comps = tuple((float(w), pre, post) for w, pre, post in components)
    _check_weights(comps)
    for _, pre, post in comps:
        if pre.dim != measurement.dim or post.dim != measurement.dim:
            raise DimensionMismatchError(
                f"state dims ({pre.dim}, {post.dim}) != "
                f"measurement dim {measurement.dim}"
            )
        for state, name in ((pre, "pre"), (post, "post")):
            if abs(state.norm - 1.0) > _NORM_TOL:
                raise ShapeMismatchError(
                    f"{name} state must be normalized (norm = {state.norm!r})")
    if trials < 1:
        raise ShapeMismatchError(f"trials must be >= 1, got {trials}")
    if not any(w > 0.0 and forms_story(TwoStateVector.separable(pre, post),
                                       measurement)
               for w, pre, post in comps):
        raise NotAStoryError(
            "|pre> (x) <post| forms no story with the measurement; "
            "post-selection would never succeed"
        )
    return comps


@dataclass(frozen=True, eq=False)
class PrePostExperiment:
    """One pre-selection / measurement / post-selection experiment.

    ``pre`` and ``post`` are unit vectors of the measurement's dimension;
    the separable vector |pre> (x) <post| must form a story with the
    measurement, otherwise no trial can ever be post-selected on an
    outcome (NotAStory).
    """

    pre: StateVector
    post: StateVector
    measurement: Measurement
    trials: int
    seed: int

    def __post_init__(self):
        _check_experiment(self.components, self.measurement, self.trials)

    @property
    def components(self) -> tuple[tuple[float, StateVector, StateVector], ...]:
        """The experiment as a one-component mixture."""
        return ((1.0, self.pre, self.post),)

    def story_vector(self) -> TwoStateVector:
        """The separable two-state vector |pre> (x) <post|."""
        return TwoStateVector.separable(self.pre, self.post)


@dataclass(frozen=True, eq=False)
class TrialLog:
    """Joint counts of (outcome observed AND post-selection succeeded)."""

    outcome_counts: np.ndarray
    trials: int

    def __post_init__(self):
        counts = np.array(self.outcome_counts, dtype=np.int64, copy=True)
        counts.setflags(write=False)
        if counts.ndim != 1:
            raise ShapeMismatchError("outcome counts must be one-dimensional")
        if int(counts.sum()) > self.trials or np.any(counts < 0):
            raise ShapeMismatchError("counts exceed trials or are negative")
        object.__setattr__(self, "outcome_counts", counts)

    @property
    def successes(self) -> int:
        return int(self.outcome_counts.sum())

    def to_json(self) -> dict:
        return {
            "outcome_counts": [int(c) for c in self.outcome_counts],
            "trials": self.trials,
            "successes": self.successes,
        }


def merge_logs(a: TrialLog, b: TrialLog) -> TrialLog:
    """Combine shard results by addition."""
    if a.outcome_counts.shape != b.outcome_counts.shape:
        raise ShapeMismatchError("logs have different outcome counts")
    return TrialLog(a.outcome_counts + b.outcome_counts, a.trials + b.trials)


def _outcome_model(pre: StateVector, post: StateVector,
                   m: Measurement) -> tuple[np.ndarray, np.ndarray]:
    """Per-outcome sampling probabilities p and success probabilities q."""
    p = np.einsum("i,kij,j->k", pre.amplitudes.conj(), m._stacked,
                  pre.amplitudes).real
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    overlap = np.einsum("i,kij,j->k", post.amplitudes.conj(), m._stacked,
                        pre.amplitudes)
    joint = np.abs(overlap) ** 2
    q = np.divide(joint, p, out=np.zeros_like(joint), where=p > 0)
    return p, np.clip(q, 0.0, 1.0)


def joint_probabilities(exp: PrePostExperiment) -> np.ndarray:
    """Per-outcome probability of (outcome AND successful post-selection)."""
    joint = np.zeros(exp.measurement.num_outcomes)
    for w, pre, post in exp.components:
        amps, story = _story_amplitudes(TwoStateVector.separable(pre, post),
                                        exp.measurement)
        if story:
            joint += w * np.abs(amps) ** 2
    return joint


def success_probability(exp: PrePostExperiment) -> float:
    """Predicted post-selection success rate (sum of joint probabilities)."""
    return float(np.sum(joint_probabilities(exp)))


def _simulate_blocks(seed: int, trials: int, draw_block) -> np.ndarray:
    counts = 0
    for block, offset in enumerate(range(0, trials, BLOCK_SIZE)):
        rng = np.random.default_rng([seed, block])
        counts = counts + draw_block(rng, min(BLOCK_SIZE, trials - offset))
    return counts


def _sample(exp: PrePostExperiment | MixtureExperiment) -> TrialLog:
    k = exp.measurement.num_outcomes
    weights = np.array([w for w, _, _ in exp.components])
    cum_w = np.cumsum(weights / weights.sum())
    models = [_outcome_model(pre, post, exp.measurement)
              for _, pre, post in exp.components]
    n_comp = len(models)
    # Component c's cumulative outcome table, offset into [c, c + 1], so
    # one search finds every trial's outcome.
    cum = (np.arange(n_comp)[:, None]
           + np.stack([np.cumsum(p) for p, _ in models])).ravel()
    q = np.stack([qc for _, qc in models])

    def draw_block(rng: np.random.Generator, n: int) -> np.ndarray:
        comp = 0
        if n_comp > 1:
            comp = np.searchsorted(cum_w, rng.random(n), side="right")
            comp = np.minimum(comp, n_comp - 1)
        outcomes = np.searchsorted(cum, comp + rng.random(n), side="right")
        outcomes = np.clip(outcomes - comp * k, 0, k - 1)
        accepted = rng.random(n) < q[comp, outcomes]
        return np.bincount(outcomes[accepted], minlength=k)

    return TrialLog(_simulate_blocks(exp.seed, exp.trials, draw_block),
                    exp.trials)


def simulate(exp: PrePostExperiment) -> TrialLog:
    """Run the experiment; returns joint success counts per outcome.

    Deterministic in the experiment seed, and identical to merging
    per-block runs because block b always draws from (seed, b).
    """
    return _sample(exp)


def empirical_distribution(log: TrialLog) -> OutcomeDistribution:
    """Joint counts divided by total successes."""
    if log.successes == 0:
        raise NoSuccessesError("no post-selection successes recorded")
    return OutcomeDistribution(log.outcome_counts / log.successes)


@dataclass(frozen=True, eq=False)
class ValidationRow:
    outcome: int
    label: str | None
    predicted: float
    empirical: float
    deviation_sigmas: float
    ok: bool


@dataclass(frozen=True, eq=False)
class AblValidation:
    """Comparison of empirical frequencies against the ABL prediction."""

    rows: tuple[ValidationRow, ...]
    trials: int
    successes: int
    sigma_bound: float

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def format_table(self) -> str:
        lines = [
            f"{'outcome':<10}{'predicted':>16}{'empirical':>16}"
            f"{'sigma':>10}  status"
        ]
        for row in self.rows:
            name = row.label if row.label is not None else str(row.outcome)
            sigma = ("inf" if np.isinf(row.deviation_sigmas)
                     else f"{row.deviation_sigmas:.2f}")
            lines.append(
                f"{name:<10}{row.predicted:>16.12f}{row.empirical:>16.12f}"
                f"{sigma:>10}  {'ok' if row.ok else 'FAIL'}"
            )
        lines.append(
            f"successes {self.successes}/{self.trials}; "
            f"bound {self.sigma_bound:g} sigma; "
            f"{'pass' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "outcome": row.outcome,
                    "label": row.label,
                    "predicted": row.predicted,
                    "empirical": row.empirical,
                    "deviation_sigmas": row.deviation_sigmas,
                    "ok": row.ok,
                }
                for row in self.rows
            ],
            "trials": self.trials,
            "successes": self.successes,
            "sigma_bound": self.sigma_bound,
            "passed": self.passed,
        }


def _check_expected_successes(joint: np.ndarray, trials: int) -> None:
    expected = trials * joint
    low = (joint > 1e-12) & (expected < 100.0)
    if np.any(low):
        i = int(np.argmax(low))
        raise InsufficientTrialsError(
            f"outcome {i} expects only {expected[i]:.1f} successes at "
            f"{trials} trials; need >= 100 for the sigma bound to be "
            "meaningful"
        )


def _build_validation(counts: np.ndarray, trials: int,
                      predicted: OutcomeDistribution,
                      labels: tuple[str, ...] | None,
                      sigma_bound: float) -> AblValidation:
    successes = int(counts.sum())
    if successes == 0:
        raise NoSuccessesError("no post-selection successes recorded")
    rows = []
    for i, p_hat in enumerate(predicted):
        freq = counts[i] / successes
        se = float(np.sqrt(p_hat * (1.0 - p_hat) / successes))
        if se == 0.0:
            dev = 0.0 if freq == p_hat else float("inf")
        else:
            dev = abs(freq - p_hat) / se
        rows.append(ValidationRow(
            i, labels[i] if labels else None, float(p_hat), float(freq),
            dev, bool(dev < sigma_bound),
        ))
    return AblValidation(tuple(rows), trials, successes, sigma_bound)


def _validate(exp: PrePostExperiment | MixtureExperiment,
              sigma_bound: float) -> AblValidation:
    if not 0.0 < sigma_bound < math.inf:
        raise ShapeMismatchError(
            f"sigma bound {sigma_bound!r} not in (0, inf)")
    joint = joint_probabilities(exp)
    _check_expected_successes(joint, exp.trials)
    log = _sample(exp)
    return _build_validation(log.outcome_counts, exp.trials,
                             OutcomeDistribution(joint / joint.sum()),
                             exp.measurement.labels, sigma_bound)


def validate_abl(exp: PrePostExperiment, sigma_bound: float = 4.0) -> AblValidation:
    """Simulate and compare against the ABL probabilities of the story.

    Requires every predicted nonzero outcome to expect at least 100
    successes at the configured trial count (InsufficientTrialsError, a
    ValueError, otherwise).
    Passes iff every outcome frequency deviates by less than
    ``sigma_bound`` binomial standard errors; a bound that is not finite
    and positive is refused (ShapeMismatchError).
    """
    return _validate(exp, sigma_bound)


# ---------------------------------------------------------------------------
# Mixtures of separable experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixtureExperiment:
    """Per-trial draw of a (pre, post) pair from classical weights."""

    components: tuple[tuple[float, StateVector, StateVector], ...]
    measurement: Measurement
    trials: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "components", _check_experiment(
            self.components, self.measurement, self.trials))


def simulate_mixture(mexp: MixtureExperiment) -> TrialLog:
    """Simulate with the pre/post pair redrawn from the weights per trial;
    accepted trials follow the success-weighted rule (module docstring)."""
    return _sample(mexp)


def validate_mixture_abl(mexp: MixtureExperiment,
                         sigma_bound: float = 4.0) -> AblValidation:
    """Simulate a mixture and compare against the success-weighted rule
    sum_c w_c |A_i(v_c)|^2 over the story-forming components, normalized
    over outcomes i: exactly what ``simulate_mixture`` samples."""
    return _validate(mexp, sigma_bound)
