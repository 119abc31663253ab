r"""Operational validation of the ABL rule by Born-rule simulation.

A separable two-state vector |pre> (x) <post| has a direct laboratory
reading: prepare ``pre``, perform the intermediate projective measurement,
then post-select on ``post``.  Each simulated trial samples outcome i with
probability p_i = <pre|P_i|pre>, collapses to P_i|pre>/||.||, and accepts the
trial with probability q_i = |A_i|^2 / p_i, where A_i = <post|P_i|pre>.

There is one experiment type, ``MixtureExperiment``: it draws its (pre,
post) pair per trial from classical weights.  ``PrePostExperiment`` builds
its one-component form, and ``simulate`` and ``validate_abl`` serve every
experiment (``simulate_mixture`` and ``validate_mixture_abl`` are other
names for them).  Building an experiment runs the one per-component pass of
``measurement`` once, on one separable vector v_c = |pre_c> (x) <post_c|
per component, and stores one (component, outcome) table: |A_i(v_c)|^2 on
the story rows (positive weight, and v_c forms a story), 0 elsewhere.  The
story gate, the predictor and the sampler's acceptances all read that
table (q_i = 0 off the story rows).  Post-selection weights each component
by its success rate S_c = sum_j |A_j(v_c)|^2, so accepted outcome
frequencies follow the success-weighted rule

    Prob(i) = sum_c w_c |A_i(v_c)|^2 / sum_j sum_c w_c |A_j(v_c)|^2

over the story rows: for one pair, the ABL rule.  It is the prior-weighted
rule of ``distinguish.mixture_statistics`` in other weights: sampling at
u_c = w_c / S_c (normalized) reproduces the prior-weighted statistics of the
weights w_c, so the two agree at equal weights only when all S_c are equal.

Trials are processed in fixed-size blocks; block b draws its generator
from the seed material (base seed, b) and takes from it, per block, the
component stream (only when there are several components), then the
outcome stream, then the acceptance stream.  Blocks are counted on the
library's threads (``core._map``, one share of the blocks per worker) and
their integer counts summed, an exact sum, so a run is reproducible
bit-for-bit and independent of how the blocks are split across workers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (StateVector, TwoStateVector, _array, _check_unit, _count,
                   _frozen, _map, _plain, _real, _rng, _unchecked)
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
    _amplitudes,
    _check_weights,
    _story_pass,
)

#: Trials per RNG block (the shard granularity of the seeding contract).
BLOCK_SIZE = 8192

#: Joint probability at or below which validate_abl treats an outcome as
#: impossible, so exempt from its least-expected-successes rule.
_JOINT_FLOOR = 1e-12


def _pair_vector(pre: StateVector, post: StateVector) -> TwoStateVector:
    """|pre> (x) <post| of checked unit states: finite and nonzero."""
    return _unchecked(TwoStateVector,
                      np.outer(pre.amplitudes, post.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class MixtureExperiment:
    """Per-trial draw of a (pre, post) pair from classical weights.

    ``components`` are (weight, pre, post) under the one component rule
    (``measurement._check_weights``), pre and post unit states of the
    dimension of ``measurement``, a Measurement.  Some |pre> (x) <post|
    must form a story with the measurement, or no trial is ever
    post-selected (NotAStory).
    """

    components: tuple[tuple[float, StateVector, StateVector], ...]
    measurement: Measurement
    trials: int
    seed: int

    def __post_init__(self):
        comps = _check_weights(self.components, StateVector, StateVector)
        if not isinstance(self.measurement, Measurement):
            raise ShapeMismatchError(
                f"experiment measurement must be a Measurement, got "
                f"{type(self.measurement).__name__}")
        dim = self.measurement.dim
        for _, pre, post in comps:
            if pre.dim != dim or post.dim != dim:
                raise DimensionMismatchError(
                    f"state dims ({pre.dim}, {post.dim}) != "
                    f"measurement dim {dim}"
                )
            _check_unit(pre, "pre")
            _check_unit(post, "post")
        trials = _count(self.trials, "trials")
        _rng(self.seed, 0)  # block 0's seeding: a bad seed fails here
        mags, story = _story_pass(
            self.measurement._stacked[np.newaxis],
            [_pair_vector(pre, post) for _, pre, post in comps])
        rows = np.array([w > 0.0 for w, _, _ in comps]) & story[:, 0]
        if not rows.any():
            raise NotAStoryError(
                "|pre> (x) <post| forms no story with the measurement; "
                "post-selection would never succeed"
            )
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", _plain(self.seed))
        object.__setattr__(self, "_joint",
                           np.where(rows[:, None], mags[:, 0] ** 2, 0.0))


def PrePostExperiment(pre: StateVector, post: StateVector,
                      measurement: Measurement, trials: int,
                      seed: int) -> MixtureExperiment:
    """One pre-selection / measurement / post-selection experiment: the
    one-component mixture ((1.0, pre, post),), under the same checks."""
    return MixtureExperiment(((1.0, pre, post),), measurement, trials, seed)


@dataclass(frozen=True, eq=False)
class TrialLog:
    """Joint counts of (outcome observed AND post-selection succeeded).

    ``outcome_counts`` are whole numbers, one per outcome, non-negative and
    summing to at most ``trials``, a count (an integer >= 1).  ``simulate``
    builds its log valid by construction, unchecked.
    """

    outcome_counts: np.ndarray
    trials: int

    def __post_init__(self):
        trials = _count(self.trials, "trials")
        counts = _frozen(_array(self.outcome_counts, "outcome count array",
                                np.int64), np.int64)
        if counts.ndim != 1:
            raise ShapeMismatchError("outcome counts must be one-dimensional")
        if not np.array_equal(counts, self.outcome_counts):
            raise ShapeMismatchError(
                f"outcome counts must be whole numbers, got "
                f"{self.outcome_counts!r}")
        if int(counts.sum()) > trials or np.any(counts < 0):
            raise ShapeMismatchError("counts exceed trials or are negative")
        object.__setattr__(self, "outcome_counts", counts)
        object.__setattr__(self, "trials", trials)

    @property
    def successes(self) -> int:
        return int(self.outcome_counts.sum())


def joint_probabilities(exp: MixtureExperiment) -> np.ndarray:
    """Per-outcome probability of (outcome AND successful post-selection):
    the success-weighted rule sum_c w_c |A_i(v_c)|^2 over the story rows."""
    joint = np.zeros(exp.measurement.num_outcomes)
    for (w, _, _), row in zip(exp.components, exp._joint):
        joint += w * row
    return joint


def simulate(exp: MixtureExperiment) -> TrialLog:
    """Run the experiment, the (pre, post) pair redrawn from the weights
    per trial; returns joint success counts per outcome, which follow the
    success-weighted rule (module docstring).  Also ``simulate_mixture``.

    Deterministic in the experiment seed, and identical to summing
    per-block counts because block b always draws from (seed, b).
    """
    stacked = exp.measurement._stacked
    k = stacked.shape[0]
    weights = np.array([w for w, _, _ in exp.components])
    cum_w = np.cumsum(weights / weights.sum())
    n_comp = len(weights)
    # Born probabilities p_i = Tr(P_i |pre><pre|) of each component ...
    kets = np.array([pre.amplitudes for _, pre, _ in exp.components])
    p = _amplitudes(stacked, kets[:, :, None] * kets[:, None, :].conj()).real
    p = np.clip(p, 0.0, None)
    p = p / p.sum(axis=1, keepdims=True)
    # ... and acceptances q_i = |A_i|^2 / p_i, 0 off the story rows.
    q = np.divide(exp._joint, p, out=np.zeros_like(p), where=p > 0)
    q = np.clip(q, 0.0, 1.0)
    # Component c's cumulative outcome table, offset into [c, c + 1], so
    # one search finds every trial's outcome.
    cum = (np.arange(n_comp)[:, None] + np.cumsum(p, axis=1)).ravel()

    def block_counts(block: int) -> np.ndarray:
        rng = _rng(exp.seed, block)
        n = min(BLOCK_SIZE, exp.trials - block * BLOCK_SIZE)
        comp = 0
        if n_comp > 1:
            comp = np.searchsorted(cum_w, rng.random(n), side="right")
            comp = np.minimum(comp, n_comp - 1)
        outcomes = np.searchsorted(cum, comp + rng.random(n), side="right")
        outcomes = np.clip(outcomes - comp * k, 0, k - 1)
        accepted = rng.random(n) < q[comp, outcomes]
        return np.bincount(outcomes[accepted], minlength=k)

    counts = sum(_map(block_counts, range(-(-exp.trials // BLOCK_SIZE))))
    return _unchecked(TrialLog, counts, exp.trials)


#: The mixture name of ``simulate``, which samples every experiment.
simulate_mixture = simulate


def empirical_distribution(log: TrialLog) -> OutcomeDistribution:
    """Joint counts divided by total successes."""
    if log.successes == 0:
        raise NoSuccessesError("no post-selection successes recorded")
    return _unchecked(OutcomeDistribution, log.outcome_counts / log.successes)


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
            "rows": [asdict(row) for row in self.rows],
            "trials": self.trials,
            "successes": self.successes,
            "sigma_bound": self.sigma_bound,
            "passed": self.passed,
        }


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


def validate_abl(exp: MixtureExperiment,
                 sigma_bound: float = 4.0) -> AblValidation:
    """Simulate and compare against the success-weighted rule
    sum_c w_c |A_i(v_c)|^2 over the story rows, normalized over outcomes
    i: exactly what ``simulate`` samples, and for one pair the ABL
    probabilities of its story.  Also ``validate_mixture_abl``.

    Requires every outcome of joint probability above ``_JOINT_FLOOR``,
    and the experiment as a whole, to expect at least 100 successes at the
    configured trial count, before anything is simulated
    (InsufficientTrialsError, a ValueError, otherwise).
    Passes iff every outcome frequency deviates by less than
    ``sigma_bound`` binomial standard errors; a bound that is a bool, not
    a real number, or not finite and positive is refused
    (ShapeMismatchError).
    """
    sigma_bound = _real(sigma_bound, "sigma bound")
    if not 0.0 < sigma_bound < math.inf:
        raise ShapeMismatchError(
            f"sigma bound {sigma_bound!r} not in (0, inf)")
    joint = joint_probabilities(exp)
    expected = exp.trials * joint
    low = (joint > _JOINT_FLOOR) & (expected < 100.0)
    if np.any(low):
        i = int(np.argmax(low))
        raise InsufficientTrialsError(
            f"outcome {i} expects only {expected[i]:.1f} successes at "
            f"{exp.trials} trials; need >= 100 for the sigma bound to be "
            "meaningful"
        )
    if expected.sum() < 100.0:
        raise InsufficientTrialsError(
            f"the experiment expects only {expected.sum():.3g} successes at "
            f"{exp.trials} trials; need >= 100 for the sigma bound to be "
            "meaningful"
        )
    log = simulate(exp)
    predicted = _unchecked(OutcomeDistribution, joint / joint.sum())
    return _build_validation(log.outcome_counts, exp.trials, predicted,
                             exp.measurement.labels, sigma_bound)


#: The mixture name of ``validate_abl``, which validates every experiment.
validate_mixture_abl = validate_abl
