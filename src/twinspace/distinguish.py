r"""Mixtures, indistinguishability, and evidence of strict non-separability.

A statistical mixture of two-state vectors assigns classical weights to
component vectors.  Its conditional outcome statistics on a measurement
are the prior-weighted rule sum_c (w_c / sum w) ABL(v_c) over its rows:
the positive-weight components that form a story by the story rule of
``measurement`` (one inside the measurement's null subspace contributes no
post-selected events at all).  The Monte Carlo sampler reads the same rows
through ``measurement._story_pass``; sampling its pairs at
u_c = w_c / sum_j |A_j(v_c)|^2 (normalized) reproduces these statistics.

The central question here: can the statistics of a *non-separable*
two-state vector be replicated by a mixture of separable ones?  Tooling:

* ``replicates_on``, ``search_distinguishing_measurement``,
  ``trial_gaps`` and ``time_reversal_equivalence_check`` apply one gap
  rule per measurement of a stack (one measurement, except for the random
  trials of ``trial_gaps`` and of the search's doubling chunks):
  0 when neither side forms a story, 1 when exactly one does, otherwise
  the max-norm gap of the two distributions; the sides are told apart iff
  the gap exceeds DEFAULT_TOL,
* ``zero_constraints`` derives a ``ZeroConstraintSystem`` from a target
  and a measurement family alone: the target's zero outcomes, those the
  story rule counts as zero (|A_i| <= DEFAULT_TOL * ||target||), each of
  which forces Tr(P Phi) = 0 on every would-be mixture member Phi, and
  the system's one coefficient ``stack``, which the three tools below read,
* ``separable_feasibility`` attacks the resulting bilinear system with one
  batched Levenberg-Marquardt descent of seeded starts over unit vectors
  alpha, beta (Phi = sum_k alpha_k |k> (x) sum_l beta_l <l|), numpy only,
  three-valued verdict; ``scan_separable_residual`` samples it unanchored
  in seeded batches on the library's threads, like the Monte Carlo blocks,
* ``reduce_qutrit_family`` accepts only the bundled signed-qutrit
  coefficient stack, eliminates exactly on its (d, d) coefficient arrays
  and prints the contradiction, and
* ``certify_strict_nonseparability`` chains the pipeline end to end.

Feasibility verdicts are evidence, not proof: the system is nonconvex and
only the scripted reduction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_TOL,
    StateVector,
    TwoStateVector,
    _check_unit,
    _count,
    _frozen,
    _items,
    _map,
    _plain,
    _rng,
    _unchecked,
    is_separable,
    time_reverse,
)
from .errors import (
    DimensionMismatchError,
    NoStoryInMixtureError,
    SeparableInputError,
    ShapeMismatchError,
)
from .measurement import (
    Measurement,
    OutcomeDistribution,
    _abl,
    _check_weights,
    _random_stacks,
    _required_story,
    _story_pass,
)

#: Residual classification threshold for separable_feasibility.
DEFAULT_FEAS_TOL = 1e-6

#: Story-anchor amplitude floor (O(1), deliberately not tied to
#: DEFAULT_FEAS_TOL: the floor sets the scale of the residual minimum of an
#: infeasible system, which must sit far above the FEASIBLE band).
DEFAULT_ANCHOR_FLOOR = 0.1

#: Levenberg-Marquardt steps per start (a start at value 0 is a fixed point).
_DESCENT_STEPS = 60

#: Least damping: J^T J is singular along the phase and scale symmetries of
#: (alpha, beta), so a damping that underflows against it breaks the solve.
_DAMPING_FLOOR = 1e-12

#: Pairs per batch of scan_separable_residual, each drawn from its own
#: generator; longer scans add whole batches.
_SCAN_BATCH = 1 << 16

#: Complex entries (1 MB) per chunk of search_distinguishing_measurement.
_CHUNK_ENTRIES = 1 << 16

#: Distance to an integer within which _snap_half_gaussian snaps 2 * part.
_SNAP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Mixture:
    """A classical ensemble of two-state vectors.

    ``components`` is a nonempty tuple of (weight, TwoStateVector) pairs;
    weights are real numbers, not bools, finite, nonnegative and summing to
    one within ``measurement._SUM_TOL`` (``_check_weights``), all vectors
    share one dim.
    """

    components: tuple[tuple[float, TwoStateVector], ...]

    def __post_init__(self):
        comps = _check_weights(self.components, TwoStateVector)
        dim = comps[0][1].dim
        for _, v in comps:
            if v.dim != dim:
                raise DimensionMismatchError(
                    f"component dims differ: {v.dim} != {dim}"
                )
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0][1].dim

    @classmethod
    def point(cls, v: TwoStateVector) -> "Mixture":
        """The degenerate mixture carrying ``v`` with weight one."""
        return cls(((1.0, v),))


def _statistics(stacks: np.ndarray, *sides) -> list:
    """The prior-weighted rule of each side, a list of (weight, vector)
    components, on each trial of a (T, k, d, d) stack: per side the (T, k)
    statistics and the (T,) mask of trials with story rows.  The rows come
    from one ``_story_pass`` and one ``_abl`` call (a row without a story
    reads as all ones and gets prior weight 0); sums run in component
    order, so each trial gets the bits of its own one-measurement pass."""
    sides = [[(w, v) for w, v in side if w > 0.0] for side in sides]
    rows = [c for side in sides for c in side]
    mags, story = _story_pass(stacks, [v for _, v in rows])
    probs = _abl(mags if story.all()
                 else np.where(story[..., np.newaxis], mags, 1.0))
    prior = np.array([w for w, _ in rows])[:, np.newaxis] * story
    out, start = [], 0
    for side in sides:
        part = slice(start, start + len(side))
        start = part.stop
        if len(side) == 1:  # w / w = 1 exactly: the row itself
            out.append((probs[part.start], story[part.start]))
            continue
        total = np.add.accumulate(prior[part])[-1]
        with np.errstate(invalid="ignore"):  # 0 / 0 where no row is read
            terms = (prior[part] / total)[..., np.newaxis] * probs[part]
        out.append((np.add.accumulate(terms)[-1], total > 0.0))
    return out


def _gaps(a, b, stacks: np.ndarray) -> tuple:
    """The gap rule (module docstring) of two (weight, vector) component
    lists on each trial of a (T, k, d, d) stack, and a's (T, k)
    statistics."""
    (sa, ha), (sb, hb) = _statistics(stacks, a, b)
    return np.where(ha & hb, np.abs(sa - sb).max(axis=1), ha != hb), sa


def trial_gaps(a: Mixture, b: Mixture, k: int, seed, keys) -> tuple:
    """The gap rule of two mixtures on T random measurements drawn and
    scored in one stack, trial t being ``random_measurement(d, k,
    [seed, *keys[t]])``: the (T,) gaps, a's (T, k) statistics and the
    (T, k, d, d) projector stacks."""
    stacks = _random_stacks(a.dim, k, seed, keys)
    return (*_gaps(a.components, b.components, stacks), stacks)


def mixture_statistics(mix: Mixture, m: Measurement) -> OutcomeDistribution:
    """Conditional outcome distribution of a mixture on one measurement.

    The prior-weighted rule: convex combination of the component ABL
    distributions over the story-forming components, prior weights
    renormalized (not weighted by post-selection success, unlike
    ``montecarlo.simulate_mixture``).  Raises NoStoryInMixture when no
    component (of positive weight) forms a story.
    """
    (stats, found), = _statistics(m._stacked[np.newaxis], mix.components)
    if not found[0]:
        raise NoStoryInMixtureError(
            "no component of positive weight forms a story with the measurement"
        )
    return _unchecked(OutcomeDistribution, stats[0])


def distribution_gap(a: OutcomeDistribution, b: OutcomeDistribution) -> float:
    """Maximum absolute probability difference over aligned outcomes."""
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"distributions have {len(a)} and {len(b)} outcomes"
        )
    return float(np.max(np.abs(a.probabilities - b.probabilities)))


def replicates_on(a: Mixture, b: Mixture, m: Measurement) -> bool:
    """True iff the two mixtures are indistinguishable on ``m``: their gap
    (module docstring) is at most DEFAULT_TOL."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"mixture dims differ: {a.dim} != {b.dim}")
    return bool(_gaps(a.components, b.components,
                      m._stacked[np.newaxis])[0][0] <= DEFAULT_TOL)


def time_reversal_equivalence_check(v: TwoStateVector, measurements) -> bool:
    """True iff v and its time reversal are indistinguishable, by the gap
    rule of ``replicates_on``, on every measurement in the list."""
    fwd, rev = ((1.0, v),), ((1.0, time_reverse(v)),)
    return all(_gaps(fwd, rev, m._stacked[np.newaxis])[0][0] <= DEFAULT_TOL
               for m in _items(measurements, "measurements"))


@dataclass(frozen=True, eq=False)
class SearchResult:
    """A measurement found to separate two mixtures, with its gap."""

    measurement: Measurement
    gap: float
    trial_index: int
    trials: int
    seed: int

    def __post_init__(self):
        for name in ("trial_index", "trials", "seed"):
            object.__setattr__(self, name, _plain(getattr(self, name)))

    def to_json(self) -> dict:
        return {
            "found": True,
            "gap": self.gap,
            "trial_index": self.trial_index,
            "trials": self.trials,
            "seed": self.seed,
            "measurement": self.measurement.to_json(),
        }


def search_distinguishing_measurement(
    a: Mixture,
    b: Mixture,
    trials: int,
    outcomes_per_trial: int,
    seed: int,
) -> SearchResult | None:
    """Sample random measurements until one separates the two mixtures.

    Trial t draws ``random_measurement(d, k, [seed, t])``, so the search
    is deterministic and order-independent.  Returns the first measurement
    whose distribution gap exceeds DEFAULT_TOL (gap 1.0 when exactly one
    side forms a story), or None after all trials.  Trials are drawn and
    scored in stacks of 1, 2, 4, ... trials, at most _CHUNK_ENTRIES complex
    entries (or one trial) each, so a search that separates at trial t
    draws at most 2t + 1.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"mixture dims differ: {a.dim} != {b.dim}")
    trials = _count(trials, "trials")
    start, size = 0, 1
    while start < trials:
        stop = min(trials, start + size)
        gaps, _, stacks = trial_gaps(a, b, outcomes_per_trial, seed,
                                     [(t,) for t in range(start, stop)])
        hits = np.flatnonzero(gaps > DEFAULT_TOL)
        if hits.size:
            t = hits[0]
            return SearchResult(Measurement._trusted(_frozen(stacks[t])),
                                float(gaps[t]), start + t, trials, seed)
        start, size = stop, max(1, min(2 * size,
                                       _CHUNK_ENTRIES // stacks[0].size))
    return None


# ---------------------------------------------------------------------------
# Zero-constraint systems and separable feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ZeroConstraintSystem:
    """Zero-probability outcomes of a target across a measurement family.

    Derived from ``target`` and ``measurements`` alone, by one pass of
    the story rule per measurement (NotAStory when the target forms no
    story with one; DimensionMismatch propagates).  Each ``zero_outcomes``
    pair (measurement index, outcome index) is an outcome the story rule
    counts as zero, |A_i(target)| <= DEFAULT_TOL * ||target||; any mixture
    member replicating the target must satisfy Tr(P_outcome Phi) = 0 for
    all of them.  The ``anchor`` pair marks the target's largest-amplitude
    outcome of the first measurement: a replicating member must keep its
    amplitude away from zero to form a story there.

    ``stack``, read-only complex128 (z + 1, d, d), is the system's one
    coefficient stack: Tr(P Phi) = sum_kl C[k,l] alpha_k beta_l for Phi =
    (sum alpha_k |k>) (x) (sum beta_l <l|) makes C = P^T, for each zero
    outcome in ``zero_outcomes`` order, then for the anchor.
    """

    target: TwoStateVector
    measurements: tuple[Measurement, ...]
    zero_outcomes: tuple[tuple[int, int], ...] = field(init=False)
    anchor: tuple[int, int] = field(init=False)
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "measurements",
                           _items(self.measurements, "measurements"))
        if not self.measurements:
            raise ShapeMismatchError("zero system needs at least one measurement")
        mags = [_required_story(self.target, m) for m in self.measurements]
        floor = DEFAULT_TOL * self.target.hs_norm
        object.__setattr__(self, "zero_outcomes", tuple(
            (mi, oi) for mi, a in enumerate(mags)
            for oi, ai in enumerate(a) if ai <= floor))
        object.__setattr__(self, "anchor", (0, int(np.argmax(mags[0]))))
        object.__setattr__(self, "stack", _frozen(
            [self.measurements[mi]._stacked[oi].T
             for mi, oi in (*self.zero_outcomes, self.anchor)]))

    @property
    def dim(self) -> int:
        return self.target.dim

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "num_measurements": len(self.measurements),
            "zero_outcomes": [list(z) for z in self.zero_outcomes],
            "anchor": list(self.anchor),
            "zero_tol": DEFAULT_TOL,
        }


def zero_constraints(target: TwoStateVector,
                     measurements) -> ZeroConstraintSystem:
    """The zero-constraint system of a target on a measurement family."""
    return ZeroConstraintSystem(target, measurements)


class FeasibilityVerdict(Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE_EVIDENCE = "INFEASIBLE_EVIDENCE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Outcome of the multi-start separable-replication search.

    ``best_residual`` is the smallest objective value over all starts:
    the summed squared constraint amplitudes plus the squared anchor
    shortfall.  ``witness``, unit (alpha, beta), is present only for
    FEASIBLE, where it meets every constraint within the feasibility tolerance.
    ``median_nit``, the median number of descent steps a start kept, is
    deterministic in (starts, seed); a report built by hand may omit it.
    ``starts`` and ``seed`` are stored plain (``core._plain``).
    """

    verdict: FeasibilityVerdict
    witness: tuple[StateVector, StateVector] | None
    best_residual: float
    starts: int
    seed: int
    median_nit: float | None = None

    def __post_init__(self):
        for name in ("starts", "seed"):
            object.__setattr__(self, name, _plain(getattr(self, name)))
        if self.witness is not None:  # so witness_vector is finite, nonzero
            alpha, beta = self.witness
            if alpha.dim != beta.dim:
                raise DimensionMismatchError(
                    f"witness dims differ: {alpha.dim} != {beta.dim}")
            _check_unit(alpha, "alpha")
            _check_unit(beta, "beta")

    def witness_vector(self) -> TwoStateVector:
        """The separable two-state vector alpha beta^T of the witness."""
        if self.witness is None:
            raise SeparableInputError("report carries no witness")
        alpha, beta = self.witness
        return _unchecked(TwoStateVector,
                          np.outer(alpha.amplitudes, beta.amplitudes))

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "best_residual": self.best_residual,
            "starts": self.starts,
            "seed": self.seed,
            "witness": None if self.witness is None else {
                "alpha": self.witness[0].to_json(),
                "beta": self.witness[1].to_json()},
            "median_nit": self.median_nit,
        }


def _descent_terms(stack: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """Values (S,), real residuals (S, 2z + 1) and their exact Jacobian
    (S, 2z + 1, 4d) at the unit rows ``alpha``, ``beta`` (S, d).

    ``stack`` is ``ZeroConstraintSystem.stack``: z matrices C_z, then the
    anchor A.  Residuals: Re and Im of alpha^T C_z beta, then the shortfall
    max(0, a - |g|), g = alpha^T A beta, a = DEFAULT_ANCHOR_FLOOR; a value
    is their sum of squares.  The Jacobian is in the step [Re da, Re db,
    Im da, Im db] followed by renormalization: the holomorphic rows C_z beta
    and alpha^T C_z (Wirtinger derivative, Kreutz-Delgado, arXiv:0906.4835)
    less amp * [Re alpha, Re beta, Im alpha, Im beta], the radial part.  The
    shortfall row is -Re(conj(g)/|g| * row_g) while the shortfall is
    positive, zero otherwise and at g = 0, where |g| has no derivative.
    """
    stack_beta = np.matmul(stack, beta[:, None, :, None])[..., 0]
    alpha_stack = np.matmul(alpha[:, None, None, :], stack)[..., 0, :]
    amps = np.matmul(alpha_stack, beta[..., None])[..., 0]
    radial = np.concatenate([alpha.real, beta.real, alpha.imag, beta.imag], 1)
    hol = np.concatenate([stack_beta, alpha_stack], axis=2)
    rows = (np.concatenate([hol, 1j * hol], axis=2)
            - amps[..., None] * radial[:, None])
    anchor_amp = np.abs(amps[:, -1])
    shortfall = np.maximum(0.0, DEFAULT_ANCHOR_FLOOR - anchor_amp)
    phase = np.divide(amps[:, -1].conj(), anchor_amp,
                      out=np.zeros_like(amps[:, -1]),
                      where=(shortfall > 0.0) & (anchor_amp > 0.0))
    residuals = np.concatenate([amps[:, :-1].real, amps[:, :-1].imag,
                                shortfall[:, None]], axis=1)
    jacobian = np.concatenate([rows[:, :-1].real, rows[:, :-1].imag,
                               -(phase[:, None] * rows[:, -1]).real[:, None]],
                              axis=1)
    return np.sum(residuals * residuals, axis=1), residuals, jacobian


def _unit_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _descend(stack: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """_DESCENT_STEPS Levenberg-Marquardt steps from the rows of ``alpha``
    and ``beta`` (S, d), renormalized: solve (J^T J + mu_s I) dx = -J^T r,
    step, renormalize, and keep the step where the value strictly drops.
    Start s damps on its own, mu_s = 1e-3, then max(mu_s / 3, _DAMPING_FLOOR)
    after a kept step and 2 mu_s after a refused one.  Every operation acts
    start by start, so no start depends on the others or on their number.
    Returns the final unit alpha, beta, their values and kept-step counts.
    """
    d = alpha.shape[1]
    alpha, beta = _unit_rows(alpha), _unit_rows(beta)
    values, residuals, jacobian = _descent_terms(stack, alpha, beta)
    damping = np.full(len(values), 1e-3)
    kept = np.zeros(len(values), dtype=np.int64)
    identity = np.eye(4 * d)
    for _ in range(_DESCENT_STEPS):
        jt = jacobian.transpose(0, 2, 1)
        dx = np.linalg.solve(jt @ jacobian + damping[:, None, None] * identity,
                             -(jt @ residuals[..., None]))[..., 0]
        dz = dx[:, :2 * d] + 1j * dx[:, 2 * d:]
        trial = (_unit_rows(alpha + dz[:, :d]), _unit_rows(beta + dz[:, d:]))
        new = _descent_terms(stack, *trial)
        keep = new[0] < values
        for old, fresh in zip((alpha, beta, values, residuals, jacobian),
                              (*trial, *new)):
            old[keep] = fresh[keep]
        damping = np.where(keep, np.maximum(damping / 3.0, _DAMPING_FLOOR),
                           2.0 * damping)
        kept += keep
    return alpha, beta, values, kept


def separable_feasibility(sys: ZeroConstraintSystem, starts: int,
                          seed: int) -> FeasibilityReport:
    """Search for a separable vector satisfying a zero-constraint system.

    Minimizes sum_z |Tr(P_z Phi)|^2 over unit alpha, beta with a penalty
    keeping the anchor amplitude at or above DEFAULT_ANCHOR_FLOOR, from
    ``starts`` seeded random points (start s splits 4d normals of the
    generator of (seed, s) into Re alpha, Im alpha, Re beta, Im beta).  All
    starts descend together, by the damped Gauss-Newton (Levenberg-Marquardt)
    steps of ``_descend`` on the exact Jacobian of the residuals.

    Verdict: FEASIBLE if the best residual is <= DEFAULT_FEAS_TOL^2 (the
    minimizer is returned as witness), INFEASIBLE_EVIDENCE if it stays >=
    1e3 * DEFAULT_FEAS_TOL^2 across all starts, INCONCLUSIVE between.
    """
    starts = _count(starts, "starts")
    d = sys.dim
    x = np.array([_rng(seed, s).standard_normal(4 * d)
                  for s in range(starts)]).reshape(starts, 4, d)
    alpha, beta, values, kept = _descend(sys.stack, x[:, 0] + 1j * x[:, 1],
                                         x[:, 2] + 1j * x[:, 3])
    best = int(np.argmin(values))
    best_value = float(values[best])
    witness = None
    if best_value <= DEFAULT_FEAS_TOL ** 2:
        verdict = FeasibilityVerdict.FEASIBLE
        witness = tuple(StateVector.normalized(z[best]) for z in (alpha, beta))
    elif best_value >= 1e3 * DEFAULT_FEAS_TOL ** 2:
        verdict = FeasibilityVerdict.INFEASIBLE_EVIDENCE
    else:
        verdict = FeasibilityVerdict.INCONCLUSIVE
    return FeasibilityReport(verdict, witness, best_value, starts, seed,
                             float(np.median(kept)))


def scan_separable_residual(sys: ZeroConstraintSystem, samples: int,
                            seed: int) -> float:
    """Sampled upper bound on the minimum of the unanchored residual.

    The least sum_z |alpha^T C_z beta|^2 / (||alpha||^2 ||beta||^2) over
    ``samples`` seeded Gaussian pairs: no anchor term, so it can vanish where
    the anchored residual cannot.  Batch b holds samples b * _SCAN_BATCH
    up to (b + 1) * _SCAN_BATCH and draws them from its own
    ``_rng(seed, b)``, one chunk at a time, so a scan of k * _SCAN_BATCH
    samples extends one of j * _SCAN_BATCH for j <= k; a partial last batch
    draws other samples.  The batches run on the library's threads
    (``core._map``), and the result is the same on any number of them.
    """
    _count(samples, "samples")
    _rng(seed, 0)  # batch 0's seeding: a bad seed fails here, also at z = 0
    cs = sys.stack[:-1]
    z, d = len(cs), sys.dim
    if z == 0:
        return 0.0
    cmat = cs.transpose(1, 0, 2).reshape(d, z * d)
    step = max(1, 2 ** 16 // (z * d))  # alpha^T C_z within 1 MB per chunk

    def batch(i: int) -> float:
        rng, best = _rng(seed, i), np.inf
        end = min((i + 1) * _SCAN_BATCH, samples)
        for lo in range(i * _SCAN_BATCH, end, step):
            # Re, Im of alpha, then of beta
            x = rng.standard_normal((4, min(step, end - lo), d))
            a, b = np.empty((2, x.shape[1], d), np.complex128)
            a.real, a.imag, b.real, b.imag = x
            f = np.einsum("nzl,nl->nz", (a @ cmat).reshape(len(a), z, d),
                          b).view(np.float64)
            res = np.einsum("nj,nj->n", f, f) / (
                np.einsum("inj,inj->n", x[:2], x[:2])
                * np.einsum("inj,inj->n", x[2:], x[2:]))
            best = min(best, float(np.min(res)))
        return best

    return min(_map(batch, range(-(-samples // _SCAN_BATCH))))


# ---------------------------------------------------------------------------
# Exact reduction of the bundled signed-qutrit system
# ---------------------------------------------------------------------------
# Every coefficient of that system is a half-integer Gaussian number
# (0, +-1, +-1/2, +-i/2), so the elimination below is exact in floating
# point and its rendering is byte-stable.

#: The bundled system's ``ZeroConstraintSystem.stack``, snapped: the zero
#: constraints of qutrit_family_1..4, in order, then the anchor m[0][0].
_QUTRIT_STACK = np.array([
    [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
    [[0.5, -0.5, 0], [-0.5, 0.5, 0], [0, 0, 1]],
    [[0.5, -0.5j, 0], [0.5j, 0.5, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
], dtype=np.complex128)


def _snap_half_gaussian(coeffs: np.ndarray) -> np.ndarray:
    """Snap an array of coefficients to exact half-integer Gaussian numbers:
    each real and imaginary part of 2 * coeffs within _SNAP_TOL of an
    integer, ShapeMismatch otherwise."""
    parts = np.stack([coeffs.real, coeffs.imag]) * 2.0
    near = np.round(parts) + 0.0  # + 0.0: no signed zeros
    if not np.all(np.abs(parts - near) <= _SNAP_TOL):
        raise ShapeMismatchError(
            "coefficients are not all half-integer Gaussian numbers; exact "
            "reduction applies only to the bundled qutrit family")
    return (near[0] + 1j * near[1]) / 2.0


def _form(coeffs: np.ndarray) -> dict[tuple[int, int], complex]:
    """The linear form sum_kl coeffs[k, l] m[k][l] of a (d, d) array as
    {(k, l): coefficient}, row-major, zero coefficients dropped."""
    return {(int(k), int(l)): complex(coeffs[k, l])
            for k, l in zip(*np.nonzero(coeffs))}


def _coeff_str(z: complex) -> str:
    """Exact textual form of a dyadic Gaussian coefficient."""
    def frac(x: float) -> str:
        return str(Fraction(x))

    if z.imag == 0:
        return frac(z.real)
    if z.real == 0:
        if z.imag == 1:
            return "i"
        if z.imag == -1:
            return "-i"
        return f"({frac(z.imag)}*i)"
    return f"({frac(z.real)}{'+' if z.imag > 0 else '-'}{frac(abs(z.imag))}*i)"


def _lin_str(form: dict) -> str:
    parts = []
    for (k, l) in sorted(form):
        coeff = form[(k, l)]
        mono = f"m[{k}][{l}]"
        if coeff == 1:
            term = mono
        elif coeff == -1:
            term = f"-{mono}"
        else:
            term = f"{_coeff_str(coeff)}*{mono}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f"- {term[1:]}")
        else:
            parts.append(f"+ {term}")
    return " ".join(parts) if parts else "0"


@dataclass(frozen=True, eq=False)
class ReductionReport:
    """Exact derivation of the signed-qutrit contradiction.

    ``equations`` are the snapped input constraints, ``reduced_equations``
    the four relations of the reduced system (m11 + m22, m00 + m22, m01,
    m10, each equal to zero), both as {(k, l): coefficient} linear forms
    over the monomials m[k][l], and ``text`` the full plain-text
    derivation, one equation per line.
    """

    equations: tuple[dict, ...]
    reduced_equations: tuple[dict, ...]
    contradiction: bool
    text: str

    def to_json(self) -> dict:
        def lin_json(form: dict) -> list:
            return [
                [k, l, [form[(k, l)].real, form[(k, l)].imag]]
                for (k, l) in sorted(form)
            ]

        return {
            "equations": [lin_json(e) for e in self.equations],
            "reduced_equations": [lin_json(e) for e in self.reduced_equations],
            "contradiction": self.contradiction,
            "text": self.text,
        }


def reduce_qutrit_family(sys: ZeroConstraintSystem) -> ReductionReport:
    """Exact elimination showing the bundled qutrit system has no solution.

    One gate: the system's ``stack`` (zero constraints, then anchor),
    snapped to half-integer Gaussian numbers, must equal _QUTRIT_STACK;
    any other system raises ShapeMismatch.  The derivation reads only these
    coefficients, so the bundled family plus measurements with no zero
    outcome (``identity_qutrit``, say) reduces to the same text.  The
    elimination is carried out on the snapped coefficients and every
    intermediate is checked, so the emitted derivation is computed, not
    quoted.
    """
    stack = _snap_half_gaussian(sys.stack)
    if not np.array_equal(stack, _QUTRIT_STACK):
        raise ShapeMismatchError(
            "coefficients do not match the bundled qutrit family (got "
            f"{len(stack) - 1} zero constraints of dim {sys.dim})")
    c1, c2, c3, c4, anchor = stack
    # Eliminate m[2][2] from the half-coefficient equations.
    e3 = c3 - 0.5 * c1 - 0.5 * c2
    e4 = c4 - 0.5 * c1 - 0.5 * c2
    # Solve the remaining 2x2 system for the off-diagonal monomials.
    sum_eq = -2.0 * e3                       # m[0][1] + m[1][0] = 0
    diff_eq = 2.0j * e4                      # m[0][1] - m[1][0] = 0
    m01 = 0.5 * (sum_eq + diff_eq)
    m10 = 0.5 * (sum_eq - diff_eq)
    c1, c2, c3, c4, anchor, e3, e4, sum_eq, diff_eq, m01, m10 = map(
        _form, (c1, c2, c3, c4, anchor, e3, e4, sum_eq, diff_eq, m01, m10))
    constraints = (c1, c2, c3, c4)
    derivation_ok = (sum_eq, diff_eq, m01, m10) == (
        {(0, 1): 1, (1, 0): 1}, {(0, 1): 1, (1, 0): -1}, {(0, 1): 1},
        {(1, 0): 1})

    lines = [
        "bilinear zero-constraint system over monomials m[k][l] = alpha_k*beta_l:",
    ]
    for i, c in enumerate(constraints, start=1):
        lines.append(f"  ({i})  {_lin_str(c)} = 0")
    lines += [
        f"story anchor: {_lin_str(anchor)} != 0",
        "eliminate m[2][2] using (1) and (2):",
        f"  (3) - 1/2*(1) - 1/2*(2):  {_lin_str(e3)} = 0",
        f"  (4) - 1/2*(1) - 1/2*(2):  {_lin_str(e4)} = 0",
        "solve for the off-diagonal monomials:",
        f"  {_lin_str(sum_eq)} = 0",
        f"  {_lin_str(diff_eq)} = 0",
        f"  hence {_lin_str(m01)} = 0 and {_lin_str(m10)} = 0",
        "reduced system:",
        "  m[0][0] = m[1][1] = -m[2][2] != 0",
        "  m[0][1] = 0",
        "  m[1][0] = 0",
        "contradiction: m[0][0] != 0 forces alpha_0 != 0 and beta_0 != 0;",
        "  m[0][1] = alpha_0*beta_1 = 0 then forces beta_1 = 0,",
        "  so m[1][1] = alpha_1*beta_1 = 0, contradicting m[1][1] = m[0][0] != 0",
        "conclusion: no separable two-state vector satisfies every zero",
        "  constraint while forming a story on the anchor outcome",
    ]
    return ReductionReport(constraints, (c1, c2, m01, m10), derivation_ok,
                           "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# End-to-end certification
# ---------------------------------------------------------------------------

class CertificationVerdict(Enum):
    STRICTLY_NONSEPARABLE_EVIDENCE = "STRICTLY_NONSEPARABLE_EVIDENCE"
    NOT_CERTIFIED = "NOT_CERTIFIED"
    INCONCLUSIVE = "INCONCLUSIVE"


#: Each feasibility verdict's certification verdict and message.
_CERTIFICATION = {
    FeasibilityVerdict.INFEASIBLE_EVIDENCE: (
        CertificationVerdict.STRICTLY_NONSEPARABLE_EVIDENCE,
        "strictly non-separable (evidence via this measurement family)"),
    FeasibilityVerdict.FEASIBLE: (
        CertificationVerdict.NOT_CERTIFIED,
        "not certified; one separable vector meets every zero constraint "
        "with its anchor amplitude at or above the floor"),
    FeasibilityVerdict.INCONCLUSIVE: (
        CertificationVerdict.INCONCLUSIVE,
        "inconclusive; residual fell between the decision bands"),
}


@dataclass(frozen=True, eq=False)
class CertificationReport:
    verdict: CertificationVerdict
    system: ZeroConstraintSystem
    feasibility: FeasibilityReport

    @property
    def message(self) -> str:
        return dict(_CERTIFICATION.values())[self.verdict]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "message": self.message,
            "system": self.system.to_json(),
            "feasibility": self.feasibility.to_json(),
        }


def certify_strict_nonseparability(
    target: TwoStateVector,
    measurements,
    starts: int,
    seed: int,
) -> CertificationReport:
    """Pipeline zero_constraints -> separable_feasibility for a target.

    The target must be non-separable (SeparableInput otherwise: a
    separable vector is its own replicating mixture).  An
    INFEASIBLE_EVIDENCE feasibility verdict yields evidence of strict
    non-separability over the given family; FEASIBLE means the family
    cannot certify; INCONCLUSIVE passes through.
    """
    if is_separable(target):
        raise SeparableInputError(
            "target is separable; strict non-separability cannot apply"
        )
    system = zero_constraints(target, measurements)
    feas = separable_feasibility(system, starts, seed)
    return CertificationReport(_CERTIFICATION[feas.verdict][0], system, feas)
