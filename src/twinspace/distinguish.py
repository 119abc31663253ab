r"""Mixtures, indistinguishability, and evidence of strict non-separability.

A statistical mixture of two-state vectors assigns classical weights to
component vectors; its conditional outcome statistics on a measurement are
the weight-convex combination of the component ABL distributions, with
weights renormalized over the components that actually form a story (a
component inside the measurement's null subspace contributes no
post-selected events at all).

The central question here: can the statistics of a *non-separable*
two-state vector be replicated by a mixture of separable ones?  Tooling:

* ``replicates_on``, ``search_distinguishing_measurement`` and
  ``time_reversal_equivalence_check`` apply one gap rule per measurement:
  0 when neither side forms a story, 1 when exactly one does, otherwise
  the max-norm gap of the two distributions; the sides are told apart iff
  the gap exceeds DEFAULT_TOL,
* ``zero_constraints`` derives a ``ZeroConstraintSystem`` from a target
  and a measurement family alone: the target's zero-probability outcomes,
  those with ABL probability at most DEFAULT_TOL, each of which forces
  Tr(P Phi) = 0 on every would-be mixture member Phi,
* ``separable_feasibility`` attacks the resulting bilinear system with a
  seeded multi-start local descent over unit vectors alpha, beta
  (Phi = sum_k alpha_k |k> (x) sum_l beta_l <l|), three-valued verdict,
* ``reduce_qutrit_family`` runs the exact dyadic elimination for the
  bundled signed-qutrit system and prints the contradiction, and
* ``certify_strict_nonseparability`` chains the pipeline end to end.

Feasibility verdicts are evidence, not proof: the system is nonconvex and
only the scripted reduction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import DEFAULT_TOL, StateVector, TwoStateVector, time_reverse
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
    _story_amplitudes,
    abl_probabilities,
    random_measurement,
)

#: Residual classification threshold for separable_feasibility.
DEFAULT_FEAS_TOL = 1e-6

#: Story-anchor amplitude floor (O(1), deliberately not tied to
#: DEFAULT_FEAS_TOL: the floor sets the scale of the residual minimum of an
#: infeasible system, which must sit far above the FEASIBLE band).
DEFAULT_ANCHOR_FLOOR = 0.1

#: Random (alpha, beta) pairs drawn per step of scan_separable_residual.
_SCAN_BATCH = 1 << 16


@dataclass(frozen=True, eq=False)
class Mixture:
    """A classical ensemble of two-state vectors.

    ``components`` is a nonempty tuple of (weight, vector); weights are
    finite, nonnegative and sum to one within 1e-9, all vectors share one
    dim.
    """

    components: tuple[tuple[float, TwoStateVector], ...]

    def __post_init__(self):
        comps = tuple((float(w), v) for w, v in self.components)
        _check_weights(comps)
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

    def to_json(self) -> dict:
        return {
            "components": [
                {"weight": w, "vector": v.to_json()} for w, v in self.components
            ]
        }


def _statistics(components, m: Measurement) -> np.ndarray | None:
    """The prior-weighted rule on (weight, vector) components: the convex
    combination of the ABL distributions of the positive-weight components
    that form a story with ``m``, prior weights renormalized over them;
    None when there is no such component."""
    weights, dists = [], []
    for w, v in components:
        if w > 0.0:
            amps, story = _story_amplitudes(v, m)
            if story:
                weights.append(w)
                dists.append(_abl(amps))
    if not weights:
        return None
    total = sum(weights)
    return sum((w / total) * d for w, d in zip(weights, dists))


def _gap(a, b, m: Measurement) -> float:
    """The indistinguishability rule on two (weight, vector) component
    lists: 0.0 when neither side forms a story with ``m``, 1.0 when exactly
    one does, otherwise the max-norm gap of their prior-weighted
    statistics.  The sides are told apart iff the gap exceeds DEFAULT_TOL."""
    sa, sb = _statistics(a, m), _statistics(b, m)
    if sa is None or sb is None:
        return float((sa is None) != (sb is None))
    return float(np.max(np.abs(sa - sb)))


def mixture_statistics(mix: Mixture, m: Measurement) -> OutcomeDistribution:
    """Conditional outcome distribution of a mixture on one measurement.

    The prior-weighted rule: convex combination of the component ABL
    distributions over the story-forming components, prior weights
    renormalized (not weighted by post-selection success, unlike
    ``montecarlo.simulate_mixture``).  Raises NoStoryInMixture when no
    component (of positive weight) forms a story.
    """
    stats = _statistics(mix.components, m)
    if stats is None:
        raise NoStoryInMixtureError(
            "no component of positive weight forms a story with the measurement"
        )
    return OutcomeDistribution(stats)


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
    return _gap(a.components, b.components, m) <= DEFAULT_TOL


def time_reversal_equivalence_check(v: TwoStateVector, measurements) -> bool:
    """True iff v and its time reversal are indistinguishable, by the gap
    rule of ``replicates_on``, on every measurement in the list."""
    fwd, rev = ((1.0, v),), ((1.0, time_reverse(v)),)
    return all(_gap(fwd, rev, m) <= DEFAULT_TOL for m in measurements)


@dataclass(frozen=True, eq=False)
class SearchResult:
    """A measurement found to separate two mixtures, with its gap."""

    measurement: Measurement
    gap: float
    trial_index: int
    trials: int
    seed: int

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

    Trial t draws its measurement from the derived seed (seed, t), so the
    search is deterministic and order-independent.  Returns the first
    measurement whose distribution gap exceeds DEFAULT_TOL (gap 1.0 when
    exactly one side forms a story), or None after all trials.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"mixture dims differ: {a.dim} != {b.dim}")
    if trials < 1:
        raise ShapeMismatchError("trials must be >= 1")
    for t in range(trials):
        m = random_measurement(a.dim, outcomes_per_trial, [seed, t])
        gap = _gap(a.components, b.components, m)
        if gap > DEFAULT_TOL:
            return SearchResult(m, gap, t, trials, seed)
    return None


# ---------------------------------------------------------------------------
# Zero-constraint systems and separable feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ZeroConstraintSystem:
    """Zero-probability outcomes of a target across a measurement family.

    Derived from ``target`` and ``measurements`` alone, by one ABL pass
    per measurement (NotAStory or DimensionMismatch propagate).  Each
    ``zero_outcomes`` pair (measurement index, outcome index) has target
    ABL probability <= DEFAULT_TOL; any mixture member replicating the
    target must satisfy Tr(P_outcome Phi) = 0 for all of them.  The
    ``anchor`` pair marks the target's largest-probability outcome of the
    first measurement: a replicating member must keep its amplitude away
    from zero to form a story there.
    """

    target: TwoStateVector
    measurements: tuple[Measurement, ...]
    zero_outcomes: tuple[tuple[int, int], ...] = field(init=False)
    anchor: tuple[int, int] = field(init=False)

    def __post_init__(self):
        if not self.measurements:
            raise ShapeMismatchError("zero system needs at least one measurement")
        dists = [abl_probabilities(self.target, m) for m in self.measurements]
        object.__setattr__(self, "zero_outcomes", tuple(
            (mi, oi) for mi, dist in enumerate(dists)
            for oi, p in enumerate(dist) if p <= DEFAULT_TOL))
        object.__setattr__(self, "anchor", (
            0, int(np.argmax(dists[0].probabilities))))

    @property
    def dim(self) -> int:
        return self.target.dim

    def constraint_matrices(self) -> np.ndarray:
        """Coefficient matrices C with Tr(P Phi) = sum_kl C[k,l] a_k b_l.

        For Phi = (sum alpha_k |k>) (x) (sum beta_l <l|) the matrix of the
        zero outcome's projector enters transposed.
        """
        d = self.dim
        if not self.zero_outcomes:
            return np.zeros((0, d, d), dtype=np.complex128)
        return np.stack([
            self.measurements[mi].projectors[oi].matrix.T
            for mi, oi in self.zero_outcomes
        ])

    def anchor_matrix(self) -> np.ndarray:
        mi, oi = self.anchor
        return self.measurements[mi].projectors[oi].matrix.T

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
    return ZeroConstraintSystem(target, tuple(measurements))


class FeasibilityVerdict(Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE_EVIDENCE = "INFEASIBLE_EVIDENCE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Outcome of the multi-start separable-replication search.

    ``best_residual`` is the smallest objective value over all starts:
    the summed squared constraint amplitudes plus the squared anchor
    shortfall.  ``witness`` (alpha, beta) is present only for FEASIBLE,
    where it satisfies every constraint within the feasibility tolerance.
    """

    verdict: FeasibilityVerdict
    witness: tuple[StateVector, StateVector] | None
    best_residual: float
    starts: int
    seed: int

    def witness_vector(self) -> TwoStateVector:
        """The separable two-state vector alpha beta^T of the witness."""
        if self.witness is None:
            raise SeparableInputError("report carries no witness")
        alpha, beta = self.witness
        return TwoStateVector(np.outer(alpha.amplitudes, beta.amplitudes))

    def to_json(self) -> dict:
        obj = {
            "verdict": self.verdict.value,
            "best_residual": self.best_residual,
            "starts": self.starts,
            "seed": self.seed,
            "witness": None,
        }
        if self.witness is not None:
            alpha, beta = self.witness
            obj["witness"] = {"alpha": alpha.to_json(), "beta": beta.to_json()}
        return obj


def _feasibility_objective(sys: ZeroConstraintSystem):
    """Scale-invariant objective over stacked real coordinates of (alpha, beta)."""
    cs = sys.constraint_matrices()
    anchor = sys.anchor_matrix()
    d = sys.dim

    def objective(x: np.ndarray) -> float:
        ar, ai, br, bi = np.split(x, 4)
        alpha = ar + 1j * ai
        beta = br + 1j * bi
        na, nb = np.linalg.norm(alpha), np.linalg.norm(beta)
        if na < 1e-12 or nb < 1e-12:
            return 1e6
        alpha = alpha / na
        beta = beta / nb
        amps = cs.reshape(-1, d * d) @ np.outer(alpha, beta).reshape(-1)
        residual = float(np.sum(np.abs(amps) ** 2))
        anchor_amp = abs(np.dot(alpha, anchor @ beta))
        shortfall = max(0.0, DEFAULT_ANCHOR_FLOOR - anchor_amp)
        return residual + shortfall * shortfall

    return objective


def separable_feasibility(sys: ZeroConstraintSystem, starts: int,
                          seed: int) -> FeasibilityReport:
    """Search for a separable vector satisfying a zero-constraint system.

    Minimizes sum_z |Tr(P_z Phi)|^2 over unit alpha, beta with a penalty
    keeping the anchor amplitude at or above DEFAULT_ANCHOR_FLOOR, restarted
    from ``starts`` seeded random points (start s derives its generator
    from (seed, s), so results do not depend on evaluation order).

    Verdict: FEASIBLE if the best residual is <= DEFAULT_FEAS_TOL^2 (the
    minimizer is returned as witness), INFEASIBLE_EVIDENCE if it stays >=
    1e3 * DEFAULT_FEAS_TOL^2 across all starts, INCONCLUSIVE between.
    """
    from scipy.optimize import minimize

    if starts < 1:
        raise ShapeMismatchError("starts must be >= 1")
    objective = _feasibility_objective(sys)
    d = sys.dim
    best_value = np.inf
    best_x = None
    for s in range(starts):
        rng = np.random.default_rng([seed, s])
        x0 = rng.standard_normal(4 * d)
        res = minimize(objective, x0, method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-20, "gtol": 1e-14})
        value = float(res.fun)
        if value < best_value:
            best_value, best_x = value, res.x
    if best_value <= DEFAULT_FEAS_TOL ** 2:
        verdict = FeasibilityVerdict.FEASIBLE
        ar, ai, br, bi = np.split(best_x, 4)
        alpha = ar + 1j * ai
        beta = br + 1j * bi
        witness = (
            StateVector.normalized(alpha),
            StateVector.normalized(beta),
        )
    elif best_value >= 1e3 * DEFAULT_FEAS_TOL ** 2:
        verdict = FeasibilityVerdict.INFEASIBLE_EVIDENCE
        witness = None
    else:
        verdict = FeasibilityVerdict.INCONCLUSIVE
        witness = None
    return FeasibilityReport(verdict, witness, best_value, starts, seed)


def scan_separable_residual(sys: ZeroConstraintSystem, samples: int,
                            seed: int) -> float:
    """Brute-force floor: minimum constraint residual over random points.

    Draws ``samples`` seeded random unit (alpha, beta) pairs and returns
    the smallest sum of squared constraint amplitudes seen (no anchor
    term).  An independent check on separable_feasibility: an infeasible
    verdict is only credible if blind sampling also finds no
    near-solution.
    """
    if samples < 1:
        raise ShapeMismatchError("samples must be >= 1")
    cs = sys.constraint_matrices()
    d = sys.dim
    flat = cs.reshape(-1, d * d)
    rng = np.random.default_rng(seed)
    best = np.inf
    remaining = samples
    while remaining > 0:
        n = min(_SCAN_BATCH, remaining)
        remaining -= n
        a = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        b = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        pairs = np.einsum("nk,nl->nkl", a, b).reshape(n, d * d)
        amps = pairs @ flat.T
        residuals = np.sum(np.abs(amps) ** 2, axis=1)
        best = min(best, float(np.min(residuals)))
    return best


# ---------------------------------------------------------------------------
# Exact reduction of the bundled signed-qutrit system
# ---------------------------------------------------------------------------
# Every coefficient of that system is a half-integer Gaussian number
# (0, +-1, +-1/2, +-i/2), so the elimination below is exact in floating
# point and its rendering is byte-stable.

_Lin = dict  # {(k, l): complex} linear form over monomials m[k][l]

_EXPECTED_CONSTRAINTS: tuple[_Lin, ...] = (
    {(1, 1): 1.0, (2, 2): 1.0},
    {(0, 0): 1.0, (2, 2): 1.0},
    {(0, 0): 0.5, (0, 1): -0.5, (1, 0): -0.5, (1, 1): 0.5, (2, 2): 1.0},
    {(0, 0): 0.5, (0, 1): -0.5j, (1, 0): 0.5j, (1, 1): 0.5, (2, 2): 1.0},
)


def _snap_half_gaussian(matrix: np.ndarray) -> _Lin:
    """Snap a coefficient matrix to exact half-integer Gaussian entries."""
    form: _Lin = {}
    for k in range(matrix.shape[0]):
        for l in range(matrix.shape[1]):
            z = 2.0 * matrix[k, l]
            re, im = round(z.real), round(z.imag)
            if abs(z.real - re) > 1e-9 or abs(z.imag - im) > 1e-9:
                raise ShapeMismatchError(
                    f"coefficient {matrix[k, l]!r} is not a half-integer "
                    "Gaussian number; exact reduction applies only to the "
                    "bundled qutrit family"
                )
            if re or im:
                form[(k, l)] = complex(re, im) / 2.0
    return form


def _lin_combine(a: _Lin, b: _Lin, factor: complex) -> _Lin:
    """a + factor * b with exact dyadic arithmetic, zeros dropped."""
    out = dict(a)
    for key, coeff in b.items():
        val = out.get(key, 0.0) + factor * coeff
        if val == 0:
            out.pop(key, None)
        else:
            out[key] = val
    return out


def _lin_scale(a: _Lin, factor: complex) -> _Lin:
    return {key: factor * coeff for key, coeff in a.items()}


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


def _lin_str(form: _Lin) -> str:
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
    m10, each equal to zero), and ``text`` the full plain-text derivation,
    one equation per line.
    """

    equations: tuple[_Lin, ...]
    reduced_equations: tuple[_Lin, ...]
    contradiction: bool
    text: str

    def to_json(self) -> dict:
        def lin_json(form: _Lin) -> list:
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

    Applies only to the signed-qutrit demo system: dim 3, four two-outcome
    measurements each contributing one zero constraint, anchor monomial
    m[0][0].  Any other system raises ShapeMismatch.  The elimination is
    carried out on the actual (snapped) constraint coefficients and every
    intermediate is checked, so the emitted derivation is computed, not
    quoted.
    """
    if sys.dim != 3 or len(sys.measurements) != 4:
        raise ShapeMismatchError(
            "exact reduction applies only to the bundled qutrit family "
            f"(got dim {sys.dim}, {len(sys.measurements)} measurements)"
        )
    if len(sys.zero_outcomes) != 4 or [mi for mi, _ in sys.zero_outcomes] != [0, 1, 2, 3]:
        raise ShapeMismatchError(
            "expected exactly one zero outcome per measurement, in order"
        )
    constraints = tuple(
        _snap_half_gaussian(c) for c in sys.constraint_matrices()
    )
    if constraints != _EXPECTED_CONSTRAINTS:
        raise ShapeMismatchError(
            "constraint coefficients do not match the bundled qutrit family"
        )
    anchor = _snap_half_gaussian(sys.anchor_matrix())
    if anchor != {(0, 0): 1.0}:
        raise ShapeMismatchError(
            f"anchor monomial is {_lin_str(anchor)}, expected m[0][0]"
        )

    c1, c2, c3, c4 = constraints
    # Eliminate m[2][2] from the half-coefficient equations.
    e3 = _lin_combine(_lin_combine(c3, c1, -0.5), c2, -0.5)
    e4 = _lin_combine(_lin_combine(c4, c1, -0.5), c2, -0.5)
    # Solve the remaining 2x2 system for the off-diagonal monomials.
    sum_eq = _lin_scale(e3, -2.0)            # m[0][1] + m[1][0] = 0
    diff_eq = _lin_scale(e4, 2.0j)           # m[0][1] - m[1][0] = 0
    m01 = _lin_scale(_lin_combine(sum_eq, diff_eq, 1.0), 0.5)
    m10 = _lin_scale(_lin_combine(sum_eq, diff_eq, -1.0), 0.5)
    reduced = (c1, c2, m01, m10)
    derivation_ok = (
        sum_eq == {(0, 1): 1.0, (1, 0): 1.0}
        and diff_eq == {(0, 1): 1.0, (1, 0): -1.0}
        and m01 == {(0, 1): 1.0}
        and m10 == {(1, 0): 1.0}
    )

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
    return ReductionReport(constraints, reduced, derivation_ok,
                           "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# End-to-end certification
# ---------------------------------------------------------------------------

class CertificationVerdict(Enum):
    STRICTLY_NONSEPARABLE_EVIDENCE = "STRICTLY_NONSEPARABLE_EVIDENCE"
    NOT_CERTIFIED = "NOT_CERTIFIED"
    INCONCLUSIVE = "INCONCLUSIVE"


_CERT_MESSAGES = {
    CertificationVerdict.STRICTLY_NONSEPARABLE_EVIDENCE:
        "strictly non-separable (evidence via this measurement family)",
    CertificationVerdict.NOT_CERTIFIED:
        "not certified; a replicating separable family exists for this family",
    CertificationVerdict.INCONCLUSIVE:
        "inconclusive; residual fell between the decision bands",
}


@dataclass(frozen=True, eq=False)
class CertificationReport:
    verdict: CertificationVerdict
    system: ZeroConstraintSystem
    feasibility: FeasibilityReport

    @property
    def message(self) -> str:
        return _CERT_MESSAGES[self.verdict]

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
    from .core import is_separable

    if is_separable(target):
        raise SeparableInputError(
            "target is separable; strict non-separability cannot apply"
        )
    system = zero_constraints(target, measurements)
    feas = separable_feasibility(system, starts, seed)
    verdict = {
        FeasibilityVerdict.INFEASIBLE_EVIDENCE:
            CertificationVerdict.STRICTLY_NONSEPARABLE_EVIDENCE,
        FeasibilityVerdict.FEASIBLE: CertificationVerdict.NOT_CERTIFIED,
        FeasibilityVerdict.INCONCLUSIVE: CertificationVerdict.INCONCLUSIVE,
    }[feas.verdict]
    return CertificationReport(verdict, system, feas)
