r"""Projective measurements, outcome amplitudes, stories, and the ABL rule.

A measurement is an ordered partition of unity into nonzero orthogonal
projectors {P_1, ..., P_k} on C^d, 1 <= d <= MAX_DIM; ``Measurement`` is
the one place that checks it.  Its rule compares absolutely at
MEASUREMENT_TOL = DEFAULT_TOL, failing on NaN (so on any non-finite entry),
in this order: each P_i Hermitian, then idempotent; rank >= 1;
P_i P_j = 0 for i < j; sum_i P_i = 1.

The rule runs once, on the (k, d, d) stack, where matrices enter from
outside: ``Measurement(...)``, ``validate_measurement``, ``from_json`` and
``measurement_from_basis_grouping``, whose basis is the caller's.  The
builders of P_g = U_g U_g^dagger over the column groups of a unitary frame
(``random_measurement``, ``measurement_from_observable``, ``trivial``, a
story witness's {|w><w|, 1 - |w><w|}) and ``Projector.onto_state`` are
valid by construction and skip it.

Applied between a preparation and a post-selection the relevant quantity
is the complex outcome amplitude

    A_i(v) = Tr(P_i matrix(v)),

the trace functional evaluated on P_i v.  For a separable v = |pre> (x) <post|
this is the transition amplitude <post|P_i|pre>.  A pair (v, m) *forms a
story* when at least one outcome amplitude is nonzero.  Every story decision
in the package (ABL, mixtures, time reversal, null-subspace membership, the
Monte Carlo gates) applies one numerical rule:

    (v, m) forms a story  <=>  max_i |A_i(v)| > DEFAULT_TOL * ||v|| ,

with ||v|| the Hilbert-Schmidt norm.  For a story the ABL rule (Aharonov,
Bergmann & Lebowitz 1964) assigns conditional outcome probabilities

    Prob(i) = |A_i(v)|^2 / sum_j |A_j(v)|^2 .

Both are scale-invariant in v: rescaling v by any factor from 1e-300 to
1e300 leaves every verdict, and the probabilities to rounding, unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    StateVector,
    TwoStateVector,
    _SAFE_RANGE,
    _array,
    _check_dim,
    _check_term,
    _declared_array,
    _frozen,
    _integer,
    _real,
    _rescaled,
    _rng,
    _square,
    _unchecked,
    _unit,
    array_to_json,
)
from .errors import (
    DimensionMismatchError,
    MeasurementValidationError,
    NotAStoryError,
    NotCompleteError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthogonalError,
    ShapeMismatchError,
)

#: The one absolute tolerance of the measurement rule.
MEASUREMENT_TOL = DEFAULT_TOL

#: Peak amplitude above which the ABL weights sum above _SAFE_RANGE.
_SQRT_SAFE_MAX = math.sqrt(_SAFE_RANGE[1])

#: Relative eigenvalue gap that starts a new outcome in
#: measurement_from_observable.
_DEGENERACY_TOL = 1e-8


def _first_failure(defect: np.ndarray) -> int | None:
    """Index of the first matrix of a (k, d, d) defect stack with an entry
    not within MEASUREMENT_TOL in magnitude (so NaN fails), or None."""
    ok = np.all(np.abs(defect) <= MEASUREMENT_TOL, axis=(-2, -1))
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else None


def _check_projectors(stack: np.ndarray) -> None:
    """The Hermitian, then idempotent, part of the measurement rule on a
    (k, d, d) stack, by index; a lone (d, d) projector gets none."""
    lone = stack.ndim == 2
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN, which fails
        i = _first_failure(stack - np.swapaxes(stack, -1, -2).conj())
    if i is not None:
        raise NotHermitianError("projector is not Hermitian",
                                index=None if lone else i)
    i = _first_failure(stack @ stack - stack)
    if i is not None:
        raise NotIdempotentError("projector is not idempotent",
                                 index=None if lone else i)


@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector: Hermitian and idempotent within
    MEASUREMENT_TOL, the first half of the measurement rule."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _frozen(_square(self.matrix, "projector"))
        _check_projectors(arr)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        """Rank of the projector (its trace, rounded)."""
        return int(round(float(np.trace(self.matrix).real)))

    @classmethod
    def onto_state(cls, state: StateVector) -> "Projector":
        """Rank-one projector |s><s| / <s|s> onto the given state, valid
        by construction (unchecked)."""
        a = state.amplitudes / state.norm
        return _unchecked(cls, np.outer(a, a.conj()))


@dataclass(frozen=True, eq=False)
class Measurement:
    """An ordered complete family of nonzero, mutually orthogonal projectors.

    ``projectors`` may be :class:`Projector` objects or square matrices;
    construction applies the measurement rule of the module docstring and
    keeps them as read-only ``Projector`` views of one (k, d, d) stack.
    ``labels``, when given, name the outcomes.
    """

    projectors: tuple[Projector, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        mats = [_square(p.matrix if isinstance(p, Projector) else p,
                        "projector") for p in self.projectors]
        if not mats:
            raise ShapeMismatchError("measurement needs at least one projector")
        dim = mats[0].shape[0]
        for i, a in enumerate(mats):
            if a.shape[0] != dim:
                raise DimensionMismatchError(
                    f"projector {i} has dim {a.shape[0]}, expected {dim}"
                )
        _check_dim(dim, "measurement")
        stack = _frozen(mats)
        _check_projectors(stack)
        for i, p in enumerate(stack):
            if _unchecked(Projector, p).rank < 1:
                raise MeasurementValidationError(
                    f"projector {i} is the zero projector (rank 0)", index=i)
        for i in range(len(stack) - 1):
            j = _first_failure(stack[i] @ stack[i + 1:])
            if j is not None:
                j += i + 1
                err = float(np.max(np.abs(stack[i] @ stack[j])))
                raise NotOrthogonalError(
                    f"projectors {i} and {j} are not orthogonal "
                    f"(max |P_{i} P_{j}| = {err:.3e})",
                    pair=(i, j),
                )
        if _first_failure(stack.sum(axis=0) - np.eye(dim)) is not None:
            raise NotCompleteError("projectors do not sum to the identity")
        labels = self.labels
        if labels is not None:
            if isinstance(labels, str) or not isinstance(labels, Sequence):
                raise ShapeMismatchError(
                    f"labels must be a sequence of names, got {labels!r}")
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(stack):
                raise ShapeMismatchError(
                    f"{len(labels)} labels for {len(stack)} outcomes"
                )
        self._store(stack, labels)

    @classmethod
    def _trusted(cls, stack: np.ndarray, labels=None) -> "Measurement":
        """Unchecked: only for a stack valid by construction."""
        return object.__new__(cls)._store(stack, labels)

    def _store(self, stack: np.ndarray, labels) -> "Measurement":
        """The one writer of the stored form: stack, its views, labels."""
        object.__setattr__(self, "projectors",
                           tuple(_unchecked(Projector, p) for p in stack))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_stacked", stack)
        return self

    @property
    def dim(self) -> int:
        return self._stacked.shape[1]

    @property
    def num_outcomes(self) -> int:
        return len(self.projectors)

    @classmethod
    def trivial(cls, dim: int) -> "Measurement":
        """The single-outcome measurement {identity}."""
        dim = _integer(dim, "measurement dimension")
        _check_dim(dim, "measurement")  # before np.eye allocates d x d
        return cls._trusted(_frozen(np.eye(dim)[np.newaxis]))

    def to_json(self) -> dict:
        obj = {"dim": self.dim, "projectors": array_to_json(self._stacked)}
        if self.labels is not None:
            obj["labels"] = list(self.labels)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Measurement":
        return cls(_declared_array(obj, "projectors", 3, "projector stack"),
                   obj.get("labels"))

    def __repr__(self):
        return f"Measurement(dim={self.dim}, outcomes={self.num_outcomes})"


def validate_measurement(projectors: Sequence, *,
                         labels: Sequence[str] | None = None) -> Measurement:
    """Validate raw projector matrices into a :class:`Measurement`.

    Raises the first violated invariant's MeasurementValidationError, with
    the ``index`` (or ``pair``) of the culprit; never repairs the input.
    """
    return Measurement(projectors, labels)


def _frame_stack(blocks) -> np.ndarray:
    """The frozen (k, d, d) stack whose outcome i projects onto the span
    of the columns of ``blocks[i]``: P_i = cols cols^dagger."""
    return _frozen([cols @ cols.conj().T for cols in blocks])


def measurement_from_basis_grouping(
    basis: Sequence[StateVector],
    grouping: Sequence[Sequence[int]],
    labels: Sequence[str] | None = None,
) -> Measurement:
    """Build a measurement from an orthonormal basis and an index partition.

    ``grouping`` must list every basis index exactly once across nonempty
    groups, a sequence of sequences of integers; outcome g gets the
    projector sum_{j in g} |b_j><b_j|.  The basis comes from the caller,
    so those projectors pass the measurement rule: a basis that is not
    orthonormal fails it.
    """
    if not basis:
        raise ShapeMismatchError("basis needs at least one vector")
    dim = basis[0].dim
    for s in basis:
        if s.dim != dim:
            raise DimensionMismatchError(
                f"basis state has dim {s.dim}, expected {dim}")
    if len(basis) != dim:
        raise ShapeMismatchError(f"{len(basis)} basis vectors for dim {dim}")
    b = np.column_stack([s.amplitudes for s in basis])
    if not (_is_sequence(grouping) and all(map(_is_sequence, grouping))):
        raise ShapeMismatchError(
            f"grouping must be a sequence of index sequences, got {grouping!r}")
    # An empty group is the rank-0 outcome that Measurement refuses.
    if sorted(_integer(i, "grouping entry") for group in grouping
              for i in group) != list(range(dim)):
        raise ShapeMismatchError(
            f"grouping {grouping!r} is not a partition of range({dim})"
        )
    return Measurement(_frame_stack([b[:, list(g)] for g in grouping]),
                       labels)


def _is_sequence(value) -> bool:
    """A sequence other than a string, or a numpy array of >= 1 axis."""
    return (isinstance(value, Sequence) and not isinstance(value, str)
            or isinstance(value, np.ndarray) and value.ndim > 0)


def measurement_from_observable(matrix) -> Measurement:
    """Spectral measurement of a Hermitian observable.

    Eigenvalues are clustered greedily in ascending order: a new outcome
    starts whenever the gap to the previous eigenvalue exceeds
    _DEGENERACY_TOL * (spectral range).  Outcome labels are the cluster
    mean eigenvalues.  A zero spectral range collapses everything to the
    single-outcome measurement {identity}.  The observable must be finite
    and Hermitian within DEFAULT_TOL * max(1, max |entry|).  Clusters and
    labels are computed on eigenvalues rescaled exactly by a power of two
    (the spectrum by its largest |eigenvalue|, a label by its cluster's),
    so neither the range nor a cluster's sum overflows.
    """
    arr = _square(matrix, "observable")
    _check_dim(arr.shape[0], "observable")
    scale = max(1.0, float(np.max(np.abs(arr))))
    if not (np.all(np.isfinite(arr)) and np.max(np.abs(arr - arr.conj().T))
            <= DEFAULT_TOL * scale):
        raise NotHermitianError("observable is not Hermitian")
    vals, vecs = np.linalg.eigh(arr)
    if vals[0] == vals[-1]:
        return Measurement.trivial(arr.shape[0])
    unit = _rescaled(vals, float(np.max(np.abs(vals))))[0]
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if unit[i] - unit[i - 1] > _DEGENERACY_TOL * (unit[-1] - unit[0]):
            clusters.append([])
        clusters[-1].append(i)
    labels = []
    for idxs in clusters:
        scaled, e = _rescaled(vals[idxs], float(np.max(np.abs(vals[idxs]))))
        labels.append(repr(math.ldexp(float(np.mean(scaled)), e)))
    return Measurement._trusted(
        _frame_stack([vecs[:, idxs] for idxs in clusters]), tuple(labels))


def outcome_amplitudes(v: TwoStateVector, m: Measurement) -> np.ndarray:
    """Complex amplitudes A_i = Tr(P_i matrix(v)), one per outcome."""
    if v.dim != m.dim:
        raise DimensionMismatchError(
            f"vector dim {v.dim} != measurement dim {m.dim}"
        )
    return _amplitudes(m._stacked, v.matrix)


def _amplitudes(stacked: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Tr(P_i M) for each P_i of a (k, d, d) stack, over any leading axes of
    M: the one amplitude sum."""
    return np.einsum("kij,...ji->...k", stacked, matrix)


def _story_magnitudes(v: TwoStateVector,
                      m: Measurement) -> tuple[np.ndarray, bool]:
    """Outcome amplitude magnitudes |A_i| of (v, m) and whether the pair
    forms a story by the package's one story rule
    max_i |A_i| > DEFAULT_TOL * ||v||."""
    mags = np.abs(outcome_amplitudes(v, m))
    return mags, float(mags.max()) > DEFAULT_TOL * v.hs_norm


def _required_story(v: TwoStateVector, m: Measurement) -> np.ndarray:
    """|A_i| of the story (v, m); NotAStory when the pair forms none."""
    mags, story = _story_magnitudes(v, m)
    if not story:
        raise NotAStoryError("every outcome amplitude vanishes; conditional "
                             "probabilities are undefined")
    return mags


def _story_rows(components, m: Measurement) -> list:
    """The one per-component pass: (index, weight, |A_i|) for each
    positive-weight (weight, vector) component that forms a story with
    ``m``, in component order.  Both mixture rules read only these rows."""
    rows = []
    for c, (w, v) in enumerate(components):
        if w > 0.0:
            mags, story = _story_magnitudes(v, m)
            if story:
                rows.append((c, w, mags))
    return rows


def _abl(mags: np.ndarray) -> np.ndarray:
    """The ABL rule |A_i|^2 / sum_j |A_j|^2 on the amplitude magnitudes of
    a story.

    Magnitudes whose squares sum outside _SAFE_RANGE are first divided by
    their norm.  A peak |A_i| above _SQRT_SAFE_MAX already puts the sum
    there, so it is rescued before any square can overflow.
    """
    if mags.max() <= _SQRT_SAFE_MAX:
        weights = mags ** 2
        total = float(np.sum(weights))
        if _SAFE_RANGE[0] <= total <= _SAFE_RANGE[1]:
            return weights / total
    weights = _unit(mags) ** 2
    return weights / float(np.sum(weights))


def forms_story(v: TwoStateVector, m: Measurement) -> bool:
    """True iff max_i |A_i| > DEFAULT_TOL * ||v||: the story rule."""
    return _story_magnitudes(v, m)[1]


def _check_weights(components, *kinds: type) -> tuple:
    """The one mixture-component rule: a tuple or list of at least one
    component, each a (weight, *parts) tuple or list whose parts are one
    instance of each of ``kinds`` in order (a Mixture's a TwoStateVector,
    an experiment's two StateVectors), each weight a Python or numpy real
    number, not a bool, in [0, inf) (so not NaN), the total one within
    1e-9.  Returns the components as tuples with float weights."""
    if not isinstance(components, (tuple, list)):
        raise ShapeMismatchError(
            f"mixture components must be a tuple or list, got "
            f"{type(components).__name__}")
    if not components:
        raise ShapeMismatchError("mixture needs at least one component")
    comps, total = [], 0.0
    for i, comp in enumerate(components):
        _check_term(comp, kinds, f"mixture component {i}")
        w = _real(comp[0], "mixture weight")
        if not 0.0 <= w < math.inf:
            raise ShapeMismatchError(f"mixture weight {w!r} not in [0, inf)")
        total += w
        comps.append((w, *comp[1:]))
    if abs(total - 1.0) > 1e-9:
        raise ShapeMismatchError(f"mixture weights sum to {total!r}, not 1")
    return tuple(comps)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Conditional outcome probabilities of one story (sum to one)."""

    probabilities: np.ndarray

    def __post_init__(self):
        arr = _frozen(_array(self.probabilities, "distribution", np.float64),
                      np.float64)
        if arr.ndim != 1 or not arr.size:
            raise ShapeMismatchError(
                "distribution must be one-dimensional and nonempty")
        total = float(np.sum(arr))
        if not math.isfinite(total):  # as any NaN or infinite entry makes it
            raise ShapeMismatchError("probabilities must be finite")
        if float(np.min(arr)) < -1e-12:
            raise ShapeMismatchError("negative probability")
        if abs(total - 1.0) > 1e-9:
            raise ShapeMismatchError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probabilities", arr)

    def __len__(self):
        return self.probabilities.shape[0]

    def __getitem__(self, i) -> float:
        return float(self.probabilities[i])

    def __iter__(self):
        return iter(float(p) for p in self.probabilities)

    def to_json(self) -> list:
        return [float(p) for p in self.probabilities]


def abl_probabilities(v: TwoStateVector,
                      m: Measurement) -> OutcomeDistribution:
    """Conditional probabilities |A_i|^2 / sum_j |A_j|^2 of the story (v, m).

    Raises NotAStory exactly when ``forms_story`` is false, i.e. when every
    |A_i| is at or below DEFAULT_TOL * ||v||.
    """
    return _unchecked(OutcomeDistribution, _abl(_required_story(v, m)))


def random_measurement(dim: int, num_outcomes: int, rng_seed: int) -> Measurement:
    """Haar-random projective measurement with the given outcome count.

    Draws a Haar-distributed unitary (QR of a complex Gaussian matrix with
    the standard phase fix), shuffles the column order, and splits it into
    ``num_outcomes`` contiguous nonempty groups with uniformly chosen cut
    points.  Deterministic in ``rng_seed``.
    """
    dim = _integer(dim, "measurement dimension")
    num_outcomes = _integer(num_outcomes, "num_outcomes")
    if not 1 <= num_outcomes <= dim:
        raise ShapeMismatchError(
            f"num_outcomes must lie in [1, {dim}], got {num_outcomes}"
        )
    _check_dim(dim, "measurement")  # before the d x d draws
    rng = _rng(rng_seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    q = q * phases
    order = rng.permutation(dim)
    cuts = np.sort(rng.choice(dim - 1, size=num_outcomes - 1, replace=False) + 1) \
        if num_outcomes > 1 else np.array([], dtype=int)
    bounds = [0, *cuts.tolist(), dim]
    return Measurement._trusted(_frame_stack(
        [q[:, order[a:b]] for a, b in zip(bounds[:-1], bounds[1:])]))
