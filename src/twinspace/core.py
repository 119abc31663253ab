r"""Two-state vectors and the Hilbert-Schmidt geometry of the twin space.

A two-state vector describes a quantum system between a preparation and a
post-selection.  It is an element of the twin space H (x) H*, i.e. a linear
combination

    v = sum_k  a_k  |psi_k> (x) <phi_k|

of ket-bra pairs.  Fixing the computational basis identifies the twin space
with the space of dim x dim complex matrices: the separable element
|k> (x) <l| maps to the matrix unit E_kl, and a general element to the
matrix M with M[k, l] being the coefficient of |k> (x) <l|.  All algebra in
this package is carried out in that matrix picture:

* the Hilbert-Schmidt inner product  <<u|v>> = Tr(matrix(u)^dagger matrix(v)),
* the trace functional  v -> Tr matrix(v),  which sends |psi> (x) <phi| to
  the transition amplitude <phi|psi>,
* time reversal  v -> v^dagger  (conjugate transpose, an anti-linear
  involution),
* the Schmidt decomposition of matrix(v), whose rank distinguishes
  separable (rank one) from non-separable two-state vectors.

Everything here is scale-covariant; normalization is presentation only and
available through :meth:`TwoStateVector.unit`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatchError,
    ShapeMismatchError,
    ZeroVectorError,
)

#: Tolerance of every story, zero, gap, Schmidt-rank and measurement rule.
DEFAULT_TOL = 1e-10

#: Hard cap on the Hilbert space dimension (dense-matrix regime).
MAX_DIM = 64

#: Unit-norm slack of the states that must be normalized.
_UNIT_TOL = 1e-9

#: Norms and sums of squares inside this range are free of overflow and of
#: digits lost to underflow.
_SAFE_RANGE = (2.0 ** -450, 2.0 ** 450)


def _frozen(array, dtype=np.complex128) -> np.ndarray:
    """Return a read-only C-contiguous ``dtype`` copy of ``array``."""
    out = np.array(array, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


def _unchecked(cls, value: np.ndarray, *rest):
    """A ``cls`` (a dataclass) holding ``value``, made C-contiguous and
    read-only, and then ``rest`` in field order, unchecked: only for
    results valid by construction."""
    value = np.ascontiguousarray(value)
    value.setflags(write=False)
    obj = object.__new__(cls)
    for name, field in zip(cls.__dataclass_fields__, (value, *rest)):
        object.__setattr__(obj, name, field)
    return obj


def _array(data, what: str, dtype=np.complex128) -> np.ndarray:
    """``np.asarray(data, dtype)``: the one conversion gate of outside
    numbers.  Ragged nesting and entries that do not convert (strings
    that are no numbers, objects, integers beyond the range of ``dtype``)
    are shape faults."""
    try:
        return np.asarray(data, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as err:
        raise ShapeMismatchError(
            f"{what} is ragged or not numeric: {err}") from None


def _square(matrix, what: str) -> np.ndarray:
    arr = _array(matrix, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(
            f"{what} must be square, got shape {arr.shape}")
    return arr


def _rescaled(array: np.ndarray, peak: float) -> tuple[np.ndarray, int]:
    """``array`` times 2**-e, exactly, and e: the power of two that brings
    ``peak``, its max |entry|, into [1/2, 1).  2**-e is applied as two
    factors, since for a subnormal peak it exceeds the float range."""
    e = math.frexp(peak)[1]
    half = -e // 2
    return array * math.ldexp(1.0, half) * math.ldexp(1.0, -e - half), e


def _norm(array: np.ndarray) -> float:
    """2-norm (Frobenius for a matrix) of a finite array at any scale:
    outside _SAFE_RANGE it is recomputed on the array rescaled exactly into
    [1/2, 1) and scaled back.  A max |entry| above _SAFE_RANGE[1] already
    puts the norm there, so it is rescaled before the sum of squares can
    overflow."""
    peak = float(np.abs(array).max())
    if peak <= _SAFE_RANGE[1]:
        n = float(np.linalg.norm(array))  # 0 on underflow
        if _SAFE_RANGE[0] <= n <= _SAFE_RANGE[1]:
            return n
    scaled, e = _rescaled(array, peak)
    return math.ldexp(float(np.linalg.norm(scaled)), e)


def _unit(array: np.ndarray) -> np.ndarray:
    """A nonzero finite array divided by its 2-norm, at any scale: both
    are rescaled exactly first, so a subnormal norm is never the divisor."""
    scaled = _rescaled(array, float(np.abs(array).max()))[0]
    return scaled / np.linalg.norm(scaled)


def _checked(data, ndim: int, what: str) -> np.ndarray:
    """The one vector value rule: ``ndim`` axes (2: square), 1 <= d <=
    MAX_DIM, finite, not identically zero; returned as a read-only copy."""
    arr = _square(data, f"{what} matrix") if ndim == 2 else _array(data, what)
    if arr.ndim != ndim:  # so ndim 1: _square has refused the rest
        raise ShapeMismatchError(
            f"{what} must be one-dimensional, got shape {arr.shape}")
    _check_dim(arr.shape[0], what)
    arr = _frozen(arr)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ZeroVectorError(f"{what} contains non-finite entries")
    if not np.any(arr):
        raise ZeroVectorError(f"{what} is identically zero")
    return arr


def _check_dim(dim: int, what: str) -> None:
    if dim < 1:
        raise ShapeMismatchError(f"{what} must have dimension >= 1, got {dim}")
    if dim > MAX_DIM:
        raise ShapeMismatchError(
            f"{what} has dimension {dim}, above the supported cap {MAX_DIM}"
        )


def _integer(value, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool; anything
    else is a ShapeMismatchError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ShapeMismatchError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float: a Python or numpy real number, not a bool;
    anything else is a ShapeMismatchError.  An integer beyond the float
    range reads as an infinity of its sign."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ShapeMismatchError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _count(value, what: str) -> int:
    """``value`` as a count: the one rule, an integer >= 1, not a bool."""
    n = _integer(value, what)
    if n < 1:
        raise ShapeMismatchError(f"{what} must be >= 1, got {value!r}")
    return n


def _items(value, what: str) -> tuple:
    """The items of an iterable argument as a tuple; a value that cannot be
    iterated (a number, None) is a shape fault."""
    try:
        items = iter(value)
    except TypeError:
        raise ShapeMismatchError(
            f"{what} must be a sequence, got {type(value).__name__}") from None
    return tuple(items)


def _check_term(term, kinds: tuple, what: str) -> None:
    """The one term rule: ``term`` is a (weight, *parts) tuple or list whose
    parts are one instance of each of ``kinds``, in order."""
    if not (isinstance(term, (tuple, list)) and len(term) == len(kinds) + 1
            and all(map(isinstance, term[1:], kinds))):
        raise ShapeMismatchError(
            f"{what} is not a (weight, "
            f"{', '.join(k.__name__ for k in kinds)}) tuple")


def _check_unit(state, name: str) -> None:
    """Refuse a state whose norm is not one within _UNIT_TOL."""
    if abs(state.norm - 1.0) > _UNIT_TOL:
        raise ShapeMismatchError(
            f"{name} state must be normalized (norm = {state.norm!r})")


def _rng(seed, *keys) -> np.random.Generator:
    """``np.random.default_rng`` of ``seed``, or of [seed, *keys]: the one
    seeding path, refusing a seed numpy cannot take as a shape fault."""
    try:
        return np.random.default_rng([seed, *keys] if keys else seed)
    except (TypeError, ValueError) as err:
        raise ShapeMismatchError(
            f"seed must be a non-negative integer or a sequence of them, "
            f"got {seed!r} ({err})") from None


def _plain(seed):
    """A seed ``_rng`` took, as a report stores it: numpy integers and
    arrays become Python ints and lists, so the report serializes."""
    if isinstance(seed, (list, tuple)):
        return type(seed)(map(_plain, seed))
    return seed.tolist() if isinstance(seed, (np.integer, np.ndarray)) else seed


#: Variables that set the BLAS thread count, read in this order.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _workers() -> int:
    """Library threads for ``_map`` (the null-subspace basis, the Monte
    Carlo blocks and the residual scan's batches): usable cores
    integer-divided by the BLAS thread count (every core when no variable
    pins it), at least 1.  Library threads yield to BLAS threads, so an
    unpinned process stays serial."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    blas = cores
    for name in _BLAS_THREAD_VARS:
        value = os.environ.get(name, "").strip()
        if value.isdecimal() and int(value) > 0:
            blas = int(value)
            break
    return max(1, cores // blas)


def _map(fn, items) -> list:
    """``[fn(x) for x in items]`` in item order.  With w = min(_workers(),
    len(items)) >= 2, share s is ``items[s::w]``: shares 1 .. w-1 run on a
    pool of w - 1 threads that this call opens and closes, share 0 on the
    caller's thread.  Nothing outlives the call, so nested calls and forked
    children need no care."""
    items = list(items)
    w = min(_workers(), len(items))
    if w < 2:
        return [fn(x) for x in items]
    # Imported here: it costs 4 ms, which serial processes skip.
    from concurrent.futures import ThreadPoolExecutor

    def share(s: int) -> list:
        return [fn(x) for x in items[s::w]]

    with ThreadPoolExecutor(w - 1) as pool:
        rest = pool.map(share, range(1, w))
        shares = [share(0), *rest]
    for s, results in enumerate(shares):
        items[s::w] = results
    return items


@dataclass(frozen=True, eq=False)
class StateVector:
    """A vector in the underlying Hilbert space C^dim.

    The constructor rejects zero and non-finite input but does not
    normalize; use :meth:`normalized` when unit norm is wanted.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           _checked(self.amplitudes, 1, "state vector"))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @cached_property
    def norm(self) -> float:
        """2-norm at any scale, computed once."""
        return _norm(self.amplitudes)

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Construct a unit-norm state by rescaling ``amplitudes``."""
        return _unchecked(cls, _unit(cls(amplitudes).amplitudes))

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        """The computational basis vector |index> in C^dim."""
        dim = _integer(dim, "state vector dimension")
        _check_dim(dim, "state vector")
        if not 0 <= _integer(index, "basis index") < dim:
            raise ShapeMismatchError(f"basis index {index} outside range(0, {dim})")
        return _unchecked(cls, np.eye(1, dim, index, dtype=np.complex128)[0])

    def to_json(self) -> dict:
        return {"dim": self.dim, "amplitudes": array_to_json(self.amplitudes)}

    @classmethod
    def from_json(cls, obj: dict) -> "StateVector":
        return cls(_declared_array(obj, "amplitudes", 1, "state vector"))

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class TwoStateVector:
    """An element of the twin space H (x) H*, stored as its dim x dim matrix.

    ``matrix[k, l]`` is the coefficient of the separable element
    |k> (x) <l| in the computational basis.  The matrix must be square,
    finite and not identically zero; no normalization is imposed.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _checked(self.matrix, 2, "two-state vector"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def hs_norm(self) -> float:
        """Hilbert-Schmidt (Frobenius) norm, computed once."""
        return _norm(self.matrix)

    @classmethod
    def separable(cls, ket: StateVector, bra: StateVector) -> "TwoStateVector":
        """The product element |ket> (x) <bra|  (matrix ket bra^dagger)."""
        if ket.dim != bra.dim:
            raise DimensionMismatchError(
                f"ket dim {ket.dim} != bra dim {bra.dim}"
            )
        return cls(np.outer(ket.amplitudes, bra.amplitudes.conj()))

    @classmethod
    def from_pairs(
        cls, terms: Iterable[tuple[complex, StateVector, StateVector]]
    ) -> "TwoStateVector":
        """Superpose weighted ket-bra pairs sum_k a_k |psi_k> (x) <phi_k|.

        Parameters
        ----------
        terms : iterable of (weight, ket, bra)
            Each a tuple or list of a number, through the conversion gate
            ``_array``, and two StateVectors (ShapeMismatch otherwise).
            All kets and bras must share one dimension; the summed matrix
            must not vanish.
        """
        terms = _items(terms, "terms")
        if not terms:
            raise ZeroVectorError("no terms given")
        acc = 0.0
        for i, term in enumerate(terms):
            _check_term(term, (StateVector, StateVector), f"term {i}")
            weight = _array(term[0], f"term {i} weight")
            if weight.ndim:
                raise ShapeMismatchError(
                    f"term {i} weight must be a number, got shape {weight.shape}")
            _, ket, bra = term
            dim = terms[0][1].dim
            if ket.dim != dim or bra.dim != dim:
                raise DimensionMismatchError(
                    f"term dimensions {ket.dim}, {bra.dim} != {dim}"
                )
            acc = acc + weight * np.outer(ket.amplitudes, bra.amplitudes.conj())
        return cls(acc)

    def unit(self) -> "TwoStateVector":
        """Rescale to Hilbert-Schmidt norm one (presentation only)."""
        return _unchecked(TwoStateVector, _unit(self.matrix))

    def to_json(self) -> dict:
        return {"dim": self.dim, "matrix": array_to_json(self.matrix)}

    @classmethod
    def from_json(cls, obj: dict) -> "TwoStateVector":
        return cls(_declared_array(obj, "matrix", 2, "two-state vector"))

    def __repr__(self):
        return f"TwoStateVector(dim={self.dim})"


def hs_inner(a: TwoStateVector, b: TwoStateVector) -> complex:
    """Hilbert-Schmidt inner product <<a|b>> = Tr(matrix(a)^dagger matrix(b)).

    Conjugate-linear in ``a``, linear in ``b``.  On separable elements it
    factorizes into <psi|psi'> <phi'|phi>.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} != {b.dim}")
    return complex(np.vdot(a.matrix, b.matrix))


def trace_functional(v: TwoStateVector) -> complex:
    """Tr matrix(v): sends |psi> (x) <phi| to the amplitude <phi|psi>."""
    return complex(np.trace(v.matrix))


def time_reverse(v: TwoStateVector) -> TwoStateVector:
    """Exchange preparation and post-selection roles.

    In the matrix picture this is the conjugate transpose; it is
    anti-linear and an involution, and it maps |psi> (x) <phi| to
    |phi> (x) <psi|.
    """
    return _unchecked(TwoStateVector, v.matrix.conj().T)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Result of :func:`schmidt`: v = sum_i c_i |left_i> (x) <right_i|.

    ``coefficients`` are all ``dim`` singular values in descending order
    (zeros included); ``left`` and ``right`` are matching orthonormal
    tuples of :class:`StateVector`.
    """

    coefficients: np.ndarray
    left: tuple[StateVector, ...]
    right: tuple[StateVector, ...]

    def rank(self) -> int:
        """Number of coefficients above DEFAULT_TOL times the largest."""
        return int(np.sum(self.coefficients > DEFAULT_TOL
                          * self.coefficients[0]))


def schmidt(v: TwoStateVector) -> SchmidtDecomposition:
    """Schmidt decomposition of a two-state vector.

    Computed as the singular value decomposition of matrix(v); the squared
    coefficients sum to the squared Hilbert-Schmidt norm.
    """
    u, s, vh = np.linalg.svd(v.matrix)
    # Row views of one frozen block of unitary columns: finite and nonzero.
    vecs = tuple(_unchecked(StateVector, row)
                 for row in _frozen(np.concatenate((u.T, vh.conj()))))
    return SchmidtDecomposition(_frozen(s, np.float64), vecs[:v.dim],
                                vecs[v.dim:])


def is_separable(v: TwoStateVector) -> bool:
    """True iff v is a single ket-bra product, i.e. Schmidt rank one."""
    return schmidt(v).rank() == 1


# ---------------------------------------------------------------------------
# JSON codec: complex numbers as [re, im], arrays row-major, every bit of
# every finite double kept (signed zeros included).
# ---------------------------------------------------------------------------

def array_to_json(array: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs: the one writer."""
    pairs = np.ascontiguousarray(array, dtype=np.complex128)
    return pairs.view(np.float64).reshape(pairs.shape + (2,)).tolist()


def _canonical_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte: the
    one canonical writer.  Dicts and other lists are walked here; a
    non-empty rectangular nest of lists of ints and floats (every
    ``array_to_json`` result) is rendered in one template fill, and every
    other value by json's C encoder."""
    out: list[str] = []
    _encode(obj, 0, out)
    return "".join(out)


def _encode(obj, level: int, out: list) -> None:
    """Append the text of ``obj``, opened at indent ``level``, to ``out``."""
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj, dict) and obj:
        sep = "{"
        for key, value in sorted(obj.items()):  # sorted before conversion
            key = key if isinstance(key, str) else json.dumps(key)
            out.append(f"{sep}{inner}{json.dumps(key)}: ")
            _encode(value, level + 1, out)
            sep = ","
        out.append(inner[:-2] + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        leaf = _number_leaf(obj, level)
        if leaf is not None:
            out.append(leaf)
            return
        sep = "["
        for item in obj:
            out.append(sep + inner)
            _encode(item, level + 1, out)
            sep = ","
        out.append(inner[:-2] + "]")
    else:  # scalars, [] and {}
        out.append(json.dumps(obj))


def _number_leaf(nest: list, level: int) -> str | None:
    """The indented text of ``nest`` at ``level`` if it is a non-empty
    rectangular nest of lists whose leaves are all exact ints and floats,
    none of them nan or infinite; None otherwise."""
    shape, rows = [], [nest]
    while True:
        lengths = set(map(len, rows))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        items = list(itertools.chain.from_iterable(rows))
        kinds = set(map(type, items))
        if kinds <= {int, float}:
            break
        if kinds != {list}:
            return None
        rows = items
    # repr is json's own rendering of a finite number; nan and inf are the
    # reprs that hold an "n", and json spells them otherwise.
    text = _leaf_template(tuple(shape), level) % tuple(items)
    return None if "n" in text else text


@lru_cache(maxsize=64)
def _leaf_template(shape: tuple, level: int) -> str:
    """The %r template of a rectangular nest of ``shape`` at ``level``."""
    inner = "\n" + "  " * (level + 1)
    item = "%r" if len(shape) == 1 else _leaf_template(shape[1:], level + 1)
    return f"[{inner}{(',' + inner).join([item] * shape[0])}{inner[:-2]}]"


def array_from_json(data, ndim: int, what: str) -> np.ndarray:
    """The complex array of ``ndim`` axes whose entries ``data`` nests as
    [re, im] pairs: the one reader.  Anything else (ragged nesting,
    non-numbers, integers beyond a double, pairs of another length, an
    empty list) is a ShapeMismatchError; non-finite values are left to
    the value rules."""
    pairs = _array(data, what, np.float64)
    if pairs.ndim != ndim + 1 or pairs.shape[-1] != 2:
        raise ShapeMismatchError(
            f"{what} must nest [re, im] pairs {ndim} deep, "
            f"got shape {pairs.shape}")
    return np.ascontiguousarray(pairs).view(np.complex128)[..., 0]


def _declared_array(obj, key: str, ndim: int, what: str) -> np.ndarray:
    """The array under ``key`` of a JSON entry, every axis but a stack's
    first equal to the entry's declared "dim": the one declared-dimension
    check of the ``from_json`` readers."""
    try:
        dim, data = obj["dim"], obj[key]
    except (LookupError, TypeError):  # a missing key, or not an object
        raise ShapeMismatchError(
            f"{what} entry must be an object with keys 'dim' and '{key}'"
        ) from None
    arr = array_from_json(data, ndim, what)
    if any(n != dim for n in arr.shape[-2:]):
        raise ShapeMismatchError(
            f"declared dim {dim!r} != {what} shape {arr.shape}")
    return arr
