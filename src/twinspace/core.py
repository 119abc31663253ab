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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    ShapeMismatchError,
    ZeroVectorError,
)

#: Default relative tolerance for every zero test in the package.
DEFAULT_TOL = 1e-10

#: Hard cap on the Hilbert space dimension (dense-matrix regime).
MAX_DIM = 64


def _frozen(array: np.ndarray) -> np.ndarray:
    """Return a read-only C-contiguous complex128 copy of ``array``."""
    out = np.array(array, dtype=np.complex128, order="C", copy=True)
    out.setflags(write=False)
    return out


def _unchecked(cls, matrix: np.ndarray):
    """A ``cls`` holding ``matrix`` as is, its constructor's checks skipped:
    for read-only matrices that are valid by construction."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "matrix", matrix)
    return obj


def _square(matrix, what: str) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(
            f"{what} must be square, got shape {arr.shape}")
    return arr


def _check_finite(array: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(array.view(np.float64))):
        raise ZeroVectorError(f"{what} contains non-finite entries")


def _check_dim(dim: int, what: str) -> None:
    if dim < 1:
        raise ShapeMismatchError(f"{what} must have dimension >= 1, got {dim}")
    if dim > MAX_DIM:
        raise ShapeMismatchError(
            f"{what} has dimension {dim}, above the supported cap {MAX_DIM}"
        )


@dataclass(frozen=True, eq=False)
class StateVector:
    """A vector in the underlying Hilbert space C^dim.

    The constructor rejects zero and non-finite input but does not
    normalize; use :meth:`normalized` when unit norm is wanted.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes)
        if arr.ndim != 1:
            raise ShapeMismatchError(
                f"state vector must be one-dimensional, got shape {arr.shape}"
            )
        _check_dim(arr.shape[0], "state vector")
        arr = _frozen(arr)
        _check_finite(arr, "state vector")
        if not np.any(arr):
            raise ZeroVectorError("state vector is identically zero")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Construct a unit-norm state by rescaling ``amplitudes``."""
        raw = cls(amplitudes)
        return cls(raw.amplitudes / raw.norm)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        """The computational basis vector |index> in C^dim."""
        if not 0 <= index < dim:
            raise ShapeMismatchError(f"basis index {index} outside range(0, {dim})")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)

    def to_json(self) -> dict:
        return {"dim": self.dim, "amplitudes": vector_to_json(self.amplitudes)}

    @classmethod
    def from_json(cls, obj: dict) -> "StateVector":
        amps = vector_from_json(obj["amplitudes"])
        if amps.shape[0] != obj["dim"]:
            raise ShapeMismatchError(
                f"declared dim {obj['dim']} != amplitude count {amps.shape[0]}"
            )
        return cls(amps)

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
        arr = _square(self.matrix, "two-state vector matrix")
        _check_dim(arr.shape[0], "two-state vector")
        arr = _frozen(arr)
        _check_finite(arr, "two-state vector")
        if not np.any(arr):
            raise ZeroVectorError("two-state vector is identically zero")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def hs_norm(self) -> float:
        """Hilbert-Schmidt (Frobenius) norm."""
        return float(np.linalg.norm(self.matrix))

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
            All kets and bras must share one dimension; the summed matrix
            must not vanish.
        """
        terms = list(terms)
        if not terms:
            raise ZeroVectorError("no terms given")
        dim = terms[0][1].dim
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for weight, ket, bra in terms:
            if ket.dim != dim or bra.dim != dim:
                raise DimensionMismatchError(
                    f"term dimensions {ket.dim}, {bra.dim} != {dim}"
                )
            acc += complex(weight) * np.outer(ket.amplitudes, bra.amplitudes.conj())
        return cls(acc)

    def unit(self) -> "TwoStateVector":
        """Rescale to Hilbert-Schmidt norm one (presentation only)."""
        return TwoStateVector(self.matrix / self.hs_norm)

    def to_json(self) -> dict:
        return {"dim": self.dim, "matrix": matrix_to_json(self.matrix)}

    @classmethod
    def from_json(cls, obj: dict) -> "TwoStateVector":
        mat = matrix_from_json(obj["matrix"])
        if mat.shape != (obj["dim"], obj["dim"]):
            raise ShapeMismatchError(
                f"declared dim {obj['dim']} != matrix shape {mat.shape}"
            )
        return cls(mat)

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
    return TwoStateVector(v.matrix.conj().T)


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

    def rank(self, tol: float = DEFAULT_TOL) -> int:
        """Number of coefficients above ``tol`` relative to the largest."""
        return int(np.sum(self.coefficients > tol * self.coefficients[0]))


def schmidt(v: TwoStateVector) -> SchmidtDecomposition:
    """Schmidt decomposition of a two-state vector.

    Computed as the singular value decomposition of matrix(v); the squared
    coefficients sum to the squared Hilbert-Schmidt norm.
    """
    u, s, vh = np.linalg.svd(v.matrix)
    left = tuple(StateVector(u[:, i]) for i in range(v.dim))
    right = tuple(StateVector(vh[i].conj()) for i in range(v.dim))
    return SchmidtDecomposition(_frozen_real(s), left, right)


def _frozen_real(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def is_separable(v: TwoStateVector, tol: float = DEFAULT_TOL) -> bool:
    """True iff v is a single ket-bra product, i.e. Schmidt rank one."""
    return schmidt(v).rank(tol) == 1


# ---------------------------------------------------------------------------
# JSON codecs: complex numbers as [re, im], matrices row-major, exact for
# finite doubles (Python float repr round-trips bit-for-bit).
# ---------------------------------------------------------------------------

def complex_to_json(z: complex) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]

def complex_from_json(pair: Sequence) -> complex:
    if len(pair) != 2:
        raise ShapeMismatchError(f"complex entry must be [re, im], got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))

def vector_to_json(vec: np.ndarray) -> list:
    return [complex_to_json(z) for z in vec]

def vector_from_json(entries: Sequence) -> np.ndarray:
    return np.array([complex_from_json(p) for p in entries], dtype=np.complex128)

def matrix_to_json(mat: np.ndarray) -> list:
    return [vector_to_json(row) for row in mat]

def matrix_from_json(rows: Sequence) -> np.ndarray:
    if not rows:
        raise ShapeMismatchError("matrix has no rows")
    data = [vector_from_json(row) for row in rows]
    widths = {row.shape[0] for row in data}
    if len(widths) != 1:
        raise ShapeMismatchError(f"ragged matrix rows, widths {sorted(widths)}")
    return np.array(data, dtype=np.complex128)
