r"""Structural results: every two-state vector has a story; null subspaces.

Two facts organize this module.

First, a constructive exhaustion: any nonzero two-state vector v forms a
story with some two-outcome measurement {|w><w|, 1 - |w><w|}.  Writing
M = matrix(v) with coefficients a_kl, the witness |w> is found by a
three-way case analysis, tried in this fixed order:

1. DIAGONAL            some |a_nn| > tol ||v||; witness |n>, amplitude |a_nn|.
2. ANTISYMMETRIC       M = -M^T within tolerance; witness (|m> + i|n>)/sqrt(2)
                       for the largest off-diagonal |a_mn|, amplitude |a_mn|.
3. SYMMETRIC_OFFDIAG   otherwise; witness (|m> + |n>)/sqrt(2) for the largest
                       |a_mn + a_nm|, amplitude |a_mn + a_nm| / 2.

Second, for a fixed measurement {P_1, ..., P_k} the story-less vectors form
a linear subspace, the kernel of the linear map

    v  ->  (Tr P_1 v, ..., Tr P_k v),

of dimension exactly dim^2 - k (the k functionals are linearly independent
because the projectors are orthogonal and complete).  Its orthonormal basis
is computed by a rank-revealing SVD; membership needs no basis, being the
negated story rule max_i |Tr P_i v| > tol * ||v||.  The trace functional is
the sum of the outcome functionals of any one measurement, so a vector with
nonzero trace forms a story with *every* measurement, and a story-less
vector is necessarily traceless.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DEFAULT_TOL, StateVector, TwoStateVector
from .errors import KernelDimensionError, NoWitnessError
from .measurement import Measurement, Projector, forms_story, outcome_amplitudes


class StoryCase(Enum):
    """Which branch of the witness construction fired."""

    DIAGONAL = "DIAGONAL"
    ANTISYMMETRIC = "ANTISYMMETRIC"
    SYMMETRIC_OFFDIAG = "SYMMETRIC_OFFDIAG"


@dataclass(frozen=True, eq=False)
class StoryCertificate:
    """A verified story for one two-state vector.

    ``measurement`` is {|w><w|, 1 - |w><w|} for the witness state w (the
    complement is dropped when it would be the zero projector), and
    ``amplitude_magnitude`` equals |Tr(|w><w| matrix(v))| at construction
    time.
    """

    case: StoryCase
    witness: StateVector
    measurement: Measurement
    amplitude_magnitude: float

    def to_json(self) -> dict:
        return {
            "case": self.case.value,
            "witness": self.witness.to_json(),
            "measurement": self.measurement.to_json(),
            "amplitude_magnitude": self.amplitude_magnitude,
        }


def _witness_measurement(witness: StateVector) -> Measurement:
    p = Projector.onto_state(witness)
    if witness.dim == 1:
        return Measurement((p,))
    return Measurement((p, Projector(np.eye(witness.dim) - p.matrix)))


def find_story_measurement(v: TwoStateVector,
                           tol: float = DEFAULT_TOL) -> StoryCertificate:
    """Construct a two-outcome measurement forming a story with ``v``.

    Follows the DIAGONAL -> ANTISYMMETRIC -> SYMMETRIC_OFFDIAG exhaustion
    described in the module docstring.  Raises NoWitness only when the
    selected branch produces an amplitude at or below tol * ||v||, which
    requires numerically degenerate input near the case boundaries.
    """
    m_mat = v.matrix
    d = v.dim
    floor = tol * v.hs_norm

    diag = np.abs(np.diag(m_mat))
    n = int(np.argmax(diag))
    if diag[n] > floor:
        case = StoryCase.DIAGONAL
        witness = StateVector.basis_state(d, n)
    elif float(np.linalg.norm(m_mat + m_mat.T)) <= tol * v.hs_norm:
        case = StoryCase.ANTISYMMETRIC
        off = np.abs(m_mat)
        np.fill_diagonal(off, 0.0)
        r, c = np.unravel_index(int(np.argmax(off)), off.shape)
        amps = np.zeros(d, dtype=np.complex128)
        amps[r] = 1.0 / np.sqrt(2.0)
        amps[c] = 1j / np.sqrt(2.0)
        witness = StateVector(amps)
    else:
        case = StoryCase.SYMMETRIC_OFFDIAG
        sym = np.abs(m_mat + m_mat.T)
        np.fill_diagonal(sym, 0.0)
        r, c = np.unravel_index(int(np.argmax(sym)), sym.shape)
        amps = np.zeros(d, dtype=np.complex128)
        amps[r] = 1.0 / np.sqrt(2.0)
        amps[c] = 1.0 / np.sqrt(2.0)
        witness = StateVector(amps)

    measurement = _witness_measurement(witness)
    amplitude = float(np.abs(outcome_amplitudes(v, measurement)[0]))
    if amplitude <= floor:
        raise NoWitnessError(
            f"branch {case.value} produced amplitude {amplitude:.3e} "
            f"<= {floor:.3e}; input is numerically degenerate"
        )
    return StoryCertificate(case, witness, measurement, amplitude)


def is_traceless(v: TwoStateVector, tol: float = DEFAULT_TOL) -> bool:
    """True iff |Tr matrix(v)| <= tol * ||v||."""
    return abs(np.trace(v.matrix)) <= tol * v.hs_norm


@dataclass(frozen=True, eq=False)
class NullSubspace:
    """Orthonormal basis of the story-less vectors of one measurement.

    The basis spans the kernel of v -> (Tr P_1 v, ..., Tr P_k v); its
    dimension is dim^2 - k.  Empty exactly for dim == 1.
    """

    measurement: Measurement
    basis: tuple[TwoStateVector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def null_subspace(m: Measurement) -> NullSubspace:
    """Compute the story-less subspace of ``m`` by rank-revealing SVD.

    The constraint matrix stacks one row per projector, row i being the
    coefficient vector of the linear functional v -> Tr(P_i matrix(v)).
    Singular values at or below 1e-9 times the largest are treated as
    zero; the detected kernel dimension must match dim^2 - k exactly.
    """
    k, d = m.num_outcomes, m.dim
    constraints = m._stacked.transpose(0, 2, 1).reshape(k, d * d)
    _, s, vh = np.linalg.svd(constraints, full_matrices=True)
    rank = int(np.sum(s > 1e-9 * s[0]))
    if rank != k:
        raise KernelDimensionError(
            f"numerical kernel dimension {d * d - rank} != {d * d - k}"
        )
    # The basis vectors are read-only views of one conjugated block of vh,
    # freed as a whole, not d^2 - k copies scattered on the heap; rows of a
    # unitary are finite and nonzero, which is all the constructor checks.
    null = vh[k:].reshape(-1, d, d)
    np.conjugate(null, out=null)
    null.setflags(write=False)
    basis = tuple(object.__new__(TwoStateVector) for _ in null)
    for b, mat in zip(basis, null):
        object.__setattr__(b, "matrix", mat)
    return NullSubspace(m, basis)


def membership_in_null(v: TwoStateVector, ns: NullSubspace,
                       tol: float = DEFAULT_TOL) -> bool:
    """True iff v forms no story with ``ns.measurement``, i.e. iff
    max_i |Tr(P_i matrix(v))| <= tol * ||v||; the basis is not used."""
    if v.dim != ns.measurement.dim:
        raise KernelDimensionError(
            f"vector dim {v.dim} != subspace dim {ns.measurement.dim}"
        )
    return not forms_story(v, ns.measurement, tol)
