r"""Structural results: every two-state vector has a story; null subspaces.

Two facts organize this module.

First, a constructive exhaustion: any nonzero two-state vector v forms a
story with some two-outcome measurement {|w><w|, 1 - |w><w|}.  Writing
M = matrix(v) with coefficients a_kl, the witness |w> is found by a
three-way case analysis, tried in this fixed order:

1. DIAGONAL            some |a_nn| > DEFAULT_TOL ||v||; witness |n>,
                       amplitude |a_nn|.
2. ANTISYMMETRIC       ||M + M^T|| <= DEFAULT_TOL ||v||; witness
                       (|m> + i|n>)/sqrt(2) for the largest off-diagonal
                       |a_mn|, amplitude |a_mn|.
3. SYMMETRIC_OFFDIAG   otherwise; witness (|m> + |n>)/sqrt(2) for the largest
                       |a_mn + a_nm|, amplitude |a_mn + a_nm| / 2.

Second, for a fixed measurement {P_1, ..., P_k} the story-less vectors form
a linear subspace, the kernel of the linear map

    v  ->  (Tr P_1 v, ..., Tr P_k v),

of dimension exactly dim^2 - k: the k functionals are orthogonal with
squared norms rank(P_i) >= 1, as a Measurement has no zero outcome.  The
dimension and membership (the negated story rule) need no basis, which an
SVD computes: in ``null_subspace``, or on first use of a bare
``NullSubspace``.  The trace functional is the sum of the outcome
functionals of any one measurement, so a vector with nonzero trace forms a
story with *every* measurement, and a story-less vector is necessarily
traceless.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .core import DEFAULT_TOL, StateVector, TwoStateVector, _norm, _unchecked
from .errors import KernelDimensionError, NoWitnessError
from .measurement import Measurement, _amplitudes, forms_story


class StoryCase(Enum):
    """Which branch of the witness construction fired."""

    DIAGONAL = "DIAGONAL"
    ANTISYMMETRIC = "ANTISYMMETRIC"
    SYMMETRIC_OFFDIAG = "SYMMETRIC_OFFDIAG"


@dataclass(frozen=True, eq=False)
class StoryCertificate:
    """A verified story for one two-state vector.

    ``amplitude_magnitude`` equals |Tr(|w><w| matrix(v))| for the witness
    state w.  ``measurement`` is {|w><w|, 1 - |w><w|} (the complement is
    dropped when it would be the zero projector, i.e. at dim 1), built
    from the witness on first use.
    """

    case: StoryCase
    witness: StateVector
    amplitude_magnitude: float

    @cached_property
    def measurement(self) -> Measurement:
        a = self.witness.amplitudes / self.witness.norm
        p = np.outer(a, a.conj())
        if self.witness.dim == 1:
            return Measurement((p,))
        return Measurement((p, np.eye(self.witness.dim) - p))

    def to_json(self) -> dict:
        return {
            "case": self.case.value,
            "witness": self.witness.to_json(),
            "measurement": self.measurement.to_json(),
            "amplitude_magnitude": self.amplitude_magnitude,
        }


def find_story_measurement(v: TwoStateVector) -> StoryCertificate:
    """Construct a two-outcome measurement forming a story with ``v``.

    Follows the DIAGONAL -> ANTISYMMETRIC -> SYMMETRIC_OFFDIAG exhaustion
    described in the module docstring.  Raises NoWitness only when the
    selected branch produces an amplitude at or below DEFAULT_TOL * ||v||,
    which requires numerically degenerate input near the case boundaries.
    """
    m_mat = v.matrix
    floor = DEFAULT_TOL * v.hs_norm

    diag = np.abs(np.diag(m_mat))
    n = int(np.argmax(diag))
    if diag[n] > floor:
        case = StoryCase.DIAGONAL
        witness = StateVector.basis_state(v.dim, n)
    else:
        antisym = _norm(m_mat + m_mat.T) <= floor
        case = (StoryCase.ANTISYMMETRIC if antisym
                else StoryCase.SYMMETRIC_OFFDIAG)
        off = np.abs(m_mat if antisym else m_mat + m_mat.T)
        np.fill_diagonal(off, 0.0)
        r, c = np.unravel_index(int(np.argmax(off)), off.shape)
        amps = np.zeros(v.dim, dtype=np.complex128)
        amps[r] = 1.0 / np.sqrt(2.0)
        amps[c] = (1j if antisym else 1.0) / np.sqrt(2.0)
        witness = StateVector(amps)

    # Tr(|w><w| M) on the witness projector alone, no measurement built.
    a = witness.amplitudes / witness.norm
    amplitude = float(np.abs(_amplitudes(np.outer(a, a.conj())[np.newaxis],
                                         m_mat)[0]))
    if amplitude <= floor:
        raise NoWitnessError(
            f"branch {case.value} produced amplitude {amplitude:.3e} "
            f"<= {floor:.3e}; input is numerically degenerate"
        )
    return StoryCertificate(case, witness, amplitude)


def is_traceless(v: TwoStateVector) -> bool:
    """True iff |Tr matrix(v)| <= DEFAULT_TOL * ||v||."""
    return abs(np.trace(v.matrix)) <= DEFAULT_TOL * v.hs_norm


@dataclass(frozen=True, eq=False)
class NullSubspace:
    """The story-less vectors of one measurement: the kernel of
    v -> (Tr P_1 v, ..., Tr P_k v), of dimension dim^2 - k (zero exactly
    for dim == 1).  ``basis``, orthonormal, is computed on first use.
    """

    measurement: Measurement

    @property
    def dim(self) -> int:
        return self.measurement.dim ** 2 - self.measurement.num_outcomes

    @cached_property
    def basis(self) -> tuple[TwoStateVector, ...]:
        m = self.measurement
        k, d = m.num_outcomes, m.dim
        constraints = m._stacked.transpose(0, 2, 1).reshape(k, d * d)
        vh = np.linalg.svd(constraints, full_matrices=True)[2]
        # Read-only views of one conjugated block of vh, not d^2 - k copies;
        # unitary rows are finite and nonzero, all the constructor checks.
        null = vh[k:].reshape(-1, d, d)
        np.conjugate(null, out=null)
        null.setflags(write=False)
        return tuple(_unchecked(TwoStateVector, mat) for mat in null)


def null_subspace(m: Measurement) -> NullSubspace:
    """The story-less subspace of ``m``: dimension dim^2 - k by law, and
    its basis, by SVD of the constraint rows v -> Tr(P_i v), computed in
    this call.  ``NullSubspace(m)`` alone defers the basis to first use."""
    ns = NullSubspace(m)
    _ = ns.basis
    return ns


def membership_in_null(v: TwoStateVector, ns: NullSubspace) -> bool:
    """True iff v forms no story with ``ns.measurement``, i.e. iff
    max_i |Tr(P_i matrix(v))| <= DEFAULT_TOL * ||v||; no basis is used."""
    if v.dim != ns.measurement.dim:
        raise KernelDimensionError(
            f"vector dim {v.dim} != subspace dim {ns.measurement.dim}"
        )
    return not forms_story(v, ns.measurement)
