"""Exception hierarchy for the twinspace package.

Every fault the library finds in a value it is given is a
:class:`TwinspaceError`.  The two boundaries where outside input enters,
``cli.main`` and ``workspace._parse_entries``, catch ``TwinspaceError`` and
nothing else: any other exception leaving them is a library defect, to be
refused at its source.  A wrong Python type handed to a library function
directly is a programming error, outside this contract.  Operands of
different dimension are one fault, a ``DimensionMismatchError``, wherever
they meet.  Measurement validation errors come from the one measurement
rule (absolute tolerance ``DEFAULT_TOL``, NaN failing; see
``twinspace.measurement``) and carry the index of the first offending
projector (a rank-0 one included) or pair of projectors.
"""

from __future__ import annotations


class TwinspaceError(Exception):
    """Base class for all twinspace errors."""


class DimensionMismatchError(TwinspaceError):
    """Operands live in spaces of different dimension."""


class ZeroVectorError(TwinspaceError):
    """A state or two-state vector is identically zero (or not finite)."""


class MeasurementValidationError(TwinspaceError):
    """Base class for projective-measurement validation failures."""

    def __init__(self, message: str, *, index: int | None = None,
                 pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.index = index
        self.pair = pair


class NotHermitianError(MeasurementValidationError):
    """A projector candidate is not Hermitian within tolerance."""


class NotIdempotentError(MeasurementValidationError):
    """A projector candidate does not satisfy P @ P == P within tolerance."""


class NotOrthogonalError(MeasurementValidationError):
    """Two projectors of one measurement do not annihilate each other."""


class NotCompleteError(MeasurementValidationError):
    """The projectors of a measurement do not sum to the identity."""


class NotAStoryError(TwinspaceError):
    """The pair (vector, measurement) forms no story: every outcome
    amplitude vanishes, so conditional probabilities are undefined."""


class NoWitnessError(TwinspaceError):
    """The story construction exhausted all three branches without finding
    a witness above tolerance (possible only for numerically degenerate
    input near the case boundaries)."""


class NoStoryInMixtureError(TwinspaceError):
    """No component of a mixture forms a story with the given measurement."""


class NoSuccessesError(TwinspaceError):
    """A simulated experiment post-selected zero trials, leaving the
    empirical distribution undefined."""


class InsufficientTrialsError(TwinspaceError, ValueError):
    """Too few trials for a meaningful Monte Carlo sigma bound."""


class ShapeMismatchError(TwinspaceError):
    """An array argument has the wrong shape."""


class SeparableInputError(TwinspaceError):
    """A certification routine was handed a separable vector; there is
    nothing to certify."""


class WorkspaceError(TwinspaceError):
    """A workspace file cannot be parsed, fails validation, or a name
    cannot be resolved."""
