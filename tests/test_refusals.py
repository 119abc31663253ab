"""Refusals of malformed input on branches that no other test reaches: each
entry point raises its documented error with its own message."""

import pytest

from twinspace import (
    DimensionMismatchError,
    FeasibilityReport,
    FeasibilityVerdict,
    Measurement,
    Mixture,
    SeparableInputError,
    ShapeMismatchError,
    StateVector,
    TrialLog,
    TwoStateVector,
    Workspace,
    WorkspaceError,
    builtin_workspace,
    measurement_from_basis_grouping,
    replicates_on,
    search_distinguishing_measurement,
)

WS = builtin_workspace()
E2, E3 = WS.vector("ket0_bra0"), WS.vector("qutrit_signed")
KET2, KET3 = StateVector([1, 0]), StateVector([1, 0, 0])

REFUSALS = {
    "replicates_on mixed dims": (
        lambda: replicates_on(Mixture.point(E2), Mixture.point(E3),
                              WS.measurement("computational")),
        DimensionMismatchError, "mixture dims differ: 2 != 3"),
    "search mixed dims": (
        lambda: search_distinguishing_measurement(
            Mixture.point(E2), Mixture.point(E3), 5, 2, 0),
        DimensionMismatchError, "mixture dims differ: 2 != 3"),
    "from_pairs mixed dims": (
        lambda: TwoStateVector.from_pairs([(1.0, KET2, KET2),
                                           (1.0, KET3, KET3)]),
        DimensionMismatchError, "term dimensions"),
    "measurement without projectors": (
        lambda: Measurement([]),
        ShapeMismatchError, "at least one projector"),
    "basis too short for its dim": (
        lambda: measurement_from_basis_grouping(
            [KET3, StateVector([0, 1, 0])], [[0], [1]]),
        ShapeMismatchError, "2 basis vectors for dim 3"),
    "trial log of a matrix": (
        lambda: TrialLog([[1, 2]], 5),
        ShapeMismatchError, "one-dimensional"),
    "witness of a report without one": (
        lambda: FeasibilityReport(FeasibilityVerdict.INCONCLUSIVE, None, 1.0,
                                  1, 0).witness_vector(),
        SeparableInputError, "no witness"),
    "mixture of an unknown vector": (
        lambda: Workspace(vectors={"v": E2},
                          mixture_refs={"m": [(1.0, "missing")]}),
        WorkspaceError, "unknown vector 'missing'"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_entry_point_refuses(name):
    call, error, match = REFUSALS[name]
    with pytest.raises(error, match=match):
        call()
