"""Each named tolerance at its boundary, through every entry point that
applies it: a value inside by tol * 1e-3 is accepted, one outside by as
much is refused."""

import numpy as np
import pytest

from twinspace import (
    InsufficientTrialsError,
    Mixture,
    MixtureExperiment,
    OutcomeDistribution,
    ShapeMismatchError,
    StateVector,
    builtin_workspace,
    joint_probabilities,
    validate_abl,
)
from twinspace.distinguish import _SNAP_TOL, _snap_half_gaussian
from twinspace.measurement import _NEGATIVE_TOL, _SUM_TOL
from twinspace.montecarlo import _JOINT_FLOOR

WS = builtin_workspace()
KET0, PLUS = WS.state("ket0"), WS.state("plus")
COMPUTATIONAL = WS.measurement("computational")
DIAGONAL = WS.measurement("diagonal")

SIDES = pytest.mark.parametrize("factor, accepted",
                                [(1 - 1e-3, True), (1 + 1e-3, False)],
                                ids=["inside", "outside"])
SIGNS = pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])


def _check(build, accepted: bool, error: type, match: str):
    if accepted:
        return build()
    with pytest.raises(error, match=match):
        build()


#: Every entry point of the sum rule, given the second of two terms whose
#: first is 0.5.
SUM_RULE = {
    "Mixture": lambda w: Mixture(((0.5, WS.vector("ket0_bra1")),
                                  (w, WS.vector("ket0_bra1")))),
    "MixtureExperiment": lambda w: MixtureExperiment(
        ((0.5, KET0, PLUS), (w, KET0, PLUS)), DIAGONAL, 100, 0),
    "OutcomeDistribution": lambda w: OutcomeDistribution([0.5, w]),
}


@SIDES
@SIGNS
@pytest.mark.parametrize("entry", SUM_RULE)
def test_sum_tol_boundary(entry, sign, factor, accepted):
    """Mixture weights and outcome probabilities sum to one within
    measurement._SUM_TOL."""
    w = 0.5 + sign * _SUM_TOL * factor
    _check(lambda: SUM_RULE[entry](w), accepted, ShapeMismatchError, "sum")


@SIDES
def test_negative_tol_boundary(factor, accepted):
    """An OutcomeDistribution keeps a probability down to
    -measurement._NEGATIVE_TOL."""
    eps = _NEGATIVE_TOL * factor
    _check(lambda: OutcomeDistribution([-eps, 1.0 + eps]), accepted,
           ShapeMismatchError, "negative")


@SIDES
def test_joint_floor_boundary(factor, accepted):
    """An outcome with joint probability above montecarlo._JOINT_FLOOR and
    fewer than 100 expected successes is refused; one at or below the floor
    is exempt.  Outcome 1 of |pre> (x) <+| on the computational basis has
    joint probability |pre_1|^2 / 2."""
    s = 2.0 * _JOINT_FLOOR * factor
    pre = StateVector.normalized([np.sqrt(1.0 - s), np.sqrt(s)])
    exp = MixtureExperiment(((1.0, pre, PLUS),), COMPUTATIONAL, 1000, 0)
    assert joint_probabilities(exp)[1] == pytest.approx(s / 2, rel=1e-9)
    _check(lambda: validate_abl(exp), accepted, InsufficientTrialsError,
           "outcome 1")


@SIDES
@SIGNS
@pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "imaginary"])
def test_snap_tol_boundary(unit, sign, factor, accepted):
    """Twice each part of a coefficient snaps to an integer within
    distinguish._SNAP_TOL."""
    coeffs = np.array([unit * (3.0 + sign * _SNAP_TOL * factor) / 2.0, 0.5])
    snapped = _check(lambda: _snap_half_gaussian(coeffs), accepted,
                     ShapeMismatchError, "half-integer")
    if accepted:
        np.testing.assert_array_equal(snapped, [1.5 * unit, 0.5])
