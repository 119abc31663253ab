"""The public names of ``import twinspace``, pinned: an export is added or
removed on purpose, here, or not at all."""

import types

import twinspace

EXPORTS = (
    "AblValidation", "BLOCK_SIZE", "CertificationReport",
    "CertificationVerdict", "DEFAULT_TOL", "DimensionMismatchError",
    "FeasibilityReport", "FeasibilityVerdict", "InsufficientTrialsError",
    "MAX_DIM", "Measurement", "MeasurementValidationError", "Mixture",
    "MixtureExperiment", "NoStoryInMixtureError", "NoSuccessesError",
    "NoWitnessError", "NotAStoryError", "NotCompleteError",
    "NotHermitianError", "NotIdempotentError", "NotOrthogonalError",
    "NullSubspace", "OutcomeDistribution", "PrePostExperiment", "Projector",
    "ReductionReport", "SchmidtDecomposition", "SearchResult",
    "SeparableInputError", "ShapeMismatchError", "StateVector", "StoryCase",
    "StoryCertificate", "TrialLog", "TwinspaceError", "TwoStateVector",
    "Workspace", "WorkspaceError", "ZeroConstraintSystem", "ZeroVectorError",
    "abl_probabilities", "builtin_workspace",
    "certify_strict_nonseparability", "distribution_gap",
    "empirical_distribution", "find_story_measurement", "forms_story",
    "hs_inner", "is_separable", "is_traceless", "joint_probabilities",
    "measurement_from_basis_grouping", "measurement_from_observable",
    "membership_in_null", "mixture_statistics", "null_subspace",
    "outcome_amplitudes", "random_measurement", "reduce_qutrit_family",
    "replicates_on", "scan_separable_residual", "schmidt",
    "search_distinguishing_measurement", "separable_feasibility", "simulate",
    "simulate_mixture", "time_reversal_equivalence_check", "time_reverse",
    "trace_functional", "validate_abl", "validate_measurement",
    "validate_mixture_abl", "zero_constraints",
)

#: Second spellings retired for one experiment type, one dimension error
#: and one tolerance name, and two wrappers without a caller.
RETIRED = ("KernelDimensionError", "MEASUREMENT_TOL", "merge_logs",
           "success_probability")


def _public_names(module) -> list[str]:
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType))


def test_exports_are_pinned():
    assert _public_names(twinspace) == sorted(EXPORTS)


def test_retired_names_are_gone():
    for module in (twinspace, twinspace.core, twinspace.errors,
                   twinspace.measurement, twinspace.montecarlo,
                   twinspace.structure, twinspace.distinguish):
        assert not set(RETIRED) & set(vars(module)), module.__name__

