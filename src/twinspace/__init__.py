r"""Two-state vectors, stories, and the ABL rule.

Numerical toolkit for quantum systems described between a preparation and
a post-selection: twin-space algebra and Schmidt structure (``core``),
projective measurements and conditional ABL statistics (``measurement``),
story existence and null subspaces (``structure``), mixtures and
separable-replication analysis (``distinguish``), Born-rule Monte Carlo
validation (``montecarlo``), and a workspace-driven CLI (``cli``).
"""

from .core import (
    DEFAULT_TOL,
    MAX_DIM,
    SchmidtDecomposition,
    StateVector,
    TwoStateVector,
    hs_inner,
    is_separable,
    schmidt,
    time_reverse,
    trace_functional,
)
from .distinguish import (
    CertificationReport,
    CertificationVerdict,
    FeasibilityReport,
    FeasibilityVerdict,
    Mixture,
    ReductionReport,
    SearchResult,
    ZeroConstraintSystem,
    certify_strict_nonseparability,
    distribution_gap,
    mixture_statistics,
    reduce_qutrit_family,
    replicates_on,
    scan_separable_residual,
    search_distinguishing_measurement,
    separable_feasibility,
    time_reversal_equivalence_check,
    zero_constraints,
)
from .errors import (
    DimensionMismatchError,
    InsufficientTrialsError,
    MeasurementValidationError,
    NoStoryInMixtureError,
    NoSuccessesError,
    NotAStoryError,
    NotCompleteError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthogonalError,
    NoWitnessError,
    SeparableInputError,
    ShapeMismatchError,
    TwinspaceError,
    WorkspaceError,
    ZeroVectorError,
)
from .measurement import (
    Measurement,
    OutcomeDistribution,
    Projector,
    abl_probabilities,
    forms_story,
    measurement_from_basis_grouping,
    measurement_from_observable,
    outcome_amplitudes,
    random_measurement,
    validate_measurement,
)
from .montecarlo import (
    BLOCK_SIZE,
    AblValidation,
    MixtureExperiment,
    PrePostExperiment,
    TrialLog,
    empirical_distribution,
    joint_probabilities,
    simulate,
    simulate_mixture,
    validate_abl,
    validate_mixture_abl,
)
from .structure import (
    NullSubspace,
    StoryCase,
    StoryCertificate,
    find_story_measurement,
    is_traceless,
    membership_in_null,
    null_subspace,
)
from .workspace import Workspace, builtin_workspace

__version__ = "0.1.0"
