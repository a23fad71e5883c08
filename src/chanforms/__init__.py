"""A/B forms of finite-dimensional quantum dynamical maps.

Construction, interconversion, canonical (spectral) decomposition,
Kraus extraction, and complete-positivity classification of linear maps
on density matrices, plus a catalog of standard qubit channels.
"""

from .analysis import (
    AnalysisReport,
    analyze,
    choi_consistency,
    choi_state,
)
from .errors import (
    BadMatrixShapeError,
    ChanformsError,
    DimensionMismatchError,
    DocumentError,
    DocumentSyntaxError,
    IncompleteKrausError,
    InvalidMapError,
    InvalidMatrixError,
    InvalidStateError,
    MissingFieldError,
    NoConvergenceError,
    NonFiniteEntryError,
    NotCompletelyPositiveError,
    NotHermitianError,
    NotHermiticityPreservingError,
    NotTracePreservingError,
    NotUnitAxisError,
    OutsideBallError,
    ProbabilityRangeError,
    RankRangeError,
    SeedRangeError,
    UnknownFieldError,
    UnsupportedCombinationError,
    WrongDimensionError,
)
from .forms import (
    AForm,
    BasisLabel,
    BForm,
    CanonicalDecomposition,
    CoefficientMatrix,
    CpClassification,
    CpVerdict,
    KrausSet,
    MapOutput,
    OperatorBasis,
    apply_a,
    apply_canonical,
    apply_kraus,
    canonical_decompose,
    canonical_to_a,
    coefficient_matrix,
    cp_verdict,
    default_basis,
    expand_coefficients,
    extract_kraus,
    kraus_to_a,
    realign_a_to_b,
    realign_b_to_a,
    standard_basis,
)
from .linalg import (
    DEFAULT_TOL,
    PAULIS,
    BlochVector,
    DensityMatrix,
    EigenDecomposition,
    bloch_to_density,
    density_to_bloch,
    hermitian_eigendecompose,
)
from .zoo import (
    CHANNEL_CATALOG,
    ChannelKind,
    ChannelSpec,
    build_bit_flip_a,
    build_equatorial_projection_a,
    build_phase_flip_a,
    build_pin_a,
    build_transpose_a,
    build_unitary_a,
    channel_a,
    random_cp_channel,
    random_ncp_a,
    rotation_unitary,
)

__version__ = "0.1.0"
