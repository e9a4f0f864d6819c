"""pwlkit: piecewise-linear models, transforms, fitting, and network analysis."""

from .affine import AffineFunction, affine_zero
from .conventional import (
    ConventionalPWL,
    ContinuityReport,
    Halfspace,
    Region,
    box_region,
    check_consistent_variation,
    check_continuity,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    CoverageGapError,
    DcSizeError,
    DegenerateSplitError,
    DimensionMismatchError,
    DiscontinuousModelError,
    NonFiniteLossError,
    NotCplrRepresentableError,
    ParseError,
    PwlError,
    SingularSystemError,
)
from .models import (
    AhhBasis,
    AhhModel,
    CplrExpr,
    CplrModel,
    GhhModel,
    HingeModel,
    HlCplrBasis,
    LatticeModel,
    NestedCplrModel,
    SbfModel,
)
from .transforms import (
    DCForm,
    EquivalenceReport,
    check_equivalence,
    cplr_from_consistent,
    dc_abs,
    dc_from_affine,
    dc_from_model,
    dc_max,
    dc_min,
    dc_negate,
    dc_prune,
    dc_scale,
    dc_sum,
    ghh_from_dc,
    lattice_from_conventional,
)
from .learning import (
    Dataset,
    FitConfig,
    FitTrace,
    find_hinge,
    fit_ahh,
    fit_hh,
    fit_sbf,
    least_squares,
)
from .network import (
    ActivationPattern,
    Layer,
    PwlNetwork,
    TrainConfig,
    activation_pattern,
    backward,
    count_regions,
    gradient_check,
    init_params,
    local_affine_map,
    make_activation,
    masked_forward,
    network_from_sizes,
    train_sgd,
    zaslavsky_bound,
)
from .formats import deserialize, load_model, save_model, serialize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
