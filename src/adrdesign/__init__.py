"""Design and rate optimisation of CPC-based angle-diversity receivers
for narrow-beam optical wireless links."""

from .adr import (
    DEFAULT_K_PD,
    AdrConfig,
    AdrGeometry,
    PRESETS,
    PdPhysical,
    acceptance_angle,
    element_count,
    geometry,
    pd_bandwidth_full,
    pd_bandwidth_optimal,
    pd_side_from_bandwidth,
    preset,
)
from .beam import (
    LensSpec,
    PropagatedBeam,
    SourceBeam,
    beam_radius,
    encircled_power,
    rayleigh_range,
    transform_through_lens,
)
from .config import RunConfig, load_config, parse_quantity
from .link import (
    LinkBudget,
    LinkContext,
    LinkParams,
    NoiseModel,
    achievable_rate,
    link_budget,
    noise_psd,
    received_power,
    spot_radius,
)
from .optics import (
    CpcGeometry,
    CpcSpec,
    THETA_CPC_MAX,
    TruncationSpec,
    apply_truncation,
    cpc_derive,
)
from .optimizer import (
    BoundaryOutOfRange,
    ConstraintSet,
    OptimumResult,
    RateGradients,
    SolverOptions,
    analytic_gradients,
    dimension_boundary,
    invert_dimension_boundary,
    maximize_rate_constrained,
    unified_boundary,
)
from .sweep import (
    Axis,
    FovSweepTable,
    Grid2D,
    RegionMask,
    SCENARIOS,
    contour_points,
    default_axes,
    design_space,
    feasible_region,
    grid_sweep,
    regenerate,
    rmax_surface,
    rmax_vs_fovmin,
)

__version__ = "0.1.0"
