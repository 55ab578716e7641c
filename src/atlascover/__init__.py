"""Doubling coverings with poly-logarithmic complexity.

Explicit chart atlases for punctured polydiscs, monomial level
hypersurfaces, and graphs of bounded monomial maps, together with the
certification and scaling machinery that measures them.
"""

__version__ = "0.1.0"

from .annulus import WhitneyDiskParams, construction_constant, cover_annulus
from .core import (
    AtlasError,
    BranchUndefined,
    Covering,
    CPoint,
    DiagonalAffineChart,
    DimensionMismatch,
    Disconnected,
    EtaParams,
    GammaTooSmall,
    InsufficientPoints,
    InvalidBeta,
    InvalidDoublingFactor,
    InvalidTolerance,
    LevelOutsideRange,
    MalformedFile,
    MonomialLevelSet,
    NoContainingChart,
    NotARegularValue,
    NotHolomorphic,
    PolydiscComplement,
    PuncturedPlane,
    RegionMismatch,
    UnknownBound,
    UnsupportedAmbient,
    avoidance_certificate,
    chart_contains,
    cpoint,
    tolerance,
)
from .levelset import (
    MonomialLevelChart,
    cover_monomial_level_set,
    direct_branch_values,
    evaluate_level_chart,
    level_residual,
)
from .polydisc import (
    PolydiscCoveringPlan,
    cover_punctured_polydisc,
    eta_from_delta,
    level_lower_bound,
    polydisc_bound,
    polydisc_plan,
)
from .real_acharts import (
    GraphCharts,
    MonomialData,
    RealAChart,
    choose_C3,
    cover_monomial_graph,
    graph_membership,
    shrink_for_tube,
    verify_achart,
)
from .suspension import (
    SuspensionParams,
    layer_zeta,
    suspend_chart,
    suspend_covering,
    vertical_radius,
)
from .verify import (
    AnnulusRegion,
    Chain,
    ComplexityReport,
    CoverageReport,
    DoublingReport,
    FitResult,
    LevelGraphRegion,
    PolydiscRegion,
    ScalingRow,
    certify_doubling,
    chain_between,
    check_coverage,
    complexity_report,
    fit_log_exponent,
    intersection_witness,
    linear_fit,
    scaling_experiment,
)
