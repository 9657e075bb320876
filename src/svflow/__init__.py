"""svflow: vector-field flows and the factorized operator exponential,
a time-reparametrization generator algebra with its primary-field
transformation law, non-relativistic limit identities, block-metric
curvature, and accelerated-frame coordinates, plus a verification CLI.
"""

from .fieldcalc import (
    DomainError,
    Expression,
    InputError,
    ParseError,
    Point,
    ScalarField,
    SvflowError,
    UnknownIdentifierError,
    VectorField,
    differentiate,
    evaluate,
    parse_expression,
    scalar_field,
    simplify,
    substitute,
    vector_field,
)
from .flowexp import (
    FlowResult,
    Tolerance,
    apply_exponential,
    displacement_series,
    integrate_flow,
    pushforward_residual,
    series_oracle,
)
from .svgen import (
    EpsilonFn,
    PrimaryTransform,
    SVParams,
    bracket_residual,
    build_generator,
    halfspace_correlator,
    map_halfspace,
    monomial_bracket,
    primary_transform,
    primary_vs_flow_residual,
    solve_tprime,
    weight_form_residual,
)
from .nrlimit import (
    RelParams,
    barut_flow_identity,
    contraction_residual,
    diffusion_defect_scaling,
    heat_kernel,
    kg_diffusion_residual,
    lift_wavefunction,
)
from .geomcurv import (
    BlockSplit,
    CurvatureBundle,
    MetricField,
    block_vs_direct_residual,
    curvature_direct,
    load_metric_file,
    mixed_block,
    ricci_block,
    riemann_block,
    scalar_block,
)
from .accframe import (
    FrameMap,
    GridSpec,
    Trajectory,
    proper_time,
    solve_frame_map,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
