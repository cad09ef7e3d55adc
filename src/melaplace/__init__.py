"""Numerical Laplace transforms, Mellin transforms and Mellin moments, with
inverse transformations on both the standard Bromwich line and closed
rectangular contours that recover functions on extended domains (all real x
for Laplace, all positive y for moments), verified against a residue oracle.
"""

from .campaigns import (
    BROMWICH_TOL,
    RECTANGLE_TOL,
    ConvergenceTable,
    RoundTripReport,
    RoundTripRow,
    delta_check,
    invariance_sweep,
    roundtrip,
)
from .contours import (
    Contour,
    ContourShape,
    LineSide,
    bromwich_for,
    cauchy_reproduction,
    discretize,
    inverse_eval,
    rectangle_for,
    single_line_eval,
)
from .errors import (
    DomainError,
    EmptyGrid,
    MelaplaceError,
    NoClosedForm,
    NonFiniteIntegrand,
    NoStrip,
    NotRectangularizable,
    OutOfDomain,
    ParseError,
    PoleHit,
    SidePoleConflict,
    TailDivergence,
    ZInsideRectangle,
)
from .functions import (
    DomainHint,
    FunctionKind,
    FunctionSpec,
    GrowthBounds,
    Strip,
    evaluate,
    format_spec_string,
    growth_bounds,
    parse_spec_string,
)
from .quadrature import (
    Estimate,
    QuadratureSpec,
    integrate_finite,
    integrate_halfline,
    integrate_unit_singular,
)
from .residues import pole_box, residue_inverse
from .transforms import (
    InverseKind,
    TransformExpr,
    TransformForm,
    TransformKind,
    analytic_transform,
    eval_transform,
    holomorphy_strip,
    laplace_transform,
    mellin_moment,
    mellin_transform,
    transform_estimate,
    transform_for,
)

__version__ = "0.1.0"
