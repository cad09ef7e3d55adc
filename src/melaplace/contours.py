"""Integration contours and inverse transforms along them.

Two shapes exist.  The open Bromwich line [c - iT, c + iT] is the standard
inverse; its symmetric truncation converges only like 1/T for simple-pole
transforms, which is documented behavior, not a bug.  The closed rectangle
straddling all poles is the accurate path: by the Cauchy theorem its value
is independent of the truncation height T and the offset delta, so both act
as free parameters and the horizontal edges are integrated exactly rather
than dropped.

Orientation is fixed counterclockwise: right edge upward, top edge
leftward, left edge downward, bottom edge rightward.  Panel widths along
every edge are capped at min(pi/4, 2*delta): pi/4 keeps exp(i*x*Im z)
oscillation resolvable at order 16 for |x| up to ~8, and 2*delta keeps
Gauss-Legendre convergence geometric despite poles sitting delta away from
the edges.  Wider arguments need a caller-supplied denser QuadratureSpec.

Transform values at the contour nodes come from one batched call,
``transforms.values``.  Rational forms sum their poles over all nodes at
once.  Numeric and Gamma forms, which only open lines can carry, have the
whole node array checked against their validity strip and then integrated
in blocks of nodes whose quadrature panels are shared, rather than one
adaptive integral per node.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NotRectangularizable,
    OutOfDomain,
    SidePoleConflict,
    UnknownBoundary,
    ZInsideRectangle,
)
from .quadrature import QuadratureSpec, _gl
from .residues import _kernel_scale, pole_box
from .transforms import (
    InverseKind,
    TransformExpr,
    TransformForm,
    rational_values,
    values,
)

_BASE_PANEL_WIDTH = math.pi / 4
_MIN_PANEL_WIDTH = 1e-3
# exp(s) overflows for real s above this
_EXP_LIMIT = math.log(sys.float_info.max)

# pole clearance of an auto-placed contour, and an open line's half-height,
# when the caller passes None
DEFAULT_DELTA = 0.5
DEFAULT_LINE_HALF_HEIGHT = 200.0


class ContourShape(enum.Enum):
    BROMWICH_LINE = "bromwich"
    RECTANGLE = "rectangle"


class LineSide(enum.Enum):
    RIGHT_OF_POLES = "right"
    LEFT_OF_POLES = "left"


@dataclass(frozen=True)
class Contour:
    """A discretizable path: one vertical line, or a closed rectangle.

    c_right is the (right) vertical abscissa; rectangles add c_left.
    half_height T spans the vertical edges over [c - iT, c + iT]; delta is
    the pole clearance used when the contour was auto-placed and doubles as
    the panel-width limiter during discretization.
    """

    shape: ContourShape
    c_right: float
    c_left: float | None
    half_height: float
    delta: float

    def __post_init__(self):
        if not self.half_height > 0:
            raise ValueError("half_height must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.shape is ContourShape.RECTANGLE:
            if self.c_left is None or not self.c_left < self.c_right:
                raise ValueError("rectangle requires c_left < c_right")
        elif self.c_left is not None:
            raise ValueError("a Bromwich line has no left abscissa")

    def to_json(self) -> dict:
        doc = {
            "shape": self.shape.value,
            "c_right": self.c_right,
            "half_height": self.half_height,
            "delta": self.delta,
        }
        if self.c_left is not None:
            doc["c_left"] = self.c_left
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Contour":
        return cls(
            ContourShape(doc["shape"]),
            float(doc["c_right"]),
            float(doc["c_left"]) if "c_left" in doc else None,
            float(doc["half_height"]),
            float(doc["delta"]),
        )


def _positive(name: str, value: float | None, default: float | None) -> float | None:
    """value, or default when it is None, checked to be finite and positive."""
    if value is None:
        return default
    value = float(value)
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value:g}")
    return value


def bromwich_for(
    t: TransformExpr, delta: float | None = None, half_height: float | None = None
) -> Contour:
    """Vertical line slightly right of the transform's rightmost singularity.

    delta and half_height default to DEFAULT_DELTA and
    DEFAULT_LINE_HALF_HEIGHT.
    """
    delta = _positive("delta", delta, DEFAULT_DELTA)
    half_height = _positive("half_height", half_height, DEFAULT_LINE_HALF_HEIGHT)
    if t.form is TransformForm.RATIONAL:
        a = max(p.real for p, _ in t.poles)
    else:
        if t.validity is None:
            raise UnknownBoundary("numeric transform has no validity metadata")
        a = t.validity.c1
        if not a + delta < t.validity.c2:
            raise OutOfDomain(
                f"line at {a + delta:g} falls outside the strip "
                f"({t.validity.c1:g}, {t.validity.c2:g})"
            )
    return Contour(ContourShape.BROMWICH_LINE, a + delta, None, half_height, delta)


def rectangle_for(
    t: TransformExpr, delta: float | None = None, half_height: float | None = None
) -> Contour:
    """Closed rectangle with every pole strictly inside.

    delta defaults to DEFAULT_DELTA.  half_height defaults to the pole box
    plus max(delta, 1) and is raised to im_max + delta whenever the
    requested value would clip a pole.
    """
    delta = _positive("delta", delta, DEFAULT_DELTA)
    half_height = _positive("half_height", half_height, None)
    if t.form is not TransformForm.RATIONAL:
        raise NotRectangularizable(
            f"{t.form.value} transforms cannot be inverted on a rectangle"
        )
    re_min, re_max, im_max = pole_box(t)
    if half_height is None:
        half_height = im_max + max(delta, 1.0)
    half_height = max(half_height, im_max + delta)
    return Contour(
        ContourShape.RECTANGLE, re_max + delta, re_min - delta, half_height, delta
    )


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def _edge_nodes(z0: complex, z1: complex, width: float, order: int, budget: int):
    length = abs(z1 - z0)
    n_panels = min(max(1, math.ceil(length / width)), budget)
    direction = (z1 - z0) / length
    xs, ws = _gl(order)
    offsets = np.arange(n_panels) * (length / n_panels)
    half = 0.5 * length / n_panels
    # all panels at once: s = offset + half*(1 + x)
    s = (offsets[:, None] + half * (1.0 + xs[None, :])).ravel()
    nodes = z0 + s * direction
    weights = np.tile(ws * half, n_panels) * direction
    return nodes, weights


def discretize(c: Contour, q: QuadratureSpec | None = None):
    """Nodes and weights realizing the oriented path integral as a weighted
    sum: sum(w * g(z)) approximates the integral of g along the contour.

    Returns a pair of parallel complex ndarrays (nodes, weights).
    """
    q = q or QuadratureSpec()
    width = max(min(_BASE_PANEL_WIDTH, 2.0 * c.delta), _MIN_PANEL_WIDTH)
    T = c.half_height
    if c.shape is ContourShape.BROMWICH_LINE:
        return _edge_nodes(
            complex(c.c_right, -T), complex(c.c_right, T), width, q.panel_order,
            q.max_panels,
        )
    budget = max(1, q.max_panels // 4)
    corners = [
        complex(c.c_right, -T),
        complex(c.c_right, T),
        complex(c.c_left, T),
        complex(c.c_left, -T),
        complex(c.c_right, -T),
    ]
    parts = [
        _edge_nodes(corners[i], corners[i + 1], width, q.panel_order, budget)
        for i in range(4)
    ]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


def _contour_sum(t: TransformExpr, kind: InverseKind, c: Contour, arg: float,
                 q: QuadratureSpec | None):
    scale = _kernel_scale(kind, arg)
    # the kernel's real exponent peaks on a vertical edge
    edge = c.c_left if scale < 0.0 and c.c_left is not None else c.c_right
    if scale * edge > _EXP_LIMIT:
        raise DomainError(
            f"the {kind.value} kernel overflows on this contour at arg = {arg:g}"
        )
    nodes, weights = discretize(c, q)
    kernel = np.exp(scale * nodes)
    return complex(np.dot(weights, kernel * values(t, nodes, q))) / (2j * math.pi)


def inverse_eval(
    t: TransformExpr,
    kind: InverseKind,
    c: Contour,
    arg: float,
    q: QuadratureSpec | None = None,
) -> complex:
    """(1/2pi i) * contour integral of kernel(z, arg) * transform(z).

    On a rectangle enclosing all poles of a rational transform the result
    matches the residue series independently of T and delta; on an open
    line it carries the usual O(1/T) truncation error.
    """
    return _contour_sum(t, kind, c, float(arg), q)


def single_line_eval(
    t: TransformExpr,
    kind: InverseKind,
    line: Contour,
    side: LineSide,
    arg: float,
    q: QuadratureSpec | None = None,
) -> complex:
    """One upward vertical line strictly to one side of every pole.

    Returns the raw upward-oriented value: as T grows, the right line
    reproduces the function on the standard domain and decays to zero on
    the extended side; the left line gives minus the function on the
    extended side and zero on the standard one.
    """
    if t.form is not TransformForm.RATIONAL:
        raise NotRectangularizable("single-line decomposition requires poles")
    if line.shape is not ContourShape.BROMWICH_LINE:
        raise ValueError("single_line_eval expects a Bromwich line")
    re_min, re_max, _ = pole_box(t)
    if side is LineSide.RIGHT_OF_POLES and not line.c_right > re_max:
        raise SidePoleConflict(
            f"line at {line.c_right:g} is not right of all poles (max Re {re_max:g})"
        )
    if side is LineSide.LEFT_OF_POLES and not line.c_right < re_min:
        raise SidePoleConflict(
            f"line at {line.c_right:g} is not left of all poles (min Re {re_min:g})"
        )
    return _contour_sum(t, kind, line, float(arg), q)


def cauchy_reproduction(
    t: TransformExpr,
    rect: Contour,
    z: complex,
    q: QuadratureSpec | None = None,
) -> complex:
    """(1/2pi i) * closed integral of transform(w)/(z - w) dw.

    For z outside the rectangle on the right this reproduces the transform
    value at z, the numerical form of the direct-transform identity.
    """
    if t.form is not TransformForm.RATIONAL:
        raise NotRectangularizable("Cauchy reproduction requires a rational form")
    if rect.shape is not ContourShape.RECTANGLE:
        raise ValueError("cauchy_reproduction expects a rectangle")
    z = complex(z)
    if not z.real > rect.c_right:
        raise ZInsideRectangle(
            f"need Re z > {rect.c_right:g}, got {z.real:g}"
        )
    nodes, weights = discretize(rect, q)
    terms = rational_values(t, nodes) / (z - nodes)
    return complex(np.dot(weights, terms)) / (2j * math.pi)
