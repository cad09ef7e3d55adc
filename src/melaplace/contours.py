"""Integration contours and inverse transforms along them.

Two shapes exist.  The open Bromwich line [c - iT, c + iT] is the standard
inverse; its symmetric truncation converges only like 1/T for simple-pole
transforms, which is documented behavior, not a bug.  The closed rectangle
straddling all poles is the accurate path: by the Cauchy theorem its value
is independent of the truncation height T and the offset delta, so both act
as free parameters and the horizontal edges are integrated exactly rather
than dropped.

Orientation is fixed counterclockwise: right edge upward, top edge
leftward, left edge downward, bottom edge rightward.  One rule lays out
every edge: ceil(L / w) Gauss-Legendre panels on length L, with w =
min(pi/4, 2*delta): pi/4 keeps exp(i*x*Im z) oscillation resolvable at
order 16 for |x| up to ~8, and 2*delta keeps convergence geometric despite
poles sitting delta away from the edges.  A summed path of more than
q.max_panels panels is a DomainError, never a coarser sum.

An inverse runs in two steps, each raising where it fails.  The
per-contour step, ``_record``, builds the record of one contour or of
several: ``_paths`` lays out the nodes and weights of all their edges in
one array pass, and one batched ``transforms.rational_values`` call,
whose sum runs pole by pole in memory linear in the nodes, gives the
values at every node.  The per-argument step is one kernel-weighted sum
over a contour's slice of those arrays.  ``inverse_eval`` takes both
steps for one argument; a round trip or a CLI ``invert`` over many
arguments takes the first step once and the second once per argument,
and an invariance sweep's ``_rectangle_sums`` takes the first step once
for every rectangle of its grid and the second once per rectangle.
Each does the same sums in the same order, so every value is
bit-identical to its own ``inverse_eval``.  Cauchy reproduction at
several z shares its contour the same way.  A sum that float64 overflow
leaves inf or nan is a DomainError.

Numeric forms such as the Gamma function, which only open lines can
carry, have no nodes: each argument takes one integral.  Written as a
Laplace integral, F(z) = int exp(-z*u) g(u) du (u = -ln y for moments;
u = -ln x over all of R for Mellin), Fubini turns the truncated line into
one real integral, the paper's delta identity:

    (1/2pi i) int_{c-iT}^{c+iT} exp(s*z) F(z) dz
        = exp(c*s) * int exp(-c*u) g(u) sin(T(s - u))/(pi(s - u)) du,

valid because c inside the validity strip makes the double integral
absolutely convergent; ``transforms._line_integral`` computes it.  The
kernel is even about its peak u = s, so a Mellin line, whose u runs over
all of R, is integrated folded there: one half-line in |u - s|.

Inverses of real signals integrate half the contour.  When the transform
is conjugate-symmetric, F(conj z) = conj F(z) (every rational form whose
pole/residue set is closed under conjugation; numeric forms are too, but
take the line integral above), the kernel exp(s*z) with real s is too,
and both shapes are mirror-symmetric about the real axis.
The part below the axis, traversed as oriented, then contributes minus the
conjugate of the part above it, so

    (1/2pi i) * integral over the contour = Im(I) / pi,

with I the integral over the part with Im z >= 0: [c, c + iT] for a line;
the right half-edge, the top edge and the left half-edge for a rectangle.
Such an inverse evaluates half the nodes and is exactly real (the real
form of the Bromwich integral; Weideman & Trefethen, Math. Comp. 76,
2007).  Rational sets without that symmetry keep the whole contour and
return a complex value.  So does Cauchy reproduction: its kernel
1/(z - w) at a complex z breaks the mirror symmetry.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NotRectangularizable,
    OutOfDomain,
    SidePoleConflict,
    ZInsideRectangle,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, _gl
from .residues import _kernel_scale, pole_box
from .transforms import (
    InverseKind,
    TransformExpr,
    TransformForm,
    _EXP_LIMIT,
    _line_integral,
    rational_values,
)

_BASE_PANEL_WIDTH = math.pi / 4

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
    the pole clearance used when the contour was auto-placed and sets the
    panel width min(pi/4, 2*delta) during discretization.
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
    """Vertical line delta right of the left edge of ``t.validity``.

    delta and half_height default to DEFAULT_DELTA and
    DEFAULT_LINE_HALF_HEIGHT.
    """
    delta = _positive("delta", delta, DEFAULT_DELTA)
    half_height = _positive("half_height", half_height, DEFAULT_LINE_HALF_HEIGHT)
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
    return next(_rectangles(t, [(delta, half_height)]))


def _rectangles(t: TransformExpr, sizes):
    """rectangle_for(t, delta, half_height) for each (delta, half_height)
    of sizes, in order and lazily, from one pole box: each rectangle
    raises where rectangle_for raises, once those before it are built."""
    box = None
    for delta, half_height in sizes:
        delta = _positive("delta", delta, DEFAULT_DELTA)
        half_height = _positive("half_height", half_height, None)
        if box is None:
            if t.form is not TransformForm.RATIONAL:
                raise NotRectangularizable(
                    f"{t.form.value} transforms cannot be inverted on a rectangle"
                )
            box = pole_box(t)
        re_min, re_max, im_max = box
        if half_height is None:
            half_height = im_max + max(delta, 1.0)
        half_height = max(half_height, im_max + delta)
        c_right, c_left = re_max + delta, re_min - delta
        if not c_left < c_right:
            raise DomainError(
                f"delta = {delta:g} is lost in rounding next to the poles' real "
                f"parts ({re_min:g} to {re_max:g}): the rectangle has no width"
            )
        yield Contour(ContourShape.RECTANGLE, c_right, c_left, half_height, delta)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def discretize(c: Contour, q: QuadratureSpec | None = None):
    """Nodes and weights realizing the oriented path integral as a weighted
    sum: sum(w * g(z)) approximates the integral of g along the contour.

    Returns a pair of parallel complex ndarrays (nodes, weights); more
    than q.max_panels panels of width min(pi/4, 2*delta) are a DomainError.
    """
    return _paths((c,), q or DEFAULT_QUADRATURE, False)[:2]


def _paths(cs, q: QuadratureSpec, upper: bool):
    """Nodes and weights of the contours of cs, or when upper of their
    parts with Im z >= 0, each oriented as its contour: [c, c + iT] for a
    line; the right half-edge, the top edge and the left half-edge for a
    rectangle.  Returns (nodes, weights, parts): one array each, contour
    after contour, parts[i] the slice of the i-th contour.

    An edge of length L holds n = ceil(L / w) panels, w = min(pi/4,
    2*delta).  A contour of more than q.max_panels panels in all, or with
    an edge longer than any float, is a DomainError, raised at the first
    such edge before any array is built.

    One loop over the edges writes a row per edge: its step L/n,
    half-width 0.5*L/n, start z0, unit direction d and first panel.  One
    repeat gives each panel its edge's row, and one broadcast against the
    Gauss-Legendre rule maps node x of panel k of the edge to
    z0 + (k*(L/n) + half*(1 + x))*d, weight w*half*d.
    """
    rows, counts, bounds = [], [], [0]
    for c in cs:
        T = c.half_height
        bottom = 0.0 if upper else -T
        corners = [complex(c.c_right, bottom), complex(c.c_right, T)]
        if c.shape is ContourShape.RECTANGLE:
            corners += [complex(c.c_left, T), complex(c.c_left, bottom)]
            if not upper:
                corners.append(complex(c.c_right, -T))
        width = min(_BASE_PANEL_WIDTH, 2.0 * c.delta)
        panels = bounds[-1]
        for z0, z1 in zip(corners, corners[1:]):
            length = abs(z1 - z0)
            if not length < math.inf:
                raise DomainError(
                    f"the contour edge from {z0} to {z1} is longer than any float"
                )
            # compare before ceil: length / width may overflow to inf
            if not length / width <= q.max_panels - (panels - bounds[-1]):
                raise DomainError(
                    f"the contour needs more than max_panels = {q.max_panels} "
                    f"panels of width {width:g}"
                )
            n = math.ceil(length / width)
            rows.append((length / n, 0.5 * length / n, z0, (z1 - z0) / length, panels))
            counts.append(n)
            panels += n
        bounds.append(panels)
    xs, ws = _gl(q.panel_order)
    table = np.array(rows, dtype=complex).reshape(-1, 5).repeat(counts, axis=0)
    step, half, start, direction, first = table.T[:, :, None]
    half = half.real
    weights = ws * half * direction
    s = (np.arange(len(table))[:, None] - first.real) * step.real + half * (1.0 + xs)
    nodes = start + s * direction
    order = len(xs)
    parts = [slice(order * a, order * b) for a, b in zip(bounds, bounds[1:])]
    return nodes.ravel(), weights.ravel(), parts


def _record(t: TransformExpr, cs, q: QuadratureSpec | None, upper: bool):
    """The record of the contours of cs, or of their upper halves when
    upper: (nodes, weights, values, parts), their nodes, weights and parts
    as _paths lays them out, and the values at every node in one
    rational_values call.  A numeric t has no nodes and raises
    NotRectangularizable, as in rectangle_for, before any is built.
    """
    if t.form is not TransformForm.RATIONAL:
        raise NotRectangularizable(
            f"{t.form.value} transforms cannot be inverted on a rectangle"
        )
    nodes, weights, parts = _paths(cs, q or DEFAULT_QUADRATURE, upper)
    return nodes, weights, rational_values(t, nodes), parts


def _kernel_check(kind: InverseKind, c: Contour, arg: float) -> float:
    """The kernel's scale at arg (residues._kernel_scale), or DomainError
    where the kernel overflows on c."""
    scale = _kernel_scale(kind, arg)
    # the kernel's real exponent peaks on a vertical edge, its phase
    # s * Im z at the top and bottom
    edge = c.c_left if scale < 0.0 and c.c_left is not None else c.c_right
    if scale * edge > _EXP_LIMIT or abs(scale) * c.half_height == math.inf:
        raise DomainError(
            f"the {kind.value} kernel overflows on this contour at arg = {arg:g}"
        )
    return scale


def _from_total(t: TransformExpr, total: complex) -> complex:
    """The inverse from total, the kernel-weighted sum over the record of a
    contour, of its upper half when t is conjugate-symmetric."""
    if t.conjugate_symmetric:
        # the lower half is the mirror image of the upper half, traversed
        # backwards, so it adds -conj(total): the sum is 2i * total.imag
        return complex(total.imag / math.pi, 0.0)
    return total / (2j * math.pi)


def _finite(kind: InverseKind, arg: float, value: complex) -> complex:
    """value, the inverse at arg; DomainError where it is inf or nan."""
    if not cmath.isfinite(value):
        raise DomainError(
            f"the {kind.value} inverse overflows on this contour at arg = {arg:g}"
        )
    return value


def _contour_sums(t: TransformExpr, kind: InverseKind, c: Contour, args,
                  q: QuadratureSpec | None):
    """Yield (inverse, converged) at each of args in turn.

    The record of c (of its upper half when t is conjugate-symmetric) is
    built when the first argument needs it and serves every later one;
    each argument then takes one kernel-weighted sum, which carries no
    error estimate and counts as converged.  A numeric transform on an
    open line has no nodes: each argument takes one line integral,
    converged when its quadrature met tolerance.  A sum that comes out inf
    or nan is a DomainError.
    """
    record = None
    for arg in args:
        scale = _kernel_check(kind, c, arg)
        converged = True
        if t.form is TransformForm.NUMERIC and c.shape is ContourShape.BROMWICH_LINE:
            est = _line_integral(t, c.c_right, c.half_height, scale, q)
            value, converged = complex(est.value.real), est.converged
        else:
            nodes, weights, vals, _ = record = record or _record(
                t, (c,), q, t.conjugate_symmetric)
            value = _from_total(t, complex(np.dot(weights, np.exp(scale * nodes) * vals)))
        yield _finite(kind, arg, value), converged


def _rectangle_sums(t: TransformExpr, kind: InverseKind, cs, arg: float,
                    q: QuadratureSpec | None) -> list:
    """The inverse at arg on each contour of cs, from one record of them
    all: the kernel is checked on every contour and weighs every node at
    once, and each contour takes inverse_eval's sum over its slice, with
    its bits.  A contour that fails raises as in inverse_eval, though not
    always the first such contour in cs."""
    for c in cs:
        scale = _kernel_check(kind, c, arg)
    nodes, weights, values, parts = _record(t, cs, q, t.conjugate_symmetric)
    # the terms exp(scale * z) * F(z) of every node, in place of the nodes
    terms = np.exp(np.multiply(scale, nodes, out=nodes), out=nodes)
    np.multiply(terms, values, out=terms)
    return [_finite(kind, arg, _from_total(t, complex(np.dot(weights[part], terms[part]))))
            for part in parts]


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
    line it carries the usual O(1/T) truncation error.  For a
    conjugate-symmetric transform the imaginary part is exactly 0.  A
    rational sum past q.max_panels panels is a DomainError, as in discretize.
    """
    return next(_contour_sums(t, kind, c, (float(arg),), q))[0]


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
    extended side and zero on the standard one.  A numeric t has no poles:
    pole_box raises NotRectangularizable.
    """
    re_min, re_max, _ = pole_box(t)
    if line.shape is not ContourShape.BROMWICH_LINE:
        raise ValueError("single_line_eval expects a Bromwich line")
    if side is LineSide.RIGHT_OF_POLES and not line.c_right > re_max:
        raise SidePoleConflict(
            f"line at {line.c_right:g} is not right of all poles (max Re {re_max:g})"
        )
    if side is LineSide.LEFT_OF_POLES and not line.c_right < re_min:
        raise SidePoleConflict(
            f"line at {line.c_right:g} is not left of all poles (min Re {re_min:g})"
        )
    return next(_contour_sums(t, kind, line, (float(arg),), q))[0]


def _cauchy_sums(t: TransformExpr, rect: Contour, zs,
                 q: QuadratureSpec | None):
    """Yield cauchy_reproduction at each of zs in turn, with the record of
    rect built once for all of them; OutOfDomain at a z that is not
    finite."""
    if rect.shape is not ContourShape.RECTANGLE:
        raise ValueError("cauchy_reproduction expects a rectangle")
    record = None
    for z in zs:
        z = complex(z)
        if not cmath.isfinite(z):
            raise OutOfDomain(f"Cauchy reproduction needs a finite z, got {z!r}")
        if not z.real > rect.c_right:
            raise ZInsideRectangle(
                f"need Re z > {rect.c_right:g}, got {z.real:g}"
            )
        nodes, weights, vals, _ = record = record or _record(t, (rect,), q, False)
        total = complex(np.dot(weights, vals / (z - nodes)))
        if not cmath.isfinite(total):
            raise DomainError(f"the Cauchy integral overflows at z = {z}")
        yield total / (2j * math.pi)


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
    return next(_cauchy_sums(t, rect, (z,), q))
