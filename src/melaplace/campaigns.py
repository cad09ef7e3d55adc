"""Verification campaigns: round trips, delta-kernel convergence, sweeps.

These are the operations the CLI wraps.  Each one compares a contour
computation against an independent truth (the catalog function itself, or
the residue series) and reports per-point errors rather than a bare value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

from .contours import (
    Contour,
    _contour_sums,
    _positive,
    _rectangle_sums,
    _rectangles,
    bromwich_for,
    inverse_eval,
    rectangle_for,
)
from .errors import DomainError, EmptyGrid, MelaplaceError
from .functions import DomainHint, FunctionSpec, evaluate, growth_bounds
from .quadrature import QuadratureSpec
from .transforms import (
    InverseKind,
    TransformExpr,
    TransformKind,
    _line_integral,
    _window_integral,
    transform_for,
)

# default pass/fail tolerances for the two convergence regimes
RECTANGLE_TOL = 1e-6
BROMWICH_TOL = 5e-2

# finite window used when the integrand never decays (see delta_check)
_OSCILLATORY_WINDOW = 200.0


class RoundTripRow(NamedTuple):
    arg: float
    truth: float
    recovered: float
    abs_err: float
    rel_err: float


@dataclass(frozen=True)
class RoundTripReport:
    """Per-point comparison of recovered values against the exact function.

    ``converged`` is False when the quadrature behind some recovered value
    stopped short of its tolerance.
    """

    spec: FunctionSpec
    kind: InverseKind
    contour: Contour
    rows: tuple
    tolerance: float
    wall_time: float
    converged: bool = True

    @property
    def max_abs_err(self) -> float:
        return max(r.abs_err for r in self.rows)

    @property
    def max_rel_err(self) -> float:
        return max(r.rel_err for r in self.rows)

    @property
    def passed(self) -> bool:
        metric = max(
            (r.rel_err if r.truth != 0.0 else r.abs_err) for r in self.rows
        )
        return metric <= self.tolerance


def _require_increasing(values, what: str, error: type) -> None:
    """Raise error unless values strictly increase (tuples compare
    lexicographically)."""
    if any(a >= b for a, b in zip(values, values[1:])):
        raise error(f"{what} must be strictly increasing")


def _exact(spec: FunctionSpec, x: float) -> float:
    """g(x), the truth a campaign compares against; DomainError when it is
    past the float64 range."""
    value = evaluate(spec, x)
    if not math.isfinite(value):
        raise DomainError(f"{spec.kind.value} is not finite at x = {x:g}")
    return value


@dataclass(frozen=True)
class ConvergenceTable:
    """Results of one operation sampled along an increasing parameter.

    ``values`` must be strictly increasing (tuples compare lexicographically,
    which covers the (delta, T) grids of invariance sweeps); ``reference``
    is the target the results should approach, when one exists.
    ``converged`` is False when the quadrature behind some result stopped
    short of its tolerance.
    """

    parameter: str
    values: tuple
    results: tuple
    reference: float | None = None
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "results", tuple(complex(r) for r in self.results))
        if len(self.values) != len(self.results):
            raise ValueError("values and results must match in length")
        _require_increasing(self.values, "sampled values", ValueError)

    @property
    def errors(self) -> tuple:
        if self.reference is None:
            raise ValueError("table has no reference value")
        return tuple(abs(r - self.reference) for r in self.results)

    @property
    def final_error(self) -> float:
        return self.errors[-1]

    @property
    def max_spread(self) -> float:
        return max(
            abs(a - b) for a in self.results for b in self.results
        )


def roundtrip(
    spec: FunctionSpec,
    kind: InverseKind,
    args,
    use_rectangle: bool = True,
    q: QuadratureSpec | None = None,
    tol: float | None = None,
    delta: float | None = None,
    half_height: float | None = None,
) -> RoundTripReport:
    """Transform a catalog function, invert along a contour, compare.

    The rectangle path needs the cataloged rational transform and recovers
    the function on the extended domain; the Bromwich path falls back to
    direct quadrature of the transform when no closed form exists, and only
    reproduces the standard domain (that failure mode is the point of the
    comparison).  delta and half_height of None take the contour defaults;
    tol of None takes RECTANGLE_TOL or BROMWICH_TOL, and any other value
    must be positive and finite.
    """
    args = [float(a) for a in args]
    if not args:
        raise EmptyGrid("round trip needs at least one argument")
    tol = _positive("tol", tol, RECTANGLE_TOL if use_rectangle else BROMWICH_TOL)
    t = transform_for(spec, kind)
    if use_rectangle:
        contour = rectangle_for(t, delta, half_height)
    else:
        contour = bromwich_for(t, delta, half_height)
    start = time.perf_counter()
    recovered = _contour_sums(t, kind, contour, args, q)
    rows = []
    converged = True
    for arg in args:
        truth = _exact(spec, arg)
        rec, ok = next(recovered)
        converged = converged and ok
        abs_err = abs(rec - truth)
        rel_err = abs_err / abs(truth) if truth != 0.0 else math.inf
        rows.append(RoundTripRow(arg, truth, rec.real, abs_err, rel_err))
    elapsed = time.perf_counter() - start
    return RoundTripReport(spec, kind, contour, tuple(rows), tol, elapsed, converged)


def _delta_window(g: FunctionSpec, x: float) -> float:
    """The end of the window [0, end] of a delta check whose source does not decay."""
    if g.domain_hint is DomainHint.UNIT_INTERVAL:
        # one unit past the standard interval keeps the edge ringing of the
        # sharp cutoff away from the probe point
        return 2.0
    if growth_bounds(g).right_index != 0.0:
        raise DomainError("delta check needs a non-growing function")
    end = x + _OSCILLATORY_WINDOW
    if not end > 0.0:
        raise DomainError(f"delta check at x = {x:g} has an empty window [0, {end:g}]")
    return end


def delta_check(
    x: float,
    g: FunctionSpec,
    T_values,
    q: QuadratureSpec | None = None,
) -> ConvergenceTable:
    """Weak-form Dirichlet-kernel test of the delta identity.

    Convolves g with sin(T(x-y))/(pi(x-y)) over its domain and tabulates the
    approach to g(x) as the cutoff T grows.  A decaying half-line g runs on
    the Bromwich line that the test stands for: the line integral of its
    numeric Laplace transform at c = 0, the identity of the ``contours``
    docstring.  Functions without decay are integrated over a finite window
    [0, end] on the same kernel and roots, clipped at end, since the sinc tail
    is only conditionally convergent; an empty window is a DomainError.  The
    cutoffs must be positive, finite and strictly increasing, and x finite.
    The table's ``converged`` says whether every integral met the tolerance of q.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"delta check needs a finite x, got {x!r}")
    Ts = [_positive("T", T, None) for T in T_values]
    if not Ts:
        raise EmptyGrid("delta check needs at least one T")
    _require_increasing(Ts, "cutoffs T", DomainError)
    if g.domain_hint is DomainHint.HALF_LINE and growth_bounds(g).right_index < 0.0:
        line = TransformExpr.numeric(g, TransformKind.LAPLACE)
        estimates = [_line_integral(line, 0.0, T, x, q) for T in Ts]
    else:
        estimates = [_window_integral(g, T, x, _delta_window(g, x), q) for T in Ts]
    return ConvergenceTable("T", tuple(Ts), tuple(e.value.real for e in estimates),
                            reference=_exact(g, x),
                            converged=all(e.converged for e in estimates))


def invariance_sweep(
    t: TransformExpr,
    kind: InverseKind,
    arg: float,
    deltas,
    Ts,
    q: QuadratureSpec | None = None,
) -> ConvergenceTable:
    """Rectangle inverse over a (delta, T) grid.

    By Cauchy exactness every grid point should agree; max_spread is the
    figure of merit.  The rectangles come from one pole box
    (contours._rectangles), each as rectangle_for places it; a numeric t
    raises NotRectangularizable as rectangle_for does, once the grid is
    checked.

    The grid takes one pass, contours._rectangle_sums, over every
    rectangle at once; each value is bit-identical to inverse_eval's on
    its rectangle.  A grid that fails re-runs point by point through
    inverse_eval, so the first failing point in grid order raises what
    inverse_eval raises there.
    """
    grid = sorted((float(d), float(T)) for d in deltas for T in Ts)
    if not grid:
        raise EmptyGrid("invariance sweep needs a nonempty grid")
    _require_increasing(grid, "deltas and Ts must be distinct: the sorted (delta, T) grid",
                        DomainError)
    arg = float(arg)
    try:
        results = _rectangle_sums(t, kind, list(_rectangles(t, grid)), arg, q)
    except MelaplaceError:
        results = [inverse_eval(t, kind, c, arg, q) for c in _rectangles(t, grid)]
    return ConvergenceTable("(delta, half_height)", tuple(grid), tuple(results))
