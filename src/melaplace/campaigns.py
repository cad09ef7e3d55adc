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

import numpy as np

from .contours import Contour, bromwich_for, inverse_eval, rectangle_for
from .errors import DomainError, EmptyGrid, NotRectangularizable
from .functions import DomainHint, FunctionSpec, evaluate, growth_bounds
from .quadrature import QuadratureSpec, integrate_finite
from .transforms import InverseKind, TransformExpr, TransformForm, transform_for

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
    """Per-point comparison of recovered values against the exact function."""

    spec: FunctionSpec
    kind: InverseKind
    contour: Contour
    rows: tuple
    tolerance: float
    wall_time: float

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


@dataclass(frozen=True)
class ConvergenceTable:
    """Results of one operation sampled along an increasing parameter.

    ``values`` must be strictly increasing (tuples compare lexicographically,
    which covers the (delta, T) grids of invariance sweeps); ``reference``
    is the target the results should approach, when one exists.
    """

    parameter: str
    values: tuple
    results: tuple
    reference: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "results", tuple(complex(r) for r in self.results))
        if len(self.values) != len(self.results):
            raise ValueError("values and results must match in length")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sampled values must be strictly increasing")

    @property
    def deltas(self) -> tuple:
        return tuple(
            abs(b - a) for a, b in zip(self.results, self.results[1:])
        )

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
    comparison).  delta and half_height of None take the contour defaults.
    """
    args = [float(a) for a in args]
    if not args:
        raise EmptyGrid("round trip needs at least one argument")
    if tol is None:
        tol = RECTANGLE_TOL if use_rectangle else BROMWICH_TOL
    t = transform_for(spec, kind)
    if use_rectangle:
        contour = rectangle_for(t, delta, half_height)
    else:
        contour = bromwich_for(t, delta, half_height)
    start = time.perf_counter()
    rows = []
    for arg in args:
        truth = evaluate(spec, arg)
        rec = inverse_eval(t, kind, contour, arg, q)
        abs_err = abs(rec - truth)
        rel_err = abs_err / abs(truth) if truth != 0.0 else math.inf
        rows.append(RoundTripRow(arg, truth, rec.real, abs_err, rel_err))
    elapsed = time.perf_counter() - start
    return RoundTripReport(spec, kind, contour, tuple(rows), tol, elapsed)


def _delta_window(g: FunctionSpec, x: float) -> tuple:
    if g.domain_hint is DomainHint.UNIT_INTERVAL:
        # one unit past the standard interval keeps the edge ringing of the
        # sharp cutoff away from the probe point
        return 0.0, 2.0
    decay = -growth_bounds(g).right_index
    if decay > 0.0:
        return 0.0, max(x + 5.0, 37.0 / decay)
    if decay == 0.0:
        return 0.0, x + _OSCILLATORY_WINDOW
    raise DomainError("delta check needs a non-growing function")


def delta_check(
    x: float,
    g: FunctionSpec,
    T_values,
    q: QuadratureSpec | None = None,
) -> ConvergenceTable:
    """Weak-form Dirichlet-kernel test of the delta identity.

    Convolves g with sin(T(x-y))/(pi(x-y)) over its domain and tabulates the
    approach to g(x) as the cutoff T grows.  Functions without decay are
    integrated over a finite window since the sinc tail is only
    conditionally convergent.
    """
    x = float(x)
    Ts = [float(T) for T in T_values]
    if not Ts:
        raise EmptyGrid("delta check needs at least one T")
    lo, hi = _delta_window(g, x)
    results = []
    for T in Ts:
        def integrand(y, T=T):
            # sin(T u)/(pi u) written via sinc to keep u = 0 exact
            return evaluate(g, y) * (T / math.pi) * np.sinc(T * (x - y) / math.pi)

        results.append(integrate_finite(integrand, lo, hi, q).value.real)
    return ConvergenceTable("T", tuple(Ts), tuple(results),
                            reference=evaluate(g, x))


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
    figure of merit.
    """
    if t.form is not TransformForm.RATIONAL:
        raise NotRectangularizable("invariance sweep requires a rational transform")
    grid = sorted((float(d), float(T)) for d in deltas for T in Ts)
    if not grid:
        raise EmptyGrid("invariance sweep needs a nonempty grid")
    results = []
    for d, T in grid:
        rect = rectangle_for(t, d, T)
        results.append(inverse_eval(t, kind, rect, arg, q))
    return ConvergenceTable("(delta, half_height)", tuple(grid), tuple(results))
