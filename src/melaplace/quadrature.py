"""Adaptive Gauss-Legendre quadrature.

One engine sits under every integral in the package.  A panel is accepted
when the difference between its order-n and order-2n Gauss-Legendre values
meets tolerance, otherwise it is halved; half-line integrals are summed
over geometrically widening panels until the tail stops contributing.
Both rules of a panel come from one integrand call on the union of their
nodes.

Integrands must be vectorized: they receive a 1-D float ndarray of nodes
and return a vector of (possibly complex) values, one per node; any other
shape raises ValueError.

The unit-interval path removes the x**(z-1) endpoint singularity with the
substitution x = exp(-t), which turns the integral into a plain half-line
one; no singular-weight rules are needed anywhere.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonFiniteIntegrand, TailDivergence

# first geometric panel width on half-line integrals
_FIRST_TAIL_WIDTH = 1.0
# hard cap on geometric tail panels; widths grow so this covers ~1e19
_MAX_TAIL_PANELS = 512
# consecutive growing tail panels that mean divergence.  A convergent hump
# such as x**a * exp(-g*x) grows until x = a/g, which widths doubling from 1
# reach after about log2(a/g) panels; six rises let humps peaking before
# x ~ 60 pass while exp(t) and t**0.5 are still caught before t = 130
_DIVERGENT_RISES = 6
# width ratio of consecutive tail panels; _DIVERGENT_RISES is calibrated for
# doubling, and a slower growth mistakes a hump for divergence
_TAIL_GROWTH = 2.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for every numerical integral.

    panel_order is the Gauss-Legendre node count per panel; the error
    estimate doubles it.  abs_tol is the floor below which relative error
    is not enforced.
    """

    panel_order: int = 16
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_panels: int = 4096

    def __post_init__(self):
        integers = (int, np.integer)
        if not (isinstance(self.panel_order, integers)
                and isinstance(self.max_panels, integers)):
            raise ValueError("panel_order and max_panels must be integers")
        if self.panel_order < 2:
            raise ValueError("panel_order must be at least 2")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "QuadratureSpec":
        if not isinstance(doc, dict):
            raise ValueError("a QuadratureSpec is a JSON object")
        return cls(**doc)


@dataclass(frozen=True)
class Estimate:
    """Integral value with its error estimate and convergence bookkeeping.

    panels_used counts the Gauss-Legendre panels evaluated; converged says
    whether err_est met max(abs_tol, rel_tol*|value|) within the panel
    budget.
    """

    value: complex
    err_est: float
    panels_used: int
    converged: bool


_GL_CACHE: dict = {}
_PAIR_CACHE: dict = {}


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _gl_pair(n: int):
    """Nodes of the order-n and order-2n rules side by side, and a (2, 3n)
    weight matrix whose rows pick out one rule each."""
    if n not in _PAIR_CACHE:
        x1, w1 = _gl(n)
        x2, w2 = _gl(2 * n)
        weights = np.zeros((2, 3 * n), dtype=complex)
        weights[0, :n] = w1
        weights[1, n:] = w2
        _PAIR_CACHE[n] = (np.concatenate([x1, x2]), weights)
    return _PAIR_CACHE[n]


def _panel(f, a: float, b: float, order: int):
    """Order-2n value of f over [a, b] and its distance from the order-n
    value."""
    nodes, weights = _gl_pair(order)
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * nodes
    vals = np.asarray(f(xs), dtype=complex)
    if vals.shape != xs.shape:
        raise ValueError(f"integrand gave shape {vals.shape} for {xs.size} nodes")
    finite = np.isfinite(vals)
    if not finite.all():
        bad = float(xs[~finite][0])
        raise NonFiniteIntegrand(f"integrand not finite near t = {bad!r}")
    coarse, fine = (weights @ vals).tolist()
    return half * fine, half * abs(fine - coarse)


def _within(q: QuadratureSpec, err: float, scale: float) -> bool:
    """err <= max(abs_tol, rel_tol*scale)."""
    return err <= max(q.abs_tol, q.rel_tol * scale)


def integrate_finite(f, a: float, b: float, q: QuadratureSpec | None = None) -> Estimate:
    """Adaptive integral of f over [a, b].

    Panels failing the order-n vs order-2n comparison are halved until the
    panel budget runs out; converged reports whether the final accumulated
    error estimate meets tolerance.
    """
    q = q or QuadratureSpec()
    if a > b:
        raise ValueError("integrate_finite requires a <= b")
    if a == b:
        return Estimate(0j, 0.0, 0, True)
    stack = [(float(a), float(b))]
    total = 0j
    err_sum = 0.0
    used = 0
    capped = False
    width_floor = 1e-14 * max(1.0, abs(a), abs(b))
    while stack:
        lo, hi = stack.pop()
        fine, err = _panel(f, lo, hi, q.panel_order)
        used += 1
        if _within(q, err, abs(fine)) or (hi - lo) <= width_floor:
            total += fine
            err_sum += err
        elif used + len(stack) + 2 > q.max_panels:
            total += fine
            err_sum += err
            capped = True
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi))
            stack.append((lo, mid))
    converged = (not capped) and _within(q, err_sum, abs(total))
    return Estimate(total, err_sum, used, converged)


def integrate_halfline(f, a: float, q: QuadratureSpec | None = None) -> Estimate:
    """Integral of f over [a, inf) by geometrically widening panels.

    The loop stops once two consecutive panels are negligible both
    absolutely and relative to the running total.  A mean magnitude per
    unit length that grows on _DIVERGENT_RISES consecutive panels raises
    TailDivergence.
    """
    q = q or QuadratureSpec()
    lo = float(a)
    width = _FIRST_TAIL_WIDTH
    total = 0j
    err_sum = 0.0
    used = 0
    quiet = 0
    rises = 0
    live = False
    density = 0.0
    for _ in range(_MAX_TAIL_PANELS):
        est = integrate_finite(f, lo, lo + width, q)
        total += est.value
        err_sum += est.err_est
        used += est.panels_used
        mag = abs(est.value)
        size = abs(total)
        negligible = mag <= q.abs_tol and (mag <= q.rel_tol * size or size <= q.abs_tol)
        quiet = quiet + 1 if negligible else 0
        if quiet >= 2:
            break
        # widths grow geometrically, so divergence is judged on the mean
        # magnitude per unit length, not on the raw panel integral
        was_live, previous = live, density
        live = mag > q.abs_tol
        density = mag / width
        rises = rises + 1 if live and was_live and density > previous else 0
        if rises >= _DIVERGENT_RISES:
            raise TailDivergence(
                f"tail panels keep growing past t = {lo + width:g}"
            )
        if used >= q.max_panels:
            break
        lo += width
        width *= _TAIL_GROWTH
    # the last panel's magnitude stands for the tail left out, also when
    # the panel budget cut the tail off before it went quiet
    err_sum += mag
    return Estimate(total, err_sum, used, quiet >= 2 and _within(q, err_sum, abs(total)))


def integrate_unit_singular(f, sigma: float, q: QuadratureSpec | None = None) -> Estimate:
    """Integral of f over (0, 1] where f behaves like x**(sigma-1) at zero.

    The substitution x = exp(-t) maps the integral onto [0, inf) with the
    singularity absorbed into exponential decay exp(-sigma*t); sigma <= 0
    means the integral diverges and is rejected up front.
    """
    q = q or QuadratureSpec()
    if sigma <= 0.0:
        raise TailDivergence(
            f"effective endpoint exponent sigma = {sigma:g} is outside the "
            "convergence region"
        )

    def transformed(t):
        u = np.exp(-t)
        out = np.zeros(np.shape(t), dtype=complex)
        live = u > 0.0
        if np.any(live):
            # below u ~ 1e-308 the true contribution is u**sigma * O(1) -> 0
            out[live] = np.asarray(f(u[live]), dtype=complex) * u[live]
        return out

    return integrate_halfline(transformed, 0.0, q)
