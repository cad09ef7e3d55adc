"""Adaptive Gauss-Legendre quadrature.

One engine sits under every integral in the package.  A panel is accepted
when the difference between its order-n and order-2n Gauss-Legendre values
meets tolerance, otherwise it is halved; half-line integrals are summed
over geometrically widening panels until the tail stops contributing.
That stop rule is the only convergence test: a half-line integrand is
trusted to lie in its strip, and one whose tail is still not negligible
when the _MAX_TAIL_PANELS panels run out raises TailDivergence.  Both
rules of a panel come from the same integrand values, on the union of
their nodes.

Integrands must be vectorized and pointwise: they receive a 1-D float
ndarray of nodes and return a vector of (possibly complex) values, one
per node, each depending on its own node alone; any other shape raises
ValueError.  The engine relies on that to evaluate many panels in one
call.  The refinement trees of an integral's root panels grow in level
order (_trees), one integrand call taking every panel of a level.  A
panel that fails tolerance is halved into the next level while its tree,
with both halves, holds at most ``max_panels`` panels, judged left to
right within each level: a tree that outgrows its budget spends it level
by level, keeps the panels it cannot split, and its estimate is
unconverged.  A half-line integral evaluates its geometric panels ahead
of need, one level-order pass per block: _FIRST_TAIL_BLOCK panels first,
then blocks sized from the decay of the last two panels to where the
stop rule should end, and runs its stop and budget rules over them in
order.  A look-ahead panel past the stop is never read: it never
raises, and numpy's warnings are off while the engine evaluates.
``Estimate.panels_used`` counts the panels of the estimate, split ones
included, not the look-ahead ones.  Finite heads, such as a Bromwich
line's [0, s], ride the first tail pass (_halfline's heads) with the bits
of integrate_finite.

The unit-interval path removes the x**(z-1) endpoint singularity with the
substitution x = exp(-t), which turns the integral into a plain half-line
one; no singular-weight rules are needed anywhere.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NonFiniteIntegrand, TailDivergence

# first geometric panel width on half-line integrals
_FIRST_TAIL_WIDTH = 1.0
# hard cap on geometric tail panels; widths doubling from 1 reach t ~ 1.3e154,
# and a tail still not negligible there raises TailDivergence
_MAX_TAIL_PANELS = 512
# width ratio of consecutive tail panels
_TAIL_GROWTH = 2.0
# geometric tail panels refined together in a half-line integral's first
# look-ahead block.  Eight panels doubling from width 1 reach t = 255: a
# tail that decays like exp(-t/2) or faster is below abs_tol = 1e-13 from
# t = 63 on and shows its two quiet panels in this one pass, and the direct
# transforms and Bromwich lines of the package mostly stop at panel 6 to 8
_FIRST_TAIL_BLOCK = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for every numerical integral.

    panel_order, from 2 to 1024, is the Gauss-Legendre node count per
    panel; the error estimate doubles it.  The tolerances are positive
    and finite, and abs_tol is the floor below which relative error is not
    enforced.  max_panels bounds the panels of each
    integrate_finite.  A half-line integral gives each geometric panel
    that budget of its own, and stops after the panel on which its total
    reaches max_panels.  Each piece of a line integral has its own
    budget, so the mixedpower moment line at T = 30 with max_panels = 4
    reports 7 panels.
    """

    panel_order: int = 16
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_panels: int = 4096

    def __post_init__(self):
        # bool is an int, so JSON true would pass as 1 everywhere
        if any(isinstance(v, (bool, np.bool_)) for v in vars(self).values()):
            raise ValueError("QuadratureSpec fields must be numbers, not booleans")
        integers = (int, np.integer)
        if not (isinstance(self.panel_order, integers)
                and isinstance(self.max_panels, integers)):
            raise ValueError("panel_order and max_panels must be integers")
        # panel_order 1024 builds an order-2048 rule in about 1 s and 66 MB
        # on a 2-core x86 machine; 1e5 would ask leggauss for a 200,000 x
        # 200,000 companion matrix, 320 GB
        if not 2 <= self.panel_order <= 1024:
            raise ValueError("panel_order must be between 2 and 1024")
        if not (0 < self.rel_tol <= sys.float_info.max
                and 0 < self.abs_tol <= sys.float_info.max):
            raise ValueError("tolerances must be positive and finite")
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "QuadratureSpec":
        if not isinstance(doc, dict):
            raise ValueError("a QuadratureSpec is a JSON object")
        return cls(**doc)


# the spec of every call that passes none; frozen, so one instance serves all
DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class Estimate:
    """Integral value with its error estimate and convergence bookkeeping.

    panels_used counts the Gauss-Legendre panels evaluated for the value,
    not the look-ahead panels a half-line integral discards; converged
    says whether err_est met max(abs_tol, rel_tol*|value|) within the
    panel budget.
    """

    value: complex
    err_est: float
    panels_used: int
    converged: bool


@functools.cache
def _gl(n: int):
    return np.polynomial.legendre.leggauss(n)


@functools.cache
def _gl_pair(n: int):
    """Nodes of the order-n and order-2n rules side by side, and a (2, 3n)
    weight matrix whose rows pick out one rule each."""
    x1, w1 = _gl(n)
    x2, w2 = _gl(2 * n)
    weights = np.zeros((2, 3 * n), dtype=complex)
    weights[0, :n] = w1
    weights[1, n:] = w2
    return np.concatenate([x1, x2]), weights


def _panels(f, mid, half, order: int):
    """Order-2n values of f over the panels mid[i] +/- half[i], their
    moduli and their distances from the order-n values (three lists), and
    {i: the error that panel i raises}: NonFiniteIntegrand at
    its first node where f is not finite, else DomainError where its value
    is not finite.  One integrand call covers the nodes of every panel.
    """
    nodes, weights = _gl_pair(order)
    h = np.array(half)
    xs = np.array(mid)[:, None] + h[:, None] * nodes
    vals = np.asarray(f(xs.ravel()), dtype=complex)
    if vals.shape != (xs.size,):
        raise ValueError(f"integrand gave shape {vals.shape} for {xs.size} nodes")
    vals = vals.reshape(xs.shape)
    # each panel keeps the bits of its own product weights @ row: numpy
    # gives a single row those bits through a (1, 3n) @ (3n, 2) product,
    # and many rows through one matrix-vector product per rule
    if len(vals) == 1:
        coarse, fine = vals.dot(weights.T).T
    else:
        coarse, fine = vals.dot(weights[0]), vals.dot(weights[1])
    # np.hypot(re, im) has the bits of CPython's complex abs and gives inf
    # where abs raises OverflowError; np.abs differs from it by up to 2 ulp
    d = fine - coarse
    err = (h * np.hypot(d.real, d.imag)).tolist()
    # CPython's float * complex: numpy's gives -0.0 where a part underflows
    # and CPython's +0.0, on 706 of 200,000 random products
    values = [w * v for w, v in zip(half, fine.tolist())]
    # _abs of each value, with a Python call per value only where abs raises
    try:
        moduli = [abs(v) for v in values]
    except OverflowError:
        moduli = [_abs(v) for v in values]
    faults = {}
    # a node value that is not finite leaves both sums, so err and moduli,
    # non-finite
    if not math.isfinite(sum(err) + sum(moduli)):
        for i, row in enumerate(vals):
            finite = np.isfinite(row)
            if not finite.all():
                faults[i] = NonFiniteIntegrand(
                    f"integrand not finite near t = {float(xs[i][~finite][0])!r}")
            elif not cmath.isfinite(values[i]):
                faults[i] = DomainError(
                    f"panel sum past the largest float near t = {mid[i]!r}")
    return values, moduli, err, faults


def _within(q: QuadratureSpec, err: float, scale: float) -> bool:
    """err <= max(abs_tol, rel_tol*scale)."""
    return err <= q.abs_tol or err <= q.rel_tol * scale


def _abs(z: complex) -> float:
    """abs(z), or math.hypot of its parts where CPython's complex abs raises
    OverflowError: inf for finite parts whose modulus passes the largest
    float, nan for a NaN part after a libm call left errno set.  No numpy
    warning is raised, so it serves outside the engine's error state too."""
    try:
        return abs(z)
    except OverflowError:
        return math.hypot(z.real, z.imag)


def _trees(f, roots, q: QuadratureSpec) -> list:
    """The adaptive integral of f over each root panel (lo, hi) of
    ``roots``: (value, err_est, panels_used, converged), or the error it
    raises.  An empty root is 0 from no panel.

    The trees grow in level order, one integrand call evaluating every
    panel of a level.  A panel is kept as a leaf when its two rules agree,
    when it is at most 1e-14 max(1, |a|, |b|) wide for its root [a, b], or
    when it has an error to raise (see _panels).  Any other panel is halved
    into the next level while its tree, with both halves, holds at most
    q.max_panels panels, judged left to right within each level.  One the
    budget leaves unsplit, or whose midpoint does not fall strictly inside
    it, is kept as a capped leaf, and its root's estimate is unconverged.
    The midpoint is 0.5*lo + 0.5*hi and the half-width 0.5*hi - 0.5*lo,
    which stay finite near the largest float, where lo + hi overflows.  A
    root's value and error are its leaves summed left to right, and it
    raises the error of its leftmost leaf that has one.
    """
    abs_tol, rel_tol, budget = q.abs_tol, q.rel_tol, q.max_panels
    results = [None] * len(roots)
    sizes = [1] * len(roots)
    floors = [1e-14 * max(1.0, abs(a), abs(b)) for a, b in roots]
    leaves = {}
    capped = set()
    owner, los, his = [], [], []
    for i, (a, b) in enumerate(roots):
        if a == b:
            results[i] = 0j, 0.0, 0, True
        else:
            owner.append(i)
            los.append(a)
            his.append(b)
    while owner:
        values, moduli, errs, faults = _panels(
            f, [0.5 * lo + 0.5 * hi for lo, hi in zip(los, his)],
            [0.5 * hi - 0.5 * lo for lo, hi in zip(los, his)], q.panel_order)
        deeper, next_los, next_his = [], [], []
        for j, (i, lo, hi, v, m, e) in enumerate(zip(owner, los, his, values, moduli, errs)):
            # _within, inline: this loop runs once a panel
            ok = e <= abs_tol or e <= rel_tol * m
            fault = faults.get(j) if faults else None
            if not (ok or fault is not None or hi - lo <= floors[i]):
                mid = 0.5 * lo + 0.5 * hi
                if sizes[i] + 2 <= budget and lo < mid < hi:
                    sizes[i] += 2
                    deeper += i, i
                    next_los += lo, mid
                    next_his += mid, hi
                    continue
                capped.add(i)
            if sizes[i] == 1:
                # a tree of its root alone, which ok judges
                results[i] = (0j + v, 0.0 + e, 1, ok) if fault is None else fault
            else:
                leaves.setdefault(i, []).append((lo, v, e, fault))
        owner, los, his = deeper, next_los, next_his
    for i, tree in leaves.items():
        results[i] = _leaf_sum(q, tree, sizes[i], i not in capped)
    return results


def _leaf_sum(q: QuadratureSpec, leaves: list, size: int, whole: bool):
    """The _trees entry of a tree of ``size`` panels from its (lo, value,
    err_est, error to raise or None) leaves; ``whole`` is False for a tree
    with a capped leaf."""
    # each split falls strictly inside its panel, so no two leaves share lo
    leaves.sort()
    total = 0j
    err_sum = 0.0
    for _, value, err, fault in leaves:
        if fault is not None:
            return fault
        total += value
        err_sum += err
    return total, err_sum, size, whole and _within(q, err_sum, _abs(total))


def _result(entry):
    """A _trees entry (value, err_est, panels_used, converged), or its
    error raised."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def _bound(name: str, value) -> float:
    """value as a float; ValueError naming the bound unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"integration bound {name} must be finite, got {value!r}")
    return value


def integrate_finite(f, a: float, b: float, q: QuadratureSpec | None = None) -> Estimate:
    """Adaptive integral of f over [a, b].

    Panels failing the order-n vs order-2n comparison are halved until the
    panel budget runs out; converged reports whether the final accumulated
    error estimate meets tolerance.  a and b must be finite.  A panel at
    whose nodes f is not finite raises NonFiniteIntegrand, and one whose
    value overflows though f is finite raises DomainError.
    """
    q = q or DEFAULT_QUADRATURE
    a, b = _bound("a", a), _bound("b", b)
    if a > b:
        raise ValueError("integrate_finite requires a <= b")
    with np.errstate(all="ignore"):
        return Estimate(*_result(_trees(f, [(a, b)], q)[0]))


def _next_block(size: int, previous: float, last: float, tol: float) -> int:
    """Panels of the look-ahead block after one of ``size`` panels, from
    the magnitudes of the last two panels read: at their rate of decay,
    enough to reach the first panel below tol and one more, so that the
    stop rule finds its two quiet panels there; at least 1, at most 2*size.

    Widths double, so a constant ratio of densities (magnitude per unit
    length) is a constant ratio of panel magnitudes.  The block doubles
    where the magnitude did not fall, as on a hump, an oscillation, a
    non-finite or a zero panel, and where both panels are below tol but
    the stop rule, relative to a small total, still reads on.
    """
    if not (0.0 < last < previous < math.inf and previous > tol):
        return 2 * size
    steps = (math.log(tol) - math.log(last)) / (math.log(last) - math.log(previous))
    return max(1, min(2 * size, math.ceil(steps) + 1))


def integrate_halfline(f, a: float, q: QuadratureSpec | None = None) -> Estimate:
    """Integral of f over [a, inf) by geometrically widening panels.

    The loop stops once two consecutive panels are negligible both
    absolutely and relative to the running total.  A tail that is still
    not negligible when the _MAX_TAIL_PANELS panels run out, at t ~
    1.3e154 from a = 0, raises TailDivergence.  a must be finite; panels
    raise as in integrate_finite.
    """
    return _halfline(f, _bound("a", a), q or DEFAULT_QUADRATURE)[0]


def _halfline(f, a: float, q: QuadratureSpec, heads=()) -> list:
    """[integrate_halfline(f, a, q)], followed by integrate_finite(f, lo, hi,
    q) for each (lo, hi) of ``heads``, bit for bit.

    The geometric panels from a are evaluated in blocks, one level-order
    pass each: _FIRST_TAIL_BLOCK panels first, then as many as _next_block
    expects the stop rule to read.  The first pass also takes the heads'
    trees, in no pass of their own.  The stop and budget rules run over
    each block's panels in order; a panel past where they stop is never
    read, and raises nothing.  The heads are read once the tail has
    stopped, so the tail raises first, as it would alone.
    """
    abs_tol, rel_tol = q.abs_tol, q.rel_tol
    riders, head_results = list(heads), []
    total = 0j
    err_sum = 0.0
    used = 0
    quiet = 0
    mag = 0.0
    lo, width = float(a), _FIRST_TAIL_WIDTH
    block, left = _FIRST_TAIL_BLOCK, _MAX_TAIL_PANELS
    with np.errstate(all="ignore"):
        while left:
            roots = []
            for _ in range(min(block, left)):
                hi = lo + width
                roots.append((lo, hi))
                lo = hi
                width *= _TAIL_GROWTH
            results = _trees(f, roots + riders, q)
            if riders:
                head_results, riders = results[len(roots):], []
            for result in results[:len(roots)]:
                value, err, panels, _ = _result(result)
                total += value
                err_sum += err
                used += panels
                previous = mag
                try:
                    mag, scale = abs(value), abs(total)
                except OverflowError:
                    mag, scale = _abs(value), _abs(total)
                negligible = mag <= abs_tol and (mag <= rel_tol * scale or scale <= abs_tol)
                quiet = quiet + 1 if negligible else 0
                if quiet >= 2 or used >= q.max_panels:
                    break
            else:
                block, left = _next_block(block, previous, mag, abs_tol), left - len(roots)
                continue
            break
        else:
            raise TailDivergence(f"tail panels still not negligible at t = {lo:g}")
        # the last panel's magnitude stands for the tail left out, also when
        # the panel budget cut the tail off before it went quiet
        err_sum += mag
        converged = quiet >= 2 and _within(q, err_sum, _abs(total))
        return [Estimate(total, err_sum, used, converged),
                *(Estimate(*_result(result)) for result in head_results)]


def integrate_unit_singular(f, sigma: float, q: QuadratureSpec | None = None) -> Estimate:
    """Integral of f over (0, 1] where f behaves like x**(sigma-1) at zero.

    The substitution x = exp(-t) maps the integral onto [0, inf) with the
    singularity absorbed into exponential decay exp(-sigma*t); sigma <= 0
    means the integral diverges and is rejected up front.
    """
    q = q or DEFAULT_QUADRATURE
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
