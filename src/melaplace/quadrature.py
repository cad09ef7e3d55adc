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
included, not the look-ahead ones.  Finite heads ride the first tail pass
(_halfline's heads) with the bits of integrate_finite.

A numeric Bromwich line integrates its source g against the Dirichlet
kernel sin(T*(s - u))/(pi*(s - u)), which the engine applies itself
(_Dirichlet) on the roots that _peak_roots lays over u >= 0: a peak root
of one kernel period about u = s, and roots doubling away from it on both
sides, the tail's panels among them; a delta check's finite window takes
them too, clipped at its end.  A Mellin line runs over every real
u, and the kernel is even about its peak, so the engine folds it there
(_panels's fold, _folded_roots): one half-line in v = |u - s|/r, r =
min(1/2, pi/T), whose integrand g(s + r*v) + g(s - r*v) comes from one
call on both node sets, against the kernel _Dirichlet(T*r, 0), on fixed
roots [0, 1], then 2, 4, 8... wide, each panel judged on the sum of its
sides.  Every panel takes the kernel in one form, the phase
exp(i*T*(s - mid)) times a row of weights at its nodes, and only the
row differs.  A panel of half-width h at least h from s
with T*h >= 3n/2 (n = panel_order; _FILON_FROM) takes a Filon-type row:
g/(pi*(s - u)) interpolated at the pair's nodes, the oscillation
integrated exactly by its Legendre moments, the spherical Bessel
functions j_k(T*h) (_bessel_moments).  So its two rules cannot alias the kernel into
agreement, and a line costs about as many panels at T = 1000 as at
T = 50.  Every other panel takes the wave row exp(-i*T*h*x), on which
the plain Gauss-Legendre pair sums g times the kernel.  A row depends on
T*h and n alone, and two bounded tables (_filon_row, _wave_row) keep
the rows for the process.  A level's kernel, every panel's row over
pi*(s - u), depends on T, s, the panels and n alone, and a third bounded
table (_level_kernel) keeps the kernels of small levels: at T >= 2 pi a
folded Mellin line's kernel sin(w v)/(pi v) has w = T*fl(pi/T), one of
three floats, so lines at any such T meet the same few levels.  Every
root of a call without a kernel takes the plain pair on g.

A direct Mellin transform reads two integrands on the same panels
(_panels's sides): its unit part at u = v and its x >= 1 side at
x = 1 + v, whose roots [1, 2], [2, 4]... are v's [0, 1], [1, 3]..., from
one call that returns both.  Each panel counts their summed value and
error, but is kept only where each side meets tolerance on its own, as
each would alone, and the tail's stop rule reads their sum.

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

from .errors import DomainError, MelaplaceError, NonFiniteIntegrand, TailDivergence

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
    reports 9 panels.  A Mellin line, folded about its peak, is one tail
    and its heads, each root taking both sides of the peak in one budget:
    the Gamma line at c = 50, T = 10 with max_panels = 2 reports 3.  A
    direct Mellin transform is one tail too, each root's budget covering
    both sides of x = 1: Gamma at z = 2.5 with max_panels = 2 reports 2
    panels, where a tail a side reported 4.  A rational contour sum is
    not adaptive: max_panels bounds its fixed panels, and a path that
    needs more is a DomainError.
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


def _legval(x, c):
    """The Legendre series sum c[k] P_k(x) by Clenshaw's recurrence, in
    the steps of numpy.polynomial.legendre.legval."""
    if len(c) == 1:
        return c[0] + 0 * x
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _legvander(x, count: int):
    """P_k(x), k < count, one row per node, by the forward recurrence of
    numpy.polynomial.legendre.legvander, bit for bit."""
    v = np.empty((count, len(x)))
    v[0] = x * 0 + 1
    if count > 1:
        v[1] = x
    for i in range(2, count):
        v[i] = (v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return v.T


@functools.cache
def _gl(n: int):
    """The order-n Gauss-Legendre nodes and weights on [-1, 1], bit for bit
    those of numpy.polynomial.legendre.leggauss(n), in its steps: the
    eigenvalues of the symmetric companion matrix of P_n, one Newton
    step, the weights from P_n' and P_{n-1}, symmetrized and scaled to
    sum to 2.  numpy.polynomial itself is never loaded."""
    c = [0.0] * n + [1.0]
    # P_n' as a Legendre series, as legder takes it
    der, rest = [0.0] * n, c[:]
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * rest[j]
        rest[j - 2] += rest[j]
    if n > 1:
        der[1] = 3 * rest[2]
    der[0] = rest[1]
    if n == 1:
        companion = np.array([[-0.0]])
    else:
        companion = np.zeros((n, n))
        scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
        band = np.arange(1, n) * scale[:n - 1] * scale[1:]
        companion.reshape(-1)[1::n + 1] = band
        companion.reshape(-1)[n::n + 1] = band
    x = np.linalg.eigvalsh(companion)
    df = _legval(x, der)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    # fabs on real values, leggauss's np.abs there
    fm /= np.fabs(fm).max()
    df /= np.fabs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


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


@functools.cache
def _filon_basis(n: int):
    """The Filon rules of _Dirichlet on the nodes of _gl_pair(n).

    The order-m Gauss-Legendre values of p at nodes x_j, weights w_j, give
    its degree m-1 interpolant's Legendre coefficients
    c_k = (2k+1)/2 sum_j w_j P_k(x_j) p(x_j) exactly, and the moments
    int_{-1}^{1} P_k(x) exp(-i w x) dx = 2 (-i)^k j_k(w) integrate that
    interpolant against the oscillation exactly.  The matrix maps j_k(w)
    to each node's Filon weight against exp(-i w x), over its
    Gauss-Legendre weight, so that _gl_pair's rows sum the rule: the
    order-n rule's on the first n nodes and the order-2n rule's on the
    last 2n, real and imaginary parts side by side.
    """
    x1, w1 = _gl(n)
    x2, w2 = _gl(2 * n)
    k = np.arange(2 * n)
    # (2k+1)/2 from c_k times 2 (-i)**k from the moment
    scale = (2 * k + 1) * (-1j) ** k
    weights = np.zeros((3 * n, 2 * n), dtype=complex)
    weights[:n, :n] = _legvander(x1, n) * scale[:n]
    weights[n:] = _legvander(x2, 2 * n) * scale
    # a real product viewed as complex gives the complex weights
    moments = np.empty((6 * n, 2 * n))
    moments[0::2], moments[1::2] = weights.real, weights.imag
    return moments


# a kernel panel of half-width h takes the Filon rule from T*h >= _FILON_FROM*n
# on (n = panel_order).  From 3n/2 the root of _peak_roots at T*h = 8 pi,
# 8 kernel periods, is a Filon panel at the default order 16, where the
# plain pair split it, so most Gamma and mixedpower lines at T = 10 or 30
# stop in one integrand call, not two.  From n the mixedexp Mellin line
# of a hump far from its peak (y = e**-300) falls short of rel_tol 1e-10
_FILON_FROM = 1.5

# kernel rows kept for the whole process, by each of _filon_row and
# _wave_row.  A row is 3n complex values, 48 KiB at panel_order 1024, so
# the two tables hold at most 6 MiB of rows there, and 96 KiB at the
# default order 16.  The half-widths of _peak_roots give w = T*h = pi*2**k
# up to a few ulps, so lines at any T >= 2*pi share a few dozen Filon
# rows.  Wave rows also come from the panels split near the peak, whose
# ulps differ more: the line_numeric benchmark's lines, at T near 10 and
# 30, build about one wave row in five lines
_FILON_ROWS = 64


def _bessel_moments(w: float, count: int) -> list:
    """The spherical Bessel functions j_k(w), k < count, for w > 0, by
    the recurrence j_{k-1} + j_{k+1} = (2k+1)/w j_k.

    From w >= count on it runs upward from j_0 = sin(w)/w and
    j_1 = (sin(w)/w - cos(w))/w, stable while k < w.  Below that, j_k
    falls faster than any other solution once k passes w, and the upward
    run loses every digit (3e15 times j's size at count = 512, w = 384).
    So Miller's backward run (Gautschi, SIAM Review 9, 1967) starts at
    count + sqrt(160 count), as Numerical Recipes' bessj does, far enough
    up that the other solution has died away by the digits of a double,
    and is scaled to whichever of j_0 and j_1 is the larger: at the
    w = pi 2^k of _peak_roots, sin(w), so j_0, is nearly 0.  A run that
    nears the largest float is scaled down on the way; the values it has
    left behind then underflow, as j_k itself does.
    """
    r = 1.0 / w
    sin, cos = math.sin(w), math.cos(w)
    j0, j1 = sin * r, (sin * r - cos) * r
    if w >= count:
        a, b = j0, j1
        j = [a, b]
        for k in range(1, count - 1):
            a, b = b, (2.0 * k + 1.0) * r * b - a
            j.append(b)
        return j
    top = count + math.isqrt(160 * count)
    j = [0.0] * count
    # f_{k+1} and f_k of the backward run from f_{top+1} = 0, f_top = 1
    a, b = 0.0, 1.0
    for k in range(top, 0, -1):
        a, b = b, (2.0 * k + 1.0) * r * b - a
        if k <= count:
            j[k - 1] = b
        if abs(b) > 1e250:
            a, b = a * 1e-250, b * 1e-250
            j[k - 1:] = [v * 1e-250 for v in j[k - 1:]]
    scale = j0 / j[0] if abs(j0) >= abs(j1) else j1 / j[1]
    return [v * scale for v in j]


@functools.lru_cache(maxsize=_FILON_ROWS)
def _wave_row(w: float, n: int):
    """exp(-i w x) at the 3n nodes x of _gl_pair(n); read-only, since the
    table hands the same row to every caller."""
    row = np.exp(-1j * (w * _gl_pair(n)[0]))
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=_FILON_ROWS)
def _filon_row(w: float, n: int):
    """The 3n node weights of both Filon rules of _filon_basis(n) against
    exp(-i w x) on [-1, 1], over their Gauss-Legendre weights, from the
    moments j_k(w), k < 2n, of _bessel_moments; read-only, since the
    table hands the same row to every caller."""
    row = _filon_basis(n).dot(np.array(_bessel_moments(w, 2 * n))).view(complex)
    row.flags.writeable = False
    return row


# level kernels kept for the whole process (_level_kernel).  A level of at
# most _LEVEL_PANELS panels is an entry of at most 32*3n floats: 12 KiB at
# panel_order 16, so 192 KiB for the table, and 768 KiB at 1024, 12 MiB for
# the table.  A folded Mellin line's first pass is one level of 1 to 30
# panels, the same at every T >= 2 pi of one octave of T/(2 pi) and of one
# of the three roundings of T*fl(pi/T) (_folded_roots); the line_numeric
# benchmark's Gamma lines, at T near 10, share three first-pass entries.
# 256 entries raised that benchmark's peak RSS by another 2-3% for no more
# lines a second
_LEVEL_KERNELS = 16
_LEVEL_PANELS = 32


def _kernel_rows(T: float, s: float, xs, mid, half, order: int):
    """The kernel sin(T*(s - u))/(pi*(s - u)) of _Dirichlet(T, s) at the
    nodes xs of the panels mid[i] +/- half[i], one row a panel, as
    _Dirichlet.weigh describes it."""
    d = s - xs
    filon_from = _FILON_FROM * order
    # a node of a panel farther than this from s has |T*(s - u)| >= 1e-8,
    # its own rounding allowed for
    reach = 1e-8 / T + 4.0 * math.ulp(s)
    rows, peak = [], False
    for m, h in zip(mid, half):
        w, gap = T * h, abs(s - m)
        # every root of _peak_roots and _folded_roots lies at least its
        # half-width from the peak, unless pi/T is near the rounding of s;
        # at w = inf the Filon moments raise, and the wave row is as
        # non-finite as the phase there
        if 2.0 * h <= gap and filon_from <= w < math.inf:
            rows.append(_filon_row(w, order))
        else:
            rows.append(_wave_row(w, order))
            peak = peak or gap - h < reach
    theta = T * (s - np.array(mid))
    phases = np.exp(1j * theta)
    kernel = (phases[:, None] * np.array(rows)).imag / (math.pi * d)
    if peak:
        td = T * d
        kernel[(td < 1e-8) & (td > -1e-8)] = T / math.pi
    return kernel


@functools.lru_cache(maxsize=_LEVEL_KERNELS)
def _level_kernel(T: float, s: float, mid: tuple, half: tuple, order: int):
    """_kernel_rows at the nodes of _panels, which depend on mid, half and
    order alone; read-only, since the table hands the same rows to every
    caller."""
    xs = np.array(mid)[:, None] + np.array(half)[:, None] * _gl_pair(order)[0]
    kernel = _kernel_rows(T, s, xs, mid, half, order)
    kernel.flags.writeable = False
    return kernel


class _Dirichlet:
    """The Dirichlet kernel sin(T*(s - u))/(pi*(s - u)) of the roots of
    one _trees or _halfline call, applied by the engine to an integrand g.

    Every panel mid +/- h takes its kernel in one form: at u = mid + h*x,
    sin(T*(s - u)) = Im(exp(i*theta) R(x)), with the phase theta =
    T*(s - mid) and a row R of weights at the panel's 3n nodes that
    depends on w = T*h and n = panel_order alone, read from a bounded
    table shared by every call.  A panel that lies at least h from the
    peak u = s and has w >= 3n/2 takes the Filon row of _filon_row, a
    Filon-type rule (Iserles & Norsett, Proc. R. Soc. A 461, 2005): the
    smooth factor g(u)/(pi*(s - u)) is interpolated at its order-n and
    order-2n Gauss-Legendre nodes, and each interpolant is integrated
    against the oscillation exactly, so the two rules never alias it and
    their difference stays the panel's error estimate.  Any other panel
    takes the wave row exp(-i*w*x) of _wave_row, so that the
    Gauss-Legendre pair sums g times the kernel itself; on the roots of
    _peak_roots it spans fewer than 3n/(2 pi) kernel periods, which the
    order-2n rule resolves and the order-n rule sees as an error where it
    does not.

    The kernel of a whole level, every panel's row over its pi*(s - u),
    depends on T, s, the panels' mids and half-widths and n alone, and a
    level of at most _LEVEL_PANELS panels reads it from one more bounded
    table (_level_kernel).  A folded Mellin line's kernel is
    _Dirichlet(T*r, 0) on the fixed roots of _folded_roots, so lines at
    every T >= 2 pi meet the same few levels there.

    Near the peak the form has a rounding limit: the phase describes the
    node mid + h*x before rounding, and s - u is taken at the rounded
    node, so at a node within about 1e-11 of s with |s| near 50 a kernel
    value can be 5e-4 of the peak T/pi off.  It needs s strictly inside a
    panel away from its centre, which only a clipped root lays out, and it
    no longer applies to Mellin lines: folded, their peak is v = 0, the
    edge of the root [0, 1], and the kernel is read at v itself, so a
    node near the peak rounds at the spacing of floats near v, not near s.
    """

    def __init__(self, T: float, s: float):
        self.T, self.s = T, s

    def weigh(self, vals, xs, mid, half, order: int):
        """The rows of vals, g at the nodes xs of the panels mid[i] +/-
        half[i], as values that _gl_pair's weights sum into each panel's two
        rules: g times Im(exp(i*theta) R)/(pi*(s - u)), R the panel's Filon
        or wave row.  Where |T*(s - u)| < 1e-8 the quotient is its limit
        T/pi, which it rounds to anyway unless s - u is 0 or subnormal; only
        a panel that holds s, up to the rounding of its nodes, has such
        nodes, so the masks run only on a level with one.  A phase that is
        not finite leaves its panel not finite.  vals may stack several sets
        of rows on the same panels, as a fold's two sides."""
        if len(mid) > _LEVEL_PANELS:
            return vals * _kernel_rows(self.T, self.s, xs, mid, half, order)
        return vals * _level_kernel(self.T, self.s, tuple(mid), tuple(half), order)


def _panels(f, mid, half, q: QuadratureSpec, kernel: _Dirichlet | None = None,
            fold: tuple | None = None, sides: tuple | None = None):
    """Order-2n values of f over the panels mid[i] +/- half[i] (n =
    q.panel_order), their moduli and their distances from the order-n
    values (three lists), {i: the error that panel i raises}:
    NonFiniteIntegrand at its first node where f is not finite, else
    DomainError where its value is not finite, and None, or with sides a
    list of whether each panel meets tolerance.  One integrand call
    covers the nodes of every panel.  A kernel, when given, weights f as
    _Dirichlet.weigh says, and f finite at every node but past the
    largest float times the kernel is such a DomainError.

    With fold = (s, r) the panels lie in v >= 0 and f is read at
    u = s + r*v and u = s - r*v, in the one call: each side is weighted
    apart and the two summed.  With sides = (a0, a1) the panels lie in
    v >= 0 and f gives two sides at once: it takes a (2, m) array whose
    rows are t = a0 + v and t = a1 + v and returns a (2, m) array of
    their values.  Such a panel's value and error are the sums of its
    sides', and it meets tolerance only where each side meets
    max(abs_tol, rel_tol*|side|) on its own, as a side integrated alone
    would.  Either way an error names the t where it occurred, the node
    of either side or the mid of the side whose weighted sum is the
    larger.
    """
    order = q.panel_order
    nodes, weights = _gl_pair(order)
    h = np.array(half)
    xs = np.array(mid)[:, None] + h[:, None] * nodes
    if fold is not None:
        us = fold[0] + fold[1] * np.array([xs, -xs])
    elif sides is not None:
        us = np.array([sides[0] + xs, sides[1] + xs])
    else:
        us = xs
    args = us.ravel() if sides is None else us.reshape(2, -1)
    vals = np.asarray(f(args), dtype=complex)
    if vals.shape != args.shape:
        raise ValueError(f"integrand gave shape {vals.shape} for {us.size} nodes")
    vals = parts = source = vals.reshape(us.shape)
    if kernel is not None:
        vals = parts = kernel.weigh(vals, xs, mid, half, order)
    if sides is not None:
        # both rules of each side's panels, one row of panels a side, each
        # side judged on its own modulus h*|fine|; np.hypot has the bits of
        # CPython's complex abs
        rows = vals.reshape(2 * len(mid), -1)
        coarse, fine = rows.dot(weights[0]), rows.dot(weights[1])
        d = fine - coarse
        side_err = (np.hypot(d.real, d.imag).reshape(2, -1) * h).tolist()
        size = (np.hypot(fine.real, fine.imag).reshape(2, -1) * h).tolist()
        abs_tol, rel_tol = q.abs_tol, q.rel_tol
        ok = [(e0 <= abs_tol or e0 <= rel_tol * m0) and (e1 <= abs_tol or e1 <= rel_tol * m1)
              for e0, e1, m0, m1 in zip(*side_err, *size)]
        err = [e0 + e1 for e0, e1 in zip(*side_err)]
        fine = fine[:len(mid)] + fine[len(mid):]
    else:
        ok = None
        if fold is not None:
            vals = vals[0] + vals[1]
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
        for i in range(len(values)):
            finite = np.isfinite(source[..., i, :])
            if not finite.all():
                faults[i] = NonFiniteIntegrand(
                    f"integrand not finite near t = {float(us[..., i, :][~finite][0])!r}")
            elif not cmath.isfinite(values[i]):
                where = mid[i]
                if fold is not None or sides is not None:
                    plus, minus = parts[:, i].dot(weights[1]).tolist()
                    side = _abs(minus) > _abs(plus)
                    where = (sides[side] + mid[i] if sides is not None
                             else fold[0] + fold[1] * (-mid[i] if side else mid[i]))
                faults[i] = DomainError(
                    f"panel sum past the largest float near t = {where!r}")
    return values, moduli, err, faults, ok


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


def _trees(f, roots, q: QuadratureSpec, kernel: _Dirichlet | None = None,
           fold: tuple | None = None, sides: tuple | None = None) -> list:
    """The adaptive integral of f over each root panel (lo, hi) of
    ``roots``: (value, err_est, panels_used, converged), or the error it
    raises.  An empty root is 0 from no panel.  kernel, fold and sides
    are _panels's.

    The trees grow in level order, one integrand call evaluating every
    panel of a level.  A panel is kept as a leaf when its two rules agree
    (on each side, with sides), when it is at most 1e-14 max(1, |a|, |b|)
    wide for its root [a, b], or when it has an error to raise (see
    _panels).  Any other panel is halved
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
        values, moduli, errs, faults, verdicts = _panels(
            f, [0.5 * lo + 0.5 * hi for lo, hi in zip(los, his)],
            [0.5 * hi - 0.5 * lo for lo, hi in zip(los, his)], q, kernel, fold, sides)
        deeper, next_los, next_his = [], [], []
        for j, (i, lo, hi, v, m, e) in enumerate(zip(owner, los, his, values, moduli, errs)):
            # _within, inline: this loop runs once a panel; a panel of two
            # sides comes with its verdict
            ok = (e <= abs_tol or e <= rel_tol * m) if verdicts is None else verdicts[j]
            fault = faults.get(j) if faults else None
            # the width floor, read only for a panel that would split
            if not (ok or fault is not None
                    or hi - lo <= 1e-14 * max(1.0, abs(roots[i][0]), abs(roots[i][1]))):
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
    1.3e154 from a = 0, raises TailDivergence: the integral diverges, or
    decays too slowly to resolve.  a must be finite; panels
    raise as in integrate_finite.
    """
    return _halfline(f, _bound("a", a), q or DEFAULT_QUADRATURE)[0]


class _Tail:
    """The stop and budget rules of the geometric tail of _halfline.  Its
    panels run from a toward +inf, each _TAIL_GROWTH times as wide as the
    last.  roots gives the next block of them, and read runs the rules
    over their _trees entries until ``outcome`` holds the tail's Estimate
    or the error it raises.  With ``past``, no panel counts as quiet up to
    the one that reaches past.
    """

    __slots__ = ("q", "lo", "width", "block", "left", "total", "err_sum", "used",
                 "quiet", "mag", "hold", "outcome")

    def __init__(self, a: float, width: float, q: QuadratureSpec,
                 past: float | None = None):
        self.q, self.lo, self.width = q, float(a), width
        self.block, self.left = _FIRST_TAIL_BLOCK, _MAX_TAIL_PANELS
        self.total, self.err_sum, self.used, self.quiet, self.mag = 0j, 0.0, 0, 0, 0.0
        self.outcome = None
        # the panels short of past, and the one that reaches it, as roots lays them
        self.hold = 0
        if past is not None:
            edge = self.lo
            while edge < past:
                edge += width
                width *= _TAIL_GROWTH
                self.hold += 1

    def roots(self) -> list:
        """The next block of root panels, (lo, hi) each, outward in order."""
        lo, width = self.lo, self.width
        roots = []
        for _ in range(min(self.block, self.left)):
            roots.append((lo, lo + width))
            lo += width
            width *= _TAIL_GROWTH
        self.lo, self.width = lo, width
        return roots

    def read(self, results) -> None:
        """Runs the rules in order over results, the _trees entries of the
        block from roots, and sets ``outcome`` where they stop: the error
        of an entry read, or TailDivergence when the block was the last
        that _MAX_TAIL_PANELS allows."""
        q = self.q
        abs_tol, rel_tol = q.abs_tol, q.rel_tol
        total, err_sum, used, quiet, mag, hold = (self.total, self.err_sum, self.used,
                                                  self.quiet, self.mag, self.hold)
        try:
            for result in results:
                value, err, panels, _ = _result(result)
                total += value
                err_sum += err
                used += panels
                previous = mag
                try:
                    mag, scale = abs(value), abs(total)
                except OverflowError:
                    mag, scale = _abs(value), _abs(total)
                if hold:
                    hold -= 1
                    negligible = False
                else:
                    negligible = mag <= abs_tol and (mag <= rel_tol * scale
                                                     or scale <= abs_tol)
                quiet = quiet + 1 if negligible else 0
                if quiet >= 2 or used >= q.max_panels:
                    # the last panel's magnitude stands for the tail left
                    # out, also when the panel budget cut the tail off
                    # before it went quiet
                    err_sum += mag
                    self.outcome = Estimate(total, err_sum, used,
                                            quiet >= 2 and _within(q, err_sum, _abs(total)))
                    return
        except MelaplaceError as exc:
            self.outcome = exc
            return
        self.left -= len(results)
        if not self.left:
            self.outcome = TailDivergence(
                "the integral diverges, or decays too slowly to resolve: tail panels "
                f"still not negligible at t = {self.lo:g}")
            return
        self.total, self.err_sum, self.used, self.quiet, self.mag, self.hold = (
            total, err_sum, used, quiet, mag, hold)
        self.block = _next_block(self.block, previous, mag, abs_tol)


def _halfline(f, a: float, q: QuadratureSpec, heads=(),
              kernel: _Dirichlet | None = None, width: float = _FIRST_TAIL_WIDTH,
              past: float | None = None, fold: tuple | None = None,
              sides: tuple | None = None) -> list:
    """[integrate_halfline(f, a, q)], followed by integrate_finite(f, lo, hi,
    q) for each (lo, hi) of ``heads``, bit for bit.  kernel, fold and sides
    are _panels's: with a kernel, each panel weighs f as _Dirichlet.weigh
    says, with fold = (s, r) every panel lies in v and takes f at
    u = s +/- r*v, and with sides = (a0, a1) every panel lies in v and f
    gives both sides, at t = a0 + v and t = a1 + v, each side's panels
    judged on their own and the stop rule on their sum.  The tail's first
    panel is ``width`` wide.  With ``past``, where f holds its mass, the
    tail counts no panel as quiet up to the one that reaches past: a tail
    that starts short of the mass reads on across it, however small f is
    on the way.

    The tail's geometric panels are evaluated in blocks (_Tail):
    _FIRST_TAIL_BLOCK panels first, then as many as _next_block expects
    its stop rule to read.  Each block is one level-order pass, and the
    first pass also takes the heads' trees, so no head has a pass of its
    own.  The stop and budget rules run over each block's panels in order;
    a panel past where they stop is never read, and raises nothing.  The
    tail's error, if any, is raised first, then the heads', as each would
    alone.
    """
    tail = _Tail(a, width, q, past)
    riders, head_results = list(heads), []
    with np.errstate(all="ignore"):
        while tail.outcome is None:
            roots = tail.roots()
            results = _trees(f, roots + riders, q, kernel, fold, sides)
            if riders:
                head_results, riders = results[len(roots):], []
            tail.read(results[:len(roots)])
        return ([_result(tail.outcome)]
                + [Estimate(*_result(result)) for result in head_results])


def _lobe(T: float, s: float) -> float:
    """r = min(1/2, pi/T), the half-width of the peak root of the kernel
    _Dirichlet(T, s); a lobe that rounding at s leaves with no width is a
    DomainError: no float lies inside it."""
    r = min(0.5 * _FIRST_TAIL_WIDTH, math.pi / T)
    if not s - r < s < s + r:
        raise DomainError(f"the kernel at T = {T:g} has its central lobe, pi/T wide, "
                          f"inside the rounding of its peak at {s:g}")
    return r


def _peak_roots(T: float, s: float):
    """(a, width, heads) of the kernel _Dirichlet(T, s) over u >= 0: its
    tail starts at a with panels width wide, after the finite roots
    heads.  These are _halfline's arguments.

    A peak root [s - r, s + r], r = _lobe(T, s), takes the kernel's
    central lobe; it is at most _FIRST_TAIL_WIDTH wide, as a plain tail's
    first panel is.  Roots run out from it on both sides, 2r wide and
    doubling, as heads while narrower than 1/2 and then as a tail, so that
    a tail's first block reaches at least 127 past the peak, where a plain
    tail's reaches 255.  With r = pi/T a root of half-width h = r 2^k has
    T h = pi 2^k: the roots next to the peak keep the Gauss-Legendre pair,
    and those with T h >= 3n/2 take Filon panels.  The roots are clipped
    at 0: those wholly below it are dropped, one that straddles it starts
    at 0, and the left ones run on as heads down to 0, the last taking
    the rest if that is narrower than itself.
    """
    cap = 0.5 * _FIRST_TAIL_WIDTH
    r = _lobe(T, s)
    heads = [(max(s - r, 0.0), s + r)] if s + r > 0.0 else []
    lo, width = s - r, 2.0 * r
    while lo > 0.0:
        edge = lo - width if lo - width >= width else 0.0
        heads.append((edge, lo))
        lo, width = edge, width * _TAIL_GROWTH
    hi, width = s + r, 2.0 * r
    while hi + width <= 0.0:
        hi, width = hi + width, width * _TAIL_GROWTH
    while width < cap:
        heads.append((max(hi, 0.0), hi + width))
        hi, width = hi + width, width * _TAIL_GROWTH
    return max(hi, 0.0), width, heads


def _folded_roots(T: float, s: float):
    """(r, a, width, heads) of the kernel _Dirichlet(T, s) over every real
    u, folded about its peak: v = |u - s|/r >= 0, r = _lobe(T, s), where
    the integrand of u is read at s + r*v and s - r*v (_panels's fold)
    and the kernel is _Dirichlet(T*r, 0), even in v; a, width and heads
    are _halfline's arguments in v.

    The roots are those of _peak_roots on each side of the peak, each
    pair one root: the peak root [0, 1], then roots 2, 4, 8... wide, as
    heads while narrower than 1/(2r) and then as a tail.  So at T >= 2 pi
    the kernel is sin(w v)/(pi v) with w = T*fl(pi/T), which rounds to
    one of three floats next to pi, on roots that depend on T only
    through the number of heads: lines at any such T share their level
    kernels (_level_kernel).
    """
    r = _lobe(T, s)
    cap = 0.5 * _FIRST_TAIL_WIDTH
    heads, hi, width = [(0.0, 1.0)], 1.0, 2.0
    while width * r < cap:
        heads.append((hi, hi + width))
        hi, width = hi + width, width * _TAIL_GROWTH
    return r, hi, width, heads


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
