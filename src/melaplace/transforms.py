"""Direct transforms and their closed-form catalog.

Three direct transforms are provided, all as integrals over the real axis:

    laplace    L[f](z)  = int_0^inf exp(-x*z) f(x) dx      (Re z beyond growth)
    moment     M[F](z)  = int_0^1  y**(z-1) F(y) dy         (same half-plane)
    mellin     MT[f](z) = int_0^inf x**(z-1) f(x) dx        (holomorphy strip)

A TransformExpr is the complex-plane object the inverses consume: either a
finite pole/residue list (rational form, valid on all of C by analytic
continuation) or a numeric closure backed by direct quadrature, such as the
Gamma function, the Mellin transform of exp(-x).  Its ``validity`` strip is
derived once, at construction.  Only rational forms can be inverted on a
closed rectangle; the Gamma function's poles march off to the left, so it
stays on open Bromwich lines.

The y = exp(-t) substitution, which puts the moment and the unit part of
the Mellin transform on [0, inf), lives in ``_kernel_integrand``; the
Laplace integrand is the same builder with the source read at t.  Each
integrand term is one exponential times a squared weight: the kernel
folds into the source's own exp(-g*x) or y**g base.  ``_off_axis`` is the
one form of a half-line source read off its axis, at y = exp(-t) or as
the Mellin tail's x**(z-1) f(x): exp(-z*t - g*y) or exp((z-1)*ln x - g*x).
Only the Laplace transform of a unit-interval source calls ``evaluate``.

``_pieces`` is the one home of the integrals behind every numeric
transform value and numeric Bromwich line: the u >= 0 half-line, plus
Mellin's x >= 1 side.  A direct transform is one half-line: a direct
Mellin transform reads its x >= 1 side in x = 1 + v on the panels of
the unit part's u = v, both in one integrand call, each side judged on
its own (``quadrature._panels``'s sides).  A line integrates against
the Dirichlet kernel, which the quadrature engine applies itself, with
Filon panels away from its peak (``quadrature._Dirichlet``), so a line's
cost does not grow with T; a Mellin line takes its x >= 1 side at
u = -ln x <= 0, one integral over every real u, folded about the
kernel's peak into one half-line (``quadrature._folded_roots``), and
``_summed`` judges a line's pieces and a delta check's window too.

``rational_values`` evaluates a rational form at an array of z; it is the
one path from contour nodes to transform values.  A numeric form is
evaluated one z at a time, by ``eval_transform`` or ``transform_estimate``.
Open-line inverses of numeric forms evaluate no transform values:
``_line_integral`` integrates the source against the Dirichlet kernel, by
the identity that the ``contours`` docstring states.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoClosedForm, NoStrip, OutOfDomain, ParseError, PoleHit
from .functions import (
    DomainHint,
    FunctionKind,
    FunctionSpec,
    Strip,
    _term_sum,
    _terms,
    evaluate,
    format_spec_string,
    growth_bounds,
    parse_spec_string,
)
from .quadrature import (
    _TAIL_GROWTH,
    DEFAULT_QUADRATURE,
    Estimate,
    QuadratureSpec,
    _abs,
    _Dirichlet,
    _folded_roots,
    _halfline,
    _peak_roots,
    _result,
    _trees,
    _within,
)

# poles closer than this are "the same point" for evaluation purposes
POLE_HIT_TOL = 1e-12
# exp(s) overflows for real s above this
_EXP_LIMIT = math.log(sys.float_info.max)


class TransformKind(enum.Enum):
    LAPLACE = "laplace"
    MOMENT = "moment"
    MELLIN = "mellin"


class InverseKind(enum.Enum):
    """Inversion kernel: exp(x*z) for Laplace, y**(-z) for moment/Mellin."""

    LAPLACE_KERNEL = "laplace"
    MELLIN_KERNEL = "mellin"


class TransformForm(enum.Enum):
    RATIONAL = "rational"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class TransformExpr:
    """A transform in the complex z-plane.

    Rational: value is sum(res/(z - pole)); poles and residues finite,
    poles pairwise distinct.
    Numeric: value computed by direct quadrature of ``source``.

    ``form`` is derived, never passed: poles make a rational form, a
    source and a kind a numeric one, and both at once are a ValueError.
    ``validity`` is derived, never passed: where the defining integral
    converges (a half-plane is stored as a strip with c2 = +inf).  For a
    rational form it is the half-plane right of the rightmost pole, though
    the form evaluates anywhere except at its poles.

    ``conjugate_symmetric`` is derived too: whether transform(conj z) =
    conj transform(z), so that inverses at real arguments are real.  It
    plays no part in equality, hashing, repr or JSON.
    """

    form: TransformForm = field(init=False)
    poles: tuple = ()
    source: FunctionSpec | None = None
    kind: TransformKind | None = None
    validity: Strip = field(init=False)
    conjugate_symmetric: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        numeric = self.source is not None or self.kind is not None
        if numeric and self.poles:
            raise ValueError("a transform takes poles or a source spec and kind, not both")
        form = TransformForm.NUMERIC if numeric else TransformForm.RATIONAL
        object.__setattr__(self, "form", form)
        if form is TransformForm.RATIONAL:
            if not self.poles:
                raise ValueError("rational form needs at least one pole")
            poles = tuple((complex(p), complex(r)) for p, r in self.poles)
            if not all(cmath.isfinite(p) and cmath.isfinite(r) for p, r in poles):
                raise ValueError("poles and residues must be finite")
            for i, (p, _) in enumerate(poles):
                for q, _ in poles[i + 1:]:
                    # math.hypot gives inf where abs(p - q) raises OverflowError
                    if math.hypot(p.real - q.real, p.imag - q.imag) < POLE_HIT_TOL:
                        raise ValueError(f"duplicate pole at {p}")
            object.__setattr__(self, "poles", poles)
            validity = Strip(max(p.real for p, _ in poles), math.inf)
            symmetric = _closed_under_conjugation(poles)
        else:
            if self.source is None or self.kind is None:
                raise ValueError("numeric form needs a source spec and kind")
            validity = _domain(self.source, self.kind)
            # numeric sources are real-valued catalog functions
            symmetric = True
        object.__setattr__(self, "validity", validity)
        object.__setattr__(self, "conjugate_symmetric", symmetric)

    # -- constructors --------------------------------------------------
    @classmethod
    def rational(cls, poles) -> "TransformExpr":
        return cls(poles=tuple(poles))

    @classmethod
    def numeric(cls, spec: FunctionSpec, kind: TransformKind) -> "TransformExpr":
        return cls(source=spec, kind=kind)

    @classmethod
    def gamma(cls) -> "TransformExpr":
        """Gamma(z), the Mellin transform of exp(-x), valid for Re z > 0."""
        return cls.numeric(FunctionSpec.exp_minus_x(), TransformKind.MELLIN)

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        """The CLI's text forms: poles as the --poles list [[re, im,
        res_re, res_im], ...], a numeric source as its --func spec string."""
        if self.form is TransformForm.RATIONAL:
            return {"form": "rational",
                    "poles": [[p.real, p.imag, r.real, r.imag] for p, r in self.poles]}
        return {"form": "numeric", "source": format_spec_string(self.source),
                "kind": self.kind.value}

    @classmethod
    def from_json(cls, doc: dict) -> "TransformExpr":
        """Inverse of to_json, and the one reader of a pole list: an entry
        whose first four items float() cannot read is a ParseError."""
        form = doc["form"]
        if form == "rational":
            try:
                poles = [(complex(float(e[0]), float(e[1])),
                          complex(float(e[2]), float(e[3]))) for e in doc["poles"]]
            except (ValueError, TypeError, LookupError, OverflowError):
                raise ParseError("poles must be [[re, im, res_re, res_im], ...]") from None
            return cls.rational(poles)
        if form == "numeric":
            return cls.numeric(parse_spec_string(doc["source"]), TransformKind(doc["kind"]))
        raise ValueError(f"unknown transform form {form!r}")


def _closed_under_conjugation(poles) -> bool:
    """True when every (pole, residue) has its conjugate within POLE_HIT_TOL;
    math.hypot gives inf where abs(p2 - conj p) raises OverflowError."""
    return all(
        any(
            math.hypot(p2.real - p.real, p2.imag + p.imag) < POLE_HIT_TOL
            and math.hypot(r2.real - r.real, r2.imag + r.imag) < POLE_HIT_TOL
            for p2, r2 in poles
        )
        for p, r in poles
    )


# ---------------------------------------------------------------------------
# direct numeric transforms
# ---------------------------------------------------------------------------

def _native(spec: FunctionSpec, moment: bool) -> bool:
    """Whether spec lives on (0, 1] for the moment, on [0, inf) for Laplace."""
    return spec.domain_hint is (
        DomainHint.UNIT_INTERVAL if moment else DomainHint.HALF_LINE
    )


def _domain(spec: FunctionSpec, kind: TransformKind) -> Strip:
    """Where the defining integral converges, from the growth metadata.

    The catalog metadata carries the index native to the function's own
    domain (exponential growth for half-line entries, power-like growth for
    unit-interval ones).  Crossing over, both families are bounded: powers
    grow subexponentially on the half line and exponentials are bounded on
    (0, 1], so the index for the foreign transform is 0.
    """
    if kind is TransformKind.MELLIN:
        return holomorphy_strip(spec)
    native = _native(spec, kind is TransformKind.MOMENT)
    return Strip(growth_bounds(spec).right_index if native else 0.0, math.inf)


def _kernel_integrand(spec: FunctionSpec, moment: bool, z):
    """exp(-t*z) times the source on t in [0, inf), read at x = t for
    Laplace and at y = exp(-t) for the moment, whose y**(z-1) F(y) dy on
    (0, 1] this substitutes.

    Each term is one exponential times weight(u)**2.  A native source
    folds the kernel into exp(-(z+g)*t): exp(-t*z) and exp(-g*t) apart
    overflow or underflow for Re z near -g, while their product decays.  A
    half-line source read at y is the off-axis form at exponent -z*t.
    Only a unit-interval source read at t, whose base is the power t**g,
    is evaluated on its own.
    """
    if not _native(spec, moment):
        if not moment:
            return lambda t: np.exp(-t * z) * evaluate(spec, t)
        off = _off_axis(spec)
        return lambda t: off(-z * t, np.exp(-t))
    terms = [(z + g, w) for g, w in _terms(spec)[1]]
    weighted = moment and any(w for _, w in terms)
    return lambda t: _term_sum(terms, lambda a: np.exp(-a * t),
                               np.exp(-t) if weighted else t)


def _off_axis(spec: FunctionSpec):
    """(zl, x) -> sum of exp(zl - g*x) * weight(x)**2 over the terms of a
    half-line source: the source read at x times the kernel exp(zl) in one
    exponential, since the kernel alone overflows for large Re z."""
    terms = list(_terms(spec)[1])
    return lambda zl, x: _term_sum(terms, lambda g: np.exp(zl - g * x), x)


def _pieces(spec: FunctionSpec, kind: TransformKind, z, q: QuadratureSpec,
            T: float | None = None, s: float = 0.0) -> list:
    """The half-line Estimates of the direct transform at z, each integrand
    times the Dirichlet kernel sin(T*(s-u))/(pi*(s-u)) when T is given;
    OutOfDomain at a z that is not finite or is outside the strip.

    Without a kernel the transform is one tail from 0, one Estimate.  A
    Mellin transform's x >= 1 side is the off-axis form at exponent
    (z-1)*ln x, read in x, since a source smooth in x takes fewer panels
    in x than in u = -ln x.  Its roots [1, 2], [2, 4]... are those of
    the u >= 0 side, [0, 1], [1, 3]..., shifted by 1, so one tail in v
    takes both (_halfline's sides): each pass reads the u-side at u = v
    and the x-side at x = 1 + v in one integrand call, a panel splits
    wherever either side fails tolerance on its own, and the stop rule
    reads their sum.  Its value passing the largest float is a
    DomainError, as a line's is in _summed.

    With a kernel, the engine applies it (quadrature._Dirichlet) to the
    roots of _peak_roots: a peak root about u = s, roots doubling away
    from it on both sides, and a tail beyond them, so that panels wide
    against the kernel's period take the Filon rule.  A Mellin line's
    integrand exp(-z*u) f(exp(-u)) holds for every real u, its x >= 1
    side at u <= 0 with the Jacobian x, and the kernel is even about its
    peak, so the line is one half-line in v = |u - s|/r folded there: the
    engine reads the integrand at u = s +/- r*v in one call and sums the
    two sides, against the kernel _Dirichlet(T*r, 0) on the roots of
    quadrature._folded_roots.

    A Mellin integrand rises until its hump and the tail's stop rule
    reads on past it: x**(z-1) exp(-g_min*x) in x peaks at
    x = (Re z - 1)/g_min, and x**z exp(-g_min*x) in u one factor x higher,
    at x = Re z/g_min, where a line's kernel multiplies it by at most
    min(T, 1/|s - u|)/pi.  One whose peak passes the largest float is a
    DomainError.  The terms x**z exp(-g*x) peak at u = ln(g/Re z): a
    line's tail reads on until it has passed those humps on both sides of
    s (_halfline's past), and a direct transform's tail reads on from 0
    to the last of them in u, however little its first panels hold, as
    with g = 1000 at z = 0.5, whose mass lies near u = 7.6; past
    u = -ln(largest float), x = exp(-u) is inf, where the source has
    decayed to 0 but a sin or cos weight of x is nan, so a weighted
    source's integrand is 0 there.
    """
    if not cmath.isfinite(z):
        raise OutOfDomain(f"{kind.value} transform needs a finite z, got {z!r}")
    strip = _domain(spec, kind)
    if not strip.contains(z.real):
        bounds = (f"Re z > {strip.c1:g}" if strip.c2 == math.inf
                  else f"{strip.c1:g} < Re z < {strip.c2:g}")
        raise OutOfDomain(f"{kind.value} transform of {spec.kind.value} needs {bounds}")
    mellin = kind is TransformKind.MELLIN
    if mellin:
        power = z.real if T is not None else z.real - 1.0
        hump = power / -growth_bounds(spec).right_index
        # x**power exp(-g_min*x) peaks at the hump, at exp(power (ln hump - 1)),
        # times the kernel there where it exceeds 1
        peak = power * (math.log(hump) - 1.0) if hump > 1.0 else 0.0
        if T is not None:
            # the hump lies at u = -ln(hump), |s + ln(hump)| from the kernel's peak
            d = abs(s + math.log(hump))
            kernel = T / math.pi if T * d <= 1.0 else 1.0 / (math.pi * d)
            if kernel > 1.0:
                peak += math.log(kernel)
        if peak > _EXP_LIMIT:
            raise DomainError(
                f"mellin transform of {spec.kind.value} at Re z = {z.real:g} passes the "
                f"largest float: its integrand peaks near exp({peak:.1f}) at x = {hump:g}")
        # in u = -ln x, the terms x**z exp(-g*x) peak at u = ln(g/Re z)
        last_hump = math.log(max(spec.params or (1.0,)) / z.real)
    if T is None and mellin:
        off, zm = _off_axis(spec), z - 1.0
        # t[0] is u = v, t[1] is x = 1 + v: the unit part and the x >= 1 side
        both = lambda t: off(np.array([-z * t[0], zm * np.log(t[1])]),
                             np.array([np.exp(-t[0]), t[1]]))
        est = _halfline(both, 0.0, q, past=last_hump, sides=(0.0, 1.0))[0]
        # raises where the finite panels sum past the largest float
        _size(est.value)
        return [est]
    inner = _kernel_integrand(spec, kind is not TransformKind.LAPLACE, z)
    if T is None:
        return _halfline(inner, 0.0, q)
    if not mellin:
        start, width, heads = _peak_roots(T, s)
        return _halfline(inner, start, q, heads, _Dirichlet(T, s), width)
    if any(w is not None for _, w in _terms(spec)[1]):
        read = inner
        inner = lambda u: np.where(u > -_EXP_LIMIT, read(u), 0.0)
    r, start, width, heads = _folded_roots(T, s)
    # the humps lie between u = -ln(hump) and u = last_hump
    past = max(last_hump - s, s + math.log(hump)) / r
    return _halfline(inner, start, q, heads, _Dirichlet(T * r, 0.0), width, past, (s, r))


def _scaled(x, log_scale: float):
    """x * exp(log_scale), through exp(log_scale + ln|x|) where the factor
    is below the smallest normal float, so that a large x keeps its digits."""
    scale, size = math.exp(log_scale), _abs(x)
    if scale >= sys.float_info.min or not 0.0 < size < math.inf:
        return scale * x
    return math.exp(log_scale + math.log(size)) * (x / size)


def _size(value) -> float:
    """_abs(value); a DomainError where it passes the largest float, as
    where finite panels or pieces sum to an inf, or inf - inf = nan, part."""
    size = _abs(value)
    if not size < math.inf:
        raise DomainError(f"transform value {value!r} passes the largest float")
    return size


def _summed(pieces: list, q: QuadratureSpec, log_scale: float = 0.0) -> Estimate:
    """_scaled(sum of pieces, log_scale), judged on the summed error: each
    piece alone is measured against its own value, which the others may
    cancel.  A piece that did not converge, as one its budget stopped,
    passes only where its own error meets tolerance on the sum before the
    scale, which on a numeric line may shrink any error below abs_tol.  A
    value whose modulus passes the largest float is a DomainError.
    """
    total = sum(p.value for p in pieces)
    value = _scaled(total, log_scale)
    err = _scaled(sum(p.err_est for p in pieces), log_scale)
    size = _size(value)
    return Estimate(value, err, sum(p.panels_used for p in pieces),
                    all(p.converged or _within(q, p.err_est, _abs(total)) for p in pieces)
                    and _within(q, err, size))


def _line_integral(t: TransformExpr, c: float, T: float, s: float,
                   q: QuadratureSpec | None = None) -> Estimate:
    """(1/2pi i) * integral of exp(s*z) * t(z) over [c - iT, c + iT] for a
    numeric t: the Dirichlet integral of the ``contours`` docstring, the
    direct transform's integrand at real z = c against the kernel
    sin(T*(s-u))/(pi*(s-u)), with a root about its peak u = s, times
    exp(c*s).  A Mellin line is one integral over every real u, its
    x >= 1 side at u <= 0, folded about the peak into one tail and its
    heads, with no split at u = 0.
    """
    q = q or DEFAULT_QUADRATURE
    return _summed(_pieces(t.source, t.kind, c, q, T, s), q, c * s)


def _window_integral(g: FunctionSpec, T: float, s: float, end: float,
                     q: QuadratureSpec | None = None) -> Estimate:
    """g, as the Laplace integrand at z = 0, against _Dirichlet(T, s) over
    [0, end] on the roots of _peak_roots, its tail laid out to end and all
    clipped there: one engine pass, judged as a line is (_summed)."""
    q = q or DEFAULT_QUADRATURE
    lo, width, roots = _peak_roots(T, s)
    while lo < end:
        roots.append((lo, lo + width))
        lo, width = lo + width, width * _TAIL_GROWTH
    roots = [(a, min(b, end)) for a, b in roots if a < end]
    with np.errstate(all="ignore"):
        entries = _trees(_kernel_integrand(g, False, 0.0), roots, q, _Dirichlet(T, s))
    return _summed([Estimate(*_result(entry)) for entry in entries], q)


def transform_estimate(
    spec: FunctionSpec, kind: TransformKind, z: complex, q: QuadratureSpec | None = None
) -> Estimate:
    """Direct transform of a catalog function at one z, with error estimate.

    Validity is checked against the growth metadata (never by probing for
    divergence at runtime).  Unit-interval integrals run through the
    y = exp(-t) substitution, so the endpoint singularity never meets a
    quadrature node.  Every transform is one half-line integral: the
    Mellin transform's plain part over [1, inf) rides the panels of its
    unit part, each part judged on its own, and the panel budget of each
    root covers both.
    """
    q = q or DEFAULT_QUADRATURE
    return _pieces(spec, kind, complex(z), q)[0]


def laplace_transform(spec, z, q=None) -> complex:
    """int_0^inf exp(-x*z) f(x) dx for Re z beyond the growth index."""
    return transform_estimate(spec, TransformKind.LAPLACE, z, q).value


def mellin_moment(spec, z, q=None) -> complex:
    """int_0^1 y**(z-1) F(y) dy for Re z beyond the power-growth index."""
    return transform_estimate(spec, TransformKind.MOMENT, z, q).value


def mellin_transform(spec, z, q=None) -> complex:
    """int_0^inf x**(z-1) f(x) dx, split at x = 1 into the singular unit
    part (handled by substitution) and a plain half-line part, both read
    on the same panels of one half-line integral."""
    return transform_estimate(spec, TransformKind.MELLIN, z, q).value


def holomorphy_strip(spec: FunctionSpec) -> Strip:
    """Strip where the Mellin-transform integral converges.

    Exponentially decaying half-line entries (right_index < 0) give
    (0, +inf); others, and power-like entries, have no strip at all (the
    transform diverges for every z).
    """
    if spec.domain_hint is DomainHint.HALF_LINE and growth_bounds(spec).right_index < 0:
        return Strip(0.0, math.inf)
    raise NoStrip(f"{format_spec_string(spec)} has no holomorphy strip")


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------

def _merge_poles(terms):
    # coincident locations (e.g. mixedexp with g1 == g2) combine their
    # residues at the one with the larger real part, the first on a tie,
    # so that the validity edge is the integral's own -min(g) in either
    # parameter order; vanishing residues drop out
    merged: list = []
    for p, r in terms:
        for i, (p0, r0) in enumerate(merged):
            if abs(p - p0) < POLE_HIT_TOL:
                merged[i] = (p if p.real > p0.real else p0, r0 + r)
                break
        else:
            merged.append((p, r))
    return [(p, r) for p, r in merged if abs(r) > 0.0]


# Laplace transform of exp(-g*t) * weight(t)**2 as (Im p, residue) pairs
# at Re p = -g, per weight.  sin(t)**2 = (1 - cos 2t)/2 and cos(t)**2 =
# (1 + cos 2t)/2: the cosine line splits into a conjugate pole pair at
# -g +/- 2i carrying -1/4 (sin) or +1/4 (cos), with 1/2 left on the real
# pole.  Frozen after cross-checking against direct quadrature at random z.
_WEIGHT_POLES = {
    None: ((0.0, 1.0),),
    np.sin: ((0.0, 0.5), (2.0, -0.25), (-2.0, -0.25)),
    np.cos: ((0.0, 0.5), (2.0, 0.25), (-2.0, 0.25)),
}


def analytic_transform(spec: FunctionSpec, kind: TransformKind) -> TransformExpr:
    """Exact transform for the cataloged (spec, kind) pairs.

    Each term exp(-(z+g)*t) * weight(u)**2 of ``_kernel_integrand`` gives
    the poles of ``_WEIGHT_POLES`` where u = t or the weight is 1; sin or
    cos of u = exp(-t) has none.  The Mellin transform of exp(-x) is Gamma.
    """
    moment = kind is TransformKind.MOMENT
    terms = tuple(_terms(spec)[1])
    if (kind is not TransformKind.MELLIN and _native(spec, moment)
            and not (moment and any(w for _, w in terms))):
        return TransformExpr.rational(_merge_poles([
            (complex(-g, im), complex(r))
            for g, w in terms for im, r in _WEIGHT_POLES[w]
        ]))
    if spec.kind is FunctionKind.EXP_MINUS_X and kind is TransformKind.MELLIN:
        return TransformExpr.gamma()
    raise NoClosedForm(f"no closed form for ({spec.kind.value}, {kind.value})")


def transform_for(spec: FunctionSpec, kind: InverseKind) -> TransformExpr:
    """The transform of a catalog function that the kernel ``kind`` inverts:
    Laplace for exp(x*z), the moment for y**(-z).

    The closed form when one is cataloged, else the numeric form, which
    only open lines can carry.
    """
    tkind = (TransformKind.LAPLACE if kind is InverseKind.LAPLACE_KERNEL
             else TransformKind.MOMENT)
    try:
        return analytic_transform(spec, tkind)
    except NoClosedForm:
        return TransformExpr.numeric(spec, tkind)


# ---------------------------------------------------------------------------
# uniform evaluation
# ---------------------------------------------------------------------------

def rational_values(t: TransformExpr, zs: np.ndarray) -> np.ndarray:
    """Vectorized sum of res/(z - pole) over an array of z, in pole order;
    raises PoleHit, naming the first such pole, when any point sits within
    POLE_HIT_TOL of a pole.  Transient memory is a few arrays the size of
    zs, whatever the number of poles."""
    zs = np.asarray(zs, dtype=complex)
    out = np.zeros(zs.shape, dtype=complex)
    for p, r in t.poles:
        dist = zs - p
        if np.abs(dist).min(initial=math.inf) < POLE_HIT_TOL:
            raise PoleHit(f"evaluation point collides with pole at {p}")
        out += r / dist
    return out


def eval_transform(t: TransformExpr, z: complex, q: QuadratureSpec | None = None) -> complex:
    """Value of any TransformExpr at one complex point; OutOfDomain at a z
    that is not finite, DomainError when the value is past the float64
    range."""
    w = complex(z)
    if t.form is TransformForm.RATIONAL:
        if not cmath.isfinite(w):
            raise OutOfDomain(f"rational transform needs a finite z, got {w!r}")
        value = complex(rational_values(t, np.array([w]))[0])
    else:
        value = transform_estimate(t.source, t.kind, w, q).value
    if not cmath.isfinite(value):
        raise DomainError(f"the {t.form.value} transform overflows at z = {z}")
    return value
