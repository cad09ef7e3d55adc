"""Direct transforms and their closed-form catalog.

Three direct transforms are provided, all as integrals over the real axis:

    laplace    L[f](z)  = int_0^inf exp(-x*z) f(x) dx      (Re z beyond growth)
    moment     M[F](z)  = int_0^1  y**(z-1) F(y) dy         (same half-plane)
    mellin     MT[f](z) = int_0^inf x**(z-1) f(x) dx        (holomorphy strip)

A TransformExpr is the complex-plane object the inverses consume: either a
finite pole/residue list (rational form, valid on all of C by analytic
continuation), a numeric closure backed by direct quadrature, or the Gamma
function given by its defining integral.  Only rational forms can be
inverted on a closed rectangle; the Gamma function's poles march off to the
left, so it stays on open Bromwich lines.

``values`` evaluates any TransformExpr at an array of z.  For numeric and
Gamma forms it checks the whole array against the validity region, then
integrates blocks of z as the columns of one matrix integrand, so the
quadrature panels are shared by every z of a block.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoClosedForm, NoStrip, OutOfDomain, PoleHit
from .functions import (
    DomainHint,
    FunctionKind,
    FunctionSpec,
    Strip,
    evaluate,
    growth_bounds,
)
from .quadrature import (
    Estimate,
    QuadratureSpec,
    integrate_halfline,
)

# poles closer than this are "the same point" for evaluation purposes
POLE_HIT_TOL = 1e-12
# z columns per batched integral: caps the (nodes, columns) working set
_Z_BLOCK = 128


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
    GAMMA = "gamma"


@dataclass(frozen=True)
class TransformExpr:
    """A transform in the complex z-plane.

    Rational: value is sum(res/(z - pole)); poles pairwise distinct.
    Numeric: value computed by direct quadrature of ``source``.
    Gamma: the Euler integral, evaluated for Re z > 0 as the numeric
    Mellin transform of exp(-x).

    ``validity`` is where the defining integral converges (a half-plane is
    stored as a strip with c2 = +inf); rational forms evaluate anywhere
    except at their poles.
    """

    form: TransformForm
    poles: tuple = ()
    source: FunctionSpec | None = None
    kind: TransformKind | None = None
    validity: Strip | None = None

    def __post_init__(self):
        if self.form is TransformForm.RATIONAL:
            if not self.poles:
                raise ValueError("rational form needs at least one pole")
            pts = [complex(p) for p, _ in self.poles]
            object.__setattr__(
                self,
                "poles",
                tuple((complex(p), complex(r)) for p, r in self.poles),
            )
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if abs(pts[i] - pts[j]) < POLE_HIT_TOL:
                        raise ValueError(f"duplicate pole at {pts[i]}")
        elif self.form is TransformForm.NUMERIC:
            if self.source is None or self.kind is None:
                raise ValueError("numeric form needs a source spec and kind")

    # -- constructors --------------------------------------------------
    @classmethod
    def rational(cls, poles) -> "TransformExpr":
        poles = tuple((complex(p), complex(r)) for p, r in poles)
        right = max(p.real for p, _ in poles)
        return cls(TransformForm.RATIONAL, poles=poles,
                   validity=Strip(right, math.inf))

    @classmethod
    def numeric(cls, spec: FunctionSpec, kind: TransformKind) -> "TransformExpr":
        return cls(TransformForm.NUMERIC, source=spec, kind=kind,
                   validity=_domain(spec, kind))

    @classmethod
    def gamma(cls) -> "TransformExpr":
        return cls(TransformForm.GAMMA, validity=Strip(0.0, math.inf))

    def is_conjugate_symmetric(self, tol: float = POLE_HIT_TOL) -> bool:
        """True when the pole/residue set is closed under conjugation, so
        the inverse is real on the real axis."""
        if self.form is not TransformForm.RATIONAL:
            # numeric sources are real-valued catalog functions; the Gamma
            # integral is real on the real axis
            return True
        for p, r in self.poles:
            if not any(
                abs(p2 - p.conjugate()) < tol and abs(r2 - r.conjugate()) < tol
                for p2, r2 in self.poles
            ):
                return False
        return True

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        if self.form is TransformForm.RATIONAL:
            return {
                "form": "rational",
                "poles": [
                    {"re": p.real, "im": p.imag, "res_re": r.real, "res_im": r.imag}
                    for p, r in self.poles
                ],
            }
        if self.form is TransformForm.NUMERIC:
            return {
                "form": "numeric",
                "source": self.source.to_json(),
                "kind": self.kind.value,
            }
        return {"form": "gamma"}

    @classmethod
    def from_json(cls, doc: dict) -> "TransformExpr":
        form = doc["form"]
        if form == "rational":
            poles = [
                (complex(e["re"], e["im"]), complex(e["res_re"], e["res_im"]))
                for e in doc["poles"]
            ]
            return cls.rational(poles)
        if form == "numeric":
            return cls.numeric(
                FunctionSpec.from_json(doc["source"]), TransformKind(doc["kind"])
            )
        if form == "gamma":
            return cls.gamma()
        raise ValueError(f"unknown transform form {form!r}")


# ---------------------------------------------------------------------------
# direct numeric transforms
# ---------------------------------------------------------------------------

def _growth_index(spec: FunctionSpec, kind: TransformKind) -> float:
    """Critical index governing the given transform of this function.

    The catalog metadata carries the index native to the function's own
    domain (exponential growth for half-line entries, power-like growth for
    unit-interval ones).  Crossing over, both families are bounded: powers
    grow subexponentially on the half line and exponentials are bounded on
    (0, 1], so the index for the foreign transform is 0.
    """
    native = spec.domain_hint is (
        DomainHint.UNIT_INTERVAL if kind is TransformKind.MOMENT
        else DomainHint.HALF_LINE
    )
    return growth_bounds(spec).right_index if native else 0.0


def _domain(spec: FunctionSpec, kind: TransformKind) -> Strip:
    """Where the defining integral converges, from the growth metadata."""
    if kind is TransformKind.MELLIN:
        return holomorphy_strip(spec)
    return Strip(_growth_index(spec, kind), math.inf)


def _check_domain(spec: FunctionSpec, kind: TransformKind, z) -> None:
    """Raise OutOfDomain unless z (one value or an array) lies inside the
    domain of the direct transform."""
    strip = _domain(spec, kind)
    if isinstance(z, np.ndarray):
        re = z.real
        inside = bool(np.all((re > strip.c1) & (re < strip.c2)))
    else:
        inside = strip.contains(z.real)
    if not inside:
        bounds = (f"Re z > {strip.c1:g}" if strip.c2 == math.inf
                  else f"{strip.c1:g} < Re z < {strip.c2:g}")
        raise OutOfDomain(f"{kind.value} transform of {spec.kind.value} needs {bounds}")


def _column(z):
    """Shape quadrature nodes to broadcast against z: unchanged for one z,
    a (nodes, 1) column against an array of z, so that the integrand
    returns a (nodes, len(z)) matrix."""
    if isinstance(z, np.ndarray):
        return lambda t: t[:, None]
    return lambda t: t


def _laplace_integrand(spec: FunctionSpec, z):
    # fold the kernel into the function's own exponent wherever possible:
    # exp(-t*z) and exp(-g*t) evaluated separately overflow/underflow for
    # Re z near -g even though their product decays
    col = _column(z)
    if spec.kind in (FunctionKind.EXP, FunctionKind.EXP_MINUS_X):
        g = spec.params[0] if spec.params else 1.0
        return lambda t: np.exp(-(z + g) * col(t))
    if spec.kind is FunctionKind.MIXED_EXP:
        g1, g2 = spec.params

        def mixed(t):
            t = col(t)
            return (
                np.exp(-(z + g1) * t) * np.sin(t) ** 2
                + np.exp(-(z + g2) * t) * np.cos(t) ** 2
            )

        return mixed
    return lambda t: np.exp(-col(t) * z) * evaluate(spec, col(t))


def _moment_integrand(spec: FunctionSpec, z):
    # the substituted y = exp(-t) form of y**(z-1) * F(y) on [0, inf),
    # again with fused exponents
    col = _column(z)
    if spec.kind is FunctionKind.POWER:
        g = spec.params[0]
        return lambda t: np.exp(-(z + g) * col(t))
    if spec.kind is FunctionKind.MIXED_POWER:
        g1, g2 = spec.params

        def mixed(t):
            t = col(t)
            u = np.exp(-t)
            return (
                np.exp(-(z + g1) * t) * np.sin(u) ** 2
                + np.exp(-(z + g2) * t) * np.cos(u) ** 2
            )

        return mixed
    return lambda t: np.exp(-col(t) * z) * evaluate(spec, np.exp(-col(t)))


def _mellin_tail_integrand(spec: FunctionSpec, z):
    # x**(z-1) * f(x) on [1, inf)
    col = _column(z)

    def tail(x):
        x = col(x)
        return np.exp((z - 1.0) * np.log(x)) * evaluate(spec, x)

    return tail


def _estimate(spec: FunctionSpec, kind: TransformKind, z, q: QuadratureSpec) -> Estimate:
    """Direct transform at one z, or at a 1-D array of z as the columns of
    one matrix integrand; the caller has checked the domain."""
    if kind is TransformKind.LAPLACE:
        return integrate_halfline(_laplace_integrand(spec, z), 0.0, q)
    unit = integrate_halfline(_moment_integrand(spec, z), 0.0, q)
    if kind is TransformKind.MOMENT:
        return unit
    tail = integrate_halfline(_mellin_tail_integrand(spec, z), 1.0, q)
    return Estimate(
        unit.value + tail.value,
        unit.err_est + tail.err_est,
        unit.panels_used + tail.panels_used,
        unit.converged and tail.converged,
    )


def transform_estimate(
    spec: FunctionSpec, kind: TransformKind, z: complex, q: QuadratureSpec | None = None
) -> Estimate:
    """Direct transform of a catalog function at one z, with error estimate.

    Validity is checked against the growth metadata (never by probing for
    divergence at runtime).  Unit-interval integrals run through the
    y = exp(-t) substitution, so the endpoint singularity never meets a
    quadrature node; the Mellin transform adds the plain half-line part
    over [1, inf).
    """
    z = complex(z)
    _check_domain(spec, kind, z)
    return _estimate(spec, kind, z, q or QuadratureSpec())


def laplace_transform(spec, z, q=None) -> complex:
    """int_0^inf exp(-x*z) f(x) dx for Re z beyond the growth index."""
    return transform_estimate(spec, TransformKind.LAPLACE, z, q).value


def mellin_moment(spec, z, q=None) -> complex:
    """int_0^1 y**(z-1) F(y) dy for Re z beyond the power-growth index."""
    return transform_estimate(spec, TransformKind.MOMENT, z, q).value


def mellin_transform(spec, z, q=None) -> complex:
    """int_0^inf x**(z-1) f(x) dx, split at x = 1 into the singular unit
    part (handled by substitution) plus a plain half-line part."""
    return transform_estimate(spec, TransformKind.MELLIN, z, q).value


def holomorphy_strip(spec: FunctionSpec) -> Strip:
    """Strip where the Mellin-transform integral converges.

    Exponentially decaying entries give (0, +inf); power-like entries have
    no strip at all (the transform diverges for every z).
    """
    if spec.kind is FunctionKind.EXP_MINUS_X:
        return Strip(0.0, math.inf)
    if spec.kind is FunctionKind.EXP and spec.params[0] > 0:
        return Strip(0.0, math.inf)
    if spec.kind is FunctionKind.MIXED_EXP and min(spec.params) > 0:
        return Strip(0.0, math.inf)
    raise NoStrip(f"{spec.kind.value}{spec.params} has no holomorphy strip")


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------

def _merge_poles(terms):
    # coincident locations (e.g. mixedexp with g1 == g2) combine their
    # residues; vanishing residues drop out
    merged: list = []
    for p, r in terms:
        for i, (p0, r0) in enumerate(merged):
            if abs(p - p0) < POLE_HIT_TOL:
                merged[i] = (p0, r0 + r)
                break
        else:
            merged.append((p, r))
    return [(p, r) for p, r in merged if abs(r) > 0.0]


def analytic_transform(spec: FunctionSpec, kind: TransformKind) -> TransformExpr:
    """Exact transform for the cataloged (spec, kind) pairs.

    The mixedexp residues come from sin(x)**2 = (1 - cos 2x)/2 and
    cos(x)**2 = (1 + cos 2x)/2: each cosine line splits into a conjugate
    pole pair at -g +/- 2i carrying -1/4 (sin branch) or +1/4 (cos branch),
    with 1/2 left on the real pole.  Frozen after cross-checking against
    direct quadrature at random z.
    """
    if spec.kind is FunctionKind.EXP and kind is TransformKind.LAPLACE:
        return TransformExpr.rational([(-spec.params[0], 1.0)])
    if spec.kind is FunctionKind.POWER and kind is TransformKind.MOMENT:
        return TransformExpr.rational([(-spec.params[0], 1.0)])
    if spec.kind is FunctionKind.EXP_MINUS_X and kind is TransformKind.LAPLACE:
        return TransformExpr.rational([(-1.0, 1.0)])
    if spec.kind is FunctionKind.MIXED_EXP and kind is TransformKind.LAPLACE:
        g1, g2 = spec.params
        terms = [
            (complex(-g1, 0.0), complex(0.5)),
            (complex(-g1, 2.0), complex(-0.25)),
            (complex(-g1, -2.0), complex(-0.25)),
            (complex(-g2, 0.0), complex(0.5)),
            (complex(-g2, 2.0), complex(0.25)),
            (complex(-g2, -2.0), complex(0.25)),
        ]
        return TransformExpr.rational(_merge_poles(terms))
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
    """Vectorized sum of res/(z - pole) over an array of z; raises PoleHit
    when any point sits within POLE_HIT_TOL of a pole."""
    zs = np.asarray(zs, dtype=complex)
    out = np.zeros(zs.shape, dtype=complex)
    for p, r in t.poles:
        dist = zs - p
        if np.any(np.abs(dist) < POLE_HIT_TOL):
            raise PoleHit(f"evaluation point collides with pole at {p}")
        out += r / dist
    return out


def values(t: TransformExpr, zs, q: QuadratureSpec | None = None) -> np.ndarray:
    """Values of any TransformExpr at an array of z, in the shape of zs.

    Rational forms go through rational_values.  Numeric and Gamma forms
    raise OutOfDomain unless every z lies in the validity region, then
    integrate blocks of at most 128 values of z as the columns of one
    matrix integrand, so each block shares its quadrature panels.
    """
    zs = np.asarray(zs, dtype=complex)
    if t.form is TransformForm.RATIONAL:
        return rational_values(t, zs)
    if t.form is TransformForm.GAMMA:
        spec, kind = FunctionSpec.exp_minus_x(), TransformKind.MELLIN
    else:
        spec, kind = t.source, t.kind
    _check_domain(spec, kind, zs)
    q = q or QuadratureSpec()
    flat = zs.ravel()
    if not flat.size:
        return np.zeros(zs.shape, dtype=complex)
    blocks = np.array_split(flat, -(-flat.size // _Z_BLOCK))
    parts = [_estimate(spec, kind, block, q).value for block in blocks]
    return np.concatenate(parts).reshape(zs.shape)


def eval_transform(t: TransformExpr, z: complex, q: QuadratureSpec | None = None) -> complex:
    """Value of any TransformExpr at one complex point."""
    return complex(values(t, np.array([complex(z)]), q)[0])
