"""Closed-form residue-calculus inverter for rational transforms.

This is the ground truth the contour machinery is tested against: a closed
counterclockwise contour around all poles picks up exactly

    sum_k r_k * exp(p_k * x)     (Laplace kernel)
    sum_k r_k * y**(-p_k)        (moment/Mellin kernel, y > 0)

with y**(-p) computed as exp(-p * ln y) on the real branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, NotRectangularizable
from .transforms import InverseKind, TransformExpr, TransformForm


def _kernel_scale(kind: InverseKind, arg: float) -> float:
    """s with kernel(z, arg) = exp(s*z): arg for exp(x*z), -ln(arg) for
    y**(-z)."""
    if kind is InverseKind.LAPLACE_KERNEL:
        return arg
    if arg <= 0.0:
        raise DomainError("moment kernel y**(-z) requires arg > 0")
    return -math.log(arg)


@dataclass(frozen=True)
class ResidueSum:
    """The residue-series representation of an inverse transform."""

    terms: tuple  # of (pole, residue)
    kernel: InverseKind

    @classmethod
    def from_transform(cls, t: TransformExpr, kernel: InverseKind) -> "ResidueSum":
        if t.form is not TransformForm.RATIONAL:
            raise NotRectangularizable("residue series requires a rational transform")
        return cls(tuple(t.poles), kernel)

    def eval(self, arg: float) -> complex:
        scale = _kernel_scale(self.kernel, arg)
        try:
            return sum(r * cmath.exp(p * scale) for p, r in self.terms)
        except OverflowError:
            raise DomainError(
                f"the residue series overflows at arg = {arg:g}"
            ) from None


def residue_inverse(t: TransformExpr, kind: InverseKind, arg: float):
    """Exact inverse of a rational transform at one point.

    Conjugate-symmetric inputs return the real part (the imaginary residue
    is asserted negligible); anything else returns the full complex value.
    """
    total = ResidueSum.from_transform(t, kind).eval(float(arg))
    if t.is_conjugate_symmetric():
        scale = max(1.0, abs(total))
        assert abs(total.imag) <= 1e-12 * scale, (
            f"imaginary leakage {total.imag:g} from a conjugate-symmetric input"
        )
        return total.real
    return total


def pole_box(t: TransformExpr):
    """(re_min, re_max, im_max) bounding box of the pole set; this is what
    sizes the rectangular contours."""
    if t.form is not TransformForm.RATIONAL:
        raise NotRectangularizable("pole box requires a rational transform")
    res = [p.real for p, _ in t.poles]
    ims = [abs(p.imag) for p, _ in t.poles]
    return min(res), max(res), max(ims)
