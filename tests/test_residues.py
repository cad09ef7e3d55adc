import math

import numpy as np
import pytest

from melaplace import (
    DomainError,
    FunctionSpec,
    InverseKind,
    NotRectangularizable,
    ResidueSum,
    TransformExpr,
    TransformKind,
    analytic_transform,
    evaluate,
    pole_box,
    residue_inverse,
)

LAP = InverseKind.LAPLACE_KERNEL
MEL = InverseKind.MELLIN_KERNEL


def test_single_pole_laplace_kernel():
    t = TransformExpr.rational([(-1.0, 1.0)])
    assert residue_inverse(t, LAP, -2.0) == pytest.approx(math.exp(2.0), rel=1e-14)


def test_single_pole_mellin_kernel_at_one():
    t = TransformExpr.rational([(-0.5, 1.0)])
    assert residue_inverse(t, MEL, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_mixed_poles_reproduce_the_source():
    t = analytic_transform(FunctionSpec.mixed_exp(1.0, 2.0), TransformKind.LAPLACE)
    x = 0.5
    expected = math.exp(-0.5) * math.sin(0.5) ** 2 + math.exp(-1.0) * math.cos(0.5) ** 2
    assert residue_inverse(t, LAP, x) == pytest.approx(expected, rel=1e-14)


def test_mellin_kernel_rejects_nonpositive_arg():
    t = TransformExpr.rational([(-0.5, 1.0)])
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            residue_inverse(t, MEL, bad)


def test_real_part_returned_for_symmetric_input():
    t = analytic_transform(FunctionSpec.mixed_exp(1.0, 2.0), TransformKind.LAPLACE)
    out = residue_inverse(t, LAP, 1.3)
    assert isinstance(out, float)


def test_complex_returned_for_lopsided_input():
    t = TransformExpr.rational([(complex(-1.0, 2.0), 1.0)])
    out = residue_inverse(t, LAP, 1.0)
    assert isinstance(out, complex) and abs(out.imag) > 0


@pytest.mark.parametrize(
    "poles,box",
    [
        ([(-1.0, 1.0)], (-1.0, -1.0, 0.0)),
        ([(-0.5, 1.0)], (-0.5, -0.5, 0.0)),
    ],
)
def test_pole_box_single(poles, box):
    assert pole_box(TransformExpr.rational(poles)) == box


def test_pole_box_mixed():
    t = analytic_transform(FunctionSpec.mixed_exp(1.0, 2.0), TransformKind.LAPLACE)
    assert pole_box(t) == (-2.0, -1.0, 2.0)


def test_overflowing_series_is_a_domain_error():
    t = TransformExpr.rational([(-1.0, 1.0)])
    assert residue_inverse(t, LAP, -709.0) == pytest.approx(math.exp(709.0), rel=1e-12)
    with pytest.raises(DomainError, match="overflows"):
        residue_inverse(t, LAP, -800.0)
    with pytest.raises(DomainError, match="overflows"):
        residue_inverse(TransformExpr.rational([(1.0, 1.0)]), MEL, 1e-310)


def test_pole_box_requires_rational():
    with pytest.raises(NotRectangularizable):
        pole_box(TransformExpr.gamma())
    with pytest.raises(NotRectangularizable):
        ResidueSum.from_transform(TransformExpr.gamma(), LAP)


@pytest.mark.parametrize(
    "spec,kind,kernel,args",
    [
        (FunctionSpec.exp(1.0), TransformKind.LAPLACE, LAP, np.linspace(-5, 5, 21)),
        (FunctionSpec.exp_minus_x(), TransformKind.LAPLACE, LAP, np.linspace(-5, 5, 21)),
        (FunctionSpec.mixed_exp(1.0, 2.0), TransformKind.LAPLACE, LAP,
         np.linspace(-5, 5, 21)),
        (FunctionSpec.power(0.5), TransformKind.MOMENT, MEL,
         np.geomspace(0.05, 10.0, 21)),
    ],
)
def test_source_identity_on_extended_grids(spec, kind, kernel, args):
    t = analytic_transform(spec, kind)
    for arg in args:
        truth = evaluate(spec, float(arg))
        got = residue_inverse(t, kernel, float(arg))
        assert abs(got - truth) <= 1e-10 * max(1.0, abs(truth))


def test_residue_list_splits_linearly():
    t = analytic_transform(FunctionSpec.mixed_exp(1.0, 2.0), TransformKind.LAPLACE)
    first = TransformExpr.rational(t.poles[:3])
    second = TransformExpr.rational(t.poles[3:])
    for x in (-2.0, 0.0, 1.7):
        whole = ResidueSum.from_transform(t, LAP).eval(x)
        parts = (
            ResidueSum.from_transform(first, LAP).eval(x)
            + ResidueSum.from_transform(second, LAP).eval(x)
        )
        assert abs(whole - parts) <= 1e-15 * max(1.0, abs(whole))
