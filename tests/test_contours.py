import math

import numpy as np
import pytest

from melaplace import (
    Contour,
    ContourShape,
    DomainError,
    FunctionSpec,
    InverseKind,
    LineSide,
    NotRectangularizable,
    PoleHit,
    QuadratureSpec,
    SidePoleConflict,
    TransformExpr,
    TransformKind,
    ZInsideRectangle,
    analytic_transform,
    bromwich_for,
    cauchy_reproduction,
    discretize,
    inverse_eval,
    rectangle_for,
    residue_inverse,
    single_line_eval,
)
from melaplace.contours import DEFAULT_DELTA, DEFAULT_LINE_HALF_HEIGHT

LAP = InverseKind.LAPLACE_KERNEL
MEL = InverseKind.MELLIN_KERNEL

ONE_POLE = TransformExpr.rational([(-1.0, 1.0)])
HALF_POLE = TransformExpr.rational([(-0.5, 1.0)])
MIXED = analytic_transform(FunctionSpec.mixed_exp(1.0, 2.0), TransformKind.LAPLACE)


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

def test_bromwich_placement():
    line = bromwich_for(ONE_POLE, 0.5, 50.0)
    assert line.shape is ContourShape.BROMWICH_LINE
    assert line.c_right == pytest.approx(-0.5)
    assert bromwich_for(TransformExpr.gamma(), 1.0, 50.0).c_right == pytest.approx(1.0)
    assert bromwich_for(MIXED, 0.25, 50.0).c_right == pytest.approx(-0.75)


def test_bromwich_numeric_uses_metadata():
    t = TransformExpr.numeric(FunctionSpec.exp(2.0), TransformKind.LAPLACE)
    assert bromwich_for(t, 0.5, 50.0).c_right == pytest.approx(-1.5)


def test_rectangle_placement():
    rect = rectangle_for(ONE_POLE, 0.5, 10.0)
    assert rect.shape is ContourShape.RECTANGLE
    assert (rect.c_left, rect.c_right) == (pytest.approx(-1.5), pytest.approx(-0.5))
    assert rect.half_height == pytest.approx(10.0)


def test_rectangle_raises_half_height_to_clear_poles():
    rect = rectangle_for(MIXED, 0.5, 1.0)
    assert rect.half_height == pytest.approx(2.5)


def test_rectangle_default_half_height():
    rect = rectangle_for(ONE_POLE, 0.5)
    assert rect.half_height == pytest.approx(1.0)


def test_contour_defaults():
    line = bromwich_for(ONE_POLE)
    assert (line.delta, line.half_height) == (DEFAULT_DELTA, DEFAULT_LINE_HALF_HEIGHT)
    assert rectangle_for(ONE_POLE, None, None) == rectangle_for(ONE_POLE, DEFAULT_DELTA)


@pytest.mark.parametrize("place", [bromwich_for, rectangle_for])
@pytest.mark.parametrize("delta,half_height", [
    (0.0, 10.0), (-0.5, 10.0), (math.nan, 10.0), (math.inf, 10.0),
    (0.5, 0.0), (0.5, -5.0),
])
def test_nonpositive_contour_parameters_rejected(place, delta, half_height):
    with pytest.raises(DomainError, match="must be positive"):
        place(ONE_POLE, delta, half_height)


def test_rectangle_requires_rational():
    with pytest.raises(NotRectangularizable):
        rectangle_for(TransformExpr.gamma(), 0.5, 10.0)
    with pytest.raises(NotRectangularizable):
        rectangle_for(
            TransformExpr.numeric(FunctionSpec.exp(1.0), TransformKind.LAPLACE),
            0.5, 10.0,
        )


def test_contour_validation_and_json():
    with pytest.raises(ValueError):
        Contour(ContourShape.RECTANGLE, -0.5, -0.2, 1.0, 0.5)
    with pytest.raises(ValueError):
        Contour(ContourShape.BROMWICH_LINE, 0.0, -1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        Contour(ContourShape.BROMWICH_LINE, 0.0, None, 0.0, 0.5)
    rect = rectangle_for(MIXED, 0.5, 4.0)
    assert Contour.from_json(rect.to_json()) == rect
    line = bromwich_for(ONE_POLE, 0.5, 25.0)
    doc = line.to_json()
    assert "c_left" not in doc
    assert Contour.from_json(doc) == line


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_closed_path_weights_sum_to_zero():
    rect = rectangle_for(ONE_POLE, 0.5, 3.0)
    _, weights = discretize(rect)
    assert abs(weights.sum()) <= 1e-12


def test_cauchy_integral_of_one_over_z_minus_p():
    rect = rectangle_for(ONE_POLE, 0.5, 3.0)
    nodes, weights = discretize(rect)
    p = -1.0
    total = np.dot(weights, 1.0 / (nodes - p))
    assert abs(total - 2j * math.pi) <= 10 * 1e-10


def test_line_weights_sum_to_length():
    line = bromwich_for(ONE_POLE, 0.5, 7.0)
    _, weights = discretize(line)
    assert weights.sum() == pytest.approx(2j * 7.0, rel=1e-13)


# ---------------------------------------------------------------------------
# inverse evaluation
# ---------------------------------------------------------------------------

def test_rectangle_recovers_exponential_on_negative_axis():
    rect = rectangle_for(ONE_POLE, 0.5, 10.0)
    v = inverse_eval(ONE_POLE, LAP, rect, -2.0)
    assert abs(v - math.exp(2.0)) <= 1e-8 * math.exp(2.0)


def test_rectangle_recovers_power_past_one():
    rect = rectangle_for(HALF_POLE, 0.5, 10.0)
    v = inverse_eval(HALF_POLE, MEL, rect, 4.0)
    assert abs(v - 2.0) <= 1e-8


def test_open_line_converges_slowly_on_standard_domain():
    line = bromwich_for(ONE_POLE, 0.5, 200.0)
    v = inverse_eval(ONE_POLE, LAP, line, 1.0)
    assert abs(v - math.exp(-1.0)) <= 5e-3


def test_mellin_kernel_rejects_nonpositive_arg():
    rect = rectangle_for(HALF_POLE, 0.5, 2.0)
    with pytest.raises(DomainError):
        inverse_eval(HALF_POLE, MEL, rect, 0.0)


def test_delta_and_height_invariance():
    target = math.exp(2.0)
    values = []
    for delta in (0.1, 0.5, 1.0):
        t0 = delta  # pole box of a single real pole is degenerate
        for mult in (1, 2, 4):
            rect = rectangle_for(ONE_POLE, delta, t0 * mult)
            values.append(inverse_eval(ONE_POLE, LAP, rect, -2.0).real)
    spread = max(values) - min(values)
    assert spread <= 1e-8
    assert abs(values[0] - target) <= 1e-8 * target


def test_oracle_equivalence_over_sample_args():
    cases = [
        (ONE_POLE, LAP, np.linspace(-5.0, 5.0, 20)),
        (HALF_POLE, MEL, np.geomspace(0.05, 10.0, 20)),
        (MIXED, LAP, np.linspace(-4.0, 4.0, 20)),
    ]
    for t, kernel, args in cases:
        rect = rectangle_for(t, 0.5)
        for arg in args:
            got = inverse_eval(t, kernel, rect, float(arg))
            want = residue_inverse(t, kernel, float(arg))
            assert abs(got - want) <= max(1e-8, 10 * 1e-10 * abs(want))


def test_inverse_values_stay_real_for_symmetric_transforms():
    rect = rectangle_for(MIXED, 0.5)
    for x in (-3.0, -1.0, 0.0, 2.0):
        v = inverse_eval(MIXED, LAP, rect, x)
        assert abs(v.imag) <= 1e-8 * (1.0 + abs(v.real))


def test_pole_free_rectangle_yields_zero():
    rect = Contour(ContourShape.RECTANGLE, 1.5, 0.5, 1.0, 0.5)
    for kernel, arg in ((LAP, 1.0), (MEL, 2.0)):
        v = inverse_eval(ONE_POLE, kernel, rect, arg)
        assert abs(v) <= 1e-10


def test_pole_collision_propagates():
    rect = rectangle_for(ONE_POLE, 0.5, 2.0)
    nodes, _ = discretize(rect)
    trap = TransformExpr.rational([(complex(nodes[7]), 1.0)])
    with pytest.raises(PoleHit):
        inverse_eval(trap, LAP, rect, 1.0)


def test_kernel_overflow_is_a_domain_error():
    # exp(-800 z) on the left edge Re z = -1.5 and y**(-z) at y = 1e300 both
    # exceed the largest float
    rect = rectangle_for(ONE_POLE, 0.5, 2.0)
    with pytest.raises(DomainError, match="overflows"):
        inverse_eval(ONE_POLE, LAP, rect, -800.0)
    with pytest.raises(DomainError, match="overflows"):
        inverse_eval(ONE_POLE, MEL, rect, 1e300)


# ---------------------------------------------------------------------------
# single-line decomposition
# ---------------------------------------------------------------------------

def test_right_line_reproduces_standard_domain():
    line = bromwich_for(HALF_POLE, 0.5, 200.0)
    v = single_line_eval(HALF_POLE, MEL, line, LineSide.RIGHT_OF_POLES, 0.25)
    assert abs(v - 0.5) <= 5e-3


def test_right_line_decays_on_extended_domain():
    mags = []
    for T in (50.0, 100.0, 200.0):
        line = bromwich_for(HALF_POLE, 0.5, T)
        mags.append(abs(single_line_eval(HALF_POLE, MEL, line,
                                         LineSide.RIGHT_OF_POLES, 4.0)))
    assert mags[1] <= 1.5 * mags[0] and mags[2] <= 1.5 * mags[1]
    # consistent with a C/T law
    C = sum(m * T for m, T in zip(mags, (50.0, 100.0, 200.0))) / 3.0
    for m, T in zip(mags, (50.0, 100.0, 200.0)):
        assert m <= 1.5 * C / T


def test_left_line_carries_the_extended_domain_with_sign():
    line = Contour(ContourShape.BROMWICH_LINE, -1.0, None, 200.0, 0.5)
    v = single_line_eval(HALF_POLE, MEL, line, LineSide.LEFT_OF_POLES, 4.0)
    assert abs(v - (-2.0)) <= 5e-2
    quiet = single_line_eval(HALF_POLE, MEL, line, LineSide.LEFT_OF_POLES, 0.25)
    assert abs(quiet) <= 5e-2


def test_side_conflicts_detected():
    right = bromwich_for(HALF_POLE, 0.5, 50.0)
    with pytest.raises(SidePoleConflict):
        single_line_eval(HALF_POLE, MEL, right, LineSide.LEFT_OF_POLES, 0.5)
    left = Contour(ContourShape.BROMWICH_LINE, -1.0, None, 50.0, 0.5)
    with pytest.raises(SidePoleConflict):
        single_line_eval(HALF_POLE, MEL, left, LineSide.RIGHT_OF_POLES, 0.5)


def test_single_line_requires_rational_and_line():
    with pytest.raises(NotRectangularizable):
        single_line_eval(
            TransformExpr.gamma(), MEL,
            bromwich_for(TransformExpr.gamma(), 1.0, 50.0),
            LineSide.RIGHT_OF_POLES, 0.5,
        )
    rect = rectangle_for(ONE_POLE, 0.5, 2.0)
    with pytest.raises(ValueError):
        single_line_eval(ONE_POLE, LAP, rect, LineSide.RIGHT_OF_POLES, 0.5)


# ---------------------------------------------------------------------------
# Cauchy reproduction
# ---------------------------------------------------------------------------

def test_cauchy_reproduction_single_pole():
    rect = rectangle_for(ONE_POLE, 0.5, 5.0)
    assert cauchy_reproduction(ONE_POLE, rect, 1.0) == pytest.approx(0.5, rel=1e-10)
    assert cauchy_reproduction(ONE_POLE, rect, 10.0) == pytest.approx(
        1.0 / 11.0, rel=1e-10
    )


def test_cauchy_reproduction_mixed():
    rect = rectangle_for(MIXED, 0.5, 5.0)
    assert cauchy_reproduction(MIXED, rect, 0.0) == pytest.approx(0.775, rel=1e-10)


def test_cauchy_reproduction_rejects_interior_points():
    rect = rectangle_for(ONE_POLE, 0.5, 5.0)
    with pytest.raises(ZInsideRectangle):
        cauchy_reproduction(ONE_POLE, rect, -1.0)
    with pytest.raises(NotRectangularizable):
        cauchy_reproduction(TransformExpr.gamma(), rect, 1.0)
    with pytest.raises(ValueError):
        cauchy_reproduction(ONE_POLE, bromwich_for(ONE_POLE, 0.5, 5.0), 1.0)


def test_denser_quadrature_spec_respected():
    # halving panel width via delta flows through discretize
    rect = rectangle_for(ONE_POLE, 0.1, 1.0)
    nodes_fine, _ = discretize(rect, QuadratureSpec(panel_order=8))
    nodes_default, _ = discretize(rect)
    assert len(nodes_fine) < len(nodes_default)
