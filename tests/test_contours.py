import cmath
import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melaplace import (
    Contour,
    ContourShape,
    DomainError,
    FunctionSpec,
    InverseKind,
    LineSide,
    MelaplaceError,
    NotRectangularizable,
    OutOfDomain,
    PoleHit,
    QuadratureSpec,
    SidePoleConflict,
    Strip,
    TransformExpr,
    TransformForm,
    TransformKind,
    ZInsideRectangle,
    analytic_transform,
    bromwich_for,
    cauchy_reproduction,
    discretize,
    eval_transform,
    inverse_eval,
    pole_box,
    rectangle_for,
    residue_inverse,
    single_line_eval,
    transform_estimate,
    transform_for,
)
from melaplace import contours, transforms
from melaplace.campaigns import invariance_sweep, roundtrip
from melaplace.cli import cli_main
from melaplace.contours import DEFAULT_DELTA, DEFAULT_LINE_HALF_HEIGHT
from melaplace.quadrature import _gl
from melaplace.transforms import POLE_HIT_TOL, _line_integral, _pole_sum, rational_values

LAP = InverseKind.LAPLACE_KERNEL
MEL = InverseKind.MELLIN_KERNEL

ONE_POLE = TransformExpr.rational([(-1.0, 1.0)])
HALF_POLE = TransformExpr.rational([(-0.5, 1.0)])
MIXED = analytic_transform(FunctionSpec.mixed_exp(1.0, 2.0), TransformKind.LAPLACE)
# inner quadrature of the Gamma line, as in the acceptance demo
LINE_Q = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

def test_bromwich_placement():
    line = bromwich_for(ONE_POLE, 0.5, 50.0)
    assert line.shape is ContourShape.BROMWICH_LINE
    assert line.c_right == pytest.approx(-0.5)
    assert bromwich_for(TransformExpr.gamma(), 1.0, 50.0).c_right == pytest.approx(1.0)
    assert bromwich_for(MIXED, 0.25, 50.0).c_right == pytest.approx(-0.75)
    # a line whose abscissa overflows lies in no strip
    with pytest.raises(OutOfDomain, match="line at inf falls outside the strip"):
        bromwich_for(TransformExpr.rational([(1e308, 1.0)]), 1e308, 50.0)


def test_bromwich_numeric_uses_metadata():
    t = TransformExpr.numeric(FunctionSpec.exp(2.0), TransformKind.LAPLACE)
    assert bromwich_for(t, 0.5, 50.0).c_right == pytest.approx(-1.5)


def test_hand_built_transforms_equal_their_constructors():
    hand = TransformExpr(source=FunctionSpec.exp(1.0), kind=TransformKind.LAPLACE)
    assert hand.form is TransformForm.NUMERIC
    assert hand == TransformExpr.numeric(FunctionSpec.exp(1.0), TransformKind.LAPLACE)
    assert hand.validity == Strip(-1.0, math.inf)
    assert bromwich_for(hand, 0.5, 50.0).c_right == pytest.approx(-0.5)
    rational = TransformExpr(poles=((-1.0, 1.0),))
    assert rational.form is TransformForm.RATIONAL
    assert rational == ONE_POLE
    assert bromwich_for(rational, 0.5, 50.0) == bromwich_for(ONE_POLE, 0.5, 50.0)
    with pytest.raises(ValueError, match="numeric form needs a source spec and kind"):
        TransformExpr(source=FunctionSpec.exp(1.0))
    with pytest.raises(ValueError, match="numeric form needs a source spec and kind"):
        TransformExpr(kind=TransformKind.LAPLACE)
    with pytest.raises(ValueError, match="rational form needs at least one pole"):
        TransformExpr()
    # the form is derived, never passed, and poles with a source are no form
    with pytest.raises(TypeError):
        TransformExpr(TransformForm.RATIONAL, poles=((-1.0, 1.0),))
    with pytest.raises(ValueError, match="poles or a source spec and kind, not both"):
        TransformExpr(poles=((-1.0, 1.0),), source=FunctionSpec.exp(2.0),
                      kind=TransformKind.MELLIN)


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


@pytest.mark.parametrize("rect", [
    # encloses no singularity, so by Cauchy the inverse would be 0
    Contour(ContourShape.RECTANGLE, 2.0, 0.5, 3.0, 0.5),
    # crosses the strip edge Re z = -1
    Contour(ContourShape.RECTANGLE, 0.5, -2.0, 3.0, 0.5),
])
def test_numeric_transform_on_a_hand_built_rectangle_is_rejected(rect, monkeypatch):
    t = TransformExpr.numeric(FunctionSpec.exp(1.0), TransformKind.LAPLACE)

    def no_nodes(*args):
        raise AssertionError("nodes built")

    monkeypatch.setattr(contours, "discretize", no_nodes)
    monkeypatch.setattr(contours, "_paths", no_nodes)
    with pytest.raises(NotRectangularizable, match="cannot be inverted on a rectangle"):
        inverse_eval(t, LAP, rect, 1.0)
    with pytest.raises(NotRectangularizable):
        next(contours._contour_sums(t, LAP, rect, [1.0, 2.0], None))
    with pytest.raises(NotRectangularizable, match="^numeric transforms cannot be inverted"):
        cauchy_reproduction(t, rect, 5.0)
    # the first argument's kernel is checked before the form
    with pytest.raises(DomainError, match="kernel overflows"):
        inverse_eval(t, LAP, rect, 1e4)
    with pytest.raises(ValueError, match="expects a rectangle"):
        cauchy_reproduction(t, bromwich_for(t, 0.5, 10.0), 5.0)


def test_contour_validation_and_json():
    with pytest.raises(ValueError):
        Contour(ContourShape.RECTANGLE, -0.5, -0.2, 1.0, 0.5)
    with pytest.raises(ValueError):
        Contour(ContourShape.BROMWICH_LINE, 0.0, -1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        Contour(ContourShape.BROMWICH_LINE, 0.0, None, 0.0, 0.5)
    with pytest.raises(ValueError, match="delta must be positive"):
        Contour(ContourShape.BROMWICH_LINE, 0.0, None, 1.0, 0.0)
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


def _edge_reference(z0, z1, n_panels, order):
    """One edge of n_panels panels built on its own, with np.arange and
    np.tile: the per-edge formula that the one-pass _paths must match byte
    for byte."""
    length = abs(z1 - z0)
    direction = (z1 - z0) / length
    xs, ws = _gl(order)
    offsets = np.arange(n_panels) * (length / n_panels)
    half = 0.5 * length / n_panels
    s = (offsets[:, None] + half * (1.0 + xs[None, :])).ravel()
    return z0 + s * direction, np.tile(ws * half, n_panels) * direction


def _path_reference(c, q, upper):
    """discretize(c, q), or the upper half that contours._paths lays out
    when upper, edge by edge; None where the path needs more than
    q.max_panels panels of width min(pi/4, 2*delta), or where an edge is
    longer than any float."""
    T, right, left = c.half_height, c.c_right, c.c_left
    if c.shape is ContourShape.BROMWICH_LINE:
        corners = [complex(right, 0.0 if upper else -T), complex(right, T)]
    elif upper:
        corners = [complex(right, 0.0), complex(right, T), complex(left, T),
                   complex(left, 0.0)]
    else:
        corners = [complex(right, -T), complex(right, T), complex(left, T),
                   complex(left, -T), complex(right, -T)]
    width = min(math.pi / 4, 2.0 * c.delta)
    edges = list(zip(corners, corners[1:]))
    needed = [abs(z1 - z0) / width for z0, z1 in edges]
    if not sum(needed) < math.inf:
        return None
    counts = [math.ceil(n) for n in needed]
    if sum(counts) > q.max_panels:
        return None
    parts = [_edge_reference(z0, z1, n, q.panel_order)
             for (z0, z1), n in zip(edges, counts)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _build(c, q, upper):
    """The nodes and weights of c alone, raising its layout's error."""
    if not upper:
        return discretize(c, q)
    nodes, weights, parts = contours._paths((c,), q, True)
    assert parts == [slice(0, nodes.size)]
    return nodes, weights


def _assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(list(ContourShape)), upper=st.booleans(),
       c_right=st.floats(-5.0, 5.0), width=st.floats(1e-3, 10.0),
       T=_log_uniform(1e-3, 1e308), delta=_log_uniform(1e-320, 2.0),
       order=st.integers(4, 32),
       max_panels=st.one_of(st.just(1), st.integers(2, 64), st.just(4096)))
def test_one_pass_nodes_match_the_per_edge_build(shape, upper, c_right, width, T,
                                                 delta, order, max_panels):
    # a small max_panels or delta, or a large T, overruns the budget, and
    # nothing but DomainError may escape then; every other draw builds the
    # reference's bytes
    left = c_right - width if shape is ContourShape.RECTANGLE else None
    c = Contour(shape, c_right, left, T, delta)
    q = QuadratureSpec(panel_order=order, max_panels=max_panels)
    want = _path_reference(c, q, upper)
    if want is None:
        with pytest.raises(DomainError, match="max_panels|longer than any float"):
            _build(c, q, upper)
        return
    got = _build(c, q, upper)
    assert got[0].size <= max_panels * order
    _assert_same_bytes(got, want)


@st.composite
def _contours(draw):
    """A line or rectangle whose layout may overrun the budget, as drawn in
    test_one_pass_nodes_match_the_per_edge_build."""
    shape = draw(st.sampled_from(list(ContourShape)))
    c_right = draw(st.floats(-5.0, 5.0))
    left = (c_right - draw(st.floats(1e-3, 10.0))
            if shape is ContourShape.RECTANGLE else None)
    T = draw(st.one_of(_log_uniform(1e-3, 50.0), _log_uniform(1e-3, 1e308)))
    delta = draw(st.one_of(_log_uniform(0.05, 2.0), _log_uniform(1e-320, 2.0)))
    return Contour(shape, c_right, left, T, delta)


@settings(max_examples=200, deadline=None)
@given(cs=st.lists(_contours(), max_size=6), upper=st.booleans(),
       order=st.integers(4, 32),
       max_panels=st.one_of(st.integers(2, 64), st.just(4096)))
def test_one_pass_nodes_of_several_contours_match_the_per_edge_build(cs, upper, order,
                                                                     max_panels):
    # each contour's slice holds the bytes of its own build; a list with a
    # contour whose layout fails raises the error that its first such
    # contour raises alone
    q = QuadratureSpec(panel_order=order, max_panels=max_panels)
    want = [_path_reference(c, q, upper) for c in cs]
    failing = next((c for c, w in zip(cs, want) if w is None), None)
    if failing is not None:
        with pytest.raises(DomainError) as together:
            contours._paths(cs, q, upper)
        with pytest.raises(DomainError) as alone:
            _build(failing, q, upper)
        assert type(together.value) is DomainError
        assert str(together.value) == str(alone.value)
        return
    nodes, weights, parts = contours._paths(cs, q, upper)
    ends = np.cumsum([0] + [w[0].size for w in want]).tolist()
    assert parts == [slice(a, b) for a, b in zip(ends, ends[1:])]
    assert nodes.size == weights.size == ends[-1]
    for part, w in zip(parts, want):
        _assert_same_bytes((nodes[part], weights[part]), w)


@pytest.mark.parametrize("upper", [False, True])
def test_one_pass_build_keeps_the_edge_overflow_message(upper):
    # the right edge is short; the top edge from 1e308 to -1e308 is not
    c = Contour(ContourShape.RECTANGLE, 1e308, -1e308, 5.0, 0.5)
    q = QuadratureSpec()
    assert _path_reference(c, q, upper) is None
    with pytest.raises(DomainError) as got:
        _build(c, q, upper)
    assert str(got.value) == ("the contour edge from (1e+308+5j) to (-1e+308+5j) "
                              "is longer than any float")


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
    # so does a phase s * Im z past the largest float
    rect = rectangle_for(ONE_POLE, 0.5, 1e308)
    with pytest.raises(DomainError, match="overflows"):
        inverse_eval(ONE_POLE, LAP, rect, 1e308)


def test_collapsed_rectangle_is_a_domain_error():
    # 1e17 + 0.5 and 1e17 - 0.5 round to the same float
    far = TransformExpr.rational([(1e17, 1.0)])
    with pytest.raises(DomainError, match="no width"):
        rectangle_for(far, 0.5, 5.0)
    with pytest.raises(DomainError, match="no width"):
        rectangle_for(ONE_POLE, 1e-300, 5.0)
    # a hand-built rectangle keeps its ValueError
    with pytest.raises(ValueError, match="c_left < c_right"):
        Contour(ContourShape.RECTANGLE, 1e17, 1e17, 5.0, 0.5)


def test_edge_longer_than_any_float_is_a_domain_error():
    wide = TransformExpr.rational([(1e308, 1.0), (-1e308, 1.0)])
    rect = rectangle_for(wide, 0.5, 5.0)
    with pytest.raises(DomainError, match="longer than any float"):
        discretize(rect)
    with pytest.raises(DomainError, match="longer than any float"):
        inverse_eval(wide, LAP, rect, 0.0)
    # a tall line without conjugate symmetry spans [c - iT, c + iT]
    lop = TransformExpr.rational([(complex(-1.0, 1e308), 1.0)])
    with pytest.raises(DomainError, match="longer than any float"):
        inverse_eval(lop, LAP, rectangle_for(lop, 0.5, None), 0.0)
    # its upper half alone fits a float, but not the panel budget
    tall = bromwich_for(ONE_POLE, 0.5, 1e308)
    with pytest.raises(DomainError, match="more than max_panels = 4096 panels"):
        inverse_eval(ONE_POLE, LAP, tall, 0.0)


def test_sums_past_the_float_range_are_domain_errors():
    # numpy warns of the overflow, and the result is a typed error, not nan
    big = TransformExpr.rational([(-1.0, 1e308)])
    rect = rectangle_for(big, 0.5, 2.0)
    with pytest.warns(RuntimeWarning), pytest.raises(
            DomainError, match="laplace inverse overflows"):
        inverse_eval(big, LAP, rect, 1.0)
    with pytest.warns(RuntimeWarning), pytest.raises(DomainError, match="overflows"):
        eval_transform(big, -0.5)
    # quotients that overflow on their way to 0 are 0
    rect = rectangle_for(ONE_POLE, 0.5, 2.0)
    far = complex(1e308, 1e308)
    with np.errstate(all="ignore"):
        assert cauchy_reproduction(ONE_POLE, rect, far) == 0
        assert eval_transform(ONE_POLE, far) == 0


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
    # a numeric form fails on its missing poles before the contour's shape
    with pytest.raises(NotRectangularizable):
        single_line_eval(TransformExpr.gamma(), MEL, rect, LineSide.RIGHT_OF_POLES, 0.5)


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


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(5.0, math.nan),
                               complex(math.inf, 0.0), complex(5.0, -math.inf)])
def test_cauchy_reproduction_names_a_non_finite_z(z):
    # a nan real part would fail the Re z test as a point inside the
    # rectangle, a nan imaginary part the sum as an overflow
    rect = rectangle_for(ONE_POLE, 0.5, 5.0)
    with pytest.raises(OutOfDomain, match="^Cauchy reproduction needs a finite z, "):
        cauchy_reproduction(ONE_POLE, rect, z)


@pytest.mark.parametrize("arg", [math.nan, math.inf, -math.inf])
def test_inverses_name_a_non_finite_argument(arg):
    # the rational sum read "inverse overflows" at nan; the Gamma line
    # blamed its integrand for a nan kernel
    with pytest.raises(DomainError, match="^the laplace kernel needs a finite argument"):
        inverse_eval(ONE_POLE, LAP, bromwich_for(ONE_POLE, 0.5, 5.0), arg)
    gamma = TransformExpr.gamma()
    with pytest.raises(DomainError, match="^the mellin kernel needs a finite argument"):
        inverse_eval(gamma, MEL, bromwich_for(gamma, 1.0, 10.0), arg)


def test_denser_quadrature_spec_respected():
    # halving panel width via delta flows through discretize
    rect = rectangle_for(ONE_POLE, 0.1, 1.0)
    nodes_fine, _ = discretize(rect, QuadratureSpec(panel_order=8))
    nodes_default, _ = discretize(rect)
    assert len(nodes_fine) < len(nodes_default)


# ---------------------------------------------------------------------------
# conjugate-symmetric inverses: the upper half of the contour
# ---------------------------------------------------------------------------

def _full_contour_sum(t, kind, c, arg, q=None):
    """The inverse as the weighted sum over every node of discretize; a
    numeric form takes one direct-transform estimate per node."""
    s = arg if kind is LAP else -math.log(arg)
    nodes, weights = discretize(c, q)
    if t.form is TransformForm.RATIONAL:
        vals = rational_values(t, nodes)
    else:
        vals = np.array([transform_estimate(t.source, t.kind, z, q).value
                         for z in nodes], dtype=complex)
    total = np.dot(weights, np.exp(s * nodes) * vals)
    return complex(total) / (2j * math.pi)


def _term_scale(poles, kind, arg):
    """sum |r * kernel(p, arg)|: the size of the residue series' terms,
    against which its cancellations and roundoff are measured."""
    s = arg if kind is LAP else -math.log(arg)
    return sum(abs(r) * math.exp(p.real * s) for p, r in poles)


# pole coordinates on a 1/8 grid, so that no two poles coincide
_eighths = st.integers(-16, 4).map(lambda k: k / 8)
_magnitudes = st.floats(0.1, 1.0)
_phases = st.floats(0.0, 2 * math.pi)
_real_residues = st.builds(math.copysign, _magnitudes, st.sampled_from([1.0, -1.0]))
_residues = st.builds(cmath.rect, _magnitudes, _phases)


@st.composite
def _symmetric_poles(draw):
    """Up to two real poles with real residues plus up to two conjugate
    pairs, at least one pole in all."""
    poles = [
        (complex(re), complex(draw(_real_residues)))
        for re in draw(st.lists(_eighths, max_size=2, unique=True))
    ]
    pairs = draw(st.lists(
        st.tuples(_eighths, st.integers(2, 24).map(lambda j: j / 8), _residues),
        min_size=0 if poles else 1, max_size=2, unique_by=lambda e: e[:2],
    ))
    for re, im, r in pairs:
        poles += [(complex(re, im), r), (complex(re, -im), r.conjugate())]
    return poles


@st.composite
def _kernel_and_arg(draw):
    kind = draw(st.sampled_from([LAP, MEL]))
    if kind is LAP:
        return kind, draw(st.floats(-2.0, 2.0))
    return kind, math.exp(draw(st.floats(math.log(0.25), math.log(4.0))))


@settings(max_examples=100, deadline=None)
@given(poles=_symmetric_poles(), delta=st.floats(0.1, 1.0),
       extra=st.floats(0.0, 5.0), kernel=_kernel_and_arg(),
       stray=st.tuples(_eighths, st.integers(0, 23), _residues))
def test_symmetric_rectangle_inverse_matches_oracle_and_full_contour(
        poles, delta, extra, kernel, stray):
    kind, arg = kernel
    t = TransformExpr.rational(poles)
    assert t.conjugate_symmetric
    rect = rectangle_for(t, delta, pole_box(t)[2] + delta + extra)
    got = inverse_eval(t, kind, rect, arg)
    want = residue_inverse(t, kind, arg)
    scale = _term_scale(poles, kind, arg)
    assert got.imag == 0.0
    assert abs(got - want) <= 1e-6 * scale
    # the full contour's own roundoff grows with the terms, not with |f|,
    # where they cancel
    full = _full_contour_sum(t, kind, rect, arg)
    assert abs(got - full) <= 1e-12 * max(1.0, scale)

    # one pole off the 1/8 grid without its conjugate breaks the symmetry;
    # the inverse then is the oracle's complex value
    re, j, r = stray
    lop_poles = poles + [(complex(re, (2 * j + 1) / 16), r)]
    lop = TransformExpr.rational(lop_poles)
    assert not lop.conjugate_symmetric
    rect = rectangle_for(lop, delta, pole_box(lop)[2] + delta + extra)
    got = inverse_eval(lop, kind, rect, arg)
    want = residue_inverse(lop, kind, arg)
    assert isinstance(want, complex)
    assert abs(got - want) <= 1e-6 * _term_scale(lop_poles, kind, arg)


@pytest.mark.parametrize("y", [0.2, 1.0, 5.0])
def test_gamma_line_matches_its_full_line_sum(y):
    gamma = TransformExpr.gamma()
    line = bromwich_for(gamma, 1.0, 10.0)
    got = inverse_eval(gamma, MEL, line, y, LINE_Q)
    assert got.imag == 0.0
    assert abs(got - _full_contour_sum(gamma, MEL, line, y, LINE_Q)) <= 1e-12


def test_symmetric_inverses_evaluate_the_upper_half_only(monkeypatch):
    counted = []
    built = []

    def counting(t, zs):
        counted.append(np.size(zs))
        return _pole_sum(t, zs)

    def building(c, q=None):
        built.append(c)
        return discretize(c, q)

    # the one sum, whether _record calls it directly or through
    # rational_values
    monkeypatch.setattr(contours, "_pole_sum", counting)
    monkeypatch.setattr(transforms, "_pole_sum", counting)
    monkeypatch.setattr(contours, "discretize", building)
    # a numeric line is one Dirichlet-kernel integral: no nodes at all
    gamma = TransformExpr.gamma()
    inverse_eval(gamma, MEL, bromwich_for(gamma, 1.0, 10.0), 1.0, LINE_Q)
    assert counted == [] and built == []

    # a symmetric rational line evaluates the half with Im z >= 0
    line = bromwich_for(ONE_POLE, 0.5, 10.0)
    inverse_eval(ONE_POLE, LAP, line, 1.0)
    assert counted == [208] and built == []
    assert len(discretize(line)[0]) == 416

    # the Cauchy kernel 1/(z - w) and a set without conjugate symmetry
    # keep the whole contour
    rect = rectangle_for(MIXED, 0.5, 5.0)
    counted.clear()
    cauchy_reproduction(MIXED, rect, 1.0)
    assert counted == [len(discretize(rect)[0])]
    lop = TransformExpr.rational([(complex(-1.0, 2.0), 1.0)])
    rect = rectangle_for(lop, 0.5, 5.0)
    counted.clear()
    inverse_eval(lop, LAP, rect, 1.0)
    assert counted == [len(discretize(rect)[0])]


def test_numeric_line_estimate_is_judged_on_its_summed_error():
    gamma = TransformExpr.gamma()
    # at T=200 one piece alone misses its own relative tolerance, measured
    # against a value that the other pieces cancel
    est = _line_integral(gamma, 1.0, 200.0, -math.log(5.0), LINE_Q)
    assert est.converged
    assert abs(est.value - math.exp(-5.0)) <= 1e-11
    # a panel budget that cuts the tails off leaves it unconverged
    full = _line_integral(gamma, 1.0, 10.0, 0.0, LINE_Q)
    capped = _line_integral(gamma, 1.0, 10.0, 0.0, QuadratureSpec(max_panels=4))
    assert full.converged and not capped.converged
    assert capped.err_est >= abs(capped.value - full.value)


def test_numeric_line_honours_each_piece_flag():
    # the line's one tail, folded about the peak, stops on its two-panel
    # budget, far from tolerance, and exp(c*s) = exp(-200) scales the sum
    # of the pieces, the one-panel peak root with them, and their error
    # below abs_tol
    gamma = TransformExpr.gamma()
    q = QuadratureSpec(max_panels=2)
    est = _line_integral(gamma, 50.0, 10.0, -4.0, q)
    assert (est.value, est.err_est, est.panels_used) == (
        1.780417902123408e-24 + 0j, 6.422615300438493e-33, 3)
    assert est.err_est <= q.abs_tol and not est.converged
    assert _line_integral(gamma, 50.0, 10.0, -4.0).converged


_decays = st.floats(0.2, 3.0)
_growths = st.floats(0.0, 3.0)
_decaying_specs = [
    st.just(FunctionSpec.exp_minus_x()),
    st.builds(FunctionSpec.exp, _decays),
    st.builds(FunctionSpec.mixed_exp, _decays, _decays),
]
_power_specs = [
    st.builds(FunctionSpec.power, _growths),
    st.builds(FunctionSpec.mixed_power, _growths, _growths),
]


@st.composite
def _numeric_line(draw):
    """A numeric transform, its inversion kernel and an argument on either
    side of the kernel peak.  Only decaying sources have a Mellin strip.
    Decay rates above delta put the line at c < 0 (exp and mixedexp
    Laplace, power and mixedpower moments)."""
    tkind = draw(st.sampled_from(list(TransformKind)))
    specs = _decaying_specs
    if tkind is not TransformKind.MELLIN:
        specs = specs + _power_specs
    t = TransformExpr.numeric(draw(st.one_of(specs)), tkind)
    if tkind is TransformKind.LAPLACE:
        return t, LAP, draw(st.floats(-2.0, 2.0))
    return t, MEL, math.exp(draw(st.floats(math.log(0.25), math.log(4.0))))


# Both sides run at the default tolerances: under LINE_Q (rel_tol 1e-8) the
# Dirichlet value of the Laplace transform of power:gamma=1.002 at x = 1.002,
# T = 5 is itself 3.1e-10 (relative) off a rel_tol 1e-13 value, a miss
# inside LINE_Q's own tolerance that a 1e-10 bound cannot tell from a bug.
# The reference runs at panel order 32: at order 16 the z**-3.9 branch
# point of the Laplace transform of mixedpower:g1=2.92,g2=2.92, 0.3 left of
# the line, puts it 1.6e-6 (relative) off the value that order 32 and the
# Dirichlet integral agree on within 1e-13.
REF_Q = QuadratureSpec(panel_order=32)


@settings(max_examples=20, deadline=None)
@given(case=_numeric_line(), delta=st.floats(0.3, 1.0), T=st.floats(5.0, 12.0))
def test_numeric_line_inverse_matches_its_full_line_sum(case, delta, T):
    t, kind, arg = case
    line = bromwich_for(t, delta, T)
    got = inverse_eval(t, kind, line, arg)
    assert got.imag == 0.0
    want = _full_contour_sum(t, kind, line, arg, REF_Q)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# one contour for many arguments
# ---------------------------------------------------------------------------

@st.composite
def _pole_sets(draw):
    """A conjugate-symmetric pole set, or one with a stray pole that breaks
    the symmetry."""
    poles = draw(_symmetric_poles())
    if draw(st.booleans()):
        re, j, r = draw(st.tuples(_eighths, st.integers(0, 23), _residues))
        poles.append((complex(re, (2 * j + 1) / 16), r))
    return poles


@st.composite
def _kernel_and_args(draw):
    kind = draw(st.sampled_from([LAP, MEL]))
    logs = st.floats(math.log(0.25), math.log(4.0))
    if kind is LAP:
        args = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=20))
    else:
        args = [math.exp(v) for v in draw(st.lists(logs, min_size=1, max_size=20))]
    return kind, args


def _fmt(x):
    return format(float(x), ".17g")


@settings(max_examples=40, deadline=None)
@given(poles=_pole_sets(), kernel=_kernel_and_args(),
       shape=st.sampled_from(["rect", "bromwich"]), delta=st.floats(0.1, 1.0),
       T=st.floats(2.0, 12.0))
def test_shared_contour_matches_per_argument_inverse(poles, kernel, shape, delta, T):
    kind, args = kernel
    t = TransformExpr.rational(poles)
    make = rectangle_for if shape == "rect" else bromwich_for
    c = make(t, delta, T)
    want = [inverse_eval(t, kind, c, arg) for arg in args]
    assert list(contours._contour_sums(t, kind, c, args, None)) == [(w, True) for w in want]
    # the CLI's invert prints the same values
    argv = [
        "invert", "--json", "--kind", "laplace" if kind is LAP else "mellin",
        "--poles", json.dumps([[p.real, p.imag, complex(r).real, complex(r).imag]
                               for p, r in poles]),
        "--contour", shape, f"--delta={delta!r}", f"--T={T!r}",
        *(f"--x={arg!r}" for arg in args),
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    rows = json.loads(out.getvalue())["rows"]
    assert rows == [[_fmt(a), _fmt(w.real), _fmt(w.imag)] for a, w in zip(args, want)]


# (spec, kernel, on a rectangle); mixedpower has no closed form, so its
# open line is numeric and takes one integral per argument
_ROUND_TRIPS = [
    (FunctionSpec.exp(1.0), LAP, True),
    (FunctionSpec.exp(1.0), LAP, False),
    (FunctionSpec.mixed_exp(1.0, 0.5), LAP, True),
    (FunctionSpec.power(0.5), MEL, True),
    (FunctionSpec.power(0.5), MEL, False),
    (FunctionSpec.mixed_power(0.5, 1.0), MEL, False),
]


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(_ROUND_TRIPS), n=st.integers(1, 20), data=st.data())
def test_roundtrip_matches_per_argument_inverse(case, n, data):
    spec, kind, use_rectangle = case
    # the open line only reaches the standard domain
    lo = -2.0 if kind is LAP and use_rectangle else 0.25
    hi = 1.0 if kind is MEL and not use_rectangle else 4.0
    args = data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    report = roundtrip(spec, kind, args, use_rectangle=use_rectangle,
                       half_height=None if use_rectangle else 10.0)
    t = transform_for(spec, kind)
    assert [r.recovered for r in report.rows] == [
        inverse_eval(t, kind, report.contour, arg).real for arg in args
    ]


def test_shared_contour_keeps_each_arguments_overflow_error():
    rect = rectangle_for(ONE_POLE, 0.5, 2.0)
    with pytest.raises(DomainError) as scalar:
        inverse_eval(ONE_POLE, LAP, rect, -800.0)
    with pytest.raises(DomainError) as shared:
        list(contours._contour_sums(ONE_POLE, LAP, rect, [1.0, -800.0, 2.0], None))
    assert str(shared.value) == str(scalar.value)
    # exp(-0.5 x) is finite at x = -800, where the kernel overflows on the
    # left edge Re z = -1
    spec = FunctionSpec.exp(0.5)
    t = transform_for(spec, LAP)
    with pytest.raises(DomainError) as scalar:
        inverse_eval(t, LAP, rectangle_for(t), -800.0)
    with pytest.raises(DomainError) as shared:
        roundtrip(spec, LAP, [1.0, -800.0])
    assert str(shared.value) == str(scalar.value)
    # each argument's truth comes before its inverse, as with one call per
    # argument: the kernel overflow at the first argument is raised, not
    # the second argument's power-family domain error
    with pytest.raises(DomainError, match="kernel overflows"):
        roundtrip(FunctionSpec.power(0.5), MEL, [1e308, -1.0], delta=1.0)
    # and at x = -1 the truth's domain error comes before the kernel's
    with pytest.raises(DomainError, match="nonnegative"):
        roundtrip(FunctionSpec.power(0.5), MEL, [1.0, -1.0])


def _bytes(values):
    return np.array(values, dtype=complex).tobytes()


@settings(max_examples=60, deadline=None)
@given(poles=_pole_sets(), kernel=_kernel_and_arg(),
       deltas=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3, unique=True),
       Ts=st.lists(st.floats(2.0, 12.0), min_size=1, max_size=3, unique=True))
def test_sweep_values_match_each_rectangles_inverse(poles, kernel, deltas, Ts):
    # one record for the whole grid, and each value the bytes of
    # inverse_eval on its own rectangle
    kind, arg = kernel
    t = TransformExpr.rational(poles)
    table = invariance_sweep(t, kind, arg, deltas, Ts)
    assert _bytes(table.results) == _bytes(
        [inverse_eval(t, kind, rectangle_for(t, d, T), arg) for d, T in table.values])


_BIG = TransformExpr.rational([(-1.0, 1e308)])


@pytest.mark.parametrize("t,kind,arg,deltas,Ts,match", [
    # the kernel overflows on every rectangle; the later one also overruns
    # max_panels
    (ONE_POLE, LAP, -800.0, [0.5], [2.0, 1e6], "kernel overflows"),
    # the first sum overflows; the later rectangle overruns max_panels, or
    # rectangle_for rejects its delta or T
    (_BIG, LAP, 1.0, [0.5], [2.0, 1e6], "inverse overflows"),
    (_BIG, LAP, 1.0, [0.5, math.inf], [2.0], "inverse overflows"),
    (_BIG, LAP, 1.0, [0.5], [2.0, math.inf], "inverse overflows"),
    # the first point passes, and the later one's layout fails
    (ONE_POLE, LAP, 1.0, [0.5], [2.0, 1e6], "max_panels"),
    # a node of every rectangle sits on the pole
    (ONE_POLE, LAP, 1.0, [1e-13], [1e-13, 2e-13], "pole"),
    # the kernel rejects its argument before any rectangle is laid out
    (ONE_POLE, MEL, 0.0, [0.5], [2.0, 1e6], "requires arg > 0"),
    (ONE_POLE, LAP, math.nan, [0.5], [2.0, 1e6], "finite argument"),
], ids=["kernel", "sum-layout", "sum-delta", "sum-T", "layout", "pole-hit",
        "moment-arg", "nan-arg"])
def test_sweep_raises_the_first_failing_grid_points_error(t, kind, arg, deltas, Ts, match):
    with np.errstate(all="ignore"):
        with pytest.raises(MelaplaceError, match=match) as swept:
            invariance_sweep(t, kind, arg, deltas, Ts)
        with pytest.raises(MelaplaceError) as alone:
            for d, T in sorted((d, T) for d in deltas for T in Ts):
                inverse_eval(t, kind, rectangle_for(t, d, T), arg)
    assert type(swept.value) is type(alone.value)
    assert str(swept.value) == str(alone.value)
    if match == "pole":
        assert type(swept.value) is PoleHit


@pytest.mark.parametrize("t, sizes", [
    (MIXED, [(0.25, 3.0), (0.5, None), (None, 8.0), (1.0, 0.1)]),
    (_BIG, [(0.5, 2.0), (1e-300, 2.0)]),
    (MIXED, [(0.5, 2.0), (math.inf, 2.0), (0.5, -1.0)]),
    (MIXED, [(0.5, 2.0), (0.5, math.nan)]),
    (TransformExpr.gamma(), [(0.5, 2.0)]),
    (TransformExpr.gamma(), [(0.0, 2.0)]),
], ids=["mixed", "lost-delta", "inf-delta", "nan-T", "numeric", "numeric-bad-delta"])
def test_sweep_rectangles_are_rectangle_for_from_one_pole_box(monkeypatch, t, sizes):
    # each rectangle, or the error of the first that fails, is
    # rectangle_for's, and the pole box is taken once for them all
    want = []
    try:
        for d, T in sizes:
            want.append(rectangle_for(t, d, T))
    except MelaplaceError as exc:
        want.append((type(exc), str(exc)))
    boxes = []
    monkeypatch.setattr(contours, "pole_box", lambda t: boxes.append(t) or pole_box(t))
    got = []
    try:
        for c in contours._rectangles(t, sizes):
            got.append(c)
    except MelaplaceError as exc:
        got.append((type(exc), str(exc)))
    assert got == want
    assert len(boxes) <= 1
    boxes.clear()
    assert len(invariance_sweep(MIXED, LAP, 1.0, [0.25, 0.5, 1.0], [3.0, 5.0, 8.0]).results) == 9
    assert len(boxes) == 1


def test_cauchy_sums_match_per_point_reproduction():
    rect = rectangle_for(MIXED, 0.5, 5.0)
    zs = [1.0, complex(0.7, 2.0), complex(10.0, -3.0)]
    assert list(contours._cauchy_sums(MIXED, rect, zs, None)) == [
        cauchy_reproduction(MIXED, rect, z) for z in zs
    ]
    with pytest.raises(ZInsideRectangle):
        list(contours._cauchy_sums(MIXED, rect, [1.0, -5.0], None))


def test_each_contour_sum_builds_its_record_once(monkeypatch):
    built = []

    def counting(name, fn):
        def call(*args):
            built.append(name)
            return fn(*args)
        monkeypatch.setattr(contours, name, call)

    counting("_paths", contours._paths)
    counting("_pole_sum", _pole_sum)
    counting("rational_values", rational_values)
    monkeypatch.setattr(transforms, "_pole_sum", contours._pole_sum)
    rect = rectangle_for(MIXED, 0.5, 5.0)
    lop = TransformExpr.rational([(complex(-1.0, 2.0), 1.0)])
    for t, c in ((MIXED, rect), (lop, rectangle_for(lop)), (ONE_POLE, bromwich_for(ONE_POLE))):
        built.clear()
        assert len(list(contours._contour_sums(t, LAP, c, [-2.0, -1.0, 0.0, 1.0, 2.0], None))) == 5
        assert built == ["_paths", "_pole_sum"]
    built.clear()
    assert len(list(contours._cauchy_sums(MIXED, rect, [1.0, 2j + 3.0, 5.0], None))) == 3
    assert built == ["_paths", "_pole_sum"]
    # a passing 3x3 sweep builds one record for its whole grid
    built.clear()
    assert len(invariance_sweep(MIXED, LAP, 1.0, [0.25, 0.5, 1.0], [3.0, 5.0, 8.0]).results) == 9
    assert built == ["_paths", "_pole_sum"]
    # a first argument that raises builds nothing: a kernel overflow, a z
    # inside the rectangle
    built.clear()
    with pytest.raises(DomainError, match="kernel overflows"):
        list(contours._contour_sums(MIXED, LAP, rect, [-800.0, 1.0], None))
    with pytest.raises(ZInsideRectangle):
        list(contours._cauchy_sums(MIXED, rect, [-5.0, 1.0], None))
    assert built == []


def test_record_tests_its_nodes_only_where_a_pole_meets_an_edge_line(monkeypatch):
    tested = []

    def counting(t, zs):
        tested.append(np.size(zs))
        return rational_values(t, zs)

    monkeypatch.setattr(contours, "rational_values", counting)
    # rectangle_for keeps every pole delta from every edge's line: no node
    # is tested, whatever the sum
    lop = TransformExpr.rational([(complex(-1.0, 2.0), 1.0)])
    rect = rectangle_for(MIXED, 0.5, 5.0)
    inverse_eval(MIXED, LAP, rect, 1.0)
    inverse_eval(lop, LAP, rectangle_for(lop), 1.0)
    cauchy_reproduction(MIXED, rect, 2.0)
    invariance_sweep(MIXED, LAP, 1.0, [0.25, 0.5, 1.0], [3.0, 5.0, 8.0])
    assert tested == []
    # the reach is POLE_HIT_TOL: a pole that far from the line clears it
    line = Contour(ContourShape.BROMWICH_LINE, -1.0, None, 5.0, 0.5)
    nodes = discretize(line)[0]
    inverse_eval(TransformExpr.rational([(complex(-1.0 - POLE_HIT_TOL, 2.0), 1.0)]),
                 LAP, line, 1.0)
    assert tested == []
    # a pole on the line between two nodes: every node is tested once, and
    # none is hit
    assert np.abs(nodes - lop.poles[0][0]).min() > POLE_HIT_TOL
    inverse_eval(lop, LAP, line, 1.0)
    assert tested == [nodes.size]
    # a pole half the reach off a node: the test raises its PoleHit
    tested.clear()
    pole = complex(nodes[7].real + 0.5 * POLE_HIT_TOL, nodes[7].imag)
    with pytest.raises(PoleHit, match=re.escape(f"collides with pole at {pole}")):
        inverse_eval(TransformExpr.rational([(pole, 1.0)]), LAP, line, 1.0)
    assert tested == [nodes.size]

# ---------------------------------------------------------------------------
# Cauchy reproduction at random points
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(poles=_pole_sets(), delta=st.floats(0.1, 1.0), T=st.floats(2.0, 12.0),
       gap=st.floats(0.5, 4.0), im=st.floats(-15.0, 15.0))
def test_cauchy_reproduction_matches_the_pole_sum(poles, delta, T, gap, im):
    t = TransformExpr.rational(poles)
    rect = rectangle_for(t, delta, T)
    z = complex(rect.c_right + gap, im)
    terms = [r / (z - p) for p, r in t.poles]
    # measured against the size of the terms, which may cancel in the sum
    err = abs(cauchy_reproduction(t, rect, z) - sum(terms))
    assert err <= 1e-8 * sum(abs(term) for term in terms)


# ---------------------------------------------------------------------------
# an oracle for open lines: the truncated line of a rational form in
# closed form, from the exponential integral E1
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015329


def _e1_series(u):
    """exp(u) * E1(u) from the power series, A&S 5.1.11."""
    total, term, n = 0j, 1 + 0j, 0
    while True:
        n += 1
        term *= -u / n
        total += term / n
        if abs(term / n) <= 1e-17 * abs(total):
            return cmath.exp(u) * (-_EULER_GAMMA - cmath.log(u) - total)


def _e1_fraction(u):
    """exp(u) * E1(u) from the continued fraction, A&S 5.1.22 in its even
    form 1/(u + 1 - 1/(u + 3 - 4/(u + 5 - 9/(u + 7 - ...)))), by the
    modified Lentz method."""
    b = u + 1.0
    c, d = 1e300, 1.0 / b
    f = d
    for n in range(1, 100_000):
        a = -float(n * n)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        f *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:
            return f
    raise ArithmeticError(f"E1 continued fraction did not converge at {u}")


def _scaled_e1(u):
    """exp(u) * E1(u) on the principal branch, cut along the negative real
    axis.  The series serves near 0 and near the cut, where its terms, up
    to about exp(|u|), lose few digits against E1; the continued fraction
    serves elsewhere."""
    u = complex(u)
    if abs(u) <= 2.0 or (abs(u) + u.real <= 4.0 and abs(u) <= 40.0):
        return _e1_series(u)
    return _e1_fraction(u)


def _truncated_line(poles, c, T, s):
    """(1/2pi i) * integral of exp(s*z) * sum r/(z - p) over [c - iT, c + iT],
    c right of every pole, in closed form.

    With w = z - p running from w- = c - p - iT to w+ = c - p + iT, a pole
    adds r exp(p s) [E1(u-) - E1(u+)] / (2 pi i), u = -s w, plus r exp(p s)
    when s > 0 and the path from u- to u+ crosses E1's cut from above; an
    end on the cut lies on the side its signed zero gives cmath.log, and
    counts as above for +0.0.  exp(p s) E1(-s w) is exp(s (p + w))
    times the scaled E1, so nothing overflows where s (c - Re p) is large.
    At s = 0 a pole adds r (log w+ - log w-) / (2 pi i), the limit of the
    above as s -> 0; so does an s for which exp(s*z) is 1 to 1e-17 on the
    path, whose s*w may be subnormal and lose its digits.
    """
    total = 0j
    for p, r in poles:
        lo, hi = c - p - 1j * T, c - p + 1j * T
        if abs(s) * (abs(c) + T) < 1e-17:
            total += r * (cmath.log(hi) - cmath.log(lo)) / (2j * math.pi)
            continue
        u_lo, u_hi = -s * lo, -s * hi
        ends = (cmath.exp(s * complex(c, -T)) * _scaled_e1(u_lo)
                - cmath.exp(s * complex(c, T)) * _scaled_e1(u_hi))
        total += r * ends / (2j * math.pi)
        if s > 0.0 and math.copysign(1.0, u_lo.imag) > 0.0 > math.copysign(1.0, u_hi.imag):
            total += r * cmath.exp(p * s)
    return total


@pytest.mark.parametrize("u,e1", [
    # E1(x), Ei(x), Si(x) and Ci(x) of A&S Tables 5.1 and 5.2, to 16 digits
    (0.5, 0.5597735947761608),
    (1.0, 0.21938393439552029),
    (2.0, 0.04890051070806112),
    (5.0, 0.0011482955912753257),
    (10.0, 4.156968929685325e-06),
    # E1(ix) = -Ci(x) + i (Si(x) - pi/2)
    (1j, complex(-0.33740392290096816, 0.946083070367183 - math.pi / 2)),
    (10j, complex(0.04545643300445537, 1.6583475942188741 - math.pi / 2)),
    # E1(-x + i0) = -Ei(x) - i pi, on the upper side of the cut
    (complex(-1.0, 0.0), complex(-1.8951178163559368, -math.pi)),
    (complex(-5.0, 0.0), complex(-40.18527535580318, -math.pi)),
])
def test_scaled_e1_matches_the_tables(u, e1):
    assert _scaled_e1(u) == pytest.approx(cmath.exp(u) * e1, rel=1e-14)
    assert _scaled_e1(complex(u).conjugate()) == pytest.approx(
        (cmath.exp(u) * e1).conjugate(), rel=1e-14)


def test_scaled_e1_series_and_fraction_agree():
    # on a ring of radius 3 off the cut, where both converge
    for k in range(24):
        u = cmath.rect(3.0, math.pi * (k + 0.5) / 12 - math.pi)
        assert _e1_series(u) == pytest.approx(_e1_fraction(u), rel=1e-12)


def test_truncated_line_reproduces_the_delta_check_references():
    # exp(-0.001 x) at x = 1 on its line at c = 0, whose transform is
    # 1/(z + 0.001): the references of delta_check's slow-decay test
    for T, want in [(20.0, 0.9918218240311156), (80.0, 0.9994889162408874)]:
        got = _truncated_line([(-0.001, 1.0)], 0.0, T, 1.0)
        assert got == pytest.approx(want, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(poles=_pole_sets(), kernel=_kernel_and_arg(), delta=st.floats(0.25, 1.0),
       T=st.floats(2.0, 1000.0))
def test_rational_lines_match_the_truncated_line(poles, kernel, delta, T):
    kind, arg = kernel
    t = TransformExpr.rational(poles)
    line = bromwich_for(t, delta, T)
    s = arg if kind is LAP else -math.log(arg)
    want = _truncated_line(t.poles, line.c_right, T, s)
    err = abs(inverse_eval(t, kind, line, arg) - want)
    assert err <= 1e-10 * _term_scale(poles, kind, arg)


_decays = st.floats(0.0, 3.0)


def _numeric_line_error(spec, kind, delta, s, T):
    """The Dirichlet-kernel line of the numeric form of spec, delta right
    of its strip edge, as (estimate, error against the closed form of its
    rational twin, sum |r exp(p s)|); s = -ln y for a moment line."""
    numeric = TransformExpr.numeric(spec, kind)
    poles = analytic_transform(spec, kind).poles
    c = numeric.validity.c1 + delta
    est = _line_integral(numeric, c, T, s)
    return (est, abs(est.value - _truncated_line(poles, c, T, s)),
            sum(abs(r) * math.exp(p.real * s) for p, r in poles))


_numeric_twins = st.one_of(
    st.tuples(st.one_of(st.builds(FunctionSpec.exp, _decays),
                        st.builds(FunctionSpec.mixed_exp, _decays, _decays)),
              st.just(TransformKind.LAPLACE)),
    st.tuples(st.builds(FunctionSpec.power, _decays), st.just(TransformKind.MOMENT)))


@settings(max_examples=60, deadline=None)
@given(twin=_numeric_twins, delta=st.floats(0.1, 1.0), s=st.floats(-2.0, 3.0),
       T=st.floats(10.0, 1000.0))
def test_numeric_lines_match_the_truncated_line(twin, delta, s, T):
    # an independent check of the Dirichlet-kernel engine, converged or
    # not: Laplace lines of exp and mixedexp, and moment lines of power
    spec, kind = twin
    est, err, scale = _numeric_line_error(spec, kind, delta, s, T)
    assert err <= 1e-10 * scale


@pytest.mark.parametrize("spec,delta,s,T", [
    (FunctionSpec.mixed_exp(1.6970252347758308, 2.4984932900006194), 1.0,
     2.1854427662644813, 200.0),
    (FunctionSpec.exp(0.5733383427082136), 0.9913303725075423, 0.9858379173182281,
     1000.0),
], ids=["T=200", "T=1000"])
def test_converged_numeric_lines_match_the_truncated_line(spec, delta, s, T):
    # Gauss-Legendre panels over hundreds of kernel periods claimed these
    # lines converged while 1.4e-9 and 2.5e-9 (of the term scale) off
    est, err, scale = _numeric_line_error(spec, TransformKind.LAPLACE, delta, s, T)
    assert est.converged and err <= 1e-10 * scale
