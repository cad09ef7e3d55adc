"""JSON round trips of the frozen dataclasses that carry a to_json."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from melaplace import (
    Contour,
    ContourShape,
    FunctionSpec,
    NoStrip,
    QuadratureSpec,
    TransformExpr,
    TransformKind,
)

_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_complex = st.builds(complex, _finite, _finite)
_specs = st.one_of(
    st.builds(FunctionSpec.exp, _finite),
    st.builds(FunctionSpec.power, _finite),
    st.builds(FunctionSpec.mixed_exp, _finite, _finite),
    st.builds(FunctionSpec.mixed_power, _finite, _finite),
    st.just(FunctionSpec.exp_minus_x()),
)


def _or_none(build, *args):
    """build(*args), or None where the arguments describe no transform."""
    try:
        return build(*args)
    except (ValueError, NoStrip):
        return None


_rationals = st.builds(
    _or_none, st.just(TransformExpr.rational),
    st.lists(st.tuples(_complex, _complex), min_size=1, max_size=6),
)
# numeric forms exist for every spec and kind that has a strip
_numerics = st.builds(
    _or_none, st.just(TransformExpr.numeric), _specs, st.sampled_from(TransformKind)
)
_transforms = st.one_of(
    _rationals, _numerics, st.just(TransformExpr.gamma())
).filter(lambda t: t is not None)


@st.composite
def _contours(draw):
    c_left, c_right = sorted(draw(st.lists(_finite, min_size=2, max_size=2,
                                           unique=True)))
    shape = draw(st.sampled_from(ContourShape))
    if shape is ContourShape.BROMWICH_LINE:
        c_left = None
    return Contour(shape, c_right, c_left, draw(_positive), draw(_positive))


_quadrature_specs = st.builds(
    QuadratureSpec,
    panel_order=st.integers(2, 64),
    rel_tol=_positive,
    abs_tol=_positive,
    max_panels=st.integers(1, 10**6),
)


@settings(max_examples=200, deadline=None)
@given(obj=st.one_of(_transforms, _contours(), _quadrature_specs))
def test_json_roundtrip_is_the_identity(obj):
    # through strict JSON text, as the CLI writes it
    text = json.dumps(obj.to_json(), allow_nan=False)
    back = type(obj).from_json(json.loads(text))
    assert back == obj
    assert back.to_json() == obj.to_json()
