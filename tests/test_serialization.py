"""JSON round trips of the frozen dataclasses that carry a to_json."""

import json
import re

import pytest
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


_LINE = {"shape": "bromwich", "c_right": 1.0, "half_height": 5.0, "delta": 0.5}


@pytest.mark.parametrize("reader, doc, message", [
    (Contour.from_json, {}, "a Contour needs the key 'shape'"),
    (Contour.from_json, [], "a Contour is a JSON object"),
    (Contour.from_json, {"shape": "bromwich", "c_right": 1.0, "delta": 0.5},
     "a Contour needs the key 'half_height'"),
    (TransformExpr.from_json, {}, "a TransformExpr is a JSON object with the key 'form'"),
    (TransformExpr.from_json, [], "a TransformExpr is a JSON object with the key 'form'"),
    (TransformExpr.from_json, {"form": "numeric"},
     "a numeric TransformExpr needs the key 'source'"),
    (TransformExpr.from_json, {"form": "numeric", "source": "expminusx"},
     "a numeric TransformExpr needs the key 'kind'"),
    (QuadratureSpec.from_json, {"foo": 1}, "a QuadratureSpec has no key 'foo'"),
    (QuadratureSpec.from_json, {"panel_order": 8, "max_panel": 2},
     "a QuadratureSpec has no key 'max_panel'"),
    # wrongly typed values name their key too, where the field's own check
    # would raise a TypeError or name no key
    (Contour.from_json, {**_LINE, "c_right": None}, "a Contour's 'c_right' cannot be None"),
    (Contour.from_json, {**_LINE, "c_right": "abc"}, "a Contour's 'c_right' cannot be 'abc'"),
    (Contour.from_json, {**_LINE, "shape": "circle"}, "a Contour's 'shape' cannot be 'circle'"),
    (Contour.from_json, {**_LINE, "shape": "rectangle", "c_left": [0.0]},
     "a Contour's 'c_left' cannot be [0.0]"),
    (QuadratureSpec.from_json, {"rel_tol": "x"},
     "a QuadratureSpec's 'rel_tol' must be a number, got 'x'"),
    (QuadratureSpec.from_json, {"panel_order": None},
     "a QuadratureSpec's 'panel_order' must be a number, got None"),
], ids=["contour-empty", "contour-list", "contour-no-half-height", "transform-empty",
        "transform-list", "numeric-no-source", "numeric-no-kind", "quad-unknown",
        "quad-misspelt", "contour-none", "contour-text", "contour-shape",
        "contour-left-list", "quad-text", "quad-none"])
def test_malformed_json_documents_raise_a_value_error_naming_the_key(reader, doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reader(doc)
