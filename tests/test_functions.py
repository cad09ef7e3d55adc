import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melaplace import (
    DomainError,
    DomainHint,
    FunctionKind,
    FunctionSpec,
    GrowthBounds,
    Strip,
    UnsupportedMap,
    evaluate,
    format_spec_string,
    growth_bounds,
    parse_spec_string,
    to_moment_form,
)


def test_eval_exponential():
    assert evaluate(FunctionSpec.exp(1.0), 2.0) == pytest.approx(math.exp(-2), rel=1e-15)


def test_eval_power():
    assert evaluate(FunctionSpec.power(0.5), 4.0) == pytest.approx(2.0, rel=1e-15)


def test_eval_mixed_exp_at_origin():
    # sin^2 0 = 0, cos^2 0 = 1
    assert evaluate(FunctionSpec.mixed_exp(1.0, 2.0), 0.0) == 1.0


def test_eval_exp_minus_x():
    assert evaluate(FunctionSpec.exp_minus_x(), 1.0) == pytest.approx(math.exp(-1))


def test_eval_vectorized():
    xs = np.linspace(0.0, 3.0, 7)
    vals = evaluate(FunctionSpec.exp(2.0), xs)
    assert np.allclose(vals, np.exp(-2.0 * xs))
    assert isinstance(evaluate(FunctionSpec.exp(2.0), 1.0), float)


def test_power_family_rejects_negative():
    with pytest.raises(DomainError):
        evaluate(FunctionSpec.power(0.5), -1.0)
    with pytest.raises(DomainError):
        evaluate(FunctionSpec.mixed_power(1.0, 2.0), np.array([0.5, -0.5]))


@pytest.mark.parametrize(
    "kind,params",
    [
        (FunctionKind.EXP, ()),
        (FunctionKind.EXP, (1.0, 2.0)),
        (FunctionKind.MIXED_EXP, (1.0,)),
        (FunctionKind.EXP_MINUS_X, (1.0,)),
    ],
)
def test_param_count_enforced(kind, params):
    with pytest.raises(ValueError):
        FunctionSpec(kind, params)


def test_nonfinite_params_rejected():
    with pytest.raises(ValueError):
        FunctionSpec.exp(math.inf)
    with pytest.raises(ValueError):
        FunctionSpec.mixed_exp(1.0, math.nan)


def test_equal_mixed_params_allowed():
    spec = FunctionSpec.mixed_exp(1.5, 1.5)
    assert evaluate(spec, 2.0) == pytest.approx(math.exp(-3.0))


@pytest.mark.parametrize(
    "spec,right,left",
    [
        (FunctionSpec.exp(1.0), -1.0, -1.0),
        (FunctionSpec.exp(-0.5), 0.5, 0.5),
        (FunctionSpec.power(0.5), -0.5, -0.5),
        (FunctionSpec.mixed_exp(1.0, 2.0), -1.0, -2.0),
        (FunctionSpec.mixed_power(1.0, 2.0), -1.0, -2.0),
        (FunctionSpec.exp_minus_x(), -1.0, -1.0),
    ],
)
def test_growth_bounds_table(spec, right, left):
    gb = growth_bounds(spec)
    assert gb.right_index == right
    assert gb.left_index == left
    assert gb.amplitude == 1.0


def test_growth_bounds_pure():
    spec = FunctionSpec.mixed_exp(1.0, 2.0)
    assert growth_bounds(spec) == growth_bounds(spec)


def test_mixed_exp_grid_oracle_for_right_index():
    # sup of ln f(x)/x over a dense grid approaches the right index from
    # below (equality exactly at sin^2 x = 1)
    spec = FunctionSpec.mixed_exp(1.0, 2.0)
    xs = np.linspace(5.0, 60.0, 5001)
    ratios = np.log(evaluate(spec, xs)) / xs
    top = ratios.max()
    assert -1.001 < top <= -1.0 + 1e-12


def test_exponential_bound_identity_exact_kinds():
    # ln f(x) - a*x vanishes identically for the pure exponential, and
    # f(y) = y**(-a) exactly for the pure power
    gamma = 0.7
    a = growth_bounds(FunctionSpec.exp(gamma)).right_index
    xs = np.linspace(0.0, 20.0, 41)
    lhs = np.log(evaluate(FunctionSpec.exp(gamma), xs)) - a * xs
    assert np.max(np.abs(lhs)) < 1e-12
    ys = np.linspace(0.05, 1.0, 41)
    assert np.allclose(evaluate(FunctionSpec.power(gamma), ys), ys ** (-a))


def test_mixed_bounds_hold_on_grid():
    xs = np.linspace(0.0, 30.0, 301)
    f = evaluate(FunctionSpec.mixed_exp(1.0, 2.0), xs)
    assert np.all(f <= np.exp(-1.0 * xs) * (1 + 1e-12))
    ys = np.linspace(1e-3, 1.0, 301)
    g = evaluate(FunctionSpec.mixed_power(1.0, 2.0), ys)
    assert np.all(g <= ys ** 1.0 * (1 + 1e-12))


def test_to_moment_form_exponentials():
    assert to_moment_form(FunctionSpec.exp(0.5)) == FunctionSpec.power(0.5)
    assert to_moment_form(FunctionSpec.exp(0.0)) == FunctionSpec.power(0.0)
    assert to_moment_form(FunctionSpec.exp_minus_x()) == FunctionSpec.power(1.0)


def test_to_moment_form_identity_on_unit_interval():
    spec = FunctionSpec.exp(0.8)
    mapped = to_moment_form(spec)
    for y in np.linspace(0.01, 1.0, 25):
        assert evaluate(mapped, y) == pytest.approx(
            evaluate(spec, -math.log(y)), rel=1e-14
        )


def test_to_moment_form_rejects_outside_catalog():
    with pytest.raises(UnsupportedMap):
        to_moment_form(FunctionSpec.mixed_exp(1.0, 2.0))
    with pytest.raises(UnsupportedMap):
        to_moment_form(FunctionSpec.power(1.0))


def test_domain_hints():
    assert FunctionSpec.exp(1.0).domain_hint is DomainHint.HALF_LINE
    assert FunctionSpec.power(1.0).domain_hint is DomainHint.UNIT_INTERVAL
    assert FunctionSpec.exp_minus_x().domain_hint is DomainHint.HALF_LINE


_finite = st.floats(allow_nan=False, allow_infinity=False)
# one strategy per catalog kind
_specs = st.one_of(
    st.builds(FunctionSpec.exp, _finite),
    st.builds(FunctionSpec.power, _finite),
    st.builds(FunctionSpec.mixed_exp, _finite, _finite),
    st.builds(FunctionSpec.mixed_power, _finite, _finite),
    st.just(FunctionSpec.exp_minus_x()),
)


@settings(max_examples=200, deadline=None)
@given(spec=_specs)
def test_spec_string_and_json_roundtrip(spec):
    assert parse_spec_string(format_spec_string(spec)) == spec
    assert FunctionSpec.from_json(spec.to_json()) == spec


def test_strip_and_bounds_invariants():
    with pytest.raises(ValueError):
        Strip(2.0, 1.0)
    with pytest.raises(ValueError):
        GrowthBounds(right_index=-2.0, left_index=-1.0)
    with pytest.raises(ValueError):
        GrowthBounds(right_index=0.0, left_index=0.0, amplitude=0.0)
    assert Strip(0.0, math.inf).contains(5.0)
    assert not Strip(0.0, 1.0).contains(1.0)
