import json
import math
import re
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from melaplace import (
    DomainError,
    DomainHint,
    Estimate,
    FunctionKind,
    FunctionSpec,
    InverseKind,
    MelaplaceError,
    NoClosedForm,
    NoStrip,
    OutOfDomain,
    ParseError,
    PoleHit,
    QuadratureSpec,
    TailDivergence,
    Strip,
    TransformExpr,
    TransformForm,
    TransformKind,
    analytic_transform,
    bromwich_for,
    eval_transform,
    evaluate,
    format_spec_string,
    growth_bounds,
    holomorphy_strip,
    integrate_finite,
    integrate_halfline,
    integrate_unit_singular,
    inverse_eval,
    laplace_transform,
    mellin_moment,
    mellin_transform,
    transform_estimate,
)
from melaplace import quadrature
from melaplace.quadrature import (
    _Dirichlet,
    _folded_roots,
    _gl_pair,
    _halfline,
    _peak_roots,
    _within,
)
from melaplace.transforms import (
    POLE_HIT_TOL,
    _domain,
    _kernel_integrand,
    _line_integral,
    _off_axis,
    _pieces,
    rational_values,
)

EXP1 = FunctionSpec.exp(1.0)
POW_HALF = FunctionSpec.power(0.5)
MIXED = FunctionSpec.mixed_exp(1.0, 2.0)
EGAMMA = FunctionSpec.exp_minus_x()

# partial-fraction value of the mixedexp transform, cross-checked against
# direct quadrature before freezing the residue table
def mixed_closed_form(z, g1=1.0, g2=2.0):
    return 0.5 * (1.0 / (z + g1) - (z + g1) / ((z + g1) ** 2 + 4.0)) + 0.5 * (
        1.0 / (z + g2) + (z + g2) / ((z + g2) ** 2 + 4.0)
    )


def factorial_oracle(n):
    out = 1
    for k in range(2, n):
        out *= k
    return float(out)


# ---------------------------------------------------------------------------
# direct transforms
# ---------------------------------------------------------------------------

def test_laplace_of_exponential():
    assert laplace_transform(EXP1, 1.0) == pytest.approx(0.5, rel=1e-9)
    assert laplace_transform(EXP1, 0.0) == pytest.approx(1.0, rel=1e-9)


def test_laplace_of_mixed_exponential():
    assert laplace_transform(MIXED, 0.0) == pytest.approx(0.775, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="plain Gauss-Legendre panels resolve exp(-i Im(z) t) "
                   "only by splitting: 455 panels, whose summed err_est stays past "
                   "tolerance on a value 3.6e-11 from 1/(z+1)")
def test_laplace_far_up_the_imaginary_axis_converges():
    # exp(-(z + 1) t) at Im z = 200 holds 32 periods per unit of t; the
    # first tail panels split until the order-16 and order-32 rules agree,
    # and their summed err_est, 1.3e-12, stays above rel_tol |value| =
    # 5e-13, so `transform --z 0.05+200i --strict` exits 3
    z = 0.05 + 200j
    est = transform_estimate(EXP1, TransformKind.LAPLACE, z)
    assert abs(est.value - 1 / (z + 1)) <= 1e-10 * abs(1 / (z + 1))
    assert est.converged


@pytest.mark.xfail(strict=True, reason="the mass lies within a few units of u = 709, far "
                   "below abs_tol, in the tail panel [511, 1023], whose nodes miss it: "
                   "2.2263e-316 with err_est 2.2e-316 and converged=True")
def test_mellin_of_a_steep_exponential_reaches_its_value():
    # the Mellin transform of exp(-g x) at z = 1 is 1/g; in u = -ln x its
    # integrand exp(-u - g exp(-u)) peaks at u = ln g, 709.2 at g = 1e308,
    # and no value of it passes abs_tol, so no panel splits
    est = transform_estimate(FunctionSpec.exp(1e308), TransformKind.MELLIN, 1.0)
    assert abs(est.value - 1e-308) <= 1e-6 * 1e-308


def test_laplace_domain_guard():
    with pytest.raises(OutOfDomain):
        laplace_transform(EXP1, -1.0)
    with pytest.raises(OutOfDomain):
        laplace_transform(EXP1, complex(-1.5, 3.0))


@pytest.mark.parametrize("kind", list(TransformKind))
@pytest.mark.parametrize("z", [1e400, complex(1.0, 1e400), complex(1.0, math.nan),
                               complex(math.nan, 0.0), complex(-math.inf, 0.0)])
def test_non_finite_z_is_named_before_the_strip_test(kind, z):
    # 1e400 is inf, which no strip test of Re z > c would name
    with pytest.raises(OutOfDomain, match=f"^{kind.value} transform needs a finite z, "):
        transform_estimate(FunctionSpec.exp(1.0), kind, z)


@pytest.mark.parametrize("z", [complex(1.0, math.nan), complex(math.nan, 0.0),
                               complex(math.inf, 0.0), complex(1.0, -math.inf)])
def test_rational_form_names_a_non_finite_z(z):
    # before any numpy work, so no overflow is blamed and no warning leaks
    with pytest.raises(OutOfDomain, match="^rational transform needs a finite z, "):
        eval_transform(TransformExpr.rational([(-1.0, 1.0)]), z)


@pytest.mark.parametrize("pole,residue", [
    (complex(math.nan), 1.0), (1e400, 1.0), (-1.0, complex(0.0, -math.inf)),
    (-1.0, math.nan)])
def test_non_finite_poles_and_residues_are_named(pole, residue):
    # the strip of a nan pole would fail as "strip requires c1 < c2"
    with pytest.raises(ValueError, match="^poles and residues must be finite$"):
        TransformExpr.rational([(-2.0, 1.0), (pole, residue)])


@pytest.mark.parametrize("poles", [
    [{"a": 1}], [[1, 2, 3]], [["x", 0, 1, 0]], [None], 5, [[10**400, 0, 1, 0]]],
    ids=["dict", "three-items", "text", "null", "number", "huge-int"])
def test_pole_list_reader_names_a_malformed_entry(poles):
    with pytest.raises(ParseError, match=r"^poles must be \[\[re, im, res_re, res_im\], "):
        TransformExpr.from_json({"form": "rational", "poles": poles})


def test_moment_of_power():
    assert mellin_moment(POW_HALF, 1.5) == pytest.approx(0.5, rel=1e-9)
    assert mellin_moment(FunctionSpec.power(0.0), 1.0) == pytest.approx(1.0, rel=1e-9)


def test_moment_of_mixed_power():
    # frozen from scipy.integrate.quad at epsrel 1e-14
    expected = 0.3759861337450637
    got = mellin_moment(FunctionSpec.mixed_power(1.0, 2.0), 1.0)
    assert got == pytest.approx(expected, rel=1e-10)


def test_moment_domain_guard():
    with pytest.raises(OutOfDomain):
        mellin_moment(POW_HALF, -0.5)


@pytest.mark.parametrize(
    "z,expected",
    [(3.0, 2.0), (1.0, 1.0), (2.0, 1.0), (4.0, 6.0)],
)
def test_mellin_transform_matches_factorials(z, expected):
    assert factorial_oracle(int(z)) == expected
    assert mellin_transform(EGAMMA, z) == pytest.approx(expected, rel=1e-9)


def test_mellin_transform_at_half():
    # Gaussian-integral oracle: the value at 1/2 is sqrt(pi)
    assert mellin_transform(EGAMMA, 0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_mellin_transform_strip_guard():
    with pytest.raises(OutOfDomain):
        mellin_transform(EGAMMA, -0.5)
    with pytest.raises(NoStrip):
        mellin_transform(POW_HALF, 1.0)


def test_laplace_next_to_the_strip_edge_decays_too_slowly_to_resolve():
    # int exp(-1e-170 t) dt = 1e170 converges, but its tail is not yet
    # negligible where the doubling panels run out, at t ~ 1.3e154: the
    # error says so rather than calling the integral divergent
    with pytest.raises(TailDivergence, match=r"^the integral diverges, or decays too "
                       r"slowly to resolve: tail panels still not negligible at "
                       r"t = 1\.34078e\+154$"):
        transform_estimate(FunctionSpec.exp(0.0), TransformKind.LAPLACE, 1e-170)


def test_mellin_of_slowly_decaying_exponential():
    # x**(s-1) exp(-g x) rises until x = (s-1)/g ~ 8.8 before it decays,
    # a hump the tail's stop rule must read past
    g, s = 0.258, 3.278
    got = mellin_transform(FunctionSpec.exp(g), s)
    assert got == pytest.approx(math.gamma(s) * g ** -s, rel=1e-9)
    assert got.real == pytest.approx(222.6138, rel=1e-6)


def test_mellin_scan_of_humped_integrands_never_raises():
    for g in np.linspace(0.2, 1.0, 9):
        for s in np.linspace(0.5, 4.0, 8):
            want = math.gamma(s) * g ** -s
            assert mellin_transform(FunctionSpec.exp(g), s) == pytest.approx(
                want, rel=1e-9
            )


def test_mellin_estimate_is_judged_on_its_summed_error():
    # the unit and tail halves each converge on their own, but cancel to
    # 4e-14: the one tail over both sides sums an error of 3.8e-13, over
    # abs_tol and 9x the value.  Gamma there is -1.1545e-14+4.1604e-14j
    # (mpmath), 7.5% away
    z = 0.3759052675882387 + 19.9396057279115j
    q = QuadratureSpec()
    est = transform_estimate(EGAMMA, TransformKind.MELLIN, z, q)
    unit = integrate_halfline(_kernel_integrand(EGAMMA, True, z), 0.0, q)
    tail_at = _off_axis(EGAMMA)
    tail = integrate_halfline(lambda x: tail_at((z - 1.0) * np.log(x), x), 1.0, q)
    assert unit.converged and tail.converged
    assert not _within(q, est.err_est, abs(est.value))
    assert not est.converged
    assert transform_estimate(EGAMMA, TransformKind.MELLIN, 2.5 + 3j, q).converged


def test_split_identity_parts_match_direct_quadrature():
    # unit-interval part and half-line part each against a plain finite
    # integral computed without the exp substitution
    z = 2.5
    f = lambda x: x ** (z - 1.0) * np.exp(-x)
    unit = integrate_unit_singular(f, z)
    tail = integrate_halfline(f, 1.0)
    direct_unit = integrate_finite(f, 1e-12, 1.0)
    direct_tail = integrate_finite(f, 1.0, 60.0)
    assert abs(unit.value - direct_unit.value) <= 10 * 1e-10
    assert abs(tail.value - direct_tail.value) <= 10 * 1e-10
    assert mellin_transform(EGAMMA, z) == pytest.approx(
        complex(unit.value + tail.value), rel=1e-12
    )


# ---------------------------------------------------------------------------
# holomorphy strips
# ---------------------------------------------------------------------------

def test_strips():
    assert holomorphy_strip(EGAMMA) == Strip(0.0, math.inf)
    assert holomorphy_strip(FunctionSpec.exp(2.0)) == Strip(0.0, math.inf)
    assert holomorphy_strip(MIXED) == Strip(0.0, math.inf)
    for bad in (POW_HALF, FunctionSpec.mixed_power(1.0, 2.0), FunctionSpec.exp(0.0)):
        with pytest.raises(NoStrip):
            holomorphy_strip(bad)
    # the spec is named by its spec string
    with pytest.raises(NoStrip, match=r"^power:gamma=0\.5 has no holomorphy strip$"):
        holomorphy_strip(POW_HALF)


# every catalog kind, with parameters on both sides of 0 and at 0 itself
_signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
_catalog = st.one_of(
    st.builds(FunctionSpec.exp, _signed),
    st.builds(FunctionSpec.power, _signed),
    st.builds(FunctionSpec.mixed_exp, _signed, _signed),
    st.builds(FunctionSpec.mixed_power, _signed, _signed),
    st.just(EGAMMA),
)


@settings(max_examples=200, deadline=None)
@given(spec=_catalog)
def test_holomorphy_strip_follows_the_growth_metadata(spec):
    # the per-kind rule: exp(-x), and exponentials that decay
    exists = (
        spec.kind is FunctionKind.EXP_MINUS_X
        or (spec.kind is FunctionKind.EXP and spec.params[0] > 0)
        or (spec.kind is FunctionKind.MIXED_EXP and min(spec.params) > 0)
    )
    assert exists == (spec.domain_hint is DomainHint.HALF_LINE
                      and growth_bounds(spec).right_index < 0)
    if exists:
        assert holomorphy_strip(spec) == Strip(0.0, math.inf)
    else:
        message = f"{format_spec_string(spec)} has no holomorphy strip"
        with pytest.raises(NoStrip, match=f"^{re.escape(message)}$"):
            holomorphy_strip(spec)


@settings(max_examples=200, deadline=None)
@given(spec=_catalog, moment=st.booleans(), dx=st.floats(1e-3, 5.0),
       im=st.floats(-10.0, 10.0))
def test_fused_integrand_matches_the_unfused_product(spec, moment, dx, im):
    # native and foreign pairs alike are exp(-t*z) times the source at t,
    # or at y = exp(-t) for the moment, for z inside the strip
    kind = TransformKind.MOMENT if moment else TransformKind.LAPLACE
    z = complex(TransformExpr.numeric(spec, kind).validity.c1 + dx, im)
    t = np.linspace(0.0, 50.0, 501)
    # a power of y = 0 or of t = 0 may be inf or nan; those points are skipped
    with np.errstate(all="ignore"):
        got = _kernel_integrand(spec, moment, z)(t)
        want = np.exp(-t * z) * evaluate(spec, np.exp(-t) if moment else t)
    kept = (np.isfinite(got) & np.isfinite(want)
            & (np.abs(want) > np.finfo(float).tiny))
    assert kept.any()
    assert np.all(np.abs(got[kept] - want[kept]) <= 1e-12 * np.abs(want[kept]))


_decays = st.floats(0.05, 3.0)
_half_line_sources = st.one_of(
    st.just(EGAMMA),
    st.builds(FunctionSpec.exp, _signed),
    st.builds(FunctionSpec.mixed_exp, _signed, _signed),
)
_decaying_sources = st.one_of(
    st.just(EGAMMA),
    st.builds(FunctionSpec.exp, _decays),
    st.builds(FunctionSpec.mixed_exp, _decays, _decays),
)


def _assert_matches_product(got, kernel, source):
    # the product form rounds each factor on its own, so it is the
    # reference only where both factors and the product are normal floats
    tiny = np.finfo(float).tiny
    want = kernel * source
    kept = (np.isfinite(want) & (np.abs(want) > tiny)
            & (np.abs(kernel) > tiny) & (np.abs(source) > tiny))
    assert kept.any()
    assert np.all(np.abs(got[kept] - want[kept]) <= 1e-13 * np.abs(want[kept]))


@settings(max_examples=200, deadline=None)
@given(spec=_half_line_sources, dx=st.floats(1e-3, 5.0), im=st.floats(-10.0, 10.0),
       real=st.booleans())
def test_fused_foreign_moment_matches_its_product_form(spec, dx, im, real):
    # a half-line source read at y = exp(-t): exp(-z*t - g*y) * weight(y)**2
    # per term, against exp(-t*z) times the source's own values
    c = TransformExpr.numeric(spec, TransformKind.MOMENT).validity.c1 + dx
    z = c if real else complex(c, im)
    t = np.linspace(0.0, 50.0, 501)
    got = _kernel_integrand(spec, True, z)(t)
    _assert_matches_product(got, np.exp(-t * z), evaluate(spec, np.exp(-t)))


@settings(max_examples=200, deadline=None)
@given(spec=_decaying_sources, dx=st.floats(1e-3, 5.0), im=st.floats(-10.0, 10.0),
       real=st.booleans())
def test_fused_mellin_tail_matches_its_product_form(spec, dx, im, real):
    # exp((z-1)*ln x - g*x) * weight(x)**2 per term, against x**(z-1) as
    # exp((z-1)*ln x) times the source's own values
    c = holomorphy_strip(spec).c1 + dx
    z = c if real else complex(c, im)
    x = np.linspace(1.0, 2000.0, 2001)
    lx = np.log(x)
    with np.errstate(under="ignore"):
        got = _off_axis(spec)((z - 1.0) * lx, x)
        _assert_matches_product(got, np.exp((z - 1.0) * lx), evaluate(spec, x))


def test_fused_mellin_tail_stays_finite_where_the_power_overflows():
    # x**170 overflows from x ~ 65 on, and exp(-x) underflows from x ~ 745
    x = np.linspace(1.0, 2000.0, 19991)
    lx = np.log(x)
    with np.errstate(over="ignore"):
        assert not np.isfinite(x ** 170.0).all()
    with np.errstate(under="ignore"):
        got = _off_axis(EGAMMA)((171.0 - 1.0) * lx, x)
        want = np.exp(170.0 * lx - x)
    assert np.isfinite(got).all()
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("z", [80.0, 140.0, 150.0, 171.0])
def test_gamma_at_large_real_z_meets_only_the_hump_rule(z):
    # x**(z-1) exp(-x) rises until its hump at x = z - 1, far out for these
    # z; the tail's one stop rule, two negligible panels in a row, reads past
    # the rise without a split at the hump
    got = eval_transform(TransformExpr.gamma(), z)
    assert abs(got - math.gamma(z)) <= 1e-13 * math.gamma(z)


def test_gamma_at_real_z_up_to_171_matches_math_gamma():
    # Gamma(z) fits float64 up to z = 171, and x**(z-1) exp(-x) peaks at
    # x = z - 1: the x side's one tail from x = 1 reads on past the hump
    t = TransformExpr.gamma()
    for z in np.linspace(1.0, 171.0, 341):
        want = math.gamma(z)
        assert abs(eval_transform(t, z) - want) <= 4e-14 * want, z


@pytest.mark.parametrize("c", [0.1, 10.0])
def test_strip_borders_verified_by_quadrature(c):
    # both defining integrals converge for interior abscissas
    spec = FunctionSpec.exp(2.0)
    f = lambda x: x ** (c - 1.0) * np.exp(-2.0 * x)
    assert integrate_unit_singular(f, c).converged
    assert integrate_halfline(f, 1.0).converged


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------

def test_catalog_single_pole_forms():
    t = analytic_transform(EXP1, TransformKind.LAPLACE)
    assert t.form is TransformForm.RATIONAL
    assert t.poles == ((complex(-1.0), complex(1.0)),)
    t = analytic_transform(POW_HALF, TransformKind.MOMENT)
    assert t.poles == ((complex(-0.5), complex(1.0)),)
    t = analytic_transform(EGAMMA, TransformKind.LAPLACE)
    assert t.poles == ((complex(-1.0), complex(1.0)),)


def test_catalog_mixed_residues_golden():
    t = analytic_transform(MIXED, TransformKind.LAPLACE)
    table = {p: r for p, r in t.poles}
    assert table == {
        complex(-1, 0): complex(0.5),
        complex(-1, 2): complex(-0.25),
        complex(-1, -2): complex(-0.25),
        complex(-2, 0): complex(0.5),
        complex(-2, 2): complex(0.25),
        complex(-2, -2): complex(0.25),
    }
    assert eval_transform(t, 0.0) == pytest.approx(0.775)


def test_catalog_mixed_equal_rates_collapses():
    # coincident poles merge and the cosine pairs cancel exactly
    t = analytic_transform(FunctionSpec.mixed_exp(1.5, 1.5), TransformKind.LAPLACE)
    assert t.poles == ((complex(-1.5), complex(1.0)),)


def test_catalog_gamma_form():
    t = analytic_transform(EGAMMA, TransformKind.MELLIN)
    assert t == TransformExpr.numeric(EGAMMA, TransformKind.MELLIN)
    assert t == TransformExpr.gamma()
    assert t.validity == Strip(0.0, math.inf)


@pytest.mark.parametrize(
    "spec,kind",
    [
        (FunctionSpec.mixed_power(1.0, 2.0), TransformKind.MOMENT),
        (POW_HALF, TransformKind.LAPLACE),
        (EGAMMA, TransformKind.MOMENT),
        (EXP1, TransformKind.MELLIN),
    ],
)
def test_no_closed_form(spec, kind):
    with pytest.raises(NoClosedForm):
        analytic_transform(spec, kind)


def test_catalog_consistency_against_quadrature():
    rng = np.random.default_rng(42)
    pairs = [
        (EXP1, TransformKind.LAPLACE),
        (POW_HALF, TransformKind.MOMENT),
        (MIXED, TransformKind.LAPLACE),
        (EGAMMA, TransformKind.LAPLACE),
    ]
    for spec, kind in pairs:
        t = analytic_transform(spec, kind)
        a = t.validity.c1
        for _ in range(20):
            z = complex(a + 0.2 + rng.uniform(0.0, 3.0), rng.uniform(-4.0, 4.0))
            exact = eval_transform(t, z)
            numeric = transform_estimate(spec, kind, z).value
            assert abs(exact - numeric) <= 10 * 1e-10 * abs(exact)


# the (kind, transform) pairs with a closed form, and its form: the Laplace
# transforms of the half-line kinds and the moment of power are rational,
# the Mellin transform of exp(-x) is the Gamma function
_CLOSED_FORMS = {
    (FunctionKind.EXP, TransformKind.LAPLACE): TransformForm.RATIONAL,
    (FunctionKind.MIXED_EXP, TransformKind.LAPLACE): TransformForm.RATIONAL,
    (FunctionKind.EXP_MINUS_X, TransformKind.LAPLACE): TransformForm.RATIONAL,
    (FunctionKind.POWER, TransformKind.MOMENT): TransformForm.RATIONAL,
    (FunctionKind.EXP_MINUS_X, TransformKind.MELLIN): TransformForm.NUMERIC,
}
_ARITY = {FunctionKind.EXP: 1, FunctionKind.POWER: 1, FunctionKind.MIXED_EXP: 2,
          FunctionKind.MIXED_POWER: 2, FunctionKind.EXP_MINUS_X: 0}
_rate = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 3.0))


@pytest.mark.parametrize("tkind", list(TransformKind), ids=lambda k: k.value)
@pytest.mark.parametrize("fkind", list(FunctionKind), ids=lambda k: k.value)
@settings(max_examples=25, deadline=None)
@given(g1=_rate, g2=_rate, tie=st.booleans(), dx=st.floats(0.2, 3.0),
       im=st.floats(-4.0, 4.0))
def test_closed_forms_exist_exactly_for_the_cataloged_pairs(fkind, tkind, g1, g2, tie,
                                                            dx, im):
    spec = FunctionSpec(fkind, (g1, g1 if tie else g2)[:_ARITY[fkind]])
    form = _CLOSED_FORMS.get((fkind, tkind))
    if form is None:
        message = f"no closed form for ({fkind.value}, {tkind.value})"
        with pytest.raises(NoClosedForm, match=f"^{re.escape(message)}$"):
            analytic_transform(spec, tkind)
        return
    t = analytic_transform(spec, tkind)
    assert t.form is form
    if form is TransformForm.NUMERIC:
        assert t == TransformExpr.gamma()
        return
    # anywhere inside the strip, the poles sum to the defining integral;
    # merged poles keep the rightmost location, so the edges are equal
    edge = TransformExpr.numeric(spec, tkind).validity.c1
    assert t.validity.c1 == edge
    z = complex(t.validity.c1 + dx, im)
    exact = eval_transform(t, z)
    assert abs(exact - transform_estimate(spec, tkind, z).value) <= 1e-9 * abs(exact)


@pytest.mark.parametrize("params", [(5.1e-248, 0.0), (0.0, 5.1e-248)])
def test_merged_poles_keep_the_rightmost_location(params):
    # the cos**2 term with g = 0 does not decay: the strip starts at 0, in
    # either parameter order, where the six poles merge into one
    spec = FunctionSpec.mixed_exp(*params)
    t = analytic_transform(spec, TransformKind.LAPLACE)
    assert t.validity.c1 == 0.0
    assert t.validity == TransformExpr.numeric(spec, TransformKind.LAPLACE).validity
    assert t.poles == ((0j, 1 + 0j),)


def test_gamma_consistency_against_stdlib():
    rng = np.random.default_rng(3)
    for _ in range(8):
        z = rng.uniform(0.3, 5.0)
        assert mellin_transform(EGAMMA, z) == pytest.approx(math.gamma(z), rel=1e-9)


# ---------------------------------------------------------------------------
# uniform evaluation
# ---------------------------------------------------------------------------

def test_eval_rational():
    t = TransformExpr.rational([(-1.0, 1.0)])
    assert eval_transform(t, 1.0) == pytest.approx(0.5)
    with pytest.raises(PoleHit):
        eval_transform(t, -1.0)
    with pytest.raises(PoleHit):
        eval_transform(t, -1.0 + 1e-13)


def test_eval_gamma():
    t = TransformExpr.gamma()
    assert eval_transform(t, 4.0) == pytest.approx(6.0, rel=1e-9)
    with pytest.raises(OutOfDomain):
        eval_transform(t, -0.5)


def test_eval_numeric_checks_validity():
    t = TransformExpr.numeric(EXP1, TransformKind.LAPLACE)
    assert t.validity == Strip(-1.0, math.inf)
    assert eval_transform(t, 1.0) == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(OutOfDomain):
        eval_transform(t, -1.0)


def test_duality_between_laplace_and_moment():
    rng = np.random.default_rng(11)
    for _ in range(6):
        g = rng.uniform(0.1, 3.0)
        z = complex(-g + 0.15 + rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0))
        lhs = laplace_transform(FunctionSpec.exp(g), z)
        rhs = mellin_moment(FunctionSpec.power(g), z)
        assert abs(lhs - rhs) <= 1e-9


def test_moment_agrees_with_unit_interval_quadrature():
    # the production moment path integrates in t after y = exp(-t); check it
    # against a direct y-space integration of the same kernel, which shares
    # no panels with it
    g = 0.7
    for z in (complex(0.4, 1.3), complex(-0.3, 0.0), complex(1.0, -2.0)):
        fused = mellin_moment(FunctionSpec.power(g), z)
        direct = integrate_unit_singular(
            lambda y: np.exp((z + g - 1.0) * np.log(y)), z.real + g
        )
        assert abs(fused - direct.value) <= 1e-10


def test_conjugate_symmetry_of_direct_transforms():
    z = complex(0.8, 2.3)
    for spec, kind in (
        (EXP1, TransformKind.LAPLACE),
        (POW_HALF, TransformKind.MOMENT),
        (EGAMMA, TransformKind.MELLIN),
    ):
        v = transform_estimate(spec, kind, z).value
        w = transform_estimate(spec, kind, z.conjugate()).value
        assert w == pytest.approx(v.conjugate(), rel=1e-9)


def test_pointwise_linearity_of_laplace():
    a, b = 1.5, -0.75
    z = complex(0.6, 1.1)
    f, g = EXP1, FunctionSpec.exp(2.0)
    combined = integrate_halfline(
        lambda t: np.exp(-t * z) * (a * np.exp(-t) + b * np.exp(-2.0 * t)), 0.0
    ).value
    separate = a * laplace_transform(f, z) + b * laplace_transform(g, z)
    assert abs(combined - separate) <= 1e-10


# ---------------------------------------------------------------------------
# TransformExpr invariants and serialization
# ---------------------------------------------------------------------------

def test_rational_invariants():
    with pytest.raises(ValueError):
        TransformExpr.rational([])
    with pytest.raises(ValueError):
        TransformExpr.rational([(-1.0, 1.0), (-1.0 + 1e-13, 2.0)])


def test_far_apart_poles_compare_without_overflow():
    # |p - q| exceeds the largest float here
    t = TransformExpr.rational([(complex(1.5e308, 1.5e308), 1.0), (0.0, 1.0)])
    assert t.validity == Strip(1.5e308, math.inf)


def test_conjugate_symmetry_detection():
    sym = analytic_transform(MIXED, TransformKind.LAPLACE)
    assert sym.conjugate_symmetric
    lop = TransformExpr.rational([(complex(-1, 2), 1.0)])
    assert not lop.conjugate_symmetric


def test_conjugate_symmetry_is_derived_at_construction():
    sym = analytic_transform(MIXED, TransformKind.LAPLACE)
    lop = TransformExpr.rational([(complex(-1, 2), 1.0)])
    assert sym.conjugate_symmetric and not lop.conjugate_symmetric
    assert TransformExpr.gamma().conjugate_symmetric
    # derived state: no part of equality, hashing, repr or JSON
    compared = [f.name for f in fields(TransformExpr) if f.compare]
    assert "conjugate_symmetric" not in compared
    assert "conjugate_symmetric" not in repr(sym)
    assert "conjugate_symmetric" not in json.dumps(sym.to_json())
    # a pole pair 1e-9 apart from conjugate is not symmetric
    near = TransformExpr.rational([(1j, 1.0), (1e-9 - 1j, 1.0)])
    assert not near.conjugate_symmetric


def test_json_roundtrip_all_forms():
    rational = analytic_transform(MIXED, TransformKind.LAPLACE)
    doc = rational.to_json()
    # the poles are the CLI's --poles list, the source its --func string
    assert doc["form"] == "rational"
    assert doc["poles"] == [[p.real, p.imag, r.real, r.imag] for p, r in rational.poles]
    assert TransformExpr.from_json(doc).poles == rational.poles

    numeric = TransformExpr.numeric(POW_HALF, TransformKind.MOMENT)
    doc = numeric.to_json()
    assert doc == {"form": "numeric", "source": "power:gamma=0.5", "kind": "moment"}
    back = TransformExpr.from_json(doc)
    assert back.source == POW_HALF and back.kind is TransformKind.MOMENT

    with pytest.raises(ValueError):
        TransformExpr.from_json({"form": "nope"})


def test_gamma_json_form_is_not_read():
    # the Gamma function is written as its numeric form
    assert TransformExpr.gamma().to_json() == {
        "form": "numeric", "source": "expminusx", "kind": "mellin"}
    with pytest.raises(ValueError, match="unknown transform form 'gamma'"):
        TransformExpr.from_json({"form": "gamma"})


def test_mixed_closed_form_matches_residue_table():
    # the helper used to derive the residues agrees with the frozen table
    t = analytic_transform(MIXED, TransformKind.LAPLACE)
    rng = np.random.default_rng(5)
    for _ in range(5):
        z = complex(rng.uniform(-0.9, 3.0), rng.uniform(-4.0, 4.0))
        assert eval_transform(t, z) == pytest.approx(
            mixed_closed_form(z), rel=1e-13
        )


# ---------------------------------------------------------------------------
# numeric values, one z at a time
# ---------------------------------------------------------------------------

# (transform, its source function and kind, left edge of its domain)
_BATCH_CASES = {
    "laplace": lambda g1, g2: (
        TransformExpr.numeric(FunctionSpec.mixed_exp(g1, g2), TransformKind.LAPLACE),
        FunctionSpec.mixed_exp(g1, g2), TransformKind.LAPLACE, -min(g1, g2)),
    "moment": lambda g1, g2: (
        TransformExpr.numeric(FunctionSpec.mixed_power(g1, g2), TransformKind.MOMENT),
        FunctionSpec.mixed_power(g1, g2), TransformKind.MOMENT, -min(g1, g2)),
    "mellin": lambda g1, g2: (
        TransformExpr.numeric(FunctionSpec.mixed_exp(g1, g2), TransformKind.MELLIN),
        FunctionSpec.mixed_exp(g1, g2), TransformKind.MELLIN, 0.0),
    "gamma": lambda g1, g2: (TransformExpr.gamma(), EGAMMA, TransformKind.MELLIN, 0.0),
}

_rates = st.floats(0.2, 2.0)
_offsets = st.lists(
    st.tuples(st.floats(0.1, 4.0), st.floats(-5.0, 5.0)), min_size=1, max_size=6
)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(sorted(_BATCH_CASES)), g1=_rates, g2=_rates,
       offsets=_offsets)
def test_values_match_per_z_estimates(case, g1, g2, offsets):
    # a numeric form's value is its direct transform's estimate, bit for bit
    t, spec, kind, edge = _BATCH_CASES[case](g1, g2)
    for dx, im in offsets:
        z = complex(edge + dx, im)
        got = eval_transform(t, z)
        assert isinstance(got, complex)
        assert got == transform_estimate(spec, kind, z).value


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(sorted(_BATCH_CASES)), g1=_rates, g2=_rates,
       outside=st.floats(0.0, 3.0), im=st.floats(-5.0, 5.0))
def test_values_reject_any_z_outside_the_domain(case, g1, g2, outside, im):
    # the strip check of t.validity is the direct transform's, message too;
    # the strip edge itself lies outside
    t, spec, kind, edge = _BATCH_CASES[case](g1, g2)
    for z in (complex(edge, im), complex(edge - outside, im)):
        with pytest.raises(OutOfDomain) as want:
            transform_estimate(spec, kind, z)
        with pytest.raises(OutOfDomain, match=f"^{re.escape(str(want.value))}$"):
            eval_transform(t, z)


def test_values_keep_the_shape_of_their_argument():
    # rational_values keeps the shape of its argument; a numeric form is
    # integrated one z at a time
    zs = np.linspace(0.5, 4.0, 300).reshape(3, 100)
    t = TransformExpr.gamma()
    got = np.array([[eval_transform(t, z) for z in row] for row in zs])
    want = np.vectorize(math.gamma)(zs)
    assert np.max(np.abs(got - want) / want) <= 1e-9
    rational = TransformExpr.rational([(-1.0, 1.0)])
    assert rational_values(rational, np.array([])).shape == (0,)
    got = rational_values(rational, zs)
    assert got.shape == zs.shape
    assert got == pytest.approx(1.0 / (zs + 1.0))


# ---------------------------------------------------------------------------
# rational values, pole by pole
# ---------------------------------------------------------------------------

def _pole_by_pole(t, zs):
    """rational_values with an np.any check on each pole: the reference
    whose bytes and PoleHit the leaner loop keeps."""
    zs = np.asarray(zs, dtype=complex)
    out = np.zeros(zs.shape, dtype=complex)
    for p, r in t.poles:
        dist = zs - p
        if np.any(np.abs(dist) < POLE_HIT_TOL):
            raise PoleHit(f"evaluation point collides with pole at {p}")
        out += r / dist
    return out


def _outcome(f, t, zs):
    try:
        got = f(t, zs)
    except PoleHit as exc:
        return str(exc)
    return got.dtype, got.shape, got.tobytes()


_coords = st.integers(-24, 24).map(lambda k: k / 8)
_plane = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


@settings(max_examples=100, deadline=None)
@given(poles=st.lists(st.tuples(st.builds(complex, _coords, _coords), _plane),
                      min_size=1, max_size=8, unique_by=lambda e: e[0]),
       shape=st.sampled_from([(), (0,), (1,), (7,), (3, 4), (0, 2)]),
       data=st.data())
def test_rational_values_match_the_pole_by_pole_reference(poles, shape, data):
    t = TransformExpr.rational(poles)
    size = math.prod(shape)
    points = _plane
    if data.draw(st.booleans()):
        # about half the points on a pole: PoleHit names the first pole hit
        points = st.one_of(_plane, st.sampled_from([p for p, _ in poles]))
    zs = np.array(data.draw(st.lists(points, min_size=size, max_size=size)),
                  dtype=complex).reshape(shape)
    got = _outcome(rational_values, t, zs)
    assert got == _outcome(_pole_by_pole, t, zs)
    if not isinstance(got, str):
        assert got[1] == shape


def test_pole_hit_names_the_first_pole_in_pole_order():
    # two poles 1.5e-12 apart, both within POLE_HIT_TOL of their midpoint
    a, b = complex(-1.0, 0.0), complex(-1.0 + 1.5e-12, 0.0)
    mid = complex(-1.0 + 0.75e-12, 0.0)
    for poles in ([(a, 1.0), (b, 2.0)], [(b, 2.0), (a, 1.0)]):
        t = TransformExpr.rational(poles)
        first = poles[0][0]
        for zs in ([0.0, mid], [b, a], mid):
            with pytest.raises(PoleHit) as hit:
                rational_values(t, np.array(zs))
            assert str(hit.value) == f"evaluation point collides with pole at {first}"


def test_rational_values_transient_memory_stays_linear_in_the_points():
    # 48 B a point pole by pole (the result, one difference array and its
    # moduli); a (poles x points) broadcast would take 224 B
    poles = [(complex(-k / 2, (-1) ** k * k / 3), complex(1.0, k)) for k in range(6)]
    t = TransformExpr.rational(poles)
    zs = np.linspace(1.0, 3.0, 4000) + 1j * np.linspace(-5.0, 5.0, 4000)
    rational_values(t, zs)
    tracemalloc.start()
    try:
        rational_values(t, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 72 * zs.size


# ---------------------------------------------------------------------------
# the Dirichlet kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("T", [0.1, 1.0, 10.0, 1e300])
def test_dirichlet_kernel_peak_is_its_limit(T):
    # a panel about the peak s = 0 one subnormal wide: its nodes round to
    # 0 and +/-5e-324, where T*(s - u) underflows for T < 0.5 and is
    # subnormal above it, and the engine's kernel is its limit T/pi there
    order = 16
    xs = 5e-324 * _gl_pair(order)[0]
    assert set(np.abs(xs)) == {0.0, 5e-324}
    with np.errstate(all="ignore"):
        kernel = _Dirichlet(T, 0.0).weigh(np.ones((1, xs.size), dtype=complex), xs[None],
                                          [0.0], [5e-324], order)[0]
    assert (kernel == T / math.pi).all()


# ---------------------------------------------------------------------------
# numeric Bromwich lines
# ---------------------------------------------------------------------------

LINE_Q = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
MIXED_MOMENT = TransformExpr.numeric(FunctionSpec.mixed_power(0.5, 1.0),
                                     TransformKind.MOMENT)


@pytest.mark.parametrize("t, delta, T, y, calls, points", [
    (TransformExpr.gamma(), 1.0, 10.0, 0.5, 2, 1056),
    (TransformExpr.gamma(), 1.0, 10.0, 3.0, 1, 864),
    (MIXED_MOMENT, 0.5, 30.0, 0.45, 1, 624),
], ids=["gamma-head", "gamma-no-head", "mixedpower-head"])
def test_line_head_rides_the_first_tail_pass(monkeypatch, t, delta, T, y, calls,
                                             points):
    # the peak root about u = -ln y and the roots left of it ride the first
    # pass of the tail, which runs on from the peak.  A Gamma line runs
    # over every real u, folded about the peak: its peak root [0, 1] in v
    # is a head wherever y lies, and each of its 9 first-pass panels reads
    # the integrand on both sides of the peak, 96 points at order 16.
    # Counted: the integrand calls of the line and the points they take
    count = [0, 0]
    panels = quadrature._panels

    def counting(f, *args):
        def counted(u):
            count[0] += 1
            count[1] += u.size
            return f(u)
        return panels(counted, *args)

    monkeypatch.setattr(quadrature, "_panels", counting)
    inverse_eval(t, InverseKind.MELLIN_KERNEL, bromwich_for(t, delta, T), y, LINE_Q)
    assert count == [calls, points]


@pytest.mark.parametrize("spec, z, panels_used", [
    (EGAMMA, 2.5, 8), (FunctionSpec.exp(1.3), 1.7, 7)], ids=["expminusx", "exp"])
def test_direct_mellin_sides_share_each_pass(monkeypatch, spec, z, panels_used):
    # both sides of x = 1 ride one half-line: each pass reads the unit part
    # at u = v and the x >= 1 side at x = 1 + v in one integrand call, 8
    # first-pass panels of 48 points a side at order 16, where two tails
    # took two calls and twice the panels.  Counted: the integrand calls of
    # the transform and the points they take
    count = [0, 0]
    panels = quadrature._panels

    def counting(f, *args):
        def counted(t):
            count[0] += 1
            count[1] += t.size
            return f(t)
        return panels(counted, *args)

    monkeypatch.setattr(quadrature, "_panels", counting)
    est = transform_estimate(spec, TransformKind.MELLIN, z)
    assert est.converged
    assert (count, est.panels_used) == ([1, 768], panels_used)


def _mellin_guard(spec, z, T, s):
    """The humps u = ln(g/c) of the lowest and highest g of a Mellin
    source's terms, after the DomainError that a Mellin integrand whose
    peak at the hump passes the largest float raises before any piece:
    x**(c-1) exp(-g x) in x, x**c exp(-g x) times the kernel at the hump,
    where that exceeds 1, on a line."""
    power = z.real if T is not None else z.real - 1.0
    hump = power / min(spec.params or (1.0,))
    peak = power * (math.log(hump) - 1.0) if hump > 1.0 else 0.0
    if T is not None:
        d = abs(s + math.log(hump))
        kernel = T / math.pi if T * d <= 1.0 else 1.0 / (math.pi * d)
        peak += math.log(max(1.0, kernel))
    if peak > math.log(sys.float_info.max):
        raise DomainError(
            f"mellin transform of {spec.kind.value} at Re z = {z.real:g} passes the "
            f"largest float: its integrand peaks near exp({peak:.1f}) at x = {hump:g}")
    return (math.log(min(spec.params or (1.0,)) / z.real),
            math.log(max(spec.params or (1.0,)) / z.real))


def _mellin_line_integrand(spec, z):
    """A Mellin line's integrand of u, 0 where exp(-u) is inf."""
    read = _kernel_integrand(spec, True, z)
    return lambda u: np.where(np.isfinite(np.exp(-u)), read(u), 0.0)


def _separate_pieces(spec, kind, z, q, T=None, s=0.0):
    """The pieces of transforms._pieces, from one engine call per piece on
    the library's integrands, in the same order.  With the Dirichlet
    kernel about u = s when T is given, through the roots of _peak_roots,
    or for a Mellin line those of _folded_roots, folded about the peak:
    the tail alone, then each head a tree of its own.  A Mellin line's
    tail reads on across the humps u = ln(g/c) of its terms, and its
    integrand is 0 where exp(-u) is inf."""
    mellin = kind is TransformKind.MELLIN
    if mellin:
        lo, hi = _mellin_guard(spec, z, T, s)
    inner = _kernel_integrand(spec, kind is not TransformKind.LAPLACE, z)
    if T is None:
        pieces = [integrate_halfline(inner, 0.0, q)]
        if mellin:
            off = _off_axis(spec)
            pieces.append(integrate_halfline(lambda x: off((z - 1.0) * np.log(x), x), 1.0, q))
        return pieces
    if mellin:
        inner = _mellin_line_integrand(spec, z)
        r, start, width, heads = _folded_roots(T, s)
        kernel, fold = _Dirichlet(T * r, 0.0), (s, r)
        pieces = _halfline(inner, start, q, (), kernel, width,
                           max(hi - s, s - lo) / r, fold)
    else:
        start, width, heads = _peak_roots(T, s)
        kernel, fold = _Dirichlet(T, s), None
        pieces = _halfline(inner, start, q, (), kernel, width)
    with np.errstate(all="ignore"):
        for head in heads:
            entry = quadrature._trees(inner, [head], q, kernel, fold)[0]
            pieces.append(Estimate(*quadrature._result(entry)))
    return pieces


def _two_sided_pieces(spec, c, q, T, s):
    """The pieces of a Mellin line as one integral over every real u, not
    folded: a peak root [s - r, s + r], r = min(1/2, pi/T), roots 2r wide
    and doubling away from it on both sides, as heads while narrower than
    1/2, and a tail beyond them on each side, each read on across its end
    of the humps.  The tail toward -inf is the engine's tail of u(-x),
    x >= 0, about the peak -s.  The tail toward +inf, the one toward -inf,
    then each head, a tree of its own."""
    z = complex(c)
    lo, hi = _mellin_guard(spec, z, T, s)
    inner = _mellin_line_integrand(spec, z)
    r = min(0.5, math.pi / T)
    if not s - r < s < s + r:
        raise DomainError(f"the kernel at T = {T:g} has its central lobe, pi/T wide, "
                          f"inside the rounding of its peak at {s:g}")
    heads = [(s - r, s + r)]
    left, right, width = s - r, s + r, 2.0 * r
    while width < 0.5:
        heads += (left - width, left), (right, right + width)
        left, right, width = left - width, right + width, 2.0 * width
    pieces = (_halfline(inner, right, q, (), _Dirichlet(T, s), width, hi)
              + _halfline(lambda x: inner(-x), -left, q, (), _Dirichlet(T, -s), width,
                          -lo))
    with np.errstate(all="ignore"):
        for head in heads:
            entry = quadrature._trees(inner, [head], q, _Dirichlet(T, s))[0]
            pieces.append(Estimate(*quadrature._result(entry)))
    return pieces


def _separate_sum(pieces, q, scale=1.0):
    """The pieces summed in order, times scale, judged on the summed error;
    a piece that did not converge passes where its error meets tolerance
    on the sum before the scale.  A sum past the largest float raises."""
    total = sum(p.value for p in pieces)
    value = scale * total
    err = scale * sum(p.err_est for p in pieces)
    try:
        size = abs(value)
    except OverflowError:
        size = math.inf
    if not size < math.inf:
        raise DomainError(f"transform value {value!r} passes the largest float")
    return Estimate(value, err, sum(p.panels_used for p in pieces),
                    all(p.converged or _within(q, p.err_est, abs(total)) for p in pieces)
                    and _within(q, err, size))


def _separate_line(t, c, T, s, q):
    """_line_integral from separate pieces."""
    return _separate_sum(_separate_pieces(t.source, t.kind, c, q, T, s), q,
                         math.exp(c * s))


def _two_sided_line(t, c, T, s, q):
    """A Mellin line from the pieces of its two-sided integral."""
    return _separate_sum(_two_sided_pieces(t.source, c, q, T, s), q, math.exp(c * s))


def _separate_transform(spec, kind, z, q):
    """transform_estimate from separate pieces; one piece stands as it is."""
    pieces = _separate_pieces(spec, kind, z, q)
    return pieces[0] if len(pieces) == 1 else _separate_sum(pieces, q)


def _line_outcome(integrate, *args):
    """repr of the Estimate, or the type and message of the error."""
    try:
        return repr(integrate(*args))
    except MelaplaceError as exc:
        return type(exc), str(exc)


@st.composite
def _numeric_transforms(draw):
    """A numeric transform of every (source, kind) pair that has a strip,
    and an abscissa inside it."""
    kind = draw(st.sampled_from(list(TransformKind)))
    sources = _decaying_sources if kind is TransformKind.MELLIN else _catalog
    t = TransformExpr.numeric(draw(sources), kind)
    return t, t.validity.c1 + draw(st.floats(0.2, 2.0))


def _assert_near_two_sided(t, c, T, s, q):
    """The folded Mellin line and its two-sided integral raise the same
    type of error, and where both converge they lie within the larger of
    their tolerances of each other."""
    try:
        folded = _line_integral(t, c, T, s, q)
    except MelaplaceError as exc:
        with pytest.raises(type(exc)):
            _two_sided_line(t, c, T, s, q)
        return
    whole = _two_sided_line(t, c, T, s, q)
    if folded.converged and whole.converged:
        tol = max(q.abs_tol, q.rel_tol * max(abs(folded.value), abs(whole.value)))
        assert abs(folded.value - whole.value) <= 2.0 * tol


@settings(max_examples=60, deadline=None)
@given(case=_numeric_transforms(), s=st.one_of(st.floats(-3.0, 3.0), st.floats(-30.0, 30.0)),
       T=st.floats(1.0, 1000.0), max_panels=st.sampled_from([1, 2, 4, 17, 4096]))
def test_line_integral_matches_its_separate_pieces_bit_for_bit(case, s, T, max_panels):
    # the heads prefetched in the tail's first pass change no bit, also
    # where the peak lies far from a Mellin source's hump.  A folded Mellin
    # line raises as its two-sided integral does, and where both converge
    # they agree within tolerance
    t, c = case
    q = QuadratureSpec(max_panels=max_panels)
    got = _line_outcome(_line_integral, t, c, T, s, q)
    assert got == _line_outcome(_separate_line, t, c, T, s, q)
    if t.kind is TransformKind.MELLIN:
        _assert_near_two_sided(t, c, T, s, q)


@pytest.mark.parametrize("t, c, s", [
    (MIXED_MOMENT, 0.5, -math.log(0.45)),
    (TransformExpr.numeric(FunctionSpec.mixed_exp(1.0, 0.5), TransformKind.LAPLACE),
     0.0, 1.3),
    (TransformExpr.gamma(), 1.0, math.log(2.0)),
], ids=["mixedpower-moment", "mixedexp-laplace", "gamma-line"])
def test_line_cost_is_flat_in_T(t, c, s):
    # Filon panels take the kernel's oscillation exactly, so a panel far
    # from the peak holds any number of periods: these lines take 21, 33
    # and 43 panels at T = 50 and 38, 48 and 45 at T = 1000, where
    # Gauss-Legendre panels took the first two from 61 and 179 panels to
    # 1,135 and 2,917.  The Gamma line runs over every real u, its x >= 1
    # side at u <= 0 on Filon panels too; with that side in x, the whole
    # line took 37 and 355 panels
    panels = lambda T: _line_integral(t, c, T, s).panels_used
    assert panels(1000.0) <= 2 * panels(50.0)


def test_a_second_line_at_the_same_T_and_s_builds_no_filon_row():
    # the Filon and wave rows of a line outlive it in the process's
    # bounded tables, and the line takes rows of both kinds
    gamma = TransformExpr.gamma()
    tables = (quadrature._filon_row, quadrature._wave_row)
    # a line whose level kernels the process holds reads no row
    quadrature._level_kernel.cache_clear()
    before = [table.cache_info() for table in tables]
    _line_integral(gamma, 1.0, 200.0, 0.7)
    built = [table.cache_info() for table in tables]
    assert all(b.hits + b.misses > a.hits + a.misses for a, b in zip(before, built))
    _line_integral(gamma, 1.0, 200.0, 0.7)
    assert [table.cache_info().misses for table in tables] == [b.misses for b in built]


def test_mellin_lines_at_any_T_past_2pi_share_their_level_kernels():
    # folded about its peak, a Mellin line at T >= 2 pi takes the kernel
    # sin(w v)/(pi v), w = T*fl(pi/T) one of three floats, on fixed roots:
    # a second line at another T of the same octave of T/(2 pi) and
    # another y builds no level kernel, and so reads no row
    gamma = TransformExpr.gamma()
    table = quadrature._level_kernel
    assert 10.0 * (math.pi / 10.0) == 10.1 * (math.pi / 10.1)
    _line_integral(gamma, 1.0, 10.0, -math.log(0.5))
    built = table.cache_info()
    rows = [quadrature._filon_row.cache_info(), quadrature._wave_row.cache_info()]
    _line_integral(gamma, 1.0, 10.1, -math.log(2.0))
    after = table.cache_info()
    assert after.misses == built.misses and after.hits > built.hits
    assert [quadrature._filon_row.cache_info(), quadrature._wave_row.cache_info()] == rows


@pytest.mark.parametrize("c, s", [(80.0, 0.7), (171.0, -1.0), (150.0, 0.0)])
def test_line_past_the_mellin_hump_matches_its_separate_pieces(c, s):
    # a line placed right of Gamma's hump, folded about its peak, reads
    # the hump through its one tail, and lies within the larger err_est of
    # its two-sided integral, whose tail toward -inf reads it
    q = QuadratureSpec(max_panels=64)
    t = TransformExpr.gamma()
    got = _line_outcome(_line_integral, t, c, 10.0, s, q)
    assert got == _line_outcome(_separate_line, t, c, 10.0, s, q)
    assert got.startswith("Estimate(")
    folded, whole = _line_integral(t, c, 10.0, s, q), _two_sided_line(t, c, 10.0, s, q)
    assert abs(folded.value - whole.value) <= max(folded.err_est, whole.err_est)


def test_folded_mellin_lines_match_their_two_sided_integral():
    # a seeded audit of 1,000 Mellin lines (expminusx, exp, mixedexp; c in
    # [0.2, 3], T log-uniform in [5, 1000], ln y in [-5, 5]) against the
    # two-sided integral over every real u.  At seed 5 the folded line lies
    # within the larger err_est on 999, raises on none, differs in 3
    # converged flags, and takes 20,151 panels where the two-sided line
    # takes 28,286 (at seed 6: 998, 2, 20,557 and 28,443)
    rng = np.random.default_rng(5)
    within = flags = folded_panels = whole_panels = 0
    for _ in range(1000):
        g1, g2 = rng.uniform(0.2, 3.0, 2)
        spec = [FunctionSpec.exp_minus_x(), FunctionSpec.exp(g1),
                FunctionSpec.mixed_exp(g1, g2)][rng.integers(3)]
        c = float(rng.uniform(0.2, 3.0))
        T = float(math.exp(rng.uniform(math.log(5.0), math.log(1000.0))))
        s = -float(rng.uniform(-5.0, 5.0))
        t = TransformExpr.numeric(spec, TransformKind.MELLIN)
        folded = _line_integral(t, c, T, s)
        whole = _two_sided_line(t, c, T, s, QuadratureSpec())
        within += abs(folded.value - whole.value) <= max(folded.err_est, whole.err_est)
        flags += folded.converged != whole.converged
        folded_panels += folded.panels_used
        whole_panels += whole.panels_used
    assert within >= 995 and flags <= 5
    assert folded_panels <= 0.75 * whole_panels


def _hump_edge(lift):
    """The abscissae just below and just above the edge past which a
    Gamma line's integrand, x**c exp(-x) times the kernel's ``lift`` at
    its peak x = c, passes the largest float:
    c (ln c - 1) + ln(lift) = ln(max)."""
    limit = math.log(sys.float_info.max) - math.log(lift)
    below, above = 100.0, 200.0
    while math.nextafter(below, above) < above:
        mid = 0.5 * (below + above)
        if mid * (math.log(mid) - 1.0) > limit:
            above = mid
        else:
            below = mid
    return below, above


@pytest.mark.parametrize("T", [10.0, 1000.0])
def test_mellin_line_past_its_hump_edge_names_the_peak(T):
    # a line integrates x**c exp(-x) in u = -ln x, one factor x above the
    # x**(c-1) exp(-x) of a direct transform, so it peaks at x = c,
    # u = -ln c, and the kernel there lifts it by T/pi when its peak s
    # sits on the hump, and by less than 1 when s lies 1/pi or more away.
    # Past the edge that lift sets, a line is a DomainError that names
    # the peak; below it, a line runs: the edges are c = 171.08 and
    # 170.18 at T = 10 and 1000 on the hump, and c = 171.30 off it
    gamma = TransformExpr.gamma()
    for lift, places in ((T / math.pi, lambda c: [-math.log(c)]),
                         (1.0, lambda c: [0.0, -2.0, 1.0])):
        below, above = _hump_edge(lift)
        for c in (above, 172.0):
            for s in places(c):
                with pytest.raises(DomainError,
                                   match=rf"integrand peaks near exp\(7\d\d\.\d\) "
                                         rf"at x = {c:g}$"):
                    _line_integral(gamma, c, T, s)
        for s in places(below):
            try:
                _line_integral(gamma, below, T, s)
            except DomainError as exc:
                # only the sum of a panel about the peak, or of the line,
                # may pass the largest float
                assert re.fullmatch(r"panel sum past the largest float near t = -5\.1\d*"
                                    r"|transform value \(-?inf\+0j\) passes the largest float",
                                    str(exc))
    # at s = 0 the hump is ln c from the kernel's peak, where the kernel is
    # below 1, so T = 1000 runs the line that T = 10 does, though its
    # Gamma(c + it) ~ 1e305 cancel to about e**-1 there, past tolerance
    assert math.isfinite(abs(_line_integral(gamma, 170.5, 1000.0, 0.0).value))
    assert _line_integral(gamma, 170.5, 10.0, 0.0).converged


def test_mellin_lines_near_their_hump_edge_raise_no_non_finite_integrand():
    # x**c exp(-x) is finite at every node below the edge, though the
    # kernel may lift a node or a panel sum past the largest float: the
    # line is then a DomainError, as past the edge, and never a
    # NonFiniteIntegrand, which would blame a finite source
    gamma = TransformExpr.gamma()
    rng = np.random.default_rng(3)
    raised = 0
    for _ in range(200):
        c = float(rng.uniform(169.0, 173.0))
        T = float(math.exp(rng.uniform(math.log(5.0), math.log(1000.0))))
        s = float(-math.log(c) + rng.uniform(-0.3, 0.3))
        try:
            _line_integral(gamma, c, T, s)
        except DomainError:
            raised += 1
    assert 0 < raised < 200


def test_a_line_whose_scale_underflows_keeps_its_value():
    # at c = 171, y = 171 the scale exp(c*s) = 171**-171 is below the
    # smallest float, while the line's pieces sum to 2.1e307: their product
    # 3.0e-75 (mpmath at 40 digits: 3.023015391957809e-75) was lost to 0
    # and reported converged
    gamma = TransformExpr.gamma()
    s = -math.log(171.0)
    pieces = _pieces(gamma.source, gamma.kind, 171.0, QuadratureSpec(), 10.0, s)
    assert math.exp(171.0 * s) == 0.0 and sum(p.value for p in pieces).real > 1e307
    est = _line_integral(gamma, 171.0, 10.0, s)
    assert est.converged and 0.0 < est.err_est <= 1e-87
    assert est.value.real == pytest.approx(3.023015391957809e-75, rel=1e-12)
    # where exp(c*s) is a normal float, the line keeps the bits of the
    # plain product
    s = -math.log(140.0)
    pieces = _pieces(gamma.source, gamma.kind, 140.0, QuadratureSpec(), 10.0, s)
    assert (_line_integral(gamma, 140.0, 10.0, s).value
            == math.exp(140.0 * s) * sum(p.value for p in pieces) == 9.514850745396211e-62)


# (source, c, T, ln y, the truncated line (1/2pi) int_{-T}^{T} M(c + it)
# y**-(c + it) dt of its Mellin transform M, from mpmath at 20 digits or
# more)
_FAR_HUMPS = [
    (FunctionSpec.exp_minus_x(), 1.0, 2.0, 8.0, 2.2077291409596022e-08),
    (FunctionSpec.exp_minus_x(), 1.0, 10.0, 8.0, 7.5481955137109757e-13),
    (FunctionSpec.exp_minus_x(), 0.5, 5.0, 20.0, 3.8485033551668534e-10),
    (FunctionSpec.exp_minus_x(), 30.0, 10.0, math.log(0.04), -1.3488755426354393e+70),
    (FunctionSpec.mixed_exp(1.0, 0.5), 0.5, 5.0, -300.0, -4.8111261643400758e+60),
]


@pytest.mark.parametrize("spec, c, T, lny, want", _FAR_HUMPS,
                         ids=["y=e8-T2", "y=e8-T10", "y=e20-c0.5", "c30-y0.04",
                              "mixedexp-y=e-300"])
def test_mellin_line_reads_across_a_hump_far_from_its_peak(spec, c, T, lny, want):
    # the integrand x**c exp(-g x) holds its mass about u = ln(g/c),
    # which lies ln y right of the kernel's peak at y = e**8 and e**20 and
    # 6.6 left of it at c = 30, y = 0.04: the panels of the tail on the
    # way are below abs_tol, and a tail that stopped on them would miss
    # the mass and report a converged 0.  At y = e**-300 the tail, folded
    # about the peak, reads on past the mass to panels beyond u = -709.8,
    # where x = exp(-u) is inf and sin(x)**2 nan, though the source is 0
    # there
    line = TransformExpr.numeric(spec, TransformKind.MELLIN)
    est = _line_integral(line, c, T, -lny)
    assert est.converged
    assert abs(est.value - want) <= est.err_est


def test_a_mellin_line_far_out_in_T_times_s_converges():
    # at T = 9.6e6 the peak root [s - pi/T, s + pi/T] is 6.6e-7 wide about
    # s = -4.94, and its nodes u round at the spacing of floats there,
    # 8.9e-16, which the kernel over every real u, its phase taken at the
    # node before rounding and s - u after it, felt as an error.  Folded
    # about the peak, the kernel is read at v = |u - s|/r itself, and the
    # line converges within 1e-18 of exp(-g y) and of a run at rel_tol
    # 1e-14 and order 24.  Over every real u it returned
    # 0.0009081733079830073, unconverged and 1e-11 off
    line = TransformExpr.numeric(FunctionSpec.exp(0.05), TransformKind.MELLIN)
    c, T, s = 0.03515086426087281, 9555520.622951085, -4.942224441593058
    est = _line_integral(line, c, T, s)
    assert est.converged and est.value == 0.0009081733179961319
    tight = _line_integral(line, c, T, s, QuadratureSpec(rel_tol=1e-14, panel_order=24))
    assert abs(est.value - tight.value) <= 1e-15
    assert abs(est.value - math.exp(-0.05 * math.exp(-s))) <= 1e-15


_mellin_sources = st.one_of(st.just((FunctionSpec.exp_minus_x(), 1.0)),
                            st.floats(0.2, 3.0).map(lambda g: (FunctionSpec.exp(g), g)))


# converged means within the spec's tolerance of the value, which at the
# default spec reaches 9.4e-11 on these lines: they run at a spec tighter
# than the 1e-12 they are held to
_TIGHT_LINE_Q = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)


@settings(max_examples=60, deadline=None)
@given(source=_mellin_sources, c=st.floats(0.2, 3.0), T=st.floats(50.0, 1000.0),
       y=st.floats(0.1, 10.0))
# at the default spec this line converges 2.07e-12 off, inside its
# err_est of 5.9e-12
@example(source=(FunctionSpec.exp(0.25), 0.25), c=3.0, T=50.0, y=0.25)
def test_converged_mellin_lines_match_their_source(source, c, T, y):
    # the Mellin transform of exp(-g x) is Gamma(z) g**-z, and
    # |Gamma(c + iT)| ~ sqrt(2 pi) T**(c - 1/2) exp(-pi T/2) makes the
    # line's truncation below 1e-20 here, even at g y = 0.02 and c = 3, so
    # exp(-g y) itself is the oracle of a converged line
    spec, g = source
    line = TransformExpr.numeric(spec, TransformKind.MELLIN)
    est = _line_integral(line, c, T, -math.log(y), _TIGHT_LINE_Q)
    if est.converged:
        assert abs(est.value - math.exp(-g * y)) <= 1e-12


def test_direct_mellin_reads_on_to_a_far_hump():
    # exp(-1000 x) at z = 0.5 holds its mass about u = ln(1000/0.5) = 7.6;
    # the u-side tail's first panels from u = 0 lie below abs_tol, and a
    # tail that stopped on them returned a converged 1.06e-24
    est = transform_estimate(FunctionSpec.exp(1000.0), TransformKind.MELLIN, 0.5)
    assert est.converged
    assert abs(est.value - math.gamma(0.5) / math.sqrt(1000.0)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(lng=st.floats(0.0, math.log(1e8)), x=st.floats(0.2, 3.0))
def test_converged_direct_mellin_transforms_match_gamma(lng, x):
    # the Mellin transform of exp(-g x) is Gamma(z) g**-z, its hump at
    # u = ln(g/z) up to 18 past the tail's start
    g = math.exp(lng)
    est = transform_estimate(FunctionSpec.exp(g), TransformKind.MELLIN, x)
    want = math.gamma(x) * g ** -x
    if est.converged:
        assert abs(est.value - want) <= max(est.err_est, 1e-10 * want)


@st.composite
def _direct_cases(draw):
    """A (source, kind) pair with a strip and a z inside it, Re z up to
    171 past the strip's edge, so that Mellin humps lie far out."""
    kind = draw(st.sampled_from(list(TransformKind)))
    sources = _decaying_sources if kind is TransformKind.MELLIN else _catalog
    spec = draw(sources)
    re = _domain(spec, kind).c1 + draw(st.one_of(st.floats(0.2, 2.0),
                                                  st.floats(2.0, 171.0)))
    return spec, kind, complex(re, draw(st.floats(-20.0, 20.0)))


@settings(max_examples=80, deadline=None)
@given(case=_direct_cases(), order=st.integers(4, 16),
       max_panels=st.sampled_from([1, 2, 4, 17, 64, 4096]))
def test_transform_estimate_matches_its_separate_pieces_bit_for_bit(case, order,
                                                                    max_panels):
    # a Laplace or moment transform is one tail, bit for bit.  A Mellin
    # transform takes both sides of x = 1 on shared panels, each split
    # wherever either side fails tolerance, so its bits differ from two
    # tails of their own: it raises the same type of error, and where both
    # converge they lie within twice the larger tolerance of each other
    spec, kind, z = case
    q = QuadratureSpec(panel_order=order, max_panels=max_panels)
    if kind is not TransformKind.MELLIN:
        assert (_line_outcome(transform_estimate, spec, kind, z, q)
                == _line_outcome(_separate_transform, spec, kind, z, q))
        return
    try:
        shared = transform_estimate(spec, kind, z, q)
    except MelaplaceError as exc:
        with pytest.raises(type(exc)):
            _separate_transform(spec, kind, z, q)
        return
    apart = _separate_transform(spec, kind, z, q)
    if shared.converged and apart.converged:
        tol = max(q.abs_tol, q.rel_tol * max(abs(shared.value), abs(apart.value)))
        assert abs(shared.value - apart.value) <= 2.0 * tol
