import math

import pytest

from melaplace import (
    ConvergenceTable,
    DomainError,
    EmptyGrid,
    FunctionSpec,
    InverseKind,
    NotRectangularizable,
    ParseError,
    QuadratureSpec,
    TransformExpr,
    TransformKind,
    analytic_transform,
    delta_check,
    format_spec_string,
    invariance_sweep,
    parse_spec_string,
    roundtrip,
)
from melaplace.transforms import _window_integral

LAP = InverseKind.LAPLACE_KERNEL
MEL = InverseKind.MELLIN_KERNEL


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_exponential_rectangle_roundtrip():
    report = roundtrip(FunctionSpec.exp(1.0), LAP, [-3.0, -1.0, 0.0, 1.0, 3.0])
    assert report.passed
    assert report.max_rel_err <= 1e-8
    assert report.wall_time >= 0.0


def test_power_rectangle_roundtrip():
    report = roundtrip(FunctionSpec.power(0.5), MEL, [0.25, 1.0, 4.0])
    assert report.passed
    for row, expected in zip(report.rows, (0.5, 1.0, 2.0)):
        assert row.recovered == pytest.approx(expected, abs=1e-8)


def test_truncated_right_line_misses_the_extended_domain():
    # the standard inverse gives ~0 at x < 0; the report documents the miss
    report = roundtrip(
        FunctionSpec.exp(1.0), LAP, [-1.0], use_rectangle=False, half_height=50.0
    )
    assert not report.passed
    assert abs(report.rows[0].recovered) <= 0.05
    assert report.rows[0].truth == pytest.approx(math.e)
    assert report.tolerance == 5e-2


def test_roundtrip_numeric_fallback_on_open_line():
    # no closed moment form exists for mixedpower; the line integral runs
    # off direct quadrature of the transform
    q = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)
    report = roundtrip(
        FunctionSpec.mixed_power(1.0, 2.0), MEL, [0.5],
        use_rectangle=False, half_height=20.0, q=q, tol=0.1,
    )
    assert report.rows[0].rel_err <= 0.1


def test_roundtrip_reports_an_unconverged_line():
    # the row passes its tolerance, but four panels per piece leave the
    # line integral behind it unconverged
    spec, args = FunctionSpec.mixed_power(0.5, 1.0), [0.5, 0.6]
    for q, converged in [(None, True), (QuadratureSpec(max_panels=4), False)]:
        report = roundtrip(spec, MEL, args, use_rectangle=False, half_height=30.0, q=q)
        assert report.passed
        assert report.converged is converged
    # rational sums carry no estimate and count as converged; the upper
    # half of their rectangle takes 6 panels, and a budget short of that
    # is a DomainError
    assert roundtrip(FunctionSpec.exp(1.0), LAP, [1.0], q=QuadratureSpec(max_panels=6)).converged
    with pytest.raises(DomainError, match="more than max_panels = 4 panels"):
        roundtrip(FunctionSpec.exp(1.0), LAP, [1.0], q=QuadratureSpec(max_panels=4))


def test_roundtrip_errors():
    with pytest.raises(EmptyGrid):
        roundtrip(FunctionSpec.exp(1.0), LAP, [])
    with pytest.raises(NotRectangularizable):
        roundtrip(FunctionSpec.mixed_power(1.0, 2.0), MEL, [0.5])
    with pytest.raises(DomainError):
        roundtrip(FunctionSpec.power(0.5), MEL, [-1.0])


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_roundtrip_rejects_bad_tolerance(tol):
    # a NaN tolerance failed a result exact to 2.8e-17
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        roundtrip(FunctionSpec.exp(1.0), LAP, [1.0], tol=tol)


# ---------------------------------------------------------------------------
# delta-kernel checks (expected values frozen from a scipy.integrate.quad
# reference run at epsrel 1e-12; the constant case has a closed form via
# the sine integral on the finite window [0, x + 200])
# ---------------------------------------------------------------------------

def test_delta_check_exponential_table():
    table = delta_check(1.0, FunctionSpec.exp(1.0), [20.0, 40.0, 80.0])
    for got, want in zip(table.results, (0.361403960, 0.373183650, 0.368318574)):
        assert got.real == pytest.approx(want, abs=1e-6)
    errs = table.errors
    assert errs[0] > errs[1] > errs[2]
    assert table.final_error <= 5e-2
    assert table.reference == pytest.approx(math.exp(-1.0))


def test_delta_check_slow_decay_reads_its_line():
    # exp(-g y) against the kernel over [0, inf) is
    # exp(-g x)/pi (atan(T/g) + int_0^x exp(g v) sin(T v)/v dv), here from
    # mpmath at 30 digits.  Most of the mass lies far right of the kernel
    # peak, where the Filon panels take the oscillation exactly
    table = delta_check(1.0, FunctionSpec.exp(0.001), [20.0, 80.0])
    for got, want in zip(table.results, (0.991821824031115661, 0.999488916240887289)):
        assert got.real == pytest.approx(want, abs=1e-10)
    assert table.converged
    table = delta_check(1.0, FunctionSpec.exp(0.01), [80.0])
    assert table.results[0].real == pytest.approx(0.990537806908702398, abs=1e-10)


# (Si(T) + Si(200 T))/pi, the constant 1 against the kernel over the
# window [0, x + 200] at x = 1, from mpmath at 40 digits
_CONSTANT_WINDOW = {20.0: 0.9928787405681493, 40.0: 1.0051504358177756,
                    80.0: 1.0005081884002975, 200.0: 0.9992290366699589,
                    1000.0: 0.9998191388549613, 5000.0: 0.9999898679060589,
                    1e5: 1.0000031707772594}


def test_delta_check_constant_window_table():
    table = delta_check(1.0, FunctionSpec.exp(0.0), [20.0, 40.0, 80.0])
    for T, got in zip(table.values, table.results):
        assert got.real == pytest.approx(_CONSTANT_WINDOW[T], abs=1e-12)
    assert table.converged


def test_delta_check_window_converges_at_any_cutoff():
    # the window runs on the Filon panels of a line, so its value stays
    # within rounding of the closed form, and its cost flat, as T grows:
    # 15 panels at T = 20 and 41 at T = 1e5, where plain Gauss-Legendre
    # panels spent their 4,095-panel budget from T = 1000 on and read
    # 0.249 at T = 5000
    Ts = [20.0, 200.0, 1000.0, 5000.0, 1e5]
    table = delta_check(1.0, FunctionSpec.exp(0.0), Ts)
    assert table.converged
    for T, got in zip(Ts, table.results):
        tol = 1e-12 if T <= 5000.0 else 1e-11
        assert got.real == pytest.approx(_CONSTANT_WINDOW[T], abs=tol)
    panels = lambda T: _window_integral(FunctionSpec.exp(0.0), T, 1.0, 201.0).panels_used
    assert panels(1e5) <= 3 * panels(20.0)


def test_delta_check_power_table():
    table = delta_check(0.5, FunctionSpec.power(1.0), [20.0, 40.0, 80.0])
    for got, want in zip(table.results, (0.497482039, 0.509775204, 0.495597235)):
        assert got.real == pytest.approx(want, abs=1e-6)


def test_delta_check_power_window_keeps_its_values():
    # sqrt(y) over the window [0, 2]: the values of the plain
    # Gauss-Legendre window that converged, in 39 to 1,043 panels
    table = delta_check(0.5, FunctionSpec.power(0.5), [1.0, 20.0, 200.0, 1000.0, 5000.0])
    want = (0.5288761584917981, 0.7108846477868836, 0.7070957682497262,
            0.7071570328915809, 0.707138160678398)
    assert [got.real for got in table.results] == pytest.approx(want, abs=1e-12)
    assert table.converged


@pytest.mark.parametrize(
    "spec,x",
    [
        (FunctionSpec.exp(1.0), 1.0),
        (FunctionSpec.exp(0.0), 1.0),
        (FunctionSpec.power(1.0), 0.5),
        (FunctionSpec.mixed_exp(1.0, 2.0), 1.0),
    ],
)
def test_delta_check_error_shrinks_with_cutoff(spec, x):
    table = delta_check(x, spec, [10.0, 40.0, 80.0])
    errs = table.errors
    assert errs[-1] < errs[0]


def test_delta_check_guards():
    with pytest.raises(EmptyGrid):
        delta_check(1.0, FunctionSpec.exp(1.0), [])
    with pytest.raises(DomainError):
        delta_check(1.0, FunctionSpec.exp(-1.0), [20.0])
    # the window [0, x + 200] of a source that does not decay runs backwards
    with pytest.raises(DomainError, match=r"^delta check at x = -300 has an empty window "
                                          r"\[0, -100\]$"):
        delta_check(-300.0, FunctionSpec.exp(0.0), [20.0])
    # pi/T at T = 20 is below half the spacing of floats at x: no node can
    # resolve the kernel's central lobe, where plain panels read 0.233 and
    # 0.031
    for x in (1e17, 1e300):
        with pytest.raises(DomainError, match="central lobe"):
            delta_check(x, FunctionSpec.exp(0.0), [20.0])


@pytest.mark.parametrize("cutoff", [-20.0, 0.0, math.nan, math.inf])
def test_delta_check_rejects_bad_cutoffs(cutoff):
    # a negative cutoff would flip the kernel's sign and tabulate -g(x)
    with pytest.raises(DomainError, match="T must be positive and finite"):
        delta_check(1.0, FunctionSpec.exp(1.0), [cutoff, 40.0])


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("spec", [FunctionSpec.exp(1.0), FunctionSpec.power(1.0)])
def test_delta_check_rejects_a_non_finite_x(spec, x):
    # before any integral: a nan x made the integrand nan
    with pytest.raises(DomainError, match="^delta check needs a finite x, got "):
        delta_check(x, spec, [10.0])


@pytest.mark.parametrize("cutoffs", [[20.0, 20.0], [40.0, 20.0]])
def test_delta_check_rejects_cutoffs_that_do_not_increase(cutoffs):
    with pytest.raises(DomainError, match="strictly increasing"):
        delta_check(1.0, FunctionSpec.exp(1.0), cutoffs)


# ---------------------------------------------------------------------------
# invariance sweeps
# ---------------------------------------------------------------------------

def test_sweep_single_pole_laplace():
    t = TransformExpr.rational([(-1.0, 1.0)])
    table = invariance_sweep(t, LAP, -2.0, [0.1, 0.5, 1.0], [5.0, 10.0, 20.0])
    assert len(table.results) == 9
    assert table.max_spread <= 1e-8
    assert table.results[0].real == pytest.approx(math.exp(2.0), rel=1e-8)


def test_sweep_single_pole_moment():
    t = TransformExpr.rational([(-0.5, 1.0)])
    table = invariance_sweep(t, MEL, 4.0, [0.1, 0.5, 1.0], [5.0, 10.0, 20.0])
    assert table.max_spread <= 1e-8
    assert table.results[0].real == pytest.approx(2.0, rel=1e-8)


def test_sweep_mixed_poles():
    t = analytic_transform(FunctionSpec.mixed_exp(1.0, 2.0), TransformKind.LAPLACE)
    table = invariance_sweep(t, LAP, 1.0, [0.1, 0.5, 1.0], [2.5, 5.0, 10.0])
    assert table.max_spread <= 1e-7


def test_sweep_requires_rational():
    with pytest.raises(NotRectangularizable, match="cannot be inverted on a rectangle"):
        invariance_sweep(TransformExpr.gamma(), MEL, 1.0, [0.5], [5.0])
    # the grid is checked before rectangle_for sees the form
    with pytest.raises(EmptyGrid):
        invariance_sweep(TransformExpr.gamma(), MEL, 1.0, [], [])
    with pytest.raises(EmptyGrid):
        invariance_sweep(TransformExpr.rational([(-1.0, 1.0)]), LAP, 1.0, [], [])
    with pytest.raises(DomainError, match="distinct"):
        invariance_sweep(TransformExpr.rational([(-1.0, 1.0)]), LAP, 1.0,
                         [0.5, 0.5], [5.0])


# ---------------------------------------------------------------------------
# convergence-table invariants
# ---------------------------------------------------------------------------

def test_table_requires_increasing_samples():
    with pytest.raises(ValueError):
        ConvergenceTable("T", (2.0, 1.0), (0.1, 0.2))
    with pytest.raises(ValueError):
        ConvergenceTable("T", (1.0, 2.0), (0.1,))


def test_table_derived_quantities():
    table = ConvergenceTable("T", (1.0, 2.0, 4.0), (1.0, 0.5, 0.25), reference=0.0)
    assert table.errors == (1.0, 0.5, 0.25)
    assert table.final_error == 0.25
    assert table.max_spread == 0.75
    with pytest.raises(ValueError, match="table has no reference value"):
        ConvergenceTable("T", (1.0,), (1.0,)).errors


# ---------------------------------------------------------------------------
# spec-string grammar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,spec",
    [
        ("exp:gamma=1", FunctionSpec.exp(1.0)),
        ("mixedexp:g1=1,g2=2", FunctionSpec.mixed_exp(1.0, 2.0)),
        ("power:gamma=-0.5", FunctionSpec.power(-0.5)),
        ("mixedpower:g1=1.5,g2=2.5", FunctionSpec.mixed_power(1.5, 2.5)),
        ("expminusx", FunctionSpec.exp_minus_x()),
        (" exp : gamma = 2.5 ", FunctionSpec.exp(2.5)),
        ("exp:gamma=1e-3", FunctionSpec.exp(1e-3)),
    ],
)
def test_parse_spec_string(text, spec):
    assert parse_spec_string(text) == spec


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_spec_string("exp:gamma=")
    assert info.value.position == 11
    with pytest.raises(ParseError) as info:
        parse_spec_string("nosuch:gamma=1")
    assert info.value.position == 1
    with pytest.raises(ParseError):
        parse_spec_string("exp")
    with pytest.raises(ParseError):
        parse_spec_string("mixedexp:g1=1")
    with pytest.raises(ParseError):
        parse_spec_string("exp:g=1")
    with pytest.raises(ParseError):
        parse_spec_string("expminusx:gamma=1")
    with pytest.raises(ParseError):
        parse_spec_string("exp:gamma=inf")


@pytest.mark.parametrize(
    "spec",
    [
        FunctionSpec.exp(1.0),
        FunctionSpec.exp(-2.25),
        FunctionSpec.power(0.5),
        FunctionSpec.power(12345.678e-3),
        FunctionSpec.mixed_exp(1.0, 2.0),
        FunctionSpec.mixed_power(0.25, 7.5),
        FunctionSpec.exp_minus_x(),
    ],
)
def test_parse_format_roundtrip(spec):
    assert parse_spec_string(format_spec_string(spec)) == spec
