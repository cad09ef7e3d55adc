import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melaplace import (
    DomainError,
    FunctionSpec,
    InverseKind,
    ParseError,
    TransformExpr,
    TransformKind,
    analytic_transform,
    cauchy_reproduction,
    eval_transform,
    parse_spec_string,
    rectangle_for,
    residue_inverse,
    transform_estimate,
    transform_for,
)
from melaplace import cli
from melaplace.cli import build_parser, cli_main, parse_complex, parse_grid

LAP = InverseKind.LAPLACE_KERNEL


def _fmt(x):
    return format(float(x), ".17g")


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """json.loads that rejects NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def rows_of(text):
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def test_parse_complex_literals():
    assert parse_complex("1+0i") == complex(1.0, 0.0)
    assert parse_complex("2.5-3.1i") == complex(2.5, -3.1)
    assert parse_complex("-2") == complex(-2.0, 0.0)
    from melaplace import ParseError
    with pytest.raises(ParseError):
        parse_complex("1 + 2i")


@pytest.mark.parametrize("text", ["1e400+0i", "1+1e400i", "1+nani", "inf+0i", "nan",
                                  "-inf-infi"])
def test_parse_complex_rejects_a_non_finite_part(text):
    with pytest.raises(ParseError, match=r"^complex literal must be finite, got "):
        parse_complex(text)


def test_parse_grid():
    assert parse_grid("0.25:4:4") == [0.25, 1.5, 2.75, 4.0]
    assert parse_grid("1:1:1") == [1.0]
    from melaplace import ParseError
    with pytest.raises(ParseError):
        parse_grid("1:2")
    with pytest.raises(ParseError):
        parse_grid("1:2:0")


def test_grid_count_past_the_cap_is_rejected_before_any_allocation(capsys, monkeypatch):
    def no_linspace(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(cli.np, "linspace", no_linspace)
    with pytest.raises(ParseError, match="grid count must be from 1 to 1000000, got 1000001"):
        parse_grid("0:1:1000001")
    code, out, err = run(capsys, "roundtrip", "--func", "exp:gamma=1", "--kind",
                         "laplace", "--grid", "0:1:1000001")
    assert code == 2
    assert out == ""
    assert "grid count must be from 1 to 1000000" in err
    monkeypatch.undo()
    assert len(parse_grid("0:1:1000000")) == 1000000


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_is_a_thin_wrapper(capsys):
    code, out, _ = run(
        capsys, "transform", "--func", "exp:gamma=1", "--kind", "laplace",
        "--z", "1+0i",
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["re_z", "im_z", "re_val", "im_val", "err_est"]
    est = transform_estimate(FunctionSpec.exp(1.0), TransformKind.LAPLACE, 1.0)
    expected = [
        format(v, ".17g")
        for v in (1.0, 0.0, est.value.real, est.value.imag, est.err_est)
    ]
    assert rows == [expected]
    assert float(rows[0][2]) == pytest.approx(0.5, rel=1e-9)


def test_transform_moment_and_full_mellin(capsys):
    code, out, _ = run(
        capsys, "transform", "--func", "power:gamma=0.5", "--kind", "mellin",
        "--z", "1.5+0i",
    )
    assert code == 0
    assert float(rows_of(out)[1][0][2]) == pytest.approx(0.5, rel=1e-9)
    code, out, _ = run(
        capsys, "transform", "--func", "expminusx", "--kind", "mellin-transform",
        "--z", "3+0i", "--z", "4+0i",
    )
    assert code == 0
    _, rows = rows_of(out)
    assert [float(r[2]) for r in rows] == pytest.approx([2.0, 6.0], rel=1e-8)


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_rectangle_from_pole_list(capsys):
    code, out, _ = run(
        capsys, "invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace",
        "--contour", "rect", "--x", "-2",
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["arg", "re_val", "im_val"]
    assert float(rows[0][1]) == pytest.approx(math.exp(2.0), rel=1e-8)


def test_transform_json_poles_are_a_poles_value(capsys):
    # TransformExpr.to_json writes the --poles list, and from_json reads it
    t = analytic_transform(FunctionSpec.mixed_exp(1.0, 0.5), TransformKind.LAPLACE)
    hand = ("[[-1,0,0.5,0],[-1,2,-0.25,0],[-1,-2,-0.25,0],"
            "[-0.5,0,0.5,0],[-0.5,2,0.25,0],[-0.5,-2,0.25,0]]")
    written = json.dumps(t.to_json()["poles"], allow_nan=False)
    assert TransformExpr.from_json({"form": "rational", "poles": json.loads(hand)}) == t
    invert = ("invert", "--kind", "laplace", "--contour", "rect", "--grid=-2:2:5")
    want = run(capsys, *invert, "--poles", hand)
    assert want[0] == 0 and want[1].count("\n") == 6
    assert run(capsys, *invert, "--poles", written) == want


@pytest.mark.parametrize("poles,message", [
    ('[{"a":1}]', "--poles expects JSON [[re,im,res_re,res_im],...], got '[{\"a\":1}]'"),
    ("[[1,2,3]]", "--poles expects JSON [[re,im,res_re,res_im],...], got '[[1,2,3]]'"),
    ("[[1" + "0" * 400 + ",0,1,0]]", "--poles expects JSON [[re,im,res_re,res_im],...]"),
    ("[[1e400,0,1,0]]", "poles and residues must be finite"),
    ("[[-1,0,NaN,0]]", "poles and residues must be finite"),
    ("[]", "rational form needs at least one pole"),
], ids=["dict", "three-items", "huge-int", "inf", "nan", "empty"])
def test_malformed_or_non_finite_poles_exit_two(capsys, poles, message):
    # a dict entry raised a bare KeyError, an infinite pole "strip requires
    # c1 < c2"
    code, out, err = run(capsys, "invert", "--poles", poles, "--kind", "laplace",
                         "--contour", "rect", "--x", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"melaplace invert: {message}") and err.count("\n") == 1


def test_invert_grid_and_bromwich(capsys):
    code, out, _ = run(
        capsys, "invert", "--func", "exp:gamma=1", "--kind", "laplace",
        "--contour", "bromwich", "--T", "200", "--grid", "1:2:2",
    )
    assert code == 0
    _, rows = rows_of(out)
    assert float(rows[0][1]) == pytest.approx(math.exp(-1.0), abs=5e-3)
    assert float(rows[1][1]) == pytest.approx(math.exp(-2.0), abs=5e-3)


@pytest.mark.parametrize("argv, option, value", [
    (("roundtrip", "--func", "exp:gamma=1", "--kind", "laplace"), "--grid", "-4:4:5"),
    (("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace", "--contour", "rect"),
     "--x", "-4e1"),
    (("transform", "--func", "exp:gamma=1", "--kind", "laplace"), "--z", "-0.5+2i"),
    # an abbreviation of the option takes the value too
    (("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace", "--contour", "rect"),
     "--gri", "-4:4:3"),
])
def test_values_starting_with_a_dash_in_either_form(capsys, argv, option, value):
    joined = run(capsys, *argv, f"{option}={value}")
    assert joined[0] == 0 and joined[1].count("\n") > 1
    assert run(capsys, *argv, option, value) == joined
    # a next token that names an option is still no value
    code, _, err = run(capsys, *argv, option, "--json")
    assert code == 2 and "expected one argument" in err


@pytest.mark.parametrize("flag", ["--help", "--json", "--strict"])
def test_dash_token_after_a_flag_without_a_value_exits_two(capsys, flag):
    # "-2" is read as the flag's value, which it does not take; "--help -2"
    # exits 2 and prints no help
    code, out, err = run(capsys, "invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace",
                         "--x", "1", flag, "-2")
    assert code == 2 and out == ""
    assert "ignored explicit argument '-2'" in err


@pytest.mark.parametrize("command", ["transform", "cauchy-check"])
@pytest.mark.parametrize("z", ["1e400+0i", "1+1e400i", "1+nani", "inf+0i"])
def test_non_finite_complex_literal_exits_two(capsys, command, z):
    code, out, err = run(capsys, command, "--func", "exp:gamma=1", "--kind", "laplace",
                         "--z", z, "--strict")
    assert (code, out) == (2, "")
    assert err == f"melaplace {command}: complex literal must be finite, got {z!r}\n"


def test_symmetric_inverses_print_a_zero_imaginary_part(capsys):
    for contour in ("rect", "bromwich"):
        code, out, _ = run(
            capsys, "invert", "--poles", "[[-1,2,1,0],[-1,-2,1,0]]", "--kind",
            "laplace", "--contour", contour, "--grid=-1:1:3",
        )
        assert code == 0
        assert [row[2] for row in rows_of(out)[1]] == ["0", "0", "0"]


MIXEDPOWER = ("--func", "mixedpower:g1=0.5,g2=1", "--kind", "mellin")


def test_invert_bromwich_matches_roundtrip_without_closed_form(capsys):
    code, out, _ = run(capsys, "invert", *MIXEDPOWER, "--contour", "bromwich",
                       "--T", "30", "--x", "0.5")
    assert code == 0
    inverted = rows_of(out)[1][0][1]
    code, out, _ = run(capsys, "roundtrip", *MIXEDPOWER, "--contour", "bromwich",
                       "--T", "30", "--grid", "0.5:0.5:1")
    assert code == 0
    row = rows_of(out)[1][0]
    assert row[2] == inverted
    assert float(row[2]) == pytest.approx(float(row[1]), abs=1e-2)


@pytest.mark.parametrize("quad, converged", [(None, True), ('{"max_panels": 4}', False)])
def test_invert_strict_exits_three_on_an_unconverged_line(capsys, quad, converged):
    # four panels per piece leave the line integral 2e-4 off its estimate
    argv = ["invert", *MIXEDPOWER, "--contour", "bromwich", "--T", "30",
            "--x", "0.5", "--strict", *(["--quad", quad] if quad else [])]
    code, out, _ = run(capsys, *argv)
    assert code == (0 if converged else 3)
    value = float(rows_of(out)[1][0][1])
    assert value == pytest.approx(0.55281205, abs=1e-7 if converged else 1e-3)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == (0 if converged else 3)
    assert strict_json(out)["summary"]["converged"] is converged


def test_rational_inverses_count_as_converged(capsys):
    # the upper half of this rectangle takes 6 panels
    argv = ("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace", "--contour",
            "rect", "--x", "-2", "--strict", "--json")
    code, out, _ = run(capsys, *argv, "--quad", '{"max_panels": 6}')
    assert code == 0
    assert strict_json(out)["summary"]["converged"] is True
    code, out, err = run(capsys, *argv, "--quad", '{"max_panels": 4}')
    assert code == 2
    assert out == ""
    assert "more than max_panels = 4 panels" in err


_FINE_RECTANGLE = ("invert", "--func", "mixedexp:g1=1,g2=0.5", "--kind", "laplace",
                   "--contour", "rect", "--x", "1", "--delta", "1e-4", "--strict")


@pytest.mark.parametrize("extra", [(), ("--T", "10000"), ("--quad", '{"max_panels": 4}')],
                         ids=["default", "tall", "small-budget"])
def test_rectangle_past_its_panel_budget_exits_two(capsys, extra):
    # panels of width 2e-4 overrun the budget; a coarser layout would read
    # up to 26% off the residue series, and pass as converged
    code, out, err = run(capsys, *_FINE_RECTANGLE, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("melaplace invert: ") and "max_panels" in err
    assert "width 0.0002" in err


def test_rectangle_with_a_budget_that_fits_matches_the_oracle(capsys):
    code, out, _ = run(capsys, *_FINE_RECTANGLE, "--quad", '{"max_panels": 40000}')
    assert code == 0
    kind = InverseKind.LAPLACE_KERNEL
    t = transform_for(parse_spec_string("mixedexp:g1=1,g2=0.5"), kind)
    truth = residue_inverse(t, kind, 1.0).real
    assert truth == pytest.approx(0.43754807562501913, abs=1e-15)
    assert float(rows_of(out)[1][0][1]) == pytest.approx(truth, abs=1e-12)


def test_invert_rectangle_without_closed_form_exits_two(capsys):
    code, out, err = run(capsys, "invert", *MIXEDPOWER, "--contour", "rect",
                         "--x", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("melaplace invert: ")
    assert "cannot be inverted on a rectangle" in err


def test_transform_past_the_tail_hump_prints_gamma(capsys):
    # Gamma(171) fits float64, and x**170 exp(-x) rises until x = 170: the
    # tail from x = 1 reads on past the hump.  170! is 7.257415615307999e+306
    code, out, err = run(capsys, "transform", "--func", "expminusx", "--kind",
                         "mellin-transform", "--z", "171", "--strict")
    assert code == 0
    assert err == ""
    assert rows_of(out)[1][0][2] == "7.2574156153079329e+306"
    assert float(rows_of(out)[1][0][2]) == pytest.approx(math.gamma(171), rel=1e-13)


@pytest.mark.parametrize("func, z, words", [
    # x**119 exp(-0.05 x) peaks near exp(806) at x = 2380
    ("exp:gamma=0.05", "120", "integrand peaks near exp(806.2) at x = 2380"),
    # the transform passes the largest float though its integrand does
    # not: the modulus of the sum overflows, or the sum itself
    ("expminusx", "171.80321244645367+16.643895166716398i", "passes the largest float"),
    ("exp:gamma=8.843980413691996", "287.0841475254686", "passes the largest float"),
])
def test_transform_past_the_largest_float_is_a_domain_error(capsys, func, z, words):
    code, out, err = run(capsys, "transform", "--func", func, "--kind",
                         "mellin-transform", "--z", z)
    assert code == 2
    assert out == ""
    assert err.startswith("melaplace transform: ") and words in err
    with pytest.raises(DomainError, match="largest float"):
        transform_estimate(parse_spec_string(func), TransformKind.MELLIN, parse_complex(z))


def test_invert_kernel_overflow_exits_two(capsys):
    code, out, err = run(capsys, "invert", "--poles", "[[-1,0,1,0]]", "--kind",
                         "laplace", "--x=-800")
    assert code == 2
    assert out == ""
    assert err.startswith("melaplace invert: ") and "overflows" in err


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

def test_roundtrip_passes_strict(capsys):
    code, out, _ = run(
        capsys, "roundtrip", "--func", "power:gamma=0.5", "--kind", "mellin",
        "--grid", "0.25:4:5", "--strict",
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["arg", "truth", "recovered", "abs_err", "rel_err"]
    assert len(rows) == 5


def test_roundtrip_bromwich_extended_domain_fails_strict(capsys):
    code, _, _ = run(
        capsys, "roundtrip", "--func", "exp:gamma=1", "--kind", "laplace",
        "--contour", "bromwich", "--T", "50", "--grid=-1:-1:1", "--strict",
    )
    assert code == 3


def test_roundtrip_without_strict_reports_but_exits_zero(capsys):
    code, out, _ = run(
        capsys, "roundtrip", "--func", "exp:gamma=1", "--kind", "laplace",
        "--contour", "bromwich", "--T", "50", "--grid=-1:-1:1", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["passed"] is False


@pytest.mark.parametrize("quad, converged", [(None, True), ('{"max_panels": 4}', False)])
def test_roundtrip_strict_exits_three_on_an_unconverged_line(capsys, quad, converged):
    # the row passes its 5e-2 tolerance either way; with four panels per
    # piece the line integral behind it stops short of its own
    argv = ["roundtrip", "--func", "mixedpower:g1=0.5,g2=1", "--kind", "mellin",
            "--contour", "bromwich", "--T", "30", "--grid", "0.5:0.5:1", "--strict",
            "--json", *(["--quad", quad] if quad else [])]
    code, out, _ = run(capsys, *argv)
    assert code == (0 if converged else 3)
    summary = strict_json(out)["summary"]
    assert summary["passed"] is True
    assert summary["converged"] is converged


def test_json_summary_is_strict(capsys):
    # exp(-750) underflows to 0, so every relative error is infinite
    code, out, _ = run(
        capsys, "roundtrip", "--func", "exp:gamma=1", "--kind", "laplace",
        "--grid", "750:760:2", "--json",
    )
    assert code == 0
    doc = strict_json(out)
    assert doc["summary"]["max_rel_err"] is None
    assert doc["rows"][0][4] == "inf"


# ---------------------------------------------------------------------------
# delta-check / sweep / cauchy-check
# ---------------------------------------------------------------------------

def test_delta_check_command(capsys):
    code, out, _ = run(
        capsys, "delta-check", "--func", "exp:gamma=1", "--x", "1",
        "--T", "20,40,80",
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["T", "value", "abs_err"]
    assert float(rows[-1][2]) <= 5e-2


# the values of exp(-g y) against the kernel at x = 1, T = 20 and 80 for
# lines, and T = 20, 200, 1000 and 5000 for the window of g = 0: for
# g = 0.001 the references of delta_check's slow-decay test, for g = 1
# the truncated-line oracle of tests/test_contours.py, for g = 0 the
# closed form (Si(T) + Si(200 T))/pi from mpmath
_DELTA_LINES = {"exp:gamma=0.001": (0.9918218240311156, 0.9994889162408874),
                "exp:gamma=1": (0.3614039596842624, 0.36831857413291846),
                "exp:gamma=0": (0.9928787405681493, 0.9992290366699589,
                                0.9998191388549613, 0.9999898679060589)}
_DELTA_TS = {"exp:gamma=0": "20,200,1000,5000"}
# the budget of each unconverged case
_DELTA_BUDGETS = {"exp:gamma=0.001": '{"max_panels":2}',
                  "exp:gamma=0": '{"max_panels":1,"rel_tol":1e-12}'}


@pytest.mark.parametrize("func, converged", [("exp:gamma=1", True),
                                              ("exp:gamma=0.001", True),
                                              ("exp:gamma=0.001", False),
                                              ("exp:gamma=0", True),
                                              ("exp:gamma=0", False)])
def test_delta_check_strict_exits_three_on_an_unconverged_window(capsys, func,
                                                                 converged):
    # the Filon panels take the slowly decaying exp(-0.001 y) in 23 and 31
    # panels, and the window [0, 201] of the constant in 15 to 33; a two-
    # panel budget stops the half-line short of the stop rule.  One panel a
    # root leaves the window within 1.5e-11, which meets the default
    # rel_tol of 1e-10 but not 1e-12; the default budget meets 1e-12
    budget = () if converged else ("--quad", _DELTA_BUDGETS[func])
    argv = ["delta-check", "--func", func, "--x", "1", "--T", _DELTA_TS.get(func, "20,80"),
            *budget, "--strict"]
    code, plain, _ = run(capsys, *argv)
    assert code == (0 if converged else 3)
    assert run(capsys, *argv[:-1])[:2] == (0, plain)
    if converged:
        _, rows = rows_of(plain)
        assert [float(row[1]) for row in rows] == pytest.approx(_DELTA_LINES[func],
                                                                abs=1e-10)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == (0 if converged else 3)
    assert strict_json(out)["summary"]["converged"] is converged


@pytest.mark.parametrize("argv", [
    # one panel cannot meet a relative tolerance of 1e-15
    ("transform", "--func", "exp:gamma=1", "--kind", "laplace", "--z", "1+0i",
     "--quad", '{"max_panels":1,"rel_tol":1e-15}'),
    # the reproduction carries roundoff above 1e-300
    ("cauchy-check", "--func", "exp:gamma=1", "--kind", "laplace", "--z", "1+0i",
     "--tol", "1e-300"),
    # both Mellin halves converge, but their sum is judged on the summed
    # error, 3.8e-13 against a value of 4e-14
    ("transform", "--func", "expminusx", "--kind", "mellin-transform",
     "--z", "0.3759052675882387+19.9396057279115i"),
], ids=["transform", "cauchy-check", "mellin-sum"])
def test_strict_exits_three_when_the_check_fails(capsys, argv):
    code, plain, _ = run(capsys, *argv, "--strict")
    assert code == 3
    assert run(capsys, *argv)[:2] == (0, plain)
    code, out, _ = run(capsys, *argv, "--strict", "--json")
    assert code == 3
    assert strict_json(out)["rows"] == rows_of(plain)[1]


def test_sweep_command(capsys):
    code, out, _ = run(
        capsys, "sweep", "--func", "exp:gamma=1", "--kind", "laplace",
        "--x", "-2", "--deltas", "0.1,0.5,1", "--Ts", "5,10,20",
        "--json", "--strict",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["max_spread"] <= 1e-8
    assert len(doc["rows"]) == 9


def test_cauchy_check_command(capsys):
    code, out, _ = run(
        capsys, "cauchy-check", "--func", "exp:gamma=1", "--kind", "laplace",
        "--z", "1+0i", "--z", "10+0i", "--strict", "--tol", "1e-8",
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["re_z", "im_z", "re_lhs", "im_lhs", "re_rhs", "im_rhs",
                      "abs_err"]
    assert float(rows[0][2]) == pytest.approx(0.5, rel=1e-10)


def test_cauchy_check_rows_match_per_point_reproduction(capsys):
    # one discretization serves every --z
    zs = ["1+0i", "0.7+2i", "10-3i"]
    code, out, _ = run(capsys, "cauchy-check", "--func", "mixedexp:g1=1,g2=0.5",
                       "--kind", "laplace", "--T", "5",
                       *(f"--z={z}" for z in zs))
    assert code == 0
    t = transform_for(FunctionSpec.mixed_exp(1.0, 0.5), LAP)
    rect = rectangle_for(t, None, 5.0)
    want = []
    for literal in zs:
        z = parse_complex(literal)
        lhs = cauchy_reproduction(t, rect, z)
        rhs = eval_transform(t, z)
        want.append([_fmt(v) for v in (z.real, z.imag, lhs.real, lhs.imag,
                                       rhs.real, rhs.imag, abs(lhs - rhs))])
    assert rows_of(out)[1] == want


# ---------------------------------------------------------------------------
# global flags and error paths
# ---------------------------------------------------------------------------

def test_parse_failure_exits_two(capsys):
    code, _, err = run(
        capsys, "transform", "--func", "exp:gamma=", "--kind", "laplace",
        "--z", "1+0i",
    )
    assert code == 2
    assert "column 11" in err


@pytest.mark.parametrize("argv", [
    ("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace", "--x", "abc"),
    ("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace", "--x", "1",
     "--x", "nan"),
    ("delta-check", "--func", "exp:gamma=1", "--x", "abc", "--T", "20,40"),
    ("sweep", "--func", "exp:gamma=1", "--kind", "laplace", "--x", "1.5.2",
     "--deltas", "0.5", "--Ts", "5"),
], ids=["invert", "invert-nan", "delta-check", "sweep"])
def test_malformed_x_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"melaplace {argv[0]}: ") and "--x" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace", "--x", "1",
     "--delta", "0"),
    ("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace", "--x", "1",
     "--contour", "bromwich", "--T", "0"),
    ("roundtrip", "--func", "exp:gamma=1", "--kind", "laplace", "--grid",
     "1:2:2", "--contour", "bromwich", "--T", "0"),
    ("sweep", "--func", "exp:gamma=1", "--kind", "laplace", "--x", "1",
     "--deltas", "0", "--Ts", "5"),
    ("cauchy-check", "--func", "exp:gamma=1", "--kind", "laplace", "--z",
     "1+0i", "--delta=-1"),
    ("delta-check", "--func", "exp:gamma=1", "--x", "1", "--T=-20,40"),
    ("delta-check", "--func", "exp:gamma=1", "--x", "1", "--T=nan,40"),
], ids=["invert-delta", "invert-T", "roundtrip-T", "sweep-delta", "cauchy-delta",
        "delta-check-T", "delta-check-T-nan"])
def test_nonpositive_contour_parameter_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"melaplace {argv[0]}: ") and "must be positive" in err
    assert "Traceback" not in err


_EXACT_RUNS = {
    "roundtrip": ("roundtrip", "--func", "exp:gamma=1", "--kind", "laplace",
                  "--grid", "1:2:2", "--strict"),
    "sweep": ("sweep", "--func", "exp:gamma=1", "--kind", "laplace", "--x", "1",
              "--deltas", "0.5", "--Ts", "5", "--strict"),
    "cauchy-check": ("cauchy-check", "--func", "exp:gamma=1", "--kind", "laplace",
                     "--z", "1+0i", "--strict"),
}


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "abc"])
@pytest.mark.parametrize("command", sorted(_EXACT_RUNS))
def test_bad_tolerance_exits_two(tmp_path, capsys, command, tol):
    argv = _EXACT_RUNS[command]
    # these runs are exact to about 1e-16, so a valid tolerance passes
    assert run(capsys, *argv, "--tol=1e-6")[0] == 0
    # --tol parses as a float, and the command checks it as it checks delta
    message = ("argument --tol: invalid float value" if tol == "abc"
               else f"melaplace {command}: tol must be positive and finite")
    code, out, err = run(capsys, *argv, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err
    # a --config value goes through the same check
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tol": tol}))
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv", [
    ("transform", "--func", "exp:gamma=1", "--kind", "laplace", "--z", "1+0i"),
    ("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace", "--contour", "rect",
     "--x", "-2"),
    ("delta-check", "--func", "exp:gamma=1", "--x", "1", "--T", "20,40"),
], ids=["transform", "invert", "delta-check"])
def test_tolerance_only_where_it_is_read(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--tol", "1e-300", "--strict")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --tol" in err
    # a --config key that names no option of the command is ignored
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tol": 1e-300}))
    assert run(capsys, *argv, "--strict", "--config", str(config))[0] == 0


@pytest.mark.parametrize("argv", [
    ("invert", "--poles", "[[1e17,0,1,0]]", "--kind", "laplace", "--contour",
     "rect", "--x", "0"),
    ("sweep", "--poles", "[[1e17,0,1,0]]", "--kind", "laplace", "--x", "0",
     "--deltas", "0.5", "--Ts", "5"),
    ("cauchy-check", "--poles", "[[1e17,0,1,0]]", "--kind", "laplace", "--z",
     "2e17+0i"),
], ids=["invert", "sweep", "cauchy-check"])
def test_collapsed_rectangle_exits_two(capsys, argv):
    # 1e17 + 0.5 and 1e17 - 0.5 round to the same float
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"melaplace {argv[0]}: ") and "no width" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (("invert", "--poles", "[[1e308,0,1,0],[-1e308,0,1,0]]", "--kind",
      "laplace", "--x", "0"), "longer than any float"),
    (("roundtrip", "--func", "exp:gamma=1", "--kind", "laplace",
      "--grid=-1e308:1e308:2"), "grid ends must be finite"),
    (("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace",
      "--grid=nan:1:3"), "grid ends must be finite"),
    (("delta-check", "--func", "power:gamma=1e308", "--x", "0.5", "--T", "20"),
     "integrand not finite"),
    (("invert", "--poles", "[[-1,0,1e308,0]]", "--kind", "laplace", "--x", "1"),
     "laplace inverse overflows on this contour at arg = 1"),
    (("roundtrip", "--func", "power:gamma=600", "--kind", "mellin", "--grid",
      "1:4:2"), "power is not finite at x = 4"),
    (("delta-check", "--func", "exp:gamma=1", "--x", "1", "--T", "20,20"),
     "strictly increasing"),
    (("delta-check", "--func", "exp:gamma=0", "--x=-300", "--T", "20"),
     "delta check at x = -300 has an empty window [0, -100]"),
    (("delta-check", "--func", "exp:gamma=0", "--x=1e300", "--T", "20"), "central lobe"),
    (("delta-check", "--func", "exp:gamma=0", "--x=1e17", "--T", "20"), "central lobe"),
    (("sweep", "--func", "exp:gamma=1", "--kind", "laplace", "--x", "1",
      "--deltas", "0.5,0.5", "--Ts", "5"), "distinct"),
    (("roundtrip", "--func", "exp:gamma=1", "--kind", "laplace", "--grid",
      "a:b:3"), "bad grid literal 'a:b:3'"),
    (("sweep", "--func", "exp:gamma=1", "--kind", "laplace", "--x", "1",
      "--deltas", "1,x", "--Ts", "5"), "bad real list '1,x'"),
    (("invert", "--poles", "[[-1,0,1,0],[-1,0,1,0]]", "--kind", "laplace",
      "--x", "1"), "duplicate pole at (-1+0j)"),
    (("invert", "--kind", "laplace", "--x", "1"), "provide --func or --poles"),
    (("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace"),
     "provide --x or --grid"),
    (("cauchy-check", "--poles", "[[-1,0,1e308,0]]", "--kind", "laplace", "--z",
      "1+0i"), "the Cauchy integral overflows at z = (1+0j)"),
], ids=["wide-rectangle", "wide-grid", "nan-grid", "delta-check", "big-residue",
        "big-truth", "repeated-T", "empty-window", "far-window", "far-window-1e17",
        "repeated-delta", "bad-grid", "bad-real-list",
        "duplicate-pole", "no-transform", "no-argument", "cauchy-overflow"])
def test_out_of_range_inputs_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"melaplace {argv[0]}: ") and message in err
    # the command's floating-point error state does not leak
    assert np.geterr()["over"] == "warn"


@pytest.mark.parametrize("argv,want", [
    # Gamma(1) / 1e308 = 1e-308, whose mass lies about u = ln(1e308) =
    # 709.2, where x = exp(-u) is near the subnormals: the tail from u = 0
    # reads on across it, and exp(-(1e308 * x)) overflows to exp(-inf) = 0
    # short of it; the sum keeps few digits there, and both it and its
    # error are far below abs_tol
    (("transform", "--func", "exp:gamma=1e308", "--kind", "mellin-transform",
      "--z", "1+0i"), "re_z,im_z,re_val,im_val,err_est\n"
                      "1,0,2.2263024874324576e-316,0,2.2262898393519241e-316\n"),
    (("transform", "--func", "power:gamma=0.5", "--kind", "laplace", "--z",
      "1e308+1e308i"), "re_z,im_z,re_val,im_val,err_est\n1e+308,1e+308,0,0,0\n"),
    # the Cauchy quotients overflow on their way to 0
    (("cauchy-check", "--func", "exp:gamma=1", "--kind", "laplace", "--z",
      "1e308+1e308i"),
     "re_z,im_z,re_lhs,im_lhs,re_rhs,im_rhs,abs_err\n1e+308,1e+308,0,0,0,0,0\n"),
    (("delta-check", "--func", "exp:gamma=1e308", "--x", "0.5", "--T", "20,40"),
     "T,value,abs_err\n20,0,0\n40,0,0\n"),
], ids=["mellin", "laplace", "cauchy-check", "delta-check"])
def test_answers_past_an_intermediate_overflow_exit_zero(capsys, argv, want):
    # numpy's overflow warnings fail the test, so none may escape
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, want, "")


def test_missing_option_exits_two(capsys):
    code, _, err = run(capsys, "transform", "--kind", "laplace", "--z", "1+0i")
    assert code == 2
    assert "--func" in err


def test_unknown_command_exits_two(capsys):
    assert cli_main(["no-such-command"]) == 2
    capsys.readouterr()


def test_out_file_and_json(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "transform", "--func", "exp:gamma=1", "--kind", "laplace",
        "--z", "1+0i", "--out", str(target), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "transform"
    assert doc["summary"]["converged"] is True
    text = target.read_text()
    header, rows = rows_of(text)
    assert header == doc["header"] and len(rows) == 1


def test_csv_is_built_only_where_it_is_written(tmp_path, capsys, monkeypatch):
    argv = ("sweep", "--func", "exp:gamma=1", "--kind", "laplace", "--x", "1",
            "--deltas", "0.5,1", "--Ts", "5,10")
    csv_text = run(capsys, *argv)[1]
    target = tmp_path / "rows.csv"
    assert run(capsys, *argv, "--json", "--out", str(target))[1:] == (
        run(capsys, *argv, "--json")[1], "")
    assert target.read_text() == csv_text
    # --json without --out writes no CSV, so builds none
    built = []
    monkeypatch.setattr(cli, "_csv", lambda *args: built.append(args))
    assert run(capsys, *argv, "--json")[0] == 0
    assert built == []


def test_out_file_silences_stdout(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace",
        "--x", "-2", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("arg,")


def test_unwritable_out_exits_two(tmp_path, capsys):
    # a missing directory and a directory are no file to write
    for target, reason in ((tmp_path / "missing" / "rows.csv", "No such file or directory"),
                           (tmp_path, "Is a directory")):
        for extra in ((), ("--json",)):
            code, out, err = run(
                capsys, "transform", "--func", "exp:gamma=1", "--kind", "laplace",
                "--z", "1+0i", "--out", str(target), *extra,
            )
            assert (code, out) == (2, "")
            assert err == f"melaplace transform: cannot write --out {str(target)!r}: {reason}\n"
            assert "Traceback" not in err


def test_quad_flag_is_honored(capsys):
    code, out, _ = run(
        capsys, "transform", "--func", "exp:gamma=1", "--kind", "laplace",
        "--z", "1+0i", "--quad", '{"panel_order": 8, "rel_tol": 1e-6}',
    )
    assert code == 0
    assert float(rows_of(out)[1][0][2]) == pytest.approx(0.5, rel=1e-5)
    # an infinite tolerance passes any error, and an order-1e5 rule would
    # ask leggauss for a 320 GB matrix
    # JSON true is a Python bool, which is an int: rel_tol and abs_tol true
    # passed a 0.066 error on a 0.5 value, max_panels true ran one panel
    for bad in ("{bad json", "[5]", '{"panel_order": 2.5}', '{"tail_growth": 1.5}',
                '{"rel_tol": 1e400}', '{"abs_tol": 1e400}', '{"panel_order": 100000}',
                '{"rel_tol": true, "abs_tol": true}', '{"max_panels": true}',
                '{"panel_order": true}', '{"abs_tol": false}'):
        code, out, err = run(
            capsys, "transform", "--func", "exp:gamma=1", "--kind", "laplace",
            "--z", "1+0i", "--quad", bad,
        )
        assert code == 2
        assert out == "" and err.startswith("melaplace transform: bad --quad")


def test_config_supplies_defaults_and_flags_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"func": "exp:gamma=1", "kind": "laplace"}))
    code, out, _ = run(
        capsys, "transform", "--config", str(config), "--z", "1+0i",
    )
    assert code == 0
    assert float(rows_of(out)[1][0][2]) == pytest.approx(0.5, rel=1e-9)
    # an explicit flag wins over the config value
    code, out, _ = run(
        capsys, "transform", "--config", str(config), "--func", "exp:gamma=2",
        "--z", "1+0i",
    )
    assert code == 0
    assert float(rows_of(out)[1][0][2]) == pytest.approx(1.0 / 3.0, rel=1e-9)
    # a config may choose the contour and repeat a flag; a repeated flag
    # given on the command line replaces the config's list
    config.write_text(json.dumps({
        "poles": "[[-1,0,1,0]]", "kind": "laplace", "contour": "bromwich",
        "x": [1, 2], "json": True, "not-an-option": 1,
    }))
    code, out, _ = run(capsys, "invert", "--config", str(config))
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["contour"]["shape"] == "bromwich"
    assert [r[0] for r in doc["rows"]] == ["1", "2"]
    code, out, _ = run(capsys, "invert", "--config", str(config),
                       "--contour", "rect", "--x=-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["contour"]["shape"] == "rectangle"
    assert [r[0] for r in doc["rows"]] == ["-2"]
    # a list that holds lists, and an object, are one JSON value each: the
    # pole list TransformExpr.to_json writes, and a QuadratureSpec
    config.write_text(json.dumps({
        "poles": TransformExpr.rational([(-1, 1)]).to_json()["poles"], "kind": "laplace",
        "quad": {"max_panels": 64}, "x": [1, 2], "json": True,
    }))
    code, out, _ = run(capsys, "invert", "--config", str(config), "--contour", "rect")
    assert code == 0
    doc = json.loads(out)
    assert [r[0] for r in doc["rows"]] == ["1", "2"]
    assert [float(r[1]) for r in doc["rows"]] == pytest.approx(
        [math.exp(-1.0), math.exp(-2.0)], rel=1e-12)
    config.write_text(json.dumps({"quad": {"max_panels": 1}, "kind": "laplace"}))
    code, out, err = run(capsys, "invert", "--config", str(config), "--contour", "rect",
                         "--poles", "[[-1,0,1,0]]", "--x", "1")
    assert (code, out) == (2, "") and "max_panels = 1" in err
    # values from a config are checked like flags
    config.write_text(json.dumps({"kind": "laplace", "contour": "circle"}))
    code, out, _ = run(capsys, "invert", "--config", str(config),
                       "--poles", "[[-1,0,1,0]]", "--x", "1")
    assert code == 2 and out == ""


def test_unreadable_config_exits_two(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    for path in (tmp_path / "missing.json", garbled):
        code, out, err = run(capsys, "transform", "--config", str(path),
                             "--func", "exp:gamma=1", "--kind", "laplace",
                             "--z", "1+0i")
        assert code == 2
        assert out == ""
        assert err.startswith("melaplace transform: cannot read --config")
        assert "Traceback" not in err
    # valid JSON that is not an object is no config either
    listed = tmp_path / "listed.json"
    listed.write_text("[1,2]")
    code, out, err = run(capsys, "transform", "--config", str(listed),
                         "--func", "exp:gamma=1", "--kind", "laplace", "--z", "1+0i")
    assert (code, out, err) == (2, "", "melaplace transform: --config must hold a JSON object\n")


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()

    def fresh(*argv):
        # the same call on a parser no other call has used
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", build_parser.__wrapped__)
            return run(capsys, *argv)

    sweep = ("sweep", "--func", "exp:gamma=1", "--kind", "laplace", "--x", "1",
             "--deltas", "0.5,1", "--Ts", "5,10")
    # a config that sets strict and a tolerance below the sweep's roundoff
    # spread exits 3
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"strict": True, "tol": 1e-300}))
    assert run(capsys, *sweep, "--config", str(config))[0] == 3
    assert run(capsys, *sweep) == fresh(*sweep)
    assert fresh(*sweep)[0] == 0
    # --json, then a plain call: CSV again
    invert = ("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace", "--x", "1",
              "--x", "2")
    code, out, _ = run(capsys, *invert, "--json")
    assert code == 0 and json.loads(out)["command"] == "invert"
    plain = run(capsys, *invert)
    assert plain == fresh(*invert)
    assert plain[1].startswith("arg,re_val,im_val\n")


# argv drawn from the subcommands, an unknown command, and each command's
# flags; values come from fixed lists of valid and malformed tokens
_BAD_REALS = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-300", "0", "-1")
_TOKENS = {
    "--func": ("exp:gamma=1", "power:gamma=0.5", "mixedexp:g1=1,g2=0.5",
               "mixedpower:g1=0.5,g2=1", "expminusx", "exp:gamma=1e308",
               "power:gamma=1e308", "exp:gamma=nan", "exp:gamma=",
               "mixedexp:g1=1e-300,g2=1e308"),
    "--poles": ("[[-1,0,1,0]]", "[[-1,2,1,0],[-1,-2,1,0]]", "[[-1,2,1,0]]",
                "[[0.5,0,-1,0],[-2,1,0,1]]", "[]", "[[", "[[1,2]]",
                "[[1e17,0,1,0]]", "[[1e308,0,1,0],[-1e308,0,1,0]]",
                "[[1e308,1e308,1,0]]", "[[-1,1e308,1,0]]", "[[-1,0,1e308,0]]",
                "[[-1,0,1,0],[-1,0,1,0]]"),
    "--kind": ("laplace", "mellin", "mellin-transform"),
    "--contour": ("rect", "bromwich"),
    "--x": ("1", "-2", "0.5", "4") + _BAD_REALS,
    "--grid": ("1:2:3", "-1:1:5", "0.25:4:50", "0.5:0.5:1", "1:2", "1:2:0",
               "nan:1:3", "0:1e308:50", "-1e308:1e308:2", "1:2:x"),
    "--delta": ("0.5", "0.1", "1") + _BAD_REALS,
    "--T": ("5", "20", "20,40", "200", "20,nan", "1e308,1e308") + _BAD_REALS,
    "--z": ("1+0i", "2-1i", "10+0i", "0.5+3i", "nan+0i", "inf+0i",
            "1e308+1e308i", "-1e308+0i", "1+1e308i"),
    "--deltas": ("0.1,0.5", "1", "nan", "1e308", "0.5,1e-300", "-1,1"),
    "--Ts": ("5,10", "20", "inf", "1e308", "5,1e-300", "0"),
    "--tol": ("1e-6", "1e-12", "nan", "0", "-1", "inf", "1e308"),
    "--quad": ('{"panel_order": 8}', '{"max_panels": 4}', '{"rel_tol": 1e-6}',
               '{"panel_order": 2.5}', '{"max_panels": 0}', "[5]"),
    "--strict": None,
    "--json": None,
}
# any flag may get one of these instead
_JUNK = ("", "abc", "[]", "{bad", ",")
# each command's own flags, the ones it needs first
_OWN = {
    "transform": ("--func", "--kind", "--z"),
    "invert": ("--poles", "--kind", "--x", "--func", "--contour", "--grid",
               "--delta", "--T"),
    "roundtrip": ("--func", "--kind", "--grid", "--contour", "--delta", "--T",
                  "--tol"),
    "delta-check": ("--func", "--x", "--T"),
    "sweep": ("--poles", "--kind", "--x", "--deltas", "--Ts", "--func", "--tol"),
    "cauchy-check": ("--func", "--kind", "--z", "--poles", "--delta", "--T",
                     "--tol"),
    "no-such-command": (),
}
_NEEDED = {"sweep": 5, "no-such-command": 0}
_COMMON = ("--quad", "--strict", "--json")


@st.composite
def _argv(draw):
    """A command, most of the flags it needs, then extra flags up to 6 in
    all: four in five of them its own, the rest any flag; a value follows
    its flag after "=" or as the next token."""
    command = draw(st.sampled_from(sorted(_OWN)))
    own = _OWN[command] + _COMMON
    flags = [f for f in own[:_NEEDED.get(command, 3)] if draw(st.integers(0, 4))]
    flags += draw(st.lists(
        st.one_of(*[st.sampled_from(own)] * 4, st.sampled_from(sorted(_TOKENS))),
        max_size=6 - len(flags)))
    argv = [command]
    for flag in flags:
        tokens = _TOKENS[flag]
        if tokens is None:
            argv.append(flag)
            continue
        if not draw(st.integers(0, 4)):
            tokens = _JUNK
        value = draw(st.sampled_from(tokens))
        if draw(st.booleans()):
            argv += flag, value
        else:
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
