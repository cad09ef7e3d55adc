import csv
import io
import json
import math

import pytest

from melaplace import (
    FunctionSpec,
    TransformKind,
    transform_estimate,
)
from melaplace.cli import cli_main, parse_complex, parse_grid


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


def test_parse_grid():
    assert parse_grid("0.25:4:4") == [0.25, 1.5, 2.75, 4.0]
    assert parse_grid("1:1:1") == [1.0]
    from melaplace import ParseError
    with pytest.raises(ParseError):
        parse_grid("1:2")
    with pytest.raises(ParseError):
        parse_grid("1:2:0")


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


def test_invert_grid_and_bromwich(capsys):
    code, out, _ = run(
        capsys, "invert", "--func", "exp:gamma=1", "--kind", "laplace",
        "--contour", "bromwich", "--T", "200", "--grid", "1:2:2",
    )
    assert code == 0
    _, rows = rows_of(out)
    assert float(rows[0][1]) == pytest.approx(math.exp(-1.0), abs=5e-3)
    assert float(rows[1][1]) == pytest.approx(math.exp(-2.0), abs=5e-3)


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


def test_invert_rectangle_without_closed_form_exits_two(capsys):
    code, out, err = run(capsys, "invert", *MIXEDPOWER, "--contour", "rect",
                         "--x", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("melaplace invert: ")
    assert "cannot be inverted on a rectangle" in err


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
], ids=["invert-delta", "invert-T", "roundtrip-T", "sweep-delta", "cauchy-delta"])
def test_nonpositive_contour_parameter_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"melaplace {argv[0]}: ") and "must be positive" in err
    assert "Traceback" not in err


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


def test_out_file_silences_stdout(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace",
        "--x", "-2", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("arg,")


def test_quad_flag_is_honored(capsys):
    code, out, _ = run(
        capsys, "transform", "--func", "exp:gamma=1", "--kind", "laplace",
        "--z", "1+0i", "--quad", '{"panel_order": 8, "rel_tol": 1e-6}',
    )
    assert code == 0
    assert float(rows_of(out)[1][0][2]) == pytest.approx(0.5, rel=1e-5)
    for bad in ("{bad json", "[5]", '{"panel_order": 2.5}', '{"tail_growth": 1.5}'):
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
