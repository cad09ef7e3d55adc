"""Command-line interface.

Every command is a thin wrapper over one library operation and writes CSV
(header always included) to stdout or --out; --json swaps stdout for a
machine-readable summary document.  Each CSV cell, and each cell of the
--json rows, is the value formatted with .17g.  Examples:

    melaplace transform --func exp:gamma=1 --kind laplace --z 1+0i
    melaplace invert --poles "[[-1,0,1,0]]" --kind laplace --contour rect --x -2
    melaplace roundtrip --func power:gamma=0.5 --kind mellin --grid 0.25:4:5 --strict
    melaplace delta-check --func exp:gamma=1 --x 1 --T 20,40,80
    melaplace sweep --func exp:gamma=1 --kind laplace --x -2 --deltas 0.1,0.5,1 --Ts 5,10,20
    melaplace cauchy-check --func exp:gamma=1 --kind laplace --z 1+0i

Exit codes: 0 success, 2 validation/parse error, 3 convergence failure
(only with --strict), 1 when the reader of stdout closed it early (as
``| head`` may), with no traceback.  A JSON --config file may supply any
long flag; flags given on the command line win.  A value may start with
"-" in either form,
"--grid -4:4:5" or "--grid=-4:4:5": a token that starts with a single "-",
other than -h, is the value of the long option (or its abbreviation) just
before it.  Commands run with numpy's floating-point warnings off: an
overflow on the way to a finite answer, as in exp(-(g*x)) = 0 once g*x
overflows, is no error, and an integrand value,
inverse, Cauchy sum, transform value or truth that overflow leaves inf or
nan exits 2 with the typed error raised where it is made.

Set-up is paid once: one argparse tree serves every cli_main call of a
process, and invert, roundtrip and cauchy-check build their contour and
the transform values on it once, then sum once per argument.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .campaigns import RECTANGLE_TOL, delta_check, invariance_sweep, roundtrip
from .contours import _cauchy_sums, _contour_sums, _positive, bromwich_for, rectangle_for
from .errors import MelaplaceError, ParseError
from .functions import parse_spec_string
from .quadrature import QuadratureSpec
from .transforms import (
    InverseKind,
    TransformExpr,
    TransformKind,
    eval_transform,
    transform_estimate,
    transform_for,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3

_TRANSFORM_KINDS = {
    "laplace": TransformKind.LAPLACE,
    "mellin": TransformKind.MOMENT,
    "mellin-transform": TransformKind.MELLIN,
}
_INVERSE_KINDS = {
    "laplace": InverseKind.LAPLACE_KERNEL,
    "mellin": InverseKind.MELLIN_KERNEL,
}


def parse_complex(text: str) -> complex:
    """Finite complex CLI literal a+bi / a-bi (no spaces); plain reals also
    parse."""
    s = str(text).strip()
    try:
        value = complex(s[:-1] + "j" if s.endswith("i") else s)
    except ValueError:
        raise ParseError(f"bad complex literal {text!r}") from None
    if not cmath.isfinite(value):
        raise ParseError(f"complex literal must be finite, got {text!r}")
    return value


# the most points a --grid may ask for: 10**6 floats take 8 MB
_MAX_GRID_POINTS = 10**6


def parse_grid(text: str):
    """Inclusive linear grid start:stop:count, count at most _MAX_GRID_POINTS."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ParseError(f"bad grid literal {text!r}") from None
    if not 1 <= count <= _MAX_GRID_POINTS:
        raise ParseError(f"grid count must be from 1 to {_MAX_GRID_POINTS}, got {count}")
    if not math.isfinite(stop - start):
        raise ParseError(
            f"grid ends must be finite and less than the largest float apart, "
            f"got {text!r}"
        )
    return [float(v) for v in np.linspace(start, stop, count)]


def _parse_real(text, option: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ParseError(f"bad real literal {text!r} for --{option}") from None
    if not math.isfinite(value):
        raise ParseError(f"--{option} must be finite, got {text!r}")
    return value


def _parse_reals(text: str):
    try:
        return [float(p) for p in str(text).split(",") if p != ""]
    except ValueError:
        raise ParseError(f"bad real list {text!r}") from None


def _parse_poles(text: str) -> TransformExpr:
    malformed = f"--poles expects JSON [[re,im,res_re,res_im],...], got {text!r}"
    try:
        poles = json.loads(text)
    except ValueError:
        raise ParseError(malformed) from None
    try:
        return TransformExpr.from_json({"form": "rational", "poles": poles})
    except ParseError:
        raise ParseError(malformed) from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _build_transform(ns):
    kind = _INVERSE_KINDS[_require(ns, "kind")]
    if getattr(ns, "poles", None):
        return kind, _parse_poles(ns.poles)
    if getattr(ns, "func", None):
        return kind, transform_for(parse_spec_string(ns.func), kind)
    raise ParseError("provide --func or --poles")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit(ns, header, rows, summary, ok) -> int:
    """Write the rows of numbers as CSV and/or JSON, each cell formatted
    with .17g; return the exit code, which --strict makes
    EXIT_NOT_CONVERGED when the command's check failed."""
    rows = [[format(float(x), ".17g") for x in row] for row in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            raise ParseError(f"cannot write --out {ns.out!r}: {reason}") from None
    if ns.json:
        doc = {
            "command": ns.command,
            "header": list(header),
            "rows": rows,
            # strict JSON has no inf or nan
            "summary": {
                k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in summary.items()
            },
        }
        # one write, as the CSV's: a reader that closes stdout early meets
        # both forms alike
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    elif not ns.out:
        sys.stdout.write(text)
    return EXIT_NOT_CONVERGED if ns.strict and not ok else EXIT_OK


def _quad_from(ns) -> QuadratureSpec | None:
    if not ns.quad:
        return None
    try:
        return QuadratureSpec.from_json(json.loads(ns.quad))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad --quad JSON: {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_transform(ns) -> int:
    spec = parse_spec_string(_require(ns, "func"))
    kind = _TRANSFORM_KINDS[_require(ns, "kind")]
    q = _quad_from(ns)
    rows = []
    all_converged = True
    for literal in _require(ns, "z"):
        z = parse_complex(literal)
        est = transform_estimate(spec, kind, z, q)
        all_converged = all_converged and est.converged
        rows.append((z.real, z.imag, est.value.real, est.value.imag, est.err_est))
    return _emit(ns, ("re_z", "im_z", "re_val", "im_val", "err_est"), rows,
                 {"converged": all_converged}, all_converged)


def _invert_args(ns):
    args = []
    if getattr(ns, "x", None):
        args.extend(_parse_real(v, "x") for v in ns.x)
    if getattr(ns, "grid", None):
        args.extend(parse_grid(ns.grid))
    if not args:
        raise ParseError("provide --x or --grid")
    return args


def _cmd_invert(ns) -> int:
    kind, t = _build_transform(ns)
    q = _quad_from(ns)
    if ns.contour == "bromwich":
        contour = bromwich_for(t, ns.delta, ns.T)
    else:
        contour = rectangle_for(t, ns.delta, ns.T)
    args = _invert_args(ns)
    rows = []
    all_converged = True
    for arg, (val, converged) in zip(args, _contour_sums(t, kind, contour, args, q)):
        all_converged = all_converged and converged
        rows.append((arg, val.real, val.imag))
    return _emit(ns, ("arg", "re_val", "im_val"), rows,
                 {"contour": contour.to_json(), "converged": all_converged},
                 all_converged)


def _cmd_roundtrip(ns) -> int:
    spec = parse_spec_string(_require(ns, "func"))
    kind = _INVERSE_KINDS[_require(ns, "kind")]
    report = roundtrip(
        spec,
        kind,
        parse_grid(_require(ns, "grid")),
        use_rectangle=ns.contour != "bromwich",
        q=_quad_from(ns),
        tol=ns.tol,
        delta=ns.delta,
        half_height=ns.T,
    )
    return _emit(
        ns,
        ("arg", "truth", "recovered", "abs_err", "rel_err"),
        report.rows,
        {
            "passed": report.passed,
            "converged": report.converged,
            "tolerance": report.tolerance,
            "max_abs_err": report.max_abs_err,
            "max_rel_err": report.max_rel_err,
            "wall_time": report.wall_time,
        },
        report.passed and report.converged,
    )


def _cmd_delta_check(ns) -> int:
    spec = parse_spec_string(_require(ns, "func"))
    table = delta_check(
        _parse_real(_require(ns, "x"), "x"), spec, _parse_reals(_require(ns, "T")),
        _quad_from(ns),
    )
    rows = [(T, val.real, err)
            for T, val, err in zip(table.values, table.results, table.errors)]
    return _emit(ns, ("T", "value", "abs_err"), rows,
                 {"reference": table.reference, "final_error": table.final_error,
                  "converged": table.converged}, table.converged)


def _cmd_sweep(ns) -> int:
    tol = _positive("tol", ns.tol, 1e-7)
    kind, t = _build_transform(ns)
    table = invariance_sweep(
        t,
        kind,
        _parse_real(_require(ns, "x"), "x"),
        _parse_reals(_require(ns, "deltas")),
        _parse_reals(_require(ns, "Ts")),
        _quad_from(ns),
    )
    rows = [(d, T, val.real, val.imag)
            for (d, T), val in zip(table.values, table.results)]
    # "not >" lets a nan spread pass
    return _emit(ns, ("delta", "half_height", "re_val", "im_val"), rows,
                 {"max_spread": table.max_spread}, not table.max_spread > tol)


def _cmd_cauchy_check(ns) -> int:
    tol = _positive("tol", ns.tol, RECTANGLE_TOL)
    kind, t = _build_transform(ns)
    q = _quad_from(ns)
    rect = rectangle_for(t, ns.delta, ns.T)
    zs = [parse_complex(literal) for literal in _require(ns, "z")]
    rows = []
    worst = 0.0
    for z, lhs in zip(zs, _cauchy_sums(t, rect, zs, q)):
        rhs = eval_transform(t, z, q)
        err = abs(lhs - rhs)
        worst = max(worst, err)
        rows.append((z.real, z.imag, lhs.real, lhs.imag, rhs.real, rhs.imag, err))
    return _emit(
        ns,
        ("re_z", "im_z", "re_lhs", "im_lhs", "re_rhs", "im_rhs", "abs_err"),
        rows,
        {"max_abs_err": worst},
        not worst > tol,
    )


_COMMANDS = {
    "transform": _cmd_transform,
    "invert": _cmd_invert,
    "roundtrip": _cmd_roundtrip,
    "delta-check": _cmd_delta_check,
    "sweep": _cmd_sweep,
    "cauchy-check": _cmd_cauchy_check,
}


def _require(ns, name):
    value = getattr(ns, name, None)
    if value is None or value == []:
        raise ParseError(f"missing required option --{name}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command.  It is built once per process and
    shared by every cli_main call; parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=None,
                        help="print a JSON summary instead of CSV on stdout")
    common.add_argument("--out", help="write CSV rows to this file")
    common.add_argument("--quad", help="QuadratureSpec as JSON")
    common.add_argument("--strict", action="store_true", default=None,
                        help="exit 3 on convergence or round-trip failure")
    common.add_argument("--config", help="JSON file of default option values")

    parser = argparse.ArgumentParser(
        prog="melaplace",
        description="Laplace/Mellin transforms and extended-domain inverses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", parents=[common],
                       help="direct transform at complex points")
    p.add_argument("--func", help="function spec string, e.g. exp:gamma=1")
    p.add_argument("--kind", choices=sorted(_TRANSFORM_KINDS))
    p.add_argument("--z", action="append", help="complex literal a+bi")

    p = sub.add_parser("invert", parents=[common],
                       help="inverse transform along a contour")
    p.add_argument("--func")
    p.add_argument("--poles", help="JSON [[re,im,res_re,res_im],...]")
    p.add_argument("--kind", choices=sorted(_INVERSE_KINDS))
    p.add_argument("--contour", choices=("rect", "bromwich"))
    p.add_argument("--x", action="append", help="evaluation point (repeatable)")
    p.add_argument("--grid", help="start:stop:count")
    p.add_argument("--delta", type=float)
    p.add_argument("--T", type=float, help="half-height of the contour")

    p = sub.add_parser("roundtrip", parents=[common],
                       help="recover the function and report errors")
    p.add_argument("--func")
    p.add_argument("--kind", choices=sorted(_INVERSE_KINDS))
    p.add_argument("--contour", choices=("rect", "bromwich"))
    p.add_argument("--grid", help="start:stop:count")
    p.add_argument("--delta", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--tol", type=float,
                   help="pass tolerance (default 1e-6 on a rectangle, 5e-2 on a line)")

    p = sub.add_parser("delta-check", parents=[common],
                       help="Dirichlet-kernel convergence table")
    p.add_argument("--func")
    p.add_argument("--x", help="probe point")
    p.add_argument("--T", help="comma-separated increasing cutoffs")

    p = sub.add_parser("sweep", parents=[common],
                       help="delta/T invariance of the rectangle inverse")
    p.add_argument("--func")
    p.add_argument("--poles")
    p.add_argument("--kind", choices=sorted(_INVERSE_KINDS))
    p.add_argument("--x", help="evaluation point")
    p.add_argument("--deltas", help="comma-separated offsets")
    p.add_argument("--Ts", help="comma-separated half-heights")
    p.add_argument("--tol", type=float, help="largest spread that passes (default 1e-7)")

    p = sub.add_parser("cauchy-check", parents=[common],
                       help="closed-contour reproduction of the transform")
    p.add_argument("--func")
    p.add_argument("--poles")
    p.add_argument("--kind", choices=sorted(_INVERSE_KINDS))
    p.add_argument("--z", action="append", help="points right of the rectangle")
    p.add_argument("--delta", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--tol", type=float, help="largest error that passes (default 1e-6)")

    return parser


def _apply_config(parser, ns) -> None:
    """Fill every option the command line left unset from the --config
    file, whose entries are parsed as if they were flags."""
    if not ns.config:
        return
    try:
        with open(ns.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read --config {ns.config!r}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("--config must hold a JSON object")
    argv = [ns.command]
    for key, value in doc.items():
        # keys that name no option of this command are ignored
        if key == "command" or not hasattr(ns, key):
            continue
        # a list of scalars repeats its flag; an object, or a list that
        # holds a list or an object, is one JSON value
        nested = isinstance(value, list) and any(isinstance(v, (list, dict)) for v in value)
        if isinstance(value, dict) or nested:
            value = json.dumps(value)
        for v in value if isinstance(value, list) else [value]:
            if v is True:
                argv.append(f"--{key}")
            elif v is not False and v is not None:
                argv.append(f"--{key}={v}")
    config = parser.parse_args(argv)
    for attr, value in vars(ns).items():
        if value is None:
            setattr(ns, attr, getattr(config, attr))


def _join_dash_values(argv: list) -> list:
    """argv with each token that starts with a single "-", other than
    "-h", joined as a value to the "--option" before it when that holds no
    "=": "--grid -4:4:5" and "--gri -4:4:5" become "--grid=-4:4:5" and
    "--gri=-4:4:5", which argparse would otherwise read as two options (it
    takes only plain negative numbers such as -2 for values).  Every option
    but -h is long, so such a token names no option."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and not token.startswith("--") and token != "-h"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def cli_main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parser.parse_args(_join_dash_values(argv))
        _apply_config(parser, ns)
        with np.errstate(all="ignore"):
            return _COMMANDS[ns.command](ns)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except MelaplaceError as exc:
        print(f"melaplace {ns.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    try:
        code = cli_main()
        # a reader that closed stdout raises here, not in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the Python docs' note on SIGPIPE (signal module): stdout goes to
        # devnull, so that the flush at exit raises nothing more, and the
        # exit code is 1, as Python's own on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
