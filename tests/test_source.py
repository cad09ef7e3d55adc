"""Checks on the package source itself."""

import ast
import contextlib
import csv
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import melaplace
from melaplace import FunctionKind
from melaplace.cli import cli_main

PACKAGE = Path(melaplace.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so none may guard behaviour
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one dependency pyproject.toml lists; scipy may be
    # installed, but its spherical_jn is no shortcut for the Filon moments
    allowed = sys.stdlib_module_names | {"numpy", "melaplace"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_every_private_helper_is_used():
    # a top-level private name that nothing in the package loads or
    # imports is dead code left behind by a refactor
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    defined = set()
    used = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in names if isinstance(t, ast.Name)]
            else:
                targets = []
            defined.update((module, t) for t in targets
                           if t.startswith("_") and not t.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert sorted(f"{module}:{n}" for module, n in defined if n not in used) == []


def test_function_kinds_are_read_from_the_catalog_table():
    # each kind is one row of functions._CATALOG; outside functions.py only
    # the Gamma case of analytic_transform names a kind
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "functions.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [
                (path.name, getattr(top, "name", None), node.attr)
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "FunctionKind"
                and node.attr in FunctionKind.__members__
            ]
    assert found == [("transforms.py", "analytic_transform", "EXP_MINUS_X")]


def test_transforms_evaluate_only_the_foreign_laplace_source():
    # every other integrand folds its source into one exponential per
    # term; a unit-interval source read at t is the one evaluated apart
    tree = ast.parse((PACKAGE / "transforms.py").read_text(encoding="utf-8"))
    found = [
        (top.name, ast.unparse(node))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "evaluate"
    ]
    assert found == [("_kernel_integrand", "evaluate(spec, t)")]


def test_transform_integrals_are_built_only_in_pieces_and_judged_only_in_summed():
    # every numeric transform value and numeric Bromwich line runs its
    # half-lines in one place and judges their sum in one other; a delta
    # check's finite window is the one engine pass outside _pieces, and
    # _summed judges it too
    tree = ast.parse((PACKAGE / "transforms.py").read_text(encoding="utf-8"))
    found = sorted({
        (top.name, node.func.id)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("_halfline", "integrate_halfline", "integrate_finite",
                             "_trees", "_within")
    })
    assert found == [("_pieces", "_halfline"), ("_summed", "_within"),
                     ("_window_integral", "_trees")]


def test_every_direct_transform_is_one_tail():
    # transform_estimate judges no sum of pieces, and each direct-transform
    # return of _pieces stands on one _halfline call: a direct Mellin
    # transform takes both sides of x = 1 in one tail, not a tail a side
    tree = ast.parse((PACKAGE / "transforms.py").read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}

    def called(top, name):
        return [node for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name]

    assert called(functions["transform_estimate"], "_summed") == []
    direct = [node for node in ast.walk(functions["_pieces"])
              if isinstance(node, ast.If) and ast.unparse(node.test).startswith("T is None")]
    assert [(len(called(node, "_halfline")),
             len([n for n in ast.walk(node) if isinstance(n, ast.Return)])) for node in direct
            ] == [(1, 1), (1, 1)]


def test_the_engine_alone_applies_a_line_kernel():
    # every numeric line and every delta check runs its Dirichlet kernel
    # through quadrature._Dirichlet: no module names a kernel function of
    # its own, and campaigns takes nothing from quadrature but the spec
    found = sorted({
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == "_dirichlet")
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name == "_dirichlet" for alias in node.names))
    })
    assert found == []
    tree = ast.parse((PACKAGE / "campaigns.py").read_text(encoding="utf-8"))
    assert [[alias.name for alias in node.names] for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "quadrature"
            ] == [["QuadratureSpec"]]


def test_the_package_never_loads_numpy_polynomial():
    # importing numpy.polynomial costs about 0.8 MB of peak RSS; _gl and
    # _legvander take leggauss's and legvander's steps without it.  No
    # module names it, and a line, a rectangle and a Filon row leave it
    # unloaded
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "polynomial":
                found.append(f"{path.name}:{ast.unparse(node)}")
            elif isinstance(node, ast.Import):
                found += [f"{path.name}:{alias.name}" for alias in node.names
                          if alias.name.startswith("numpy.polynomial")]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if (node.module.startswith("numpy.polynomial")
                        or node.module == "numpy"
                        and any(alias.name == "polynomial" for alias in node.names)):
                    found.append(f"{path.name}:{node.module}")
    assert found == []
    code = ("import sys, melaplace as m\n"
            "t = m.TransformExpr.gamma()\n"
            "m.inverse_eval(t, m.InverseKind.MELLIN_KERNEL, m.bromwich_for(t, 1.0, 200.0), 0.5)\n"
            "r = m.TransformExpr.rational([(-1.0, 1.0)])\n"
            "m.inverse_eval(r, m.InverseKind.LAPLACE_KERNEL, m.rectangle_for(r), 1.0)\n"
            "print('numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_the_kernel_keeps_no_rows_of_its_own():
    # the bounded tables of _filon_row and _wave_row hold every kernel row
    # for the process; _Dirichlet holds only its kernel's T and s, no
    # per-call cache
    tree = ast.parse((PACKAGE / "quadrature.py").read_text(encoding="utf-8"))
    kernel = next(top for top in tree.body
                  if isinstance(top, ast.ClassDef) and top.name == "_Dirichlet")
    assigned = {
        target.attr
        for node in ast.walk(kernel) if isinstance(node, ast.Assign)
        for element in node.targets
        for target in (element.elts if isinstance(element, ast.Tuple) else [element])
        if isinstance(target, ast.Attribute)
    }
    assert assigned == {"T", "s"}


def test_cli_cells_are_formatted_only_in_emit():
    # every CSV and --json cell is the value formatted with .17g, in one
    # place: a command hands _emit plain numbers
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [
                (path.name, getattr(top, "name", None), ast.unparse(node))
                for node in ast.walk(top)
                # the spec alone, in format(), an f-string or str.format, or
                # after %; a docstring may name it
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.search(r"(^|[%:])\.17g", node.value)
            ]
    assert found == [("cli.py", "_emit", "'.17g'")]


def _functions(tree):
    """(name, node) of each top-level function and method, a method's name
    written Class.method."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{node.name}", node) for node in top.body
                        if isinstance(node, ast.FunctionDef))


def test_pole_lists_are_read_only_in_transform_from_json():
    # a pole-list entry [re, im, res_re, res_im] becomes a pole and a
    # residue in one place, which the CLI's --poles calls; a spec's one
    # text form is its spec string, so FunctionSpec has no JSON of its own
    def item(node):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "float" and node.args:
            node = node.args[0]
        return isinstance(node, ast.Subscript)

    functions = {path.name: dict(_functions(ast.parse(path.read_text(encoding="utf-8"))))
                 for path in sorted(PACKAGE.glob("*.py"))}
    found = [
        (module, name)
        for module, defined in functions.items()
        for name, function in defined.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "complex"
        and len(node.args) == 2 and all(item(arg) for arg in node.args)
    ]
    assert found == [("transforms.py", "TransformExpr.from_json")] * 2
    assert "TransformExpr.from_json" in ast.unparse(functions["cli.py"]["_parse_poles"])
    assert not {"FunctionSpec.to_json", "FunctionSpec.from_json"} & set(functions["functions.py"])


def test_quadrature_takes_no_numpy_abs():
    # panel errors carry the bits of CPython's complex abs: np.abs differs
    # from it on 34,863 of 100,000 normal random values, by up to 2 ulp,
    # while np.hypot(re, im) agrees on every one and never raises.  An
    # error one ulp off flips split decisions that no tolerance-based test
    # sees
    tree = ast.parse((PACKAGE / "quadrature.py").read_text(encoding="utf-8"))
    found = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy") and node.attr in ("abs", "absolute")
    ] + [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy"
        for alias in node.names if alias.name in ("abs", "absolute")
    ]
    assert found == []


def test_quadrature_has_one_refinement_loop():
    # every integral refines its panels in _trees, the one caller of
    # _panels; neither judges a panel with a _within call each; no
    # depth-first walk is left, and the half-line loop reads its blocks
    # with no generator
    tree = ast.parse((PACKAGE / "quadrature.py").read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}

    def called(top, name):
        return [node for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name]

    assert [name for name, top in functions.items() if called(top, "_panels")] == ["_trees"]
    assert len(called(tree, "_panels")) == 1
    assert not {"_depth_first", "_walk", "_prefetch", "_tail_panels"} & set(functions)
    assert not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(tree))
    assert called(functions["_trees"], "_within") == called(functions["_panels"], "_within") == []


def test_contours_have_one_panel_rule():
    # _paths lays out every contour on one width and one budget: no width
    # floor and no per-edge budgets in a helper of their own
    tree = ast.parse((PACKAGE / "contours.py").read_text(encoding="utf-8"))
    defined = {target.id for top in tree.body if isinstance(top, ast.Assign)
               for target in top.targets if isinstance(target, ast.Name)}
    defined |= {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
    assert not {"_MIN_PANEL_WIDTH", "_polyline", "_panel_width"} & defined


def test_contour_sums_build_only_through_the_record():
    # every rational contour sum, of one contour or of a sweep's grid, takes
    # its nodes, weights and transform values from _record, the one
    # per-contour step; discretize lays out its nodes through the same
    # _paths, and a sweep reaches the record only through _rectangle_sums
    found = sorted({
        (node.func.id, f"{module}.{name}")
        for module in ("contours", "campaigns")
        for name, function in _functions(
            ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("_paths", "_record", "_rectangle_sums", "rational_values")
    })
    assert found == [("_paths", "contours._record"), ("_paths", "contours.discretize"),
                     ("_record", "contours._cauchy_sums"),
                     ("_record", "contours._contour_sums"),
                     ("_record", "contours._rectangle_sums"),
                     ("_rectangle_sums", "campaigns.invariance_sweep"),
                     ("rational_values", "contours._record")]
    # the record's format stays in contours: campaigns does no array work
    campaigns = ast.parse((PACKAGE / "campaigns.py").read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(campaigns)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(campaigns)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "numpy" not in imported


def test_no_module_reads_a_private_attribute_of_another_object():
    # the package reads other objects, argparse's parsers included, only
    # through their public names
    found = [
        f"{path.name}:{node.lineno}:{ast.unparse(node)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert found == []


# the exact stdout of each `melaplace ...` line of README's sh blocks
README_OUTPUTS = {
    "transform": """\
re_z,im_z,re_val,im_val,err_est
1,0,0.50000000000000022,0,3.2331168236556816e-16
""",
    "invert": """\
arg,re_val,im_val
-2,7.3890560989306504,0
""",
    "roundtrip": """\
arg,truth,recovered,abs_err,rel_err
0.25,0.5,0.49999999999999994,5.5511151231257827e-17,1.1102230246251565e-16
1.1875,1.0897247358851685,1.0897247358851683,2.2204460492503131e-16,2.0376210396350002e-16
2.125,1.4577379737113252,1.4577379737113252,0,0
3.0625,1.75,1.75,0,0
4,2,2,0,0
""",
    "delta-check": """\
T,value,abs_err
20,0.3614039596842622,0.0064754814871801347
40,0.37318364969354756,0.0053042085221052249
80,0.36831857413291913,0.00043913296147679581
""",
    "sweep": """\
delta,half_height,re_val,im_val
0.10000000000000001,5,7.3890560989306824,0
0.10000000000000001,10,7.3890560989306886,0
0.10000000000000001,20,7.389056098930709,0
0.5,5,7.3890560989306531,0
0.5,10,7.3890560989306566,0
0.5,20,7.3890560989306842,0
1,5,7.389056098930654,0
1,10,7.3890560989306584,0
1,20,7.3890560989307028,0
""",
    "cauchy-check": """\
re_z,im_z,re_lhs,im_lhs,re_rhs,im_rhs,abs_err
1,0,0.5,1.3321333626789469e-17,0.5,0,1.3321333626789469e-17
""",
}


def test_readme_cli_examples_run():
    # every `melaplace ...` line of README's sh blocks exits 0 and prints
    # the CSV header that README's table gives for its command, and the
    # rows pinned above; with --json it prints the same header and cells
    text = README.read_text(encoding="utf-8")
    headers = dict(re.findall(r"^\| `([a-z-]+)` +\| `([^`]+)` +\|$", text, re.M))
    examples = [
        line
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("melaplace ")
    ]
    assert sorted(shlex.split(line)[1] for line in examples) == sorted(README_OUTPUTS)
    for line in examples:
        argv = shlex.split(line)[1:]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        assert code == 0, line
        assert out.getvalue().splitlines()[0] == headers[argv[0]], line
        assert out.getvalue() == README_OUTPUTS[argv[0]], line
        # --json carries the same cells as the CSV
        doc = io.StringIO()
        with contextlib.redirect_stdout(doc):
            assert cli_main(argv + ["--json"]) == 0, line
        got = json.loads(doc.getvalue())
        want = list(csv.reader(io.StringIO(out.getvalue())))
        assert [got["header"], *got["rows"]] == want, line


def _run_module(*argv):
    """`python -W error -m melaplace argv` on the source tree."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-W", "error", "-m", "melaplace", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_runs_the_cli():
    # __main__ and console_main, as a shell runs them, with every warning
    # an error
    line = re.search(r"^melaplace transform .*$", README.read_text(encoding="utf-8"), re.M)
    done = _run_module(*shlex.split(line.group())[1:])
    assert (done.returncode, done.stdout, done.stderr) == (0, README_OUTPUTS["transform"], "")

    done = _run_module("invert", "--poles", "[[-1,0,1,0]]", "--kind", "laplace",
                       "--contour", "rect", "--x", "abc")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("melaplace invert: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr

    done = _run_module("roundtrip", "--func", "mixedpower:g1=0.5,g2=1", "--kind", "mellin",
                       "--contour", "bromwich", "--grid", "0.2:0.9:8", "--T", "10",
                       "--strict")
    assert done.returncode == 3 and "Traceback" not in done.stderr


def _closed_stdout_run(grid, first_line, *extra):
    """(exit code, stderr) of `python -W error -m melaplace invert` over
    --grid, its stdout a pipe whose reader closes after the first line,
    or before the command starts when first_line is False."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    argv = [sys.executable, "-W", "error", "-m", "melaplace", "invert", "--func",
            "mixedexp:g1=1,g2=0.5", "--kind", "laplace", "--contour", "rect",
            "--grid", grid, *extra]
    read, write = os.pipe()
    if not first_line:
        os.close(read)
    with subprocess.Popen(argv, stdout=write, stderr=subprocess.PIPE, env=env) as child:
        os.close(write)
        if first_line:
            with os.fdopen(read, "rb") as reader:
                reader.readline()
        stderr = child.stderr.read().decode()
        return child.wait(timeout=120), stderr


@pytest.mark.parametrize("grid, first_line", [("-4:4:5", False), ("-4:4:40000", True)],
                         ids=["closed-before", "closed-after-first-line"])
def test_closed_stdout_ends_csv_and_json_alike_with_no_traceback(grid, first_line):
    # the reader of a pipe, such as `| head -1`, may close it before the
    # command writes (exit 1 on the broken pipe) or while it writes its
    # 1.6 MB of CSV or 3 MB of JSON, past a pipe's capacity
    csv_run = _closed_stdout_run(grid, first_line)
    json_run = _closed_stdout_run(grid, first_line, "--json")
    assert csv_run == (json_run[0], "") and json_run[1] == ""
    if not first_line:
        assert csv_run[0] == 1


# every public name of the package and of each of its modules; a class's
# public members are listed as Class.member
PUBLIC_API = {
    "melaplace": """
        BROMWICH_TOL Contour ContourShape ConvergenceTable DomainError
        DomainHint EmptyGrid Estimate FunctionKind FunctionSpec GrowthBounds
        InverseKind LineSide MelaplaceError NoClosedForm NoStrip
        NonFiniteIntegrand NotRectangularizable OutOfDomain ParseError PoleHit
        QuadratureSpec RECTANGLE_TOL RoundTripReport RoundTripRow
        SidePoleConflict Strip TailDivergence TransformExpr TransformForm
        TransformKind ZInsideRectangle analytic_transform bromwich_for
        cauchy_reproduction delta_check discretize eval_transform evaluate
        format_spec_string growth_bounds holomorphy_strip integrate_finite
        integrate_halfline integrate_unit_singular invariance_sweep
        inverse_eval laplace_transform mellin_moment mellin_transform
        parse_spec_string pole_box rectangle_for residue_inverse roundtrip
        single_line_eval transform_estimate transform_for
    """,
    "melaplace.campaigns": """
        BROMWICH_TOL ConvergenceTable ConvergenceTable.converged
        ConvergenceTable.errors ConvergenceTable.final_error
        ConvergenceTable.max_spread ConvergenceTable.parameter
        ConvergenceTable.reference ConvergenceTable.results
        ConvergenceTable.values RECTANGLE_TOL RoundTripReport
        RoundTripReport.contour RoundTripReport.converged RoundTripReport.kind
        RoundTripReport.max_abs_err RoundTripReport.max_rel_err
        RoundTripReport.passed RoundTripReport.rows RoundTripReport.spec
        RoundTripReport.tolerance RoundTripReport.wall_time RoundTripRow
        RoundTripRow.abs_err RoundTripRow.arg RoundTripRow.recovered
        RoundTripRow.rel_err RoundTripRow.truth delta_check invariance_sweep
        roundtrip
    """,
    "melaplace.cli": """
        EXIT_NOT_CONVERGED EXIT_OK EXIT_USAGE build_parser cli_main
        console_main parse_complex parse_grid
    """,
    "melaplace.contours": """
        Contour Contour.c_left Contour.c_right Contour.delta Contour.from_json
        Contour.half_height Contour.shape Contour.to_json ContourShape
        ContourShape.BROMWICH_LINE ContourShape.RECTANGLE DEFAULT_DELTA
        DEFAULT_LINE_HALF_HEIGHT LineSide LineSide.LEFT_OF_POLES
        LineSide.RIGHT_OF_POLES bromwich_for cauchy_reproduction discretize
        inverse_eval rectangle_for single_line_eval
    """,
    "melaplace.errors": """
        DomainError EmptyGrid MelaplaceError NoClosedForm NoStrip
        NonFiniteIntegrand NotRectangularizable OutOfDomain ParseError PoleHit
        SidePoleConflict TailDivergence ZInsideRectangle
    """,
    "melaplace.functions": """
        DomainHint DomainHint.HALF_LINE DomainHint.UNIT_INTERVAL FunctionKind
        FunctionKind.EXP FunctionKind.EXP_MINUS_X FunctionKind.MIXED_EXP
        FunctionKind.MIXED_POWER FunctionKind.POWER FunctionSpec
        FunctionSpec.domain_hint FunctionSpec.exp FunctionSpec.exp_minus_x
        FunctionSpec.kind FunctionSpec.mixed_exp FunctionSpec.mixed_power
        FunctionSpec.params FunctionSpec.power GrowthBounds
        GrowthBounds.right_index Strip Strip.c1 Strip.c2 Strip.contains
        evaluate format_spec_string growth_bounds parse_spec_string
    """,
    "melaplace.quadrature": """
        DEFAULT_QUADRATURE Estimate Estimate.converged Estimate.err_est
        Estimate.panels_used Estimate.value QuadratureSpec
        QuadratureSpec.abs_tol QuadratureSpec.from_json
        QuadratureSpec.max_panels QuadratureSpec.panel_order
        QuadratureSpec.rel_tol QuadratureSpec.to_json integrate_finite
        integrate_halfline integrate_unit_singular
    """,
    "melaplace.residues": """
        pole_box residue_inverse
    """,
    "melaplace.transforms": """
        InverseKind InverseKind.LAPLACE_KERNEL InverseKind.MELLIN_KERNEL
        POLE_HIT_TOL TransformExpr TransformExpr.conjugate_symmetric
        TransformExpr.form TransformExpr.from_json TransformExpr.gamma
        TransformExpr.kind TransformExpr.numeric TransformExpr.poles
        TransformExpr.rational TransformExpr.source TransformExpr.to_json
        TransformExpr.validity TransformForm TransformForm.NUMERIC
        TransformForm.RATIONAL TransformKind TransformKind.LAPLACE
        TransformKind.MELLIN TransformKind.MOMENT analytic_transform
        eval_transform holomorphy_strip laplace_transform mellin_moment
        mellin_transform rational_values transform_estimate transform_for
    """,
}


def _defined_names(body, prefix=""):
    """Public names that the statements of a module or class body define,
    with each public class's own members as Class.member."""
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if name.startswith("_"):
                continue
            out.append(prefix + name)
            if isinstance(node, ast.ClassDef):
                out += _defined_names(node.body, f"{name}.")
    return out


def test_public_api_is_pinned():
    # adding or deleting a public name is an API change: it shows here as
    # an edit of PUBLIC_API
    found = {"melaplace": sorted(
        name for name, value in vars(melaplace).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name.startswith("__"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[f"melaplace.{path.stem}"] = sorted(_defined_names(tree.body))
    assert found == {name: sorted(names.split()) for name, names in PUBLIC_API.items()}
