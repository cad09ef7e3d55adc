"""Checks on the package source itself."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import melaplace
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
20,0.36140395968426475,0.0064754814871775812
40,0.37318364969355067,0.0053042085221083335
80,0.36831857413250857,0.00043913296106623534
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
    # rows pinned above
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
