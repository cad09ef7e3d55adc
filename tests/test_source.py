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


def test_readme_cli_examples_run():
    # every `melaplace ...` line of README's sh blocks exits 0 and prints
    # the CSV header that README's table gives for its command
    text = README.read_text(encoding="utf-8")
    headers = dict(re.findall(r"^\| `([a-z-]+)` +\| `([^`]+)` +\|$", text, re.M))
    examples = [
        line
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("melaplace ")
    ]
    assert examples
    for line in examples:
        argv = shlex.split(line)[1:]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        assert code == 0, line
        assert out.getvalue().splitlines()[0] == headers[argv[0]], line
