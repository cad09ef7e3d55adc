"""Checks on the package source itself."""

import ast
from pathlib import Path

import melaplace

PACKAGE = Path(melaplace.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so none may guard behaviour
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
