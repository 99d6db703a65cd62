"""Runtime invariants of the package raise explicit exceptions.

An `assert` statement vanishes under `python -O`, so a check written as
one would silently stop running; none may exist in the package source.
Nor may the package skip a constructor's validation with `check=False`.
"""

import ast
from pathlib import Path

import cpslie

SOURCES = sorted(Path(cpslie.__file__).parent.glob("*.py"))


def package_nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"linalg.py", "lie.py", "structures.py", "connection.py", "catalog.py"}


def test_no_assert_statements_in_package():
    found = [f"{path.name}:{node.lineno}" for path, node in package_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_call_skips_validation_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in package_nodes()
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "check" and isinstance(kw.value, ast.Constant) and kw.value.value is False
    ]
    assert found == []
