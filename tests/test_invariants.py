"""Runtime invariants of the package raise explicit exceptions.

An `assert` statement vanishes under `python -O`, so a check written as
one would silently stop running; none may exist in the package source.
Nor may the package skip a constructor's validation with `check=False`,
or build a validated record anywhere but in the function that validates it.
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


def calls_by_function():
    """(file name, name of the enclosing function or None, called name) for every call in the package."""
    def visit(path, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                yield path.name, owner, getattr(func, "id", getattr(func, "attr", None))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            yield from visit(path, child, inner)

    for path in SOURCES:
        yield from visit(path, ast.parse(path.read_text(), filename=str(path)), None)


def test_validated_records_are_built_only_where_they_are_validated():
    """A NamedTuple can be built, or copied with changed fields, anywhere; in
    the package a CPS comes only from `assemble_cps` and a hypercomplex
    structure only from `lift_cps`, and no record is copied with `_replace`."""
    builders = {"CPS": set(), "HypercomplexStructure": set(), "_replace": set(), "_make": set()}
    for file_name, owner, name in calls_by_function():
        if name in builders:
            builders[name].add((file_name, owner))
    assert builders == {
        "CPS": {("structures.py", "assemble_cps")},
        "HypercomplexStructure": {("hypercomplex.py", "lift_cps")},
        "_replace": set(),
        "_make": set(),
    }
