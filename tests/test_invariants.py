"""Runtime invariants of the package raise explicit exceptions.

An `assert` statement vanishes under `python -O`, so a check written as
one would silently stop running; none may exist in the package source.
Nor may the package skip a constructor's validation with `check=False`,
or build a validated record anywhere but in the function that validates it.
Every exception class the package defines is raised somewhere in it, so
a failure path whose check was removed does not leave its class behind.
A report is the payload dict its command prints: only the matrix, subspace
and check-list classes serialize themselves.
"""

import ast
import builtins
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


def test_every_package_exception_is_raised_in_the_package():
    """A class deriving from an exception is raised by name somewhere in the package."""
    defined, raised = {}, set()
    for path, node in package_nodes():
        if isinstance(node, ast.ClassDef):
            defined[node.name] = (path.name, [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases])
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(getattr(exc, "id", getattr(exc, "attr", None)))

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return name in defined and any(map(is_exception, defined[name][1]))

    unraised = sorted(f"{defined[name][0]}:{name}" for name in defined if is_exception(name) and name not in raised)
    assert unraised == []


def test_only_the_value_classes_define_to_json():
    """No record class writes its report's shape a second time in a `to_json`."""
    found = {
        node.name
        for _, node in package_nodes()
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "to_json" for item in node.body)
    }
    assert found == {"QMatrix", "Subspace", "Checks"}
