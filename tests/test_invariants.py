"""Runtime invariants of the package raise explicit exceptions.

An `assert` statement vanishes under `python -O`, so a check written as
one would silently stop running; none may exist in the package source.
Nor may the package build a validated record anywhere but in the
function that validates it, check a CPS axiom anywhere else, check
an LSA other than as a flat torsion-free connection, or certify
completeness of an LSA other than by the trace criterion.
The one elimination, `_rref`, is the one place its rows are normalized.
Every exception class the package defines is raised somewhere in it, so
a failure path whose check was removed does not leave its class behind.
A report is the payload dict its command prints: only the matrix, subspace
and check-list classes serialize themselves.
The package is what its commands run: every definition, and every name
it exports, is reached from the CLI, from the benchmark's imports or from
the methods the benchmark's tracer wraps.
"""

import ast
import builtins
import pkgutil
import textwrap
import types
from pathlib import Path

import cpslie

SOURCES = sorted(Path(cpslie.__file__).parent.glob("*.py"))
BENCH = Path(__file__).resolve().parents[1] / "bench"


def package_nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"linalg.py", "lie.py", "structures.py", "connection.py", "catalog.py"}


def test_no_assert_statements_in_package():
    found = [f"{path.name}:{node.lineno}" for path, node in package_nodes() if isinstance(node, ast.Assert)]
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


def test_the_cps_axioms_are_checked_only_in_assemble_cps():
    """One validation path: the square checks and the integrability failures
    run only in `assemble_cps`, and the defect only inside those failures.
    Every other reader of J and E takes the `CPS` that `assemble_cps` built."""
    checks = {"square_failures": set(), "_integrability_failures": set(), "_integrability_defect": set()}
    for file_name, owner, name in calls_by_function():
        if name in checks:
            checks[name].add((file_name, owner))
    assert checks == {
        "square_failures": {("structures.py", "assemble_cps")},
        "_integrability_failures": {("structures.py", "assemble_cps")},
        "_integrability_defect": {("structures.py", "_integrability_failures")},
    }


def test_an_lsa_is_checked_as_a_flat_torsion_free_connection():
    """One validation path: an LSA is a `Connection` with no `torsion_defect`
    and a flat `curvature`, with no class of its own, and the commutator
    kernel has the one caller `curvature`, so no second left-symmetry kernel
    exists."""
    callers = {(file_name, owner) for file_name, owner, name in calls_by_function() if name == "_commutator_defects"}
    assert callers == {("connection.py", "curvature")}
    subclasses = [
        node.name
        for _, node in package_nodes()
        if isinstance(node, ast.ClassDef) and "Connection" in {getattr(b, "id", None) for b in node.bases}
    ]
    assert subclasses == []


def test_completeness_has_one_certificate_and_torsion_one_check_per_connection():
    """The trace criterion is the one completeness certificate of an LSA: no
    definition, call or import of the package is named `is_nilpotent*`, and a
    curvature report carries no connection to check again.  Torsion is
    checked once, where the cp connection is certified: in `assemble_cps`."""
    from cpslie.connection import CurvatureReport

    callers = {(file_name, owner) for file_name, owner, name in calls_by_function() if name == "torsion_defect"}
    assert callers == {("structures.py", "assemble_cps")}
    names = [
        (path.name, node.lineno, name)
        for path, node in package_nodes()
        for name in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None))
        if isinstance(name, str) and name.startswith("is_nilpotent")
    ]
    assert names == []
    assert "connection" not in CurvatureReport._fields


def test_the_elimination_normalizes_once():
    """One normalization per elimination: `_rref` returns the canonical
    unit-pivot rows, and its readers (`Subspace`, `kernel`, `inverse`) take
    no gcd or lcm of their own; the other callers bring sums, blocks and
    outside input to one denominator."""
    owners = {owner for file_name, owner, name in calls_by_function() if file_name == "linalg.py" and name in ("gcd", "lcm")}
    assert owners == {"_scaled", "_matrix", "block", "_combine", "_rref"}


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


def _is_definition(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _references(node) -> tuple[set[str], set[str]]:
    """(bare names loaded, attribute names loaded) in `node`, outside nested definitions."""
    names, attributes, todo = set(), set(), [node]
    while todo:
        for child in ast.iter_child_nodes(todo.pop()):
            if _is_definition(child):
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                names.add(child.id)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                attributes.add(child.attr)
            todo.append(child)
    return names, attributes


def _outside_bases(tree, node) -> list:
    """The classes from outside the package that class `node` names as bases,
    resolved through the absolute imports of its module or the builtins."""
    imports = {}
    for imp in ast.walk(tree):
        if isinstance(imp, ast.Import):
            imports.update((a.asname or a.name, a.name) for a in imp.names)
        elif isinstance(imp, ast.ImportFrom) and not imp.level:
            imports.update((a.asname or a.name, f"{imp.module}.{a.name}") for a in imp.names)
    out = []
    for base in node.bases:
        head, _, rest = ast.unparse(base).partition(".")
        dotted = imports.get(head, f"builtins.{head}") + (f".{rest}" if rest else "")
        try:
            out.append(pkgutil.resolve_name(dotted))
        except (ImportError, AttributeError, ValueError):  # a class of the package
            pass
    return out


def definitions(sources):
    """({"module.qualname": (name, references, class, overrides)}, references of module-level code).

    Every function and class counts, nested ones too; a definition's
    references include its decorators, defaults and bases, `class` is the
    qualified name of the class a method belongs to, else None, and
    `overrides` tells whether the method overrides one of a base class from
    outside the package, which that class's own code calls.
    """
    defs, module_level = {}, (set(), set())

    def visit(tree, node, prefix, owner, outside):
        for child in ast.iter_child_nodes(node):
            if _is_definition(child):
                key = f"{prefix}.{child.name}"
                overrides = any(hasattr(base, child.name) for base in outside)
                defs[key] = (child.name, _references(child), owner, overrides)
                is_class = isinstance(child, ast.ClassDef)
                visit(tree, child, key, key if is_class else None, _outside_bases(tree, child) if is_class else [])

    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        names, attributes = _references(tree)
        module_level[0].update(names)
        module_level[1].update(attributes)
        visit(tree, tree, path.stem, None, [])
    return defs, module_level


def reachability(sources, roots, methods=()):
    """(every definition in `sources`, by key, the keys reached, the sorted roots that name nothing).

    A call graph by reference: a bare name that is loaded reaches every
    function and class of that name, in any module, but no method; an
    attribute that is loaded (`x.name`) reaches every definition of that
    name, methods too; a name that is stored reaches nothing.  A class
    brings its dunder methods and its overrides of methods of a base class
    from outside the package.  Reaching starts from module-level code, from
    the names in `roots`, each of which reaches every definition of that
    name, and from the (module, class, method) triples in `methods`, each
    of which reaches the one method with the key "module.class.method".  A
    root names nothing when no definition has its name or its key.
    """
    defs, (module_names, module_attributes) = definitions(sources)
    by_name, functions, brought = {}, {}, {}
    for key, (name, _, owner, overrides) in defs.items():
        by_name.setdefault(name, []).append(key)
        if owner is None:
            functions.setdefault(name, []).append(key)
        elif overrides or name.startswith("__") and name.endswith("__"):
            brought.setdefault(owner, []).append(key)

    def targets(names, attributes):
        return [key for name in names for key in functions.get(name, ())] + [
            key for name in attributes for key in by_name.get(name, ())
        ]

    method_keys = {".".join(triple) for triple in methods}
    root_keys = [key for name in roots for key in by_name.get(name, ())] + sorted(method_keys & set(defs))
    reached, todo = set(), targets(module_names, module_attributes) + root_keys
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += targets(*defs[key][1]) + brought.get(key, [])
    missing = sorted({name for name in roots if name not in by_name} | method_keys - set(defs))
    return defs, reached, missing


def unreached(sources, roots, methods=()):
    """(definitions in `sources` that nothing reaches, roots that name nothing), both sorted."""
    defs, reached, missing = reachability(sources, roots, methods)
    return sorted(set(defs) - reached), missing


def unreached_exports(sources, roots, methods, exports):
    """The names in `exports` that no reached module-level definition of `sources` has, sorted."""
    _, reached, _ = reachability(sources, roots, methods)
    return sorted(set(exports) - {key.partition(".")[2] for key in reached if key.count(".") == 1})


def bench_imports(bench):
    """The names that `from cpslie... import` statements in `bench/*.py` bind."""
    return {
        alias.name
        for path in bench.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cpslie"
        for alias in node.names
    }


def bench_methods(bench):
    """The (layer, class, method) triples of `METHODS` in `bench/spans.py`, which its tracer wraps by name."""
    tree = ast.parse((bench / "spans.py").read_text())
    return {
        triple
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "METHODS" for t in node.targets)
        for triple in ast.literal_eval(node.value)
    }


ROOTS = {"main"} | bench_imports(BENCH)
METHODS = bench_methods(BENCH)


def test_every_definition_is_reached_from_a_command():
    """Every function, method and class of the package is reached from
    `cli.main` and module-level code (`cli.COMMANDS`), from a name that the
    benchmark scripts import, or from a method that the benchmark's tracer
    wraps.  Since those are roots, each must name a definition: deleting one
    of them (`witness_structure`, `cp_connection`, `load_catalog`,
    `QMatrix.apply`) fails here, in tier-1, and not only when the benchmark
    runs."""
    assert METHODS >= {("linalg", "QMatrix", "apply"), ("lie", "LieAlgebra", "bracket")}
    assert unreached(SOURCES, ROOTS, METHODS) == ([], [])


def test_every_export_is_reached_from_a_command():
    """Each name that `cpslie` exports, its modules aside, is a module-level
    definition of the package that the roots reach."""
    exports = {name for name in cpslie.__all__ if not isinstance(getattr(cpslie, name), types.ModuleType)}
    assert {"assemble_cps", "QMatrix", "verify_table"} <= exports
    assert unreached_exports(SOURCES, ROOTS, METHODS, exports) == []


PLANTED = textwrap.dedent('''
    import argparse

    def main():
        unused = helper()  # a local named like the method Box.unused
        return unused, Parser()

    def helper():
        return Box()

    def orphan():
        return 1

    class Box:
        def __init__(self):
            pass

        def unused(self):
            pass

        def wrapped(self):
            pass

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

        def fresh(self):
            pass
''')


def test_the_reachability_guard_reports_planted_faults(tmp_path):
    """An unreached function or method is reported; so is a root name or a
    method triple that names nothing.  A local variable named like a method
    does not reach it; a method that argparse calls, as an override of its
    own, is reached; a method triple reaches its method and nothing else."""
    source = tmp_path / "mod.py"
    source.write_text(PLANTED)
    assert unreached([source], {"main"}) == (
        ["mod.Box.unused", "mod.Box.wrapped", "mod.Parser.fresh", "mod.orphan"], []
    )
    methods = {("mod", "Box", "wrapped"), ("mod", "Box", "gone")}
    assert unreached([source], {"main", "orphan", "missing"}, methods) == (
        ["mod.Box.unused", "mod.Parser.fresh"], ["missing", "mod.Box.gone"]
    )


def test_the_export_guard_reports_planted_faults(tmp_path):
    """An exported name whose definition nothing reaches, or that names no
    module-level definition (a method, a stale name), is reported."""
    source = tmp_path / "mod.py"
    source.write_text(PLANTED)
    exports = {"main", "helper", "Box", "Parser", "orphan", "unused", "gone"}
    assert unreached_exports([source], {"main"}, (), exports) == ["gone", "orphan", "unused"]
