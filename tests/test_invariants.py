"""Runtime invariants of the package raise explicit exceptions.

An `assert` statement vanishes under `python -O`, so a check written as
one would silently stop running; none may exist in the package source.
Nor may the package build a validated record anywhere but in the
function that validates it, check a CPS axiom anywhere else, or check
an LSA other than as a flat torsion-free connection.
Every exception class the package defines is raised somewhere in it, so
a failure path whose check was removed does not leave its class behind.
A report is the payload dict its command prints: only the matrix, subspace
and check-list classes serialize themselves.
The package is what its commands run: every definition is reached from
the CLI, from the benchmark's imports or from a short allowlist.
"""

import ast
import builtins
import textwrap
from pathlib import Path

import cpslie

SOURCES = sorted(Path(cpslie.__file__).parent.glob("*.py"))
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Definitions no command reaches yet, each kept for the ROADMAP item that
# will reach it from a command.  An entry goes once something else reaches
# it or it no longer exists.
ALLOWLIST = {
    "restrict_to_lsa": "item 1",
    "ascending_series": "item 1",
    "find_central_invariant_ideal": "item 1",
    "ricci_via_trace_identity": "item 1",
    "eight_dim_example": "item 1",
    "rank": "item 2",
}


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
    """One validation path: `LSAProduct.__init__` runs the connection's own
    torsion and curvature checks, and the commutator kernel has the one
    caller `curvature`, so no second left-symmetry kernel exists."""
    callers = {"_commutator_defects": set(), "torsion_defect": set(), "curvature": set()}
    for file_name, owner, name in calls_by_function():
        if name in callers:
            callers[name].add((file_name, owner))
    assert callers["_commutator_defects"] == {("connection.py", "curvature")}
    assert ("connection.py", "__init__") in callers["torsion_defect"] & callers["curvature"]


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


def _identifiers(node) -> set[str]:
    """Every `Name` and `Attribute` identifier in `node`, outside nested definitions."""
    out, todo = set(), [node]
    while todo:
        for child in ast.iter_child_nodes(todo.pop()):
            if _is_definition(child):
                continue
            if isinstance(child, ast.Name):
                out.add(child.id)
            elif isinstance(child, ast.Attribute):
                out.add(child.attr)
            todo.append(child)
    return out


def definitions(sources):
    """({"module.qualname": (name, identifiers, class)}, identifiers of module-level code).

    Every function and class counts, nested ones too; a definition's
    identifiers include its decorators, defaults and bases, and `class` is
    the qualified name of the class a method belongs to, else None.
    """
    defs, module_level = {}, set()

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if _is_definition(child):
                key = f"{prefix}.{child.name}"
                defs[key] = (child.name, _identifiers(child), owner)
                visit(child, key, key if isinstance(child, ast.ClassDef) else None)

    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        module_level |= _identifiers(tree)
        visit(tree, path.stem, None)
    return defs, module_level


def unreached(sources, roots, allowlist):
    """(definitions in `sources` that nothing reaches, stale allowlist entries), both sorted.

    A call graph by name: an identifier reaches every definition of that
    name, in any module or class, which reaches more than the real calls
    do.  Reaching starts from module-level code and the names in `roots`
    and `allowlist`; a class brings its dunder methods.  An allowlist entry
    is stale when no definition has its name or when the other roots and
    entries already reach it.
    """
    defs, module_level = definitions(sources)
    by_name, dunders = {}, {}
    for key, (name, _, owner) in defs.items():
        by_name.setdefault(name, []).append(key)
        if owner and name.startswith("__") and name.endswith("__"):
            dunders.setdefault(owner, []).append(key)

    def reach(names):
        reached, todo = set(), [key for name in names for key in by_name.get(name, ())]
        while todo:
            key = todo.pop()
            if key not in reached:
                reached.add(key)
                todo += [k for name in defs[key][1] for k in by_name.get(name, ())] + dunders.get(key, [])
        return reached

    start = module_level | set(roots)
    reached = reach(start | set(allowlist))
    stale = [
        name
        for name in allowlist
        if name not in by_name or set(by_name[name]) <= reach(start | set(allowlist) - {name})
    ]
    return sorted(set(defs) - reached), sorted(stale)


def bench_imports(bench):
    """The names that `from cpslie... import` statements in `bench/*.py` bind."""
    return {
        alias.name
        for path in bench.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cpslie"
        for alias in node.names
    }


def test_every_definition_is_reached_from_a_command():
    """Every function, method and class of the package is reached from
    `cli.main` and module-level code (`cli.COMMANDS`), from a name that the
    benchmark scripts import, or from `ALLOWLIST`.  Since the benchmark's
    imports are roots, each must name a definition: deleting one of them
    (`witness_structure`, `cp_connection`, `load_catalog`) fails here, in
    tier-1, and not only when the benchmark runs."""
    roots = {"main"} | bench_imports(BENCH)
    defined = {name for name, _, _ in definitions(SOURCES)[0].values()}
    assert sorted(roots - defined) == []
    assert unreached(SOURCES, roots, ALLOWLIST) == ([], [])


def test_the_reachability_guard_reports_planted_faults(tmp_path):
    """An unreached function or method is reported; so is an allowlist entry
    that names nothing or that the roots already reach."""
    source = tmp_path / "mod.py"
    source.write_text(textwrap.dedent('''
        def main():
            return helper()

        def helper():
            return Box()

        def orphan():
            return 1

        class Box:
            def __init__(self):
                pass

            def unused(self):
                pass
    '''))
    assert unreached([source], {"main"}, {}) == (["mod.Box.unused", "mod.orphan"], [])
    allowlist = {"orphan": "", "helper": "", "gone": ""}
    assert unreached([source], {"main"}, allowlist) == (["mod.Box.unused"], ["gone", "helper"])
