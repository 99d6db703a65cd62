"""Command-line interface: schemas, exit codes, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from cpslie.cli import COMMANDS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_command(capsys):
    code, out = run_cli(capsys, "parse", "(0,0,0,0,12,34)")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 6
    assert {"i": 1, "j": 2, "coeffs": {"5": "-1"}} in data["brackets"]
    assert {"i": 3, "j": 4, "coeffs": {"6": "-1"}} in data["brackets"]
    assert data["salamon"] == "(0,0,0,0,12,34)"


def test_parse_triangularity_error(capsys):
    code, out = run_cli(capsys, "parse", "(0,0,13)")
    assert code == 1
    data = json.loads(out)
    assert "triangularity" in data["error"]


def test_parse_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "parse", "(0,0,0,12,13,14+23)")
    _, out2 = run_cli(capsys, "parse", "(0,0,0,12,13,14+23)")
    assert out1 == out2


@pytest.fixture
def cps_file(tmp_path):
    j = [
        ["0", "1", "0", "0", "0", "0"],
        ["-1", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "-1", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "1"],
        ["0", "0", "0", "0", "-1", "0"],
    ]
    signs = [1, -1, 1, -1, 1, -1]
    e = [[str(signs[i]) if i == j_ else "0" for j_ in range(6)] for i in range(6)]
    path = tmp_path / "cps.json"
    path.write_text(
        json.dumps(
            {"algebra": {"salamon": "(0,0,0,12,13,14)"}, "J": {"matrix": j}, "E": {"matrix": e}}
        )
    )
    return str(path)


def test_check_structure(capsys, cps_file):
    code, out = run_cli(capsys, "check-structure", "--cps", cps_file)
    assert code == 0
    data = json.loads(out)
    assert data["valid"] and data["double_type"] == ["Heisenberg3", "Abelian3"]


def test_check_structure_invalid(capsys, tmp_path):
    ident = [["1" if i == j else "0" for j in range(6)] for i in range(6)]
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"algebra": {"salamon": "(0,0,0,0,0,0)"}, "J": {"matrix": ident}, "E": {"matrix": ident}}
        )
    )
    code, out = run_cli(capsys, "check-structure", "--cps", str(path))
    assert code == 1
    data = json.loads(out)
    assert not data["valid"] and "J_square" in data["failures"]


def test_connection_report(capsys, cps_file):
    code, out = run_cli(capsys, "connection-report", "--cps", cps_file)
    assert code == 0
    data = json.loads(out)
    assert data["torsion_free"] and data["parallel"] == {"J": True, "E": True}
    assert data["flat"] and data["ricci_flat"] and data["traceless"]
    assert data["curvature_nonzero_entries"] == []
    assert data["completeness"]["method"] == "segal-trace"
    assert data["completeness"]["verdict"] is True


def test_geodesic_command(capsys, cps_file):
    code, out = run_cli(capsys, "geodesic", "--cps", cps_file, "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "exact-polynomial-geodesic" and data["verdict"]
    assert (data["details"]["degree"], data["details"]["degree_reached"]) == (2, 2)
    assert data["details"]["grid"] == {"order": 4, "points": 126}


def test_hypercomplex_command(capsys, cps_file):
    code, out = run_cli(capsys, "hypercomplex", "--cps", cps_file)
    assert code == 0
    data = json.loads(out)
    assert data["lifted_algebra"]["dim"] == 12
    assert data["base_flat"] and data["obata_flat"] and data["obata_ricci_flat"]


def test_nonexistence_command(capsys):
    code, out = run_cli(capsys, "nonexistence", "(0,0,0,12,23,14-35)")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "CenterTooSmall" and data["passed"]

    code, out = run_cli(capsys, "nonexistence", "(0,0,0,0,0,0)")
    assert code == 1


def test_unknown_stored_obstruction_gives_json_error(capsys, monkeypatch):
    import cpslie.catalog as catalog

    rows = [row._replace(obstruction="Planted") if row.flat_class == "NoCPS" else row for row in catalog.load_catalog()]
    monkeypatch.setattr(catalog, "load_catalog", lambda: rows)
    for argv in (("nonexistence", "(0,0,0,12,23,14-35)"), ("verify-catalog",)):
        code, out = run_cli(capsys, *argv)
        assert code == 1 and "unknown obstruction kind 'Planted'" in json.loads(out)["error"], argv


@pytest.mark.parametrize("spacing", [" ", "\t", "\n", " \t\n "])
def test_nonexistence_ignores_whitespace_as_parse_does(capsys, spacing):
    canonical = "(0,0,0,12,23,14-35)"
    spaced = canonical.replace(",", "," + spacing).replace("-", spacing + "-")
    assert run_cli(capsys, "parse", spaced)[0] == 0
    assert run_cli(capsys, "nonexistence", spaced) == run_cli(capsys, "nonexistence", canonical)


def test_algebra_flag_overrides_file(capsys, tmp_path, cps_file):
    with open(cps_file) as fh:
        data = json.load(fh)
    del data["algebra"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "check-structure", "--algebra", "(0,0,0,12,13,14)", "--cps", str(path))
    assert code == 0
    assert json.loads(out)["valid"]


def test_empty_algebra_flag_is_not_ignored(capsys, tmp_path, cps_file):
    """--algebra "" is loaded like any other spec and fails, with or without an
    algebra in the CPS file; it neither falls back to the file's algebra nor
    reports that no algebra was given."""
    with open(cps_file) as fh:
        data = json.load(fh)
    del data["algebra"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(data))
    for path in (cps_file, str(bare)):
        code = main(["check-structure", "--algebra", "", "--cps", path])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1
        error = _strict_json(lines[0])["error"]
        assert "no algebra" not in error, path


def _cps_json(path, g, cps):
    """Write (g, J, E) as a CPS file at `path`; return the path as a string."""
    from cpslie.lie import algebra_to_json

    path.write_text(
        json.dumps({"algebra": algebra_to_json(g), "J": {"matrix": cps.j.to_json()}, "E": {"matrix": cps.e.to_json()}})
    )
    return str(path)


@pytest.mark.parametrize("command", ["check-structure", "connection-report", "hypercomplex", "geodesic"])
@pytest.mark.parametrize("example", ["eight_dim", "trivial_r2"])
def test_cps_commands_accept_a_dimension_other_than_six(capsys, tmp_path, example, command):
    """A valid CPS on the 8-dimensional example or on R^2 passes every --cps
    command; check-structure reports no double type, which is defined for
    two 3-dimensional eigenspaces only."""
    from examples import eight_dim_example
    from cpslie.lie import LieAlgebra
    from cpslie.linalg import QMatrix
    from cpslie.structures import assemble_cps

    if example == "eight_dim":
        g, cps = eight_dim_example()
    else:
        g = LieAlgebra.from_brackets(2, {})
        cps = assemble_cps(g, QMatrix([[0, -1], [1, 0]]), QMatrix([[1, 0], [0, -1]]))
    code, out = run_cli(capsys, command, "--cps", _cps_json(tmp_path / "cps.json", g, cps))
    assert code == 0, out
    if command == "check-structure":
        data = json.loads(out)
        assert data["valid"] is True and data["double_type"] is None


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(["parse", "(0,0,12)", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["salamon"] == "(0,0,12)"


def test_verify_catalog_command(capsys):
    code, out = run_cli(capsys, "verify-catalog")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["rows"]) == 15 and len(data["excluded"]) == 3
    by_name = {r["salamon"]: r for r in data["rows"]}
    row = by_name["(0,0,0,0,12,13)"]
    assert row["admits"] == {"R3xR3": False, "H3xR3": True, "H3xH3": True}
    assert row["flat_class"] == "FlatOnly" and row["witnesses_verified"]
    assert by_name["(0,0,0,12,14,24)"]["flat_class"] == "NonFlatOnly"


def _strict_json(text):
    """Parse JSON, refusing the bare NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "defect",
    ["float_entry", "no_J", "no_E", "bool_entry", "bool_only", "string_row"],
)
def test_malformed_cps_file_gives_json_error(capsys, tmp_path, cps_file, defect):
    with open(cps_file) as fh:
        data = json.load(fh)
    if defect == "float_entry":
        data["J"]["matrix"][0][1] = 1.0
    elif defect == "bool_entry":
        data["E"]["matrix"] = [[True if x == "1" else x for x in row] for row in data["E"]["matrix"]]
    elif defect == "bool_only":
        # JSON true, 0 and -1 only: no string entry to reject the matrix for
        data["E"]["matrix"] = [[{"1": True, "0": 0, "-1": -1}[x] for x in row] for row in data["E"]["matrix"]]
    elif defect == "string_row":
        data["E"]["matrix"][0] = "".join(data["E"]["matrix"][0])
    else:
        del data[defect[-1]]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    for command in ("check-structure", "connection-report", "hypercomplex", "geodesic"):
        code, out = run_cli(capsys, command, "--cps", str(path))
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1
        assert set(_strict_json(lines[0])) == {"error"}


@pytest.mark.parametrize(
    "algebra_data",
    [
        {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"4": 0.5}}]},
        {"dim": 6.7, "brackets": []},
        {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"0": "1"}}]},
        {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"99": "1"}}]},
        {"dim": 6, "brackets": [{"i": 1, "j": 2.5, "coeffs": {"4": "1"}}]},
        {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": [1]}]},
        {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": "12"}]},
        {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"0_4": "1", " 5": "1"}}]},
        {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"+4": "1"}}]},
        {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"\u0664": "1"}}]},
        {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"4": "1", "04": "1"}}]},
        '{"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"4": "1", "4": "2"}}]}',
        {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"4": "1"}}, {"i": 1, "j": 2, "coeffs": {"5": "1"}}]},
    ],
    ids=[
        "float_coeff",
        "fractional_dim",
        "coeff_index_0",
        "coeff_index_99",
        "fractional_pair",
        "coeffs_list",
        "coeffs_string",
        "coeff_key_underscore_and_space",
        "coeff_key_sign",
        "coeff_key_non_ascii_digit",
        "coeff_key_leading_zero_duplicate",
        "coeff_key_twice",
        "bracket_pair_twice",
    ],
)
def test_malformed_algebra_file_gives_json_error(capsys, tmp_path, cps_file, algebra_data):
    with open(cps_file) as fh:
        data = json.load(fh)
    del data["algebra"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(data))
    algebra = tmp_path / "algebra.json"
    # a string is raw JSON text, for objects that repeat a key
    algebra.write_text(algebra_data if isinstance(algebra_data, str) else json.dumps(algebra_data))
    code, out = run_cli(capsys, "check-structure", "--algebra", str(algebra), "--cps", str(bare))
    assert code == 1
    assert set(_strict_json(out)) == {"error"}


@pytest.mark.parametrize(
    "bracket, message",
    [
        ({"i": 1, "j": 2, "coeffs": {"0": "1"}}, "coefficient index 0 of pair (1,2)"),
        ({"i": 2, "j": 1, "coeffs": {"4": "1"}}, "bracket pair (2,1)"),
    ],
    ids=["coeff_index_0", "descending_pair"],
)
def test_algebra_file_errors_name_one_based_indices(capsys, tmp_path, cps_file, bracket, message):
    with open(cps_file) as fh:
        data = json.load(fh)
    data["algebra"] = {"dim": 6, "brackets": [bracket]}
    path = tmp_path / "cps.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "check-structure", "--cps", str(path))
    assert code == 1
    assert message in _strict_json(out)["error"]


@pytest.mark.parametrize("where", ["J", "E", "bracket"])
def test_zero_denominator_gives_json_error(capsys, tmp_path, cps_file, where):
    with open(cps_file) as fh:
        data = json.load(fh)
    if where == "bracket":
        data["algebra"] = {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"4": "1/0"}}]}
    else:
        data[where]["matrix"][0][1] = "1/0"
    path = tmp_path / "zero_denominator.json"
    path.write_text(json.dumps(data))
    code = main(["check-structure", "--cps", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert "zero denominator" in _strict_json(lines[0])["error"]


@pytest.mark.parametrize("flag", ["--cps", "--algebra"])
def test_deeply_nested_json_gives_json_error(capsys, tmp_path, cps_file, flag):
    """A file nested 100,000 brackets deep exhausts the JSON decoder's recursion."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["--cps", str(deep)] if flag == "--cps" else ["--algebra", str(deep), "--cps", cps_file]
    code = main(["check-structure", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert "nested too deeply" in _strict_json(lines[0])["error"]


@pytest.mark.parametrize(
    "value", [[["(", "0"]], [5], ["(0,0)"], {"a": 1}, 5, None], ids=["nested_list", "int_list", "list", "dict", "int", "null"]
)
@pytest.mark.parametrize("flag", ["--cps", "--algebra"])
def test_non_string_salamon_gives_json_error(capsys, tmp_path, cps_file, flag, value):
    """A "salamon" that is not a string is named as the field at fault, with no parse position."""
    data = json.loads(Path(cps_file).read_text())
    if flag == "--cps":
        data["algebra"] = {"salamon": value}
        argv = []
    else:
        algebra = tmp_path / "algebra.json"
        algebra.write_text(json.dumps({"salamon": value}))
        argv = ["--algebra", str(algebra)]
    path = tmp_path / "cps.json"
    path.write_text(json.dumps(data))
    code = main(["check-structure", *argv, "--cps", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    error = _strict_json(lines[0])
    assert set(error) == {"error"} and error["error"].startswith("'salamon' must be a tuple string")


@pytest.mark.parametrize("where", ["tuple", "algebra_file"])
def test_dimension_over_the_maximum_gives_json_error(capsys, tmp_path, cps_file, where):
    """A 10,000-entry tuple and a claimed dimension of 10^9 are refused before
    the n x n^2 layout is allocated; MAX_DIM itself still parses."""
    from cpslie.lie import MAX_DIM

    if where == "tuple":
        argv = ["parse", "(" + ",".join(["0"] * 10_000) + ")"]
    else:
        algebra = tmp_path / "algebra.json"
        algebra.write_text(json.dumps({"dim": 10**9, "brackets": []}))
        argv = ["check-structure", "--algebra", str(algebra), "--cps", cps_file]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert f"over the maximum of {MAX_DIM}" in _strict_json(lines[0])["error"]
    code, out = run_cli(capsys, "parse", "(" + ",".join(["0"] * MAX_DIM) + ")")
    assert code == 0 and json.loads(out)["dim"] == MAX_DIM


def test_negative_dimension_gives_json_error(capsys, tmp_path, cps_file):
    """A negative `dim`, in an --algebra file or in the --cps file's algebra,
    is refused by name, not reported as a malformed tensor layout."""
    with open(cps_file) as fh:
        data = json.load(fh)
    data["algebra"] = {"dim": -3, "brackets": []}
    bad_cps = tmp_path / "negative_cps.json"
    bad_cps.write_text(json.dumps(data))
    algebra = tmp_path / "negative_algebra.json"
    algebra.write_text(json.dumps(data["algebra"]))
    for argv in (["--cps", str(bad_cps)], ["--algebra", str(algebra), "--cps", cps_file]):
        code = main(["check-structure", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert _strict_json(lines[0])["error"] == "dimension -3 is negative", argv


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["check-structure"],
        ["parse", "--json", "(0,0,12)"],
        ["verify-catalog", "--seed", "x"],
        ["bogus"],
    ],
    ids=["no_command", "no_cps", "unknown_flag", "non_integer_seed", "unknown_command"],
)
def test_argument_errors_give_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert set(_strict_json(lines[0])) == {"error"}


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: cpslie" in capsys.readouterr().out


def test_geodesic_command_fails_closed_on_blow_up(capsys, affine_line_cps_file):
    """The geodesics of aff(R) blow up in finite time: no degree up to the cap
    passes, which is no certificate (exit 1), not a verdict of incompleteness."""
    from cpslie.connection import GEODESIC_MAX_DEGREE

    code, out = run_cli(capsys, "geodesic", "--cps", affine_line_cps_file)
    assert code == 1
    data = _strict_json(out)
    assert data["method"] == "exact-polynomial-geodesic" and data["verdict"] is False
    assert (data["details"]["degree"], data["details"]["degree_reached"]) == (None, GEODESIC_MAX_DEGREE)


def test_connection_report_on_a_flat_incomplete_connection(capsys, affine_line_cps_file):
    """The cp connection of aff(R) is flat and tr R_{e1} = 1: the trace
    criterion gives a false verdict with no details, and the command exits 1."""
    code, out = run_cli(capsys, "connection-report", "--cps", affine_line_cps_file)
    data = _strict_json(out)
    assert code == 1 and data["flat"] is True
    assert data["completeness"] == {"method": "segal-trace", "verdict": False, "details": {}}


def _direct_sum_cps_file(path, *parts):
    """The direct sum of CPSs (g, J, E), brackets shifted and J, E block diagonal, as a CPS file."""
    from cpslie.lie import LieAlgebra, algebra_to_json
    from cpslie.linalg import QMatrix

    brackets, offset = {}, 0
    for g, _, _ in parts:
        for (i, j), row in g.brackets().items():
            brackets[i + offset, j + offset] = {k + offset: c for k, c in row.items()}
        offset += g.dim
    g = LieAlgebra.from_brackets(offset, brackets)
    j, e = (QMatrix.diag_blocks(*[part[m] for part in parts]) for m in (1, 2))
    path.write_text(json.dumps({"algebra": algebra_to_json(g), "J": {"matrix": j.to_json()}, "E": {"matrix": e.to_json()}}))
    return str(path)


def _h3r3():
    """The non-flat h3r3 witness of (0,0,0,12,14,24), as (g, J, E)."""
    from cpslie.catalog import load_catalog, witness_structure

    entry = next(e for e in load_catalog() if e.salamon == "(0,0,0,12,14,24)")
    g, cps = witness_structure(next(w for w in entry.witnesses if w.name == "h3r3"))
    return g, cps.j, cps.e


@pytest.fixture
def h3r3_times_r8_file(tmp_path):
    """h3r3 times an abelian R^8 with the standard CPS: 14-dimensional,
    non-flat, with quadratic geodesics."""
    from cpslie.lie import LieAlgebra
    from cpslie.linalg import QMatrix

    j = QMatrix.diag_blocks(*[QMatrix([[0, -1], [1, 0]])] * 4)
    e = QMatrix.diag_blocks(*[QMatrix([[1, 0], [0, -1]])] * 4)
    return _direct_sum_cps_file(tmp_path / "h3r3_r8.json", _h3r3(), (LieAlgebra.from_brackets(8, {}), j, e))


@pytest.fixture
def h3r3_times_eight_dim_file(tmp_path):
    """h3r3 times the 8-dimensional example: 14-dimensional, non-flat, and
    the geodesics of the second factor are quartic."""
    from examples import eight_dim_example

    g, cps = eight_dim_example()
    return _direct_sum_cps_file(tmp_path / "h3r3_eight.json", _h3r3(), (g, cps.j, cps.e))


def _geodesic_search(capsys, monkeypatch, command, path):
    """Exit code, the geodesic payload and the orders of the grids built, for `command` on `path`."""
    from cpslie import connection

    built, grid = [], connection._grid
    monkeypatch.setattr(connection, "_grid", lambda n, order: built.append(order) or grid(n, order))
    code, out = run_cli(capsys, command, "--cps", path)
    data = _strict_json(out)
    if command == "connection-report":
        assert data["flat"] is False
        data = data["completeness"]
    assert data["method"] == "exact-polynomial-geodesic"
    return code, data, built


@pytest.mark.parametrize("command", ["connection-report", "geodesic"])
def test_geodesic_command_certifies_dimension_fourteen(capsys, monkeypatch, h3r3_times_r8_file, command):
    """The degree-2 grid has 2,380 points in dimension 14, under the budget,
    and proves the quadratic geodesics there; connection-report runs the same
    search on a non-flat connection."""
    code, data, built = _geodesic_search(capsys, monkeypatch, command, h3r3_times_r8_file)
    assert (code, built) == (0, [4])
    assert data["verdict"] is True
    assert (data["details"]["degree"], data["details"]["degree_reached"]) == (2, 2)
    assert data["details"]["grid"] == {"order": 4, "points": 2380}


@pytest.mark.parametrize("command", ["connection-report", "geodesic"])
def test_geodesic_command_stops_at_the_point_budget(capsys, monkeypatch, h3r3_times_eight_dim_file, command):
    """In dimension 14 the degree-4 grid has 27,132 points, over the budget:
    the quartic geodesics fail degrees 2 and 3, and the search stops there
    with no certificate (exit 1), never building the order-6 grid."""
    code, data, built = _geodesic_search(capsys, monkeypatch, command, h3r3_times_eight_dim_file)
    assert (code, built) == (1, [4, 5])
    assert data["verdict"] is False
    assert (data["details"]["degree"], data["details"]["degree_reached"]) == (None, 3)
    assert data["details"]["grid"] == {"order": 5, "points": 8568}


def _modules_loaded_by(*argvs):
    """Run the command lines in one fresh interpreter, each expecting exit 0; the modules it loaded."""
    import os
    import subprocess
    import sys

    import cpslie

    script = f"""
import contextlib, io, json, sys
import cpslie, cpslie.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cpslie.cli.main(argv) for argv in {list(argvs)!r}]
assert codes == [0] * len(codes), codes
print(json.dumps(sorted(sys.modules)))
"""
    src = os.path.dirname(os.path.dirname(cpslie.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _every_command_loads(cps_file, nonflat_cps_file):
    """The modules one fresh interpreter loads running every entry of COMMANDS."""
    argvs = {
        "parse": [["parse", "(0,0,0,12,14,24)"]],
        "check-structure": [["check-structure", "--cps", cps_file]],
        "connection-report": [["connection-report", "--cps", path] for path in (cps_file, nonflat_cps_file)],
        "verify-catalog": [["verify-catalog"]],
        "hypercomplex": [["hypercomplex", "--cps", cps_file]],
        "geodesic": [["geodesic", "--cps", path] for path in (cps_file, nonflat_cps_file)],
        "nonexistence": [["nonexistence", "(0,0,0,12,23,14-35)"]],
    }
    assert set(argvs) == set(COMMANDS)
    return _modules_loaded_by(*(argv for runs in argvs.values() for argv in runs))


def test_exact_commands_do_not_import_numpy(cps_file, nonflat_cps_file):
    """No command loads numpy: every entry of COMMANDS runs, `geodesic` included."""
    assert "numpy" not in _every_command_loads(cps_file, nonflat_cps_file), "numpy was imported"


def test_commands_do_not_import_dataclasses(cps_file, nonflat_cps_file):
    """The records are NamedTuples and slots classes: no command pays for
    `dataclasses`, or for the `inspect` it imports, at start-up."""
    loaded = _every_command_loads(cps_file, nonflat_cps_file)
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded & {"dataclasses", "inspect"})


def test_no_module_of_the_package_imports_numpy():
    """No `import numpy` anywhere in src/cpslie or tests/, function-local imports included.

    bench/ is left out: the benchmark's calibration slice runs on numpy.
    """
    import ast

    import cpslie

    paths = sorted(Path(cpslie.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert {path.parent.name for path in paths} == {"cpslie", "tests"}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.partition(".")[0] == "numpy" for name in names), (path.name, node.lineno)


def test_commands_without_family_proofs_do_not_import_poly(cps_file, nonflat_cps_file):
    """cpslie.poly is loaded only to prove the family identities (`verify-catalog`)."""
    loaded = _modules_loaded_by(
        ["check-structure", "--cps", nonflat_cps_file],
        ["hypercomplex", "--cps", cps_file],
        ["connection-report", "--cps", cps_file],
        ["connection-report", "--cps", nonflat_cps_file],
        ["nonexistence", "(0,0,0,12,23,14-35)"],
        ["parse", "(0,0,0,12,14,24)"],
    )
    assert "cpslie.poly" not in loaded, "cpslie.poly was imported"


def test_seed_does_not_change_commands_that_draw_nothing(capsys, cps_file, nonflat_cps_file):
    """Only verify-catalog and nonexistence read --seed; the --cps commands ignore it."""
    for command in ("check-structure", "hypercomplex", "connection-report", "geodesic"):
        for path in (cps_file, nonflat_cps_file):
            outs = {run_cli(capsys, command, "--cps", path, "--seed", seed) for seed in ("1", "2")}
            assert len(outs) == 1, (command, path)


# sha256 of the default JSON of each command on the `cps_file` fixture (and
# on a copy whose E commutes with J), pinned so that refactors of the CLI
# plumbing keep the output byte-identical.
INVALID_CPS = "0761f4fee4aa14f2a3a75bd82f9923c59280fc03d39fa7bbe524a5c2a917a7ff"
GOLDEN = {
    "parse": "728991c7482c886d8f9cd73d2d37667cd9ebf9c088638d253b6917dd8e8ca01c",
    "check-structure": "66d247a0b0e7fafa75034f513b78183e7aef6f3f4e89010e612ac355000ca27f",
    "connection-report": "5546e13c48a57ef5ce4e78d02ce9e542154bfb7b34d89c55c3d9d5a50c4964b6",
    "hypercomplex": "d90d97b82f9b36e376c88192841481afa52134d91ace79d24a1616670c928c34",
    "geodesic": "1005f7ca92b2444781970ee80f818a387de754f23b7b44235065a655eba92e9d",
    "check-structure-invalid": "3850b19bc4ae78010c05e743bae158f8d158aef9e386e5d1dc7116ee08630d83",
    "connection-report-invalid": INVALID_CPS,
    "hypercomplex-invalid": INVALID_CPS,
    "geodesic-invalid": INVALID_CPS,
}


# The same on the non-flat fixture, whose connection takes the curved
# branches of connection-report, hypercomplex and geodesic.
NONFLAT_GOLDEN = {
    "check-structure": "c0fd8b238d286a8c39fa165f77a063432aacdbd13e6052d7c27f2e584855494d",
    "connection-report": "fcf8329a6b8e56a814f49187b3f3a610d666bcf9b0c4a8bf31bbbbf583bb5cb1",
    "hypercomplex": "15e96d7f3eb12086197d97257fc7f6bec0a6fe3bef5ce5e33ee6f466f512eb56",
    "geodesic": "1005f7ca92b2444781970ee80f818a387de754f23b7b44235065a655eba92e9d",
}


@pytest.mark.parametrize("command", sorted(NONFLAT_GOLDEN))
def test_nonflat_default_json_is_pinned(capsys, nonflat_cps_file, command):
    code, out = run_cli(capsys, command, "--cps", nonflat_cps_file)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NONFLAT_GOLDEN[command], out


@pytest.fixture
def dense_cps_file(tmp_path):
    """The split-nonflat witness conjugated by a seeded dense P: J, E and every
    off-diagonal bracket column dense, so the products take their packed rows."""
    import random

    from cpslie.catalog import load_catalog, witness_structure
    from cpslie.lie import change_basis
    from cpslie.structures import assemble_cps
    from examples import dense_conjugator

    witness = next(w for e in load_catalog() for w in e.witnesses if w.name == "split-nonflat")
    g, cps = witness_structure(witness)
    p = dense_conjugator(random.Random(0), g.dim)
    pinv = p.inverse()
    moved = assemble_cps(change_basis(g, p), pinv @ cps.j @ p, pinv @ cps.e @ p)
    return _cps_json(tmp_path / "dense.json", moved.algebra, moved)


# The same on the dense fixture; connection-report prints every nonzero
# curvature entry and hypercomplex the Obata verdicts, which it reads off
# the cp curvature.
DENSE_GOLDEN = {
    "connection-report": "5dfdff1d41fae02b4b28eece8d4db6776a560146bd281d732681539f76c14fd8",
    "hypercomplex": "1fe526a4eed62dfca8bf7a583ab5b9fa3bf609529f1f9d4089b81b06e6257549",
}


@pytest.mark.parametrize("command", sorted(DENSE_GOLDEN))
def test_dense_default_json_is_pinned(capsys, dense_cps_file, command):
    code, out = run_cli(capsys, command, "--cps", dense_cps_file)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DENSE_GOLDEN[command], out


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_default_json_is_pinned(capsys, tmp_path, cps_file, case):
    command = case.removesuffix("-invalid")
    invalid = command != case
    path = cps_file
    if invalid:
        with open(cps_file) as fh:
            data = json.load(fh)
        signs = [1, 1, 1, -1, -1, -1]
        data["E"]["matrix"] = [[str(signs[i]) if i == j else "0" for j in range(6)] for i in range(6)]
        path = tmp_path / "commuting.json"
        path.write_text(json.dumps(data))
    argv = [command, "(0,0,0,12,13,14)"] if command == "parse" else [command, "--cps", str(path)]
    code, out = run_cli(capsys, *argv)
    assert code == int(invalid)
    target = tmp_path / "out.json"
    assert run_cli(capsys, *argv, "--out", str(target)) == (code, "")
    assert target.read_text() == out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case], out


@pytest.mark.parametrize("seed", [0, 7])
def test_catalog_json_matches_the_benchmark_digests(capsys, workloads, seed):
    """verify-catalog and the three nonexistence reports print the bytes the benchmark pins."""
    pinned = [(("verify-catalog",), workloads.CATALOG_DIGEST)]
    pinned += [(("nonexistence", salamon), workloads.NONEXISTENCE_DIGESTS[salamon]) for salamon, _ in workloads.EXCLUDED]
    for argv, digest in pinned:
        code, out = run_cli(capsys, *argv, "--seed", str(seed))
        assert code == 0
        assert workloads.normalized_digest(out, seed) == digest, argv


def _printed(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("seed", [0, 7])
def test_catalog_reports_are_the_printed_json(capsys, seed):
    """verify_table and nonexistence_report return the payload their commands print, byte for byte."""
    from cpslie.catalog import excluded_entries, nonexistence_report, verify_table

    cases = [(("verify-catalog",), verify_table(seed))]
    cases += [(("nonexistence", e.salamon), nonexistence_report(e.salamon, seed=seed)) for e in excluded_entries()]
    for argv, report in cases:
        code, out = run_cli(capsys, *argv, "--seed", str(seed))
        assert (code, out) == (0, _printed(report)), argv


def test_completeness_certificates_are_the_printed_json(capsys, cps_file, nonflat_cps_file):
    """The geodesic certificate is the `geodesic` output, and the completeness certificate
    is what `connection-report` prints under "completeness", on the flat and non-flat fixtures."""
    from cpslie.cli import _load_cps
    from cpslie.connection import connection_is_complete_certificate, curvature, exact_polynomial_geodesic_certificate

    methods = []
    for path in (cps_file, nonflat_cps_file):
        cps = _load_cps(build_parser("geodesic").parse_args(["geodesic", "--cps", path]))
        code, out = run_cli(capsys, "geodesic", "--cps", path)
        assert (code, out) == (0, _printed(exact_polynomial_geodesic_certificate(cps.connection)))
        cert = connection_is_complete_certificate(cps, curvature(cps.connection).is_flat)
        code, out = run_cli(capsys, "connection-report", "--cps", path)
        assert code == 0 and _printed(json.loads(out)["completeness"]) == _printed(cert)
        methods.append(cert["method"])
    assert methods == ["segal-trace", "exact-polynomial-geodesic"]


@pytest.mark.parametrize(
    "command, target, stub",
    [("connection-report", "cpslie.structures.torsion_defect", lambda conn: [(0, 1, (0,) * 6)])],
    ids=["cp_connection"],
)
def test_failed_construction_check_gives_json_error(capsys, cps_file, monkeypatch, command, target, stub):
    monkeypatch.setattr(target, stub)
    code, out = run_cli(capsys, command, "--cps", cps_file)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert set(_strict_json(lines[0])) == {"error"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_command_parser_reads_as_the_full_parser(capsys, command):
    """`main` builds only the subparser of a known command; its help, its
    usage errors and what it parses are those of the full parser."""

    def outcome(parser, argv):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, capsys.readouterr().out
        except ValueError as exc:
            return str(exc)

    assert "{%s}" % command in build_parser(command).format_usage()
    for argv in ([command, "-h"], [command, "--bogus"], [command], [command, "--seed", "x"]):
        assert outcome(build_parser(command), argv) == outcome(build_parser(), argv)


SIGN_BUG = """
import sys
import cpslie.cli, cpslie.connection, {module}
from cpslie.linalg import SparseTensor
real = cpslie.connection.Connection
{module}.Connection = lambda g, t: real(g, SparseTensor(t.side.scale(-1)))
sys.exit(cpslie.cli.main({argv!r}))
"""


@pytest.mark.parametrize("command, module", [("check-structure", "cpslie.structures")])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_connection_contradicting_the_defects_gives_json_error(cps_file, command, module, flags):
    """A sign bug planted in the cp connection builder: the connection fails
    its torsion check while J and E are integrable.  The command prints one
    line of JSON and exits 1, also under python -O."""
    import os
    import subprocess
    import sys

    import cpslie

    script = SIGN_BUG.format(module=module, argv=[command, "--cps", cps_file])
    src = os.path.dirname(os.path.dirname(cpslie.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert "integrable" in _strict_json(lines[0])["error"]


@pytest.mark.parametrize("command", ["connection-report", "hypercomplex", "geodesic", "verify-catalog"])
def test_valid_input_runs_no_integrability_defect(capsys, monkeypatch, nonflat_cps_file, command):
    """The cp and Obata connections certify integrability, so no defect runs."""
    import cpslie.structures as structures

    calls = []
    real = structures._integrability_defect
    monkeypatch.setattr(structures, "_integrability_defect", lambda g, a, sign: calls.append(g.dim) or real(g, a, sign))
    argv = [command] if command == "verify-catalog" else [command, "--cps", nonflat_cps_file]
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == []


@pytest.fixture
def nonflat_cps_file(tmp_path):
    """The stored non-flat (0,0,0,12,14,24) witness as a CPS file."""
    from cpslie.catalog import load_catalog, witness_structure

    entry = next(e for e in load_catalog() if e.salamon == "(0,0,0,12,14,24)")
    g, cps = witness_structure(next(w for w in entry.witnesses if w.name == "h3r3"))
    return _cps_json(tmp_path / "nonflat.json", g, cps)


# Work per command: (squarings, curvature, torsion_defect) calls.  A
# squaring is a product of J, E or a lifted J1, J2, J3 with itself:
# `assemble_cps` squares J and E once.  Torsion is checked once, on the
# cp connection, which `assemble_cps` builds parallel: that certifies
# integrability, so no integrability defect runs on valid input.
# `lift_cps` is a construction that checks nothing: the CPS certificate
# proves the lift (see its docstring), so `hypercomplex` squares no Jk and
# checks no torsion of the Obata connection.  Nor does it build that
# connection: the Obata curvature is the cp curvature doubled, so its one
# curvature is the cp connection's.  connection-report's completeness
# certificate takes the certified connection as it is.
WORK = {
    "check-structure": (2, 0, 1),
    "connection-report": (2, 1, 1),
    "hypercomplex": (2, 1, 1),
    "geodesic": (2, 0, 1),
}


@pytest.mark.parametrize("command", sorted(WORK))
@pytest.mark.parametrize("flat", [True, False], ids=["flat", "nonflat"])
def test_each_identity_is_checked_once(capsys, monkeypatch, request, command, flat):
    import sys

    import cpslie.connection as connection
    from cpslie.cli import _algebra_from_data
    from cpslie.hypercomplex import lift_cps
    from cpslie.linalg import QMatrix
    from cpslie.structures import assemble_cps

    path = request.getfixturevalue("cps_file" if flat else "nonflat_cps_file")
    with open(path) as fh:
        data = json.load(fh)
    j, e = (QMatrix.from_json(data[k]["matrix"], k) for k in "JE")
    h = lift_cps(assemble_cps(_algebra_from_data(data["algebra"]), j, e))
    squared = {j, e, h.j1, h.j2, h.j3}

    counts = dict.fromkeys(("squarings", "curvature", "torsion_defect"), 0)
    matmul = QMatrix.__matmul__

    def counted_matmul(a, b):
        if a == b and a in squared:
            counts["squarings"] += 1
        return matmul(a, b)

    monkeypatch.setattr(QMatrix, "__matmul__", counted_matmul)
    for name in ("curvature", "torsion_defect"):
        real = getattr(connection, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "cpslie" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)

    code, _ = run_cli(capsys, command, "--cps", path)
    assert code == 0
    squarings, curvatures, torsions = WORK[command]
    assert counts == {"squarings": squarings, "curvature": curvatures, "torsion_defect": torsions}


@pytest.fixture
def overflow_cps_file(tmp_path):
    """The non-flat h3r3 witness conjugated by P = diag(10^400, 1, ..., 1).

    A valid CPS whose connection coefficients lie beyond the float range.
    """
    from cpslie.catalog import load_catalog, witness_structure
    from cpslie.lie import algebra_to_json, change_basis
    from cpslie.linalg import QMatrix

    entry = next(e for e in load_catalog() if e.salamon == "(0,0,0,12,14,24)")
    g, cps = witness_structure(next(w for w in entry.witnesses if w.name == "h3r3"))
    p = QMatrix.diag_blocks(QMatrix([[10**400]]), QMatrix.identity(5))
    p_inv = p.inverse()
    path = tmp_path / "overflow.json"
    path.write_text(
        json.dumps(
            {
                "algebra": algebra_to_json(change_basis(g, p)),
                "J": {"matrix": (p_inv @ cps.j @ p).to_json()},
                "E": {"matrix": (p_inv @ cps.e @ p).to_json()},
            }
        )
    )
    return str(path)


@pytest.mark.parametrize("command", ["connection-report", "geodesic"])
def test_float_overflow_fails_closed(capsys, overflow_cps_file, command):
    code = main([command, "--cps", overflow_cps_file])
    captured = capsys.readouterr()
    assert captured.err == ""
    data = _strict_json(captured.out)
    # the exact certificates read the integer tensor, so no coefficient is out of range
    assert code == 0
    if command == "connection-report":
        data = data["completeness"]
    assert data["method"] == "exact-polynomial-geodesic"
    assert data["verdict"] is True and data["details"]["degree"] == 2


def _with_entry(tmp_path, cps_file, where, text):
    """A copy of the CPS file with `text` as one entry of J or E, or as a bracket coefficient."""
    with open(cps_file) as fh:
        data = json.load(fh)
    if where == "bracket":
        data["algebra"] = {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"4": text}}]}
    else:
        data[where]["matrix"][0][1] = text
    path = tmp_path / f"{where}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("where", ["J", "E", "bracket"])
def test_exponent_literal_gives_json_error_at_once(capsys, tmp_path, cps_file, where):
    import time

    path = _with_entry(tmp_path, cps_file, where, "1e999999")
    start = time.perf_counter()
    code = main(["check-structure", "--cps", path])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert "not a rational literal" in _strict_json(lines[0])["error"]
    assert elapsed < 1.0


@pytest.fixture
def affine_line_cps_file(tmp_path):
    """aff(R), [e1, e2] = e2, with J = [[0, -1], [1, 0]] and E = diag(1, -1): a
    valid CPS whose geodesics blow up in finite time."""
    path = tmp_path / "aff.json"
    path.write_text(
        json.dumps(
            {
                "algebra": {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}]},
                "J": {"matrix": [["0", "-1"], ["1", "0"]]},
                "E": {"matrix": [["1", "0"], ["0", "-1"]]},
            }
        )
    )
    return str(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bad_input_never_gives_a_traceback(
    capsys, tmp_path, cps_file, overflow_cps_file, affine_line_cps_file, command
):
    """Every command, on inputs that once raised or hung: one JSON document, nothing on stderr."""
    subject = COMMANDS[command].subject
    if subject == "cps":
        runs = [
            ["--cps", _with_entry(tmp_path, cps_file, "J", "1e999999")],
            ["--cps", _with_entry(tmp_path, cps_file, "J", "nan")],
            ["--cps", _with_entry(tmp_path, cps_file, "E", "1/0")],
            ["--cps", overflow_cps_file],
            ["--cps", affine_line_cps_file],
        ]
    elif subject == "salamon":
        runs = [["(0,0,12"], ["(0,0,1e3)"]]
    else:
        runs = [["--seed", "1e3"]]
    for argv in runs:
        code = main([command, *argv])
        captured = capsys.readouterr()
        assert code in (0, 1), argv
        assert captured.err == "", argv
        _strict_json(captured.out)  # exactly one JSON document
        if subject == "salamon":
            # every input here is malformed, and an error is one line
            assert code == 1 and len(captured.out.splitlines()) == 1, argv
