"""Command-line interface: schemas, exit codes, determinism."""

import hashlib
import json

import pytest

from cpslie.cli import COMMANDS, main


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
    assert data["method"] == "quadratic-geodesic" and data["verdict"]
    assert data["details"]["seed"] == 3
    assert data["details"]["step"] == 0.001


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


def test_algebra_flag_overrides_file(capsys, tmp_path, cps_file):
    with open(cps_file) as fh:
        data = json.load(fh)
    del data["algebra"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "check-structure", "--algebra", "(0,0,0,12,13,14)", "--cps", str(path))
    assert code == 0
    assert json.loads(out)["valid"]


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
    ["float_entry", "no_J", "no_E", "bool_entry", "string_row"],
)
def test_malformed_cps_file_gives_json_error(capsys, tmp_path, cps_file, defect):
    with open(cps_file) as fh:
        data = json.load(fh)
    if defect == "float_entry":
        data["J"]["matrix"][0][1] = 1.0
    elif defect == "bool_entry":
        data["E"]["matrix"] = [[True if x == "1" else x for x in row] for row in data["E"]["matrix"]]
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_geodesic_command_fails_closed_on_blow_up(capsys, cps_file, monkeypatch):
    import cpslie.connection as connection

    real = connection.integrate_geodesics

    def blow_up(conn, initial, **kwargs):
        times, values = real(conn, initial, **kwargs)
        values[len(times) // 2 :, 0, :] = float("inf")
        return times, values

    monkeypatch.setattr(connection, "integrate_geodesics", blow_up)
    code, out = run_cli(capsys, "geodesic", "--cps", cps_file)
    assert code == 1
    data = _strict_json(out)
    assert data["verdict"] is False
    assert data["details"]["max_relative_residual"] is None


def test_exact_commands_do_not_import_numpy(cps_file, nonflat_cps_file):
    """numpy is loaded only by the `geodesic` command, which integrates geodesics."""
    import os
    import subprocess
    import sys

    import cpslie

    script = f"""
import contextlib, io, sys
import cpslie, cpslie.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cpslie.cli.main(["check-structure", "--cps", {cps_file!r}]),
        cpslie.cli.main(["hypercomplex", "--cps", {cps_file!r}]),
        cpslie.cli.main(["connection-report", "--cps", {cps_file!r}]),
        cpslie.cli.main(["connection-report", "--cps", {nonflat_cps_file!r}]),
        cpslie.cli.main(["nonexistence", "(0,0,0,12,23,14-35)"]),
        cpslie.cli.main(["verify-catalog"]),
    ]
assert codes == [0, 0, 0, 0, 0, 0], codes
assert "numpy" not in sys.modules, "numpy was imported"
"""
    src = os.path.dirname(os.path.dirname(cpslie.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# sha256 of the default JSON of each command on the `cps_file` fixture (and
# on a copy whose E commutes with J), pinned so that refactors of the CLI
# plumbing keep the output byte-identical.  The geodesic residual depends on
# the LAPACK build, so it is dropped before hashing.
INVALID_CPS = "0761f4fee4aa14f2a3a75bd82f9923c59280fc03d39fa7bbe524a5c2a917a7ff"
GOLDEN = {
    "parse": "728991c7482c886d8f9cd73d2d37667cd9ebf9c088638d253b6917dd8e8ca01c",
    "check-structure": "66d247a0b0e7fafa75034f513b78183e7aef6f3f4e89010e612ac355000ca27f",
    "connection-report": "5546e13c48a57ef5ce4e78d02ce9e542154bfb7b34d89c55c3d9d5a50c4964b6",
    "hypercomplex": "d90d97b82f9b36e376c88192841481afa52134d91ace79d24a1616670c928c34",
    "geodesic": "1b7dc9547d45771fa53bcf6987107e4c37294e8e25a2d853dea82328fdd9aa7e",
    "check-structure-invalid": "3850b19bc4ae78010c05e743bae158f8d158aef9e386e5d1dc7116ee08630d83",
    "connection-report-invalid": INVALID_CPS,
    "hypercomplex-invalid": INVALID_CPS,
    "geodesic-invalid": INVALID_CPS,
}


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
    if command == "geodesic" and not invalid:
        data = json.loads(out)
        del data["details"]["max_relative_residual"]
        out = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case], out


@pytest.mark.parametrize(
    "command, target, stub",
    [
        ("connection-report", "cpslie.connection.torsion_defect", lambda conn: [(0, 1, (0,) * 6)]),
        ("hypercomplex", "cpslie.hypercomplex.torsion_defect", lambda conn: [(0, 1, (0,) * 12)]),
        ("hypercomplex", "cpslie.hypercomplex.validate_hypercomplex", lambda g, *js: ["J1_square"]),
        # the flat fixture's right multiplications have zero trace, so the
        # completeness certificates of lsa_is_complete disagree
        ("connection-report", "cpslie.connection.is_nilpotent_matrix", lambda m: False),
    ],
    ids=["cp_connection", "obata_connection", "lift_cps", "lsa_is_complete"],
)
def test_failed_construction_check_gives_json_error(capsys, cps_file, monkeypatch, command, target, stub):
    monkeypatch.setattr(target, stub)
    code, out = run_cli(capsys, command, "--cps", cps_file)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert set(_strict_json(lines[0])) == {"error"}


@pytest.fixture
def nonflat_cps_file(tmp_path):
    """The stored non-flat (0,0,0,12,14,24) witness as a CPS file."""
    from cpslie.catalog import load_catalog, witness_structure
    from cpslie.lie import algebra_to_json

    entry = next(e for e in load_catalog() if e.salamon == "(0,0,0,12,14,24)")
    g, cps = witness_structure(next(w for w in entry.witnesses if w.name == "h3r3"))
    path = tmp_path / "nonflat.json"
    path.write_text(
        json.dumps(
            {"algebra": algebra_to_json(g), "J": {"matrix": cps.j.to_json()}, "E": {"matrix": cps.e.to_json()}}
        )
    )
    return str(path)


# Work per command: (squarings, curvature, torsion_defect, parallel_defect)
# calls.  A squaring is a product of J, E or a lifted J1, J2, J3 with itself:
# `validate_cps` squares J and E once and `validate_hypercomplex` each Jk
# once.  Torsion and parallelism are checked only when `cp_connection` and
# `obata_connection` build a connection; the one extra torsion check of
# connection-report guards the exact completeness certificate and runs only
# on a flat connection.
WORK = {
    "check-structure": (2, 0, 0, 0),
    "connection-report": (2, 1, 1, 2),
    "hypercomplex": (5, 2, 2, 5),
    "geodesic": (2, 0, 1, 2),
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
    j, e = (QMatrix.from_json(data[k]["matrix"]) for k in "JE")
    _, h = lift_cps(assemble_cps(_algebra_from_data(data["algebra"]), j, e))
    squared = {j, e, h.j1, h.j2, h.j3}

    counts = dict.fromkeys(("squarings", "curvature", "torsion_defect", "parallel_defect"), 0)
    matmul = QMatrix.__matmul__

    def counted_matmul(a, b):
        if a == b and a in squared:
            counts["squarings"] += 1
        return matmul(a, b)

    monkeypatch.setattr(QMatrix, "__matmul__", counted_matmul)
    # a short RK4 horizon keeps the test fast; the integration does none of the counted work
    integrate = connection.integrate_geodesics
    monkeypatch.setattr(connection, "integrate_geodesics", lambda conn, initial: integrate(conn, initial, t_max=0.1))
    for name in ("curvature", "torsion_defect", "parallel_defect"):
        real = getattr(connection, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "cpslie" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)

    code, _ = run_cli(capsys, command, "--cps", path)
    assert code == 0
    squarings, curvatures, torsions, parallels = WORK[command]
    if command == "connection-report" and flat:
        torsions += 1
    assert counts == {
        "squarings": squarings,
        "curvature": curvatures,
        "torsion_defect": torsions,
        "parallel_defect": parallels,
    }


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
    if command == "connection-report":
        # the exact certificate reads the integer tensor, so no coefficient is out of range
        assert code == 0
        assert data["completeness"]["method"] == "exact-quadratic-geodesic"
        assert data["completeness"]["verdict"] is True
        return
    assert code == 1
    assert data["method"] == "quadratic-geodesic"
    assert data["verdict"] is False
    assert data["details"]["max_relative_residual"] is None


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
    valid CPS whose geodesics leave the float range within the integration."""
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
