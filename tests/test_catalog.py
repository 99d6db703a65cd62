"""Catalog rows, witnesses, families, and the encoded nonexistence proofs."""

import json
import os
import random
from fractions import Fraction as Q

import pytest

from cpslie.catalog import (
    COLUMN_LABELS,
    CatalogEntry,
    FAMILY_PARAMS,
    FRIED_NABLA,
    FamilyError,
    Witness,
    _encoded_proof_report,
    _family_variables,
    build_family,
    eight_dim_example,
    excluded_entries,
    family_data,
    flatness_closed_form,
    fried_example,
    nonexistence_report,
    prove_family_flatness,
    table_rows,
    verify_row,
    verify_table,
    verify_witness,
    witness_structure,
)
from cpslie.connection import (
    GEODESIC_MAX_DEGREE,
    Connection,
    cp_connection,
    curvature,
    exact_polynomial_geodesic_certificate,
    lsa_is_complete,
    restrict_to_lsa,
)
from cpslie.lie import LieAlgebra, ThreeDimType, center, change_basis, iso_type_3d
from cpslie.hypercomplex import lift_cps
from cpslie.linalg import QMatrix, SparseTensor, Subspace, _matrix, basis_vec, kernel, vec
from cpslie.poly import Poly
from cpslie.salamon import parse_salamon
from cpslie.structures import (
    ascending_series,
    assemble_cps,
    double_type,
    find_central_invariant_ideal,
    rotate_product,
)
from examples import (
    SPLIT_E,
    SPLIT_J,
    SPLIT_ROW,
    NotLie,
    family_flatness_value,
    h3x2_constant,
    heisenberg_complex_examples,
    image,
)

EXCLUDED = tuple(entry.salamon for entry in excluded_entries())

TABLE = {
    "(0,0,0,0,0,0)": (True, False, False),
    "(0,0,0,0,0,12)": (True, False, False),
    "(0,0,0,0,0,12+34)": (True, False, False),
    "(0,0,0,0,12,14+25)": (True, False, False),
    "(0,0,0,0,12,13)": (False, True, True),
    "(0,0,0,0,13+42,14+23)": (True, True, True),
    "(0,0,0,0,12,14+23)": (True, True, True),
    "(0,0,0,0,12,34)": (True, True, True),
    "(0,0,0,12,13,14)": (False, True, True),
    "(0,0,0,12,13,23)": (False, True, True),
    "(0,0,0,12,14,24)": (False, True, True),
    "(0,0,0,12,13,24)": (False, True, True),
    "(0,0,0,12,13+14,24)": (False, True, True),
    "(0,0,0,12,13,14+23)": (False, True, True),
    "(0,0,0,12,14,13+42)": (False, True, True),
}

FLAT_CLASS = {
    "(0,0,0,0,0,0)": "FlatOnly",
    "(0,0,0,0,0,12)": "FlatOnly",
    "(0,0,0,0,0,12+34)": "FlatOnly",
    "(0,0,0,0,12,13)": "FlatOnly",
    "(0,0,0,0,13+42,14+23)": "FlatOnly",
    "(0,0,0,0,12,14+23)": "FlatOnly",
    "(0,0,0,0,12,34)": "FlatOnly",
    "(0,0,0,12,13,23)": "FlatOnly",
    "(0,0,0,12,13,14+23)": "FlatOnly",
    "(0,0,0,12,14,24)": "NonFlatOnly",
    "(0,0,0,12,13,24)": "NonFlatOnly",
    "(0,0,0,0,12,14+25)": "Both",
    "(0,0,0,12,13,14)": "Both",
    "(0,0,0,12,13+14,24)": "Both",
    "(0,0,0,12,14,13+42)": "Both",
}


def test_catalog_rows_match_classification_table():
    rows = {e.salamon: e for e in table_rows()}
    assert set(rows) == set(TABLE)
    for salamon, admits in TABLE.items():
        assert rows[salamon].admits == admits, salamon
        assert rows[salamon].flat_class == FLAT_CLASS[salamon], salamon


def test_build_family_reductions_to_named_algebras():
    # E=F=0 with A=1: the product of the Heisenberg algebra with R^3
    g, _, _ = family_data("H3R_00", {"A": 1})
    e = [basis_vec(6, i) for i in range(6)]
    p = QMatrix.from_cols([e[0], e[3], e[2], e[4], e[5], tuple(-x for x in e[1])])
    assert change_basis(g, p) == parse_salamon("(0,0,0,0,0,12)")

    # (110) with C=1 and everything else zero
    g, _, _ = family_data("H3R_10", {"C": 1})
    p = QMatrix.from_cols([tuple(-x for x in e[0]), e[3], e[1], e[4], e[2], e[5]])
    assert change_basis(g, p) == parse_salamon("(0,0,0,12,13,14)")

    # (110) with E=0, F=-1, A=0
    g, _, _ = family_data("H3R_10", {"C": 1, "F": -1})
    p = QMatrix.from_cols(
        [e[0], e[1], e[3], tuple(-x for x in e[2]), tuple(-x for x in e[4]), e[5]]
    )
    assert change_basis(g, p) == parse_salamon("(0,0,0,12,13,23)")


def test_build_family_side_condition():
    with pytest.raises(FamilyError):
        build_family("H3R_00", {"E": 1, "F": 1})
    with pytest.raises(FamilyError):
        family_flatness_value("NoSuchFamily", {})


@pytest.mark.parametrize(
    "call",
    [
        lambda: family_flatness_value("H3R_10", {"A": 1, "f": 3}),
        lambda: family_data("H3R_00", {"A": 1, "Z": 7}),
        lambda: build_family("R4_00", {"A1": 1, "C1": 2}),
    ],
    ids=["family_flatness_value", "family_data", "build_family"],
)
def test_unknown_family_parameter_is_rejected(call):
    # a misspelt or foreign parameter used to be read as 0
    with pytest.raises(FamilyError, match="has no parameter '(f|Z|C1)'"):
        call()


def test_build_family_verifies_cps():
    g, cps = build_family("H3R_10", {"A": 1, "C": 2, "E": Q(1, 3)})
    assert cps.plus == Subspace.from_spanning([basis_vec(6, i) for i in range(3)], 6)
    assert iso_type_3d(g, cps.plus) is ThreeDimType.HEISENBERG3
    assert iso_type_3d(g, cps.minus) is ThreeDimType.ABELIAN3


def test_family_constraint_identity():
    # [e1, f2] - [e2, f1] = beta e3 + alpha f3 on all instances
    for family, alpha in (("H3R_00", 0), ("H3R_10", 1), ("R4_00", 0), ("R4_10", 1)):
        params = (
            {"A": 2, "B": 1, "C": 3, "D": 1, "E": 2, "F": 5}
            if family.startswith("H3R")
            else {"A1": 2, "A2": 1, "B1": 3, "B2": 1, "C1": 3, "C2": 1, "D1": 2, "D2": 5}
        )
        params = {k: v for k, v in params.items() if k in FAMILY_PARAMS[family]}
        g, _, _ = family_data(family, params)
        e1, e2 = basis_vec(6, 0), basis_vec(6, 1)
        f1, f2 = basis_vec(6, 3), basis_vec(6, 4)
        diff = tuple(
            a - b for a, b in zip(g.bracket(e1, f2), g.bracket(e2, f1))
        )
        expected = tuple(
            Q(alpha) if k == 5 else Q(0) for k in range(6)
        )
        assert diff == expected, family


def test_verify_witness_row4_pair():
    row = next(e for e in table_rows() if e.salamon == "(0,0,0,0,12,14+25)")
    names = {w.name: w for w in row.witnesses}
    nonflat = names["r3r3-nonflat"]
    flat = names["r3r3-flat"]
    assert nonflat.params == {"A": Q(1), "F": Q(1)}
    assert flat.params == {"A": Q(1), "E": Q(1)}
    assert family_flatness_value("H3R_00", nonflat.params) != 0
    assert family_flatness_value("H3R_00", flat.params) == 0
    for w in (nonflat, flat):
        report = verify_witness(row, w, parse_salamon, {})
        assert report["passed"], report


def test_verify_row_parses_its_tuple_once(monkeypatch):
    import cpslie.catalog as catalog

    calls = []
    parse = catalog.parse_salamon
    monkeypatch.setattr(catalog, "parse_salamon", lambda text: calls.append(text) or parse(text))
    rows = table_rows()
    assert all(verify_row(entry, {})["passed"] for entry in rows)
    assert sorted(calls) == sorted(entry.salamon for entry in rows)

    # a row tuple that does not parse fails each witness's basis change, and raises nothing
    entry = _row("(0,0,0,0,12,14+25)")
    bad = entry._replace(salamon="(0,0,1x)")
    for report in verify_row(bad, {})["witnesses"]:
        stages = {s["stage"]: (s["ok"], s["detail"]) for s in report["stages"]}
        assert not stages["basis_change"][0] and stages["basis_change"][1], report


def test_verify_witness_rejects_singular_basis_change():
    row = next(e for e in table_rows() if e.salamon == "(0,0,0,0,0,12)")
    w = row.witnesses[0]
    broken = w._replace(basis_change=QMatrix.zeros(6, 6))
    report = verify_witness(row, broken, parse_salamon, {})
    stages = {s["stage"]: s["ok"] for s in report["stages"]}
    assert not stages["basis_change"]
    assert not report["passed"]


def test_witness_build_failures_name_their_stage(monkeypatch):
    import cpslie.catalog as catalog

    row = next(e for e in table_rows() if e.salamon == "(0,0,0,0,12,13)")
    w = next(w for w in row.witnesses if w.rotation is not None)

    broken = w._replace(family="Nope")
    report = verify_witness(row, broken, parse_salamon, {})
    assert [(s["stage"], s["ok"]) for s in report["stages"]] == [("build", False)]
    with pytest.raises(ValueError, match="fails build"):
        witness_structure(broken)

    def no_product(j, e, c):
        return e.scale(2)

    monkeypatch.setattr(catalog, "rotate_product", no_product)
    stages = {s["stage"]: (s["ok"], s["detail"]) for s in verify_witness(row, w, parse_salamon, {})["stages"]}
    assert stages["build"] == (True, "")
    assert stages["cps_valid"] == (False, "E_square")
    assert stages["flatness"] == (False, "no CPS to inspect")
    with pytest.raises(ValueError, match="fails cps_valid: E_square"):
        witness_structure(w)


def test_verify_table_assembles_each_family_pair_once(monkeypatch):
    import cpslie.catalog as catalog

    # one assemble_cps per (family, rotation) the witnesses use and one
    # curvature per family, all over the family's variables; a second pass
    # repeats every count, so nothing is kept from one pass to the next
    calls = {"assemble_cps": [], "curvature": []}
    for name, log in calls.items():
        real = getattr(catalog, name)
        monkeypatch.setattr(catalog, name, lambda *args, log=log, real=real: log.append(args) or real(*args))
    pairs = {(w.family, w.rotation) for entry in table_rows() for w in entry.witnesses}
    assert len(pairs) == 6 and sum(len(entry.witnesses) for entry in table_rows()) == 35
    for passes in (1, 2):
        assert verify_table()["passed"]
        assert (len(calls["assemble_cps"]), len(calls["curvature"])) == (6 * passes, 4 * passes)
    for g, *_ in calls["assemble_cps"]:
        assert any(isinstance(x, Poly) for r in g.structure.side.num for x in r), "a rational instance was assembled"


def _stages(report):
    return {s["stage"]: (s["ok"], s["detail"]) for s in report["stages"]}


# F on the flatness locus of each H3R family (A != 0): A F = C E and A (2F + 1) = 2 C E
FLAT_F = {"H3R_00": lambda p: p["C"] * p["E"] / p["A"], "H3R_10": lambda p: (2 * p["C"] * p["E"] / p["A"] - 1) / 2}


def _family_points(rng, family, rotation):
    """Seeded rational points of one (family, rotation) pair as witnesses: two off and two on the flat locus."""
    names = FAMILY_PARAMS[family]
    for k in range(4):
        params = {name: Q(rng.randint(-3, 3), rng.randint(1, 3)) for name in names}
        if family.startswith("H3R"):
            params["A"] = Q(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
            if k % 2:
                params["F"] = FLAT_F[family](params)
        yield Witness(f"{family}-{rotation}-{k}", family, params, QMatrix.identity(6), None, None, rotation)


def test_family_verdicts_match_the_direct_computation():
    """cps_valid, double_type and flatness, specialized from the family
    certificates of one pass, equal `assemble_cps`, the double type and
    `curvature` computed at the point: on every witness and on seeded
    points of every (family, rotation) pair, flat and non-flat."""
    rng = random.Random(32)
    witnesses = [(entry, w) for entry in table_rows() for w in entry.witnesses]
    pairs = sorted({(w.family, w.rotation) for _, w in witnesses}, key=str)
    assert len(pairs) == 6
    entry = table_rows()[0]
    points = [(entry, w) for family, c in pairs for w in _family_points(rng, family, c)]
    proofs, flats = {}, {pair: set() for pair in pairs}
    for entry, w in witnesses + points:
        g, cps = witness_structure(w)
        types, flat = double_type(cps), curvature(cps.connection).is_flat
        stages = _stages(verify_witness(entry, w._replace(double_type=types, flat=flat), parse_salamon, proofs))
        assert stages["cps_valid"] == (True, ""), w
        assert stages["double_type"] == (True, f"found ({types[0].value},{types[1].value})"), w
        assert stages["flatness"] == (True, f"curvature {'vanishes' if flat else 'does not vanish'}"), w
        assert (types, flat) == (w.double_type, w.flat) or w.flat is None, w.name
        flats[w.family, w.rotation].add(flat)
    assert flats == {pair: {True, False} if pair[0].startswith("H3R") else {True} for pair in pairs}


def test_a_flipped_flat_flag_fails_its_witness():
    proofs = {}
    for entry in table_rows():
        for w in entry.witnesses:
            report = verify_witness(entry, w._replace(flat=not w.flat), parse_salamon, proofs)
            assert not report["passed"], w.name
            assert [s for s, (ok, _) in _stages(report).items() if not ok] == ["flatness"], w.name


def test_a_point_off_the_side_condition_fails_build():
    for entry in table_rows():
        for w in entry.witnesses:
            if w.family.startswith("H3R"):
                broken = w._replace(params={**w.params, "A": Q(0), "C": Q(0)})
                report = verify_witness(entry, broken, parse_salamon, {})
                assert report["stages"] == [
                    {"stage": "build", "ok": False, "detail": "side condition A^2 + C^2 != 0 violated"}
                ], w.name


@pytest.mark.parametrize("family", ["R4_00", "R4_10", "H3R_00", "H3R_10"])
def test_a_non_integrable_term_fails_every_witness_of_its_family(monkeypatch, family):
    import cpslie.catalog as catalog

    # [e1, e2] += f3: f3 is central, so Jacobi holds, but neither J nor E
    # is integrable, so no torsion-free connection has them parallel
    true_brackets = catalog._family_brackets

    def broken(f, p):
        br = true_brackets(f, p)
        if f == family:
            br[(0, 1)] = {**br.get((0, 1), {}), 5: 1}
        return br

    monkeypatch.setattr(catalog, "_family_brackets", broken)
    report = verify_table()
    assert not report["passed"]
    seen = 0
    for entry, row in zip(table_rows(), report["rows"]):
        for w, r in zip(entry.witnesses, row["witnesses"]):
            ok, detail = _stages(r)["cps_valid"]
            assert ok == (w.family != family), w.name
            assert ok or detail == "J_integrability,E_integrability", detail
            seen += w.family == family
    assert seen


def test_a_rotation_that_moves_the_connection_fails_closed(monkeypatch):
    import cpslie.catalog as catalog

    # E' = P E P^-1 with P complex linear (PJ = JP) and not an automorphism:
    # on H3R_10 a valid CPS whose connection is not the family's, on R4_10
    # no CPS at all; either way no rotated witness passes
    p = QMatrix([[1, 0, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0], [0, 0, 1, 0, 0, 0],
                 [0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, 1]])
    monkeypatch.setattr(catalog, "rotate_product", lambda j, e, c: p @ e @ p.inverse())
    expected = {"H3R_10": ("flatness", "the rotated connection is not the family's"), "R4_10": ("cps_valid", "E_integrability")}
    seen = set()
    for entry, row in zip(table_rows(), verify_table()["rows"]):
        for w, r in zip(entry.witnesses, row["witnesses"]):
            if w.rotation is None:
                assert r["passed"], w.name
                continue
            name, detail = expected[w.family]
            assert not r["passed"] and _stages(r)[name] == (False, detail), (w.family, r)
            seen.add(w.family)
    assert seen == set(expected)


def test_split_witnesses_are_the_split_pairs_on_the_row():
    # each H3R_10 point, moved by its basis change B, is the row algebra with the paper's pair
    row = _row(SPLIT_ROW)
    for name, e in SPLIT_E.items():
        w = next(w for w in row.witnesses if w.name == name)
        g, cps = witness_structure(w)
        b = w.basis_change
        assert w.family == "H3R_10"
        assert change_basis(g, b) == parse_salamon(SPLIT_ROW)
        assert b.inverse() @ cps.j @ b == SPLIT_J
        assert b.inverse() @ cps.e @ b == e


def test_catalog_data_file_has_only_keys_the_loader_reads():
    # the loader ignores unknown keys, so a leftover or misspelt one would be dropped silently
    import cpslie.catalog as catalog

    with open(os.path.join(os.path.dirname(catalog.__file__), "data", "witnesses.json"), encoding="utf-8") as f:
        raw = json.load(f)
    for row in raw["entries"]:
        assert set(row) <= set(CatalogEntry._fields), row["salamon"]
        for w in row.get("witnesses", ()):
            where = (row["salamon"], w.get("name"))
            assert set(w) <= set(Witness._fields), where
            assert w["family"] in FAMILY_PARAMS, where
            assert set(w.get("params", {})) <= set(FAMILY_PARAMS[w["family"]]), where


def test_verify_table_passes():
    report = verify_table()
    assert report["passed"] is True
    assert len(report["rows"]) == 15
    assert len(report["excluded"]) == 3


def _assert_passed_is_the_conjunction(node):
    """Every "passed" in a report tree is the conjunction of its own checks and its children's "passed";
    returns the tree's reports, each before its children."""
    children = node.get("rows", []) + node.get("excluded", []) + node.get("witnesses", [])
    nodes = [node]
    for child in children:
        nodes += _assert_passed_is_the_conjunction(child)
    own = node.get("stages", []) + node.get("checks", [])
    assert node["passed"] is (all(c["ok"] for c in own) and all(c["passed"] for c in children)), node
    if "witnesses_verified" in node:
        assert node["witnesses_verified"] is all(w["passed"] for w in node["witnesses"]), node
    return nodes


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_table_passed_is_the_conjunction_of_its_tree(monkeypatch, seed):
    import types

    import cpslie.catalog as catalog

    nodes = _assert_passed_is_the_conjunction(verify_table(seed))
    assert len(nodes) == 1 + 15 + 35 + 3 and all(n["passed"] for n in nodes)

    # a singular basis change fails one witness, and through it alone its
    # row (the row's other witnesses keep every check of its own passing)
    # and the table; a center of the wrong dimension fails every
    # nonexistence report
    entry = _row("(0,0,0,12,13,14)")
    broken = entry._replace(witnesses=(entry.witnesses[0]._replace(basis_change=QMatrix.zeros(6, 6)),) + entry.witnesses[1:])
    rows = [broken if row.salamon == entry.salamon else row for row in table_rows()]
    monkeypatch.setattr(catalog, "table_rows", lambda: rows)
    monkeypatch.setattr(catalog, "center", lambda g: types.SimpleNamespace(dim=5))
    failed = [n for n in _assert_passed_is_the_conjunction(verify_table(seed)) if not n["passed"]]
    assert [n.get("name", n.get("salamon")) for n in failed] == [None, entry.salamon, entry.witnesses[0].name, *EXCLUDED]
    assert all(c["ok"] for c in failed[1]["checks"]) and not failed[1]["witnesses_verified"]


def test_rotated_witnesses_share_connection_with_base():
    for entry in table_rows():
        base = {w.name: w for w in entry.witnesses if w.rotation is None}
        for w in entry.witnesses:
            if w.rotation is None:
                continue
            _, cps_rot = witness_structure(w)
            partner = next(
                b
                for b in entry.witnesses
                if b.rotation is None and b.family == w.family and b.params == w.params
            )
            _, cps_base = witness_structure(partner)
            assert cp_connection(cps_rot) == cp_connection(cps_base)


def test_h3h3_witnesses_rotate_back_to_h3r3():
    seen = 0
    for entry in table_rows():
        for w in entry.witnesses:
            if w.double_type != (ThreeDimType.HEISENBERG3, ThreeDimType.HEISENBERG3):
                continue
            g, cps = witness_structure(w)
            c = h3x2_constant(cps)
            e2 = rotate_product(cps.j, cps.e, c)
            back = assemble_cps(g, cps.j, e2)
            assert double_type(back) == (ThreeDimType.HEISENBERG3, ThreeDimType.ABELIAN3)
            seen += 1
    assert seen == 11


def test_h3r3_witnesses_rotate_forward_to_h3h3():
    for entry in table_rows():
        for w in entry.witnesses:
            if w.double_type != (ThreeDimType.HEISENBERG3, ThreeDimType.ABELIAN3):
                continue
            g, cps = witness_structure(w)
            flipped = assemble_cps(g, cps.j, rotate_product(cps.j, cps.e, 1))
            assert double_type(flipped) == (
                ThreeDimType.HEISENBERG3,
                ThreeDimType.HEISENBERG3,
            )


def test_heisenberg_side_lsa_complete_with_central_kernel():
    # Fried-Goldman behavior on every h3 x R^3 witness
    for entry in table_rows():
        for w in entry.witnesses:
            if w.double_type != (ThreeDimType.HEISENBERG3, ThreeDimType.ABELIAN3):
                continue
            _, cps = witness_structure(w)
            p = restrict_to_lsa(cps, "plus")
            assert lsa_is_complete(p)
            z = center(p.algebra)
            assert z.dim == 1
            for zv in z.basis_vectors():
                m = QMatrix.zeros(3, 3)
                for i, c in enumerate(zv):
                    if c != 0:
                        m = m + p.nablas()[i].scale(c)
                assert m.is_zero()


def test_central_invariant_ideal_property():
    for entry in table_rows():
        for w in entry.witnesses:
            _, cps = witness_structure(w)
            u = find_central_invariant_ideal(cps)
            assert u is not None and u.dim >= 2


def test_nonexistence_center_too_small():
    for s in EXCLUDED[:2]:
        rep = nonexistence_report(s)
        assert rep["kind"] == "CenterTooSmall" and rep["passed"]


def test_nonexistence_encoded_proof():
    rep = nonexistence_report(EXCLUDED[2])
    assert rep["kind"] == "EncodedProof" and rep["passed"]
    assert [s["stage"] for s in rep["stages"]] == [
        "plus_side_dimension_overflow",
        "generic_pair_forces_center",
        "central_ideal_contradiction",
    ]


def sampled_pair_stage(g, seed):
    """Reference for stage (b) of the encoded proof: per sample, the 2x2
    determinant and the kernel of the y3..y6 columns of ad x, each built
    as a QMatrix."""
    rng = random.Random(seed)
    samples = 0
    ok, detail = True, ""
    expected = Subspace.from_spanning([(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    while samples < 200:
        x = vec([Q(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(g.dim)])
        if x[0] ** 2 + x[1] ** 2 == 0:
            continue
        samples += 1
        adx = g.ad_vector(x)
        restricted = QMatrix([[adx.entry(r, c) for c in range(2, 6)] for r in range(g.dim)])
        block = QMatrix([[restricted.entry(4, 0), restricted.entry(4, 1)],
                         [restricted.entry(5, 0), restricted.entry(5, 1)]])
        det = block.entry(0, 0) * block.entry(1, 1) - block.entry(0, 1) * block.entry(1, 0)
        if det != x[0] ** 2 + x[1] ** 2:
            ok, detail = False, f"2x2 block determinant {det} != x1^2+x2^2 at sample {samples}"
            break
        if kernel(restricted) != expected:
            ok, detail = False, f"kernel not {{y3=y4=0}} at sample {samples}"
            break
    detail = detail or f"200 seeded samples (seed={seed}) all force y3=y4=0"
    return {"stage": "generic_pair_forces_center", "ok": ok, "detail": detail}


def test_encoded_proof_pair_stage_matches_sampled_reference():
    """Stage (b) read off the integer numerators of ad x gives the triple
    the QMatrix determinant-and-kernel loop gives, on the excluded algebra
    and on perturbations: [e1, e4] = -2 e6 breaks the determinant, and a
    planted [e1, e5] = e6 or [e1, e6] = e5 (no Lie algebra) breaks the
    kernel."""
    g = parse_salamon(EXCLUDED[2])
    e = lambda i: basis_vec(6, i)  # noqa: E731
    brackets = {
        (i, j): {k: c for k, c in enumerate(g.bracket(e(i), e(j))) if c}
        for i in range(6)
        for j in range(i + 1, 6)
        if any(g.bracket(e(i), e(j)))
    }
    wrong_det = {**brackets, (0, 3): {k: 2 * c for k, c in brackets[(0, 3)].items()}}
    cases = [
        (g, True, ""),
        (LieAlgebra.from_brackets(6, wrong_det), False, "determinant"),
        (NotLie.from_brackets(6, {**brackets, (0, 4): {5: 1}}), False, "kernel"),
        (NotLie.from_brackets(6, {**brackets, (0, 5): {4: 1}}), False, "kernel"),
    ]
    for algebra, ok, word in cases:
        for seed in (0, 7):
            stages = _encoded_proof_report(algebra, EXCLUDED[2], seed)["stages"]
            assert stages[1] == sampled_pair_stage(algebra, seed)
            assert stages[1]["ok"] is ok and word in stages[1]["detail"]


def test_nonexistence_replays_the_stored_obstruction(monkeypatch):
    """The certificate replayed is the catalog's stored obstruction: with the
    kinds swapped, every nonexistence report names the stored kind and fails,
    and so does the table; a kind with no certificate is an error naming it."""
    import cpslie.catalog as catalog

    rows = catalog.load_catalog()
    swap = {"CenterTooSmall": "EncodedProof", "EncodedProof": "CenterTooSmall"}
    swapped = [row._replace(obstruction=swap[row.obstruction]) if row.flat_class == "NoCPS" else row for row in rows]
    monkeypatch.setattr(catalog, "load_catalog", lambda: swapped)
    for entry in excluded_entries():
        report = nonexistence_report(entry.salamon)
        assert report["kind"] == entry.obstruction and not report["passed"]
    assert not verify_table()["passed"]

    planted = [row._replace(obstruction="Planted") if row.flat_class == "NoCPS" else row for row in rows]
    monkeypatch.setattr(catalog, "load_catalog", lambda: planted)
    for salamon in EXCLUDED:
        with pytest.raises(ValueError, match="unknown obstruction kind 'Planted'"):
            nonexistence_report(salamon)


def test_nonexistence_rejects_other_algebras():
    with pytest.raises(ValueError):
        nonexistence_report("(0,0,0,0,0,0)")


def test_fried_example_values():
    n4, lsa = fried_example()
    assert lsa.apply(basis_vec(4, 1), basis_vec(4, 3)) == (-1, 0, 0, 0)
    assert lsa.apply(basis_vec(4, 0), basis_vec(4, 1)) == (0, 0, 1, 0)
    assert lsa_is_complete(lsa)
    for i, rows in enumerate(FRIED_NABLA):
        assert lsa.nablas()[i] == QMatrix(rows)


def test_eight_dim_example_properties():
    g, cps = eight_dim_example()
    assert center(g).dim == 1
    assert ascending_series(cps)[-1].is_zero()
    assert find_central_invariant_ideal(cps) is None


def test_heisenberg_examples_list():
    examples = heisenberg_complex_examples()
    assert len(examples) == 3
    g, cps2 = examples[1]
    minus = Subspace.from_spanning(
        [(1, 0, 1, 0, 0, 0), (0, -1, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)], 6
    )
    assert cps2.minus == minus
    assert iso_type_3d(g, cps2.minus) is ThreeDimType.HEISENBERG3


def test_column_labels_stable():
    assert COLUMN_LABELS == ("R3xR3", "H3xR3", "H3xH3")


def _row(salamon):
    return next(e for e in table_rows() if e.salamon == salamon)


def _slice_checks(report):
    return {c["check"]: (c["ok"], c["detail"]) for c in report["checks"] if c["check"].startswith("slice_")}


@pytest.mark.parametrize("family", ["H3R_00", "H3R_10", "R4_00", "R4_10"])
def test_family_flatness_is_proven(family):
    form = prove_family_flatness(family, build_family(family, _family_variables(family))[1].connection)
    assert form == flatness_closed_form(family)
    assert form.is_zero() == family.startswith("R4")


def test_slice_check_builds_no_instance(monkeypatch):
    import cpslie.catalog as catalog

    # the family builders run, but only over the family's own variables
    built = []

    def only_variables(name, real):
        def wrapped(family, params, *rotation):
            assert params and all(isinstance(x, Poly) for x in params.values()), f"{name} built an instance"
            built.append((name, family))
            return real(family, params, *rotation)

        monkeypatch.setattr(catalog, name, wrapped)

    for name in ("build_family", "family_data"):
        only_variables(name, getattr(catalog, name))

    # the family proofs run the production path, but only on Poly layouts
    def variables(layout):
        return next((x.names for r in layout.num for x in r if isinstance(x, Poly)), None)

    connections = []

    def on_family(name, real, algebra_of):
        def wrapped(arg, *rest):
            names = variables(algebra_of(arg).structure.side)
            assert names is not None, f"{name} saw a rational instance"
            if name == "assemble_cps":
                connections.append(names)
            return real(arg, *rest)

        monkeypatch.setattr(catalog, name, wrapped)

    on_family("assemble_cps", catalog.assemble_cps, lambda g: g)
    on_family("curvature", catalog.curvature, lambda conn: conn.algebra)
    proofs = {}
    for entry in table_rows():
        for w in entry.witnesses:
            if w.slices:
                ok, detail = catalog.slice_flatness_check(w, w.flat, proofs)
                assert (ok, detail) == (True, "slice consistent"), (entry.salamon, w.name)
    # each family's closed form and the unrotated certificate it is proven on
    forms = {"H3R_10", "R4_00", "R4_10"}
    assert set(proofs) == forms | {(f, None) for f in forms}
    assert sorted(connections) == sorted(FAMILY_PARAMS[f] for f in forms)
    assert sorted(built) == sorted((name, f) for f in forms for name in ("build_family", "family_data"))


def test_witness_without_slices_fails_its_row():
    # a FlatOnly and a NonFlatOnly row: a witness whose slices are deleted fails closed
    for salamon in ("(0,0,0,0,0,0)", "(0,0,0,12,14,24)"):
        entry = _row(salamon)
        w = entry.witnesses[0]
        report = verify_row(entry._replace(witnesses=(w._replace(slices=()),) + entry.witnesses[1:]), {})
        assert not report["passed"], salamon
        assert _slice_checks(report)[f"slice_{w.name}"] == (False, "no slice recorded")


def test_second_realizing_slice_reduces_to_A():
    import cpslie.catalog as catalog

    w = _row("(0,0,0,12,13,24)").witnesses[0]
    first, second = w.slices
    assert second["equations"] == ["C*E = A*F"]
    form = prove_family_flatness("H3R_10", build_family("H3R_10", _family_variables("H3R_10"))[1].connection)
    c, e = (Poly.var(form.names, n) for n in "CE")
    assert catalog._restrict(form, first) == -2 * c * e
    assert catalog._restrict(form, second) == Poly.var(form.names, "A")


def test_planted_wrong_flat_class_fails_the_row():
    for salamon, planted in (("(0,0,0,12,13,23)", "NonFlatOnly"), ("(0,0,0,12,14,24)", "FlatOnly")):
        entry = _row(salamon)._replace(flat_class=planted, nonflat_argument="planted")
        report = verify_row(entry, {})
        assert not report["passed"]
        checks = {c["check"]: c["ok"] for c in report["checks"]}
        assert not checks["flat_class"]
        assert not any(ok for ok, _ in _slice_checks(report).values())


def test_planted_nonflat_slice_fails_a_flatonly_row():
    # A = 1 instead of 0 turns A(2F+1) - 2CE into 2F+1 on the slice
    entry = _row("(0,0,0,12,13,14+23)")
    w = entry.witnesses[0]
    (spec,) = w.slices
    planted = {**spec, "fixed": {**spec["fixed"], "A": "1"}}
    for slices, detail in (
        ((spec, planted), "flatness value 2*F + 1 on slice"),
        ((planted,), "witness parameters lie on no recorded slice"),
    ):
        moved = w._replace(slices=slices)
        report = verify_row(entry._replace(witnesses=(moved,) + entry.witnesses[1:]), {})
        assert not report["passed"]
        ok, got = _slice_checks(report)[f"slice_{w.name}"]
        assert not ok and got.startswith(detail), got


@pytest.mark.parametrize(
    "family, salamon, planted",
    [
        ("H3R_10", "(0,0,0,12,13,24)", lambda v: v["A"] * (2 * v["F"] + 1) - 3 * v["C"] * v["E"]),
        ("H3R_10", "(0,0,0,12,13,14+23)", lambda v: v["A"] * (2 * v["F"] + 1) - 2 * v["C"] * v["E"] + v["B"]),
        ("R4_10", "(0,0,0,0,12,13)", lambda v: v["A1"]),
    ],
)
def test_planted_wrong_closed_form_fails_the_row(monkeypatch, family, salamon, planted):
    import cpslie.catalog as catalog

    true_form = catalog.flatness_closed_form

    def wrong(f):
        return planted(catalog._family_variables(f)) if f == family else true_form(f)

    monkeypatch.setattr(catalog, "flatness_closed_form", wrong)
    with pytest.raises(FamilyError, match="closed form"):
        prove_family_flatness(family, build_family(family, _family_variables(family))[1].connection)
    report = verify_row(_row(salamon), {})
    assert not report["passed"]
    for ok, detail in _slice_checks(report).values():
        assert not ok and detail.startswith(f"{family}: closed form"), detail


@pytest.mark.parametrize(
    "family, pair, value, failure",
    [
        # [e2, e3] = e1 breaks Jacobi with [e1, e2] = e3
        ("H3R_10", (1, 2), {0: 1}, "Jacobi"),
        # [e1, e2] = f3 is central, so Jacobi holds, but J is not integrable:
        # no torsion-free connection has J and E parallel
        ("R4_00", (0, 1), {5: 1}, "J_integrability"),
    ],
)
def test_planted_bracket_fails_the_certificate(monkeypatch, family, pair, value, failure):
    import cpslie.catalog as catalog

    true_brackets = catalog._family_brackets

    def broken(f, p):
        br = true_brackets(f, p)
        br[pair] = value
        return br

    monkeypatch.setattr(catalog, "_family_brackets", broken)
    with pytest.raises(ValueError, match=failure):
        build_family(family, _family_variables(family))


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_every_family_member_has_quadratic_geodesics(family):
    # the recursion over Poly scalars proves y_3 = 0 identically
    # in the parameters, for every member of the family at once: the R4
    # families' geodesics are linear in t, the H3R families' quadratic
    conn = build_family(family, _family_variables(family))[1].connection
    report = exact_polynomial_geodesic_certificate(conn)
    assert report["verdict"] and report["details"]["degree_reached"] == 2
    assert report["details"]["degree"] == (2 if family.startswith("H3R") else 1)

    # nabla_{e1} e1 += (first parameter) e1 breaks every degree up to the
    # cap: the full search over Poly scalars finds no certificate
    side = [list(r) for r in conn.tensor.side.num]
    side[0][0] += Poly.var(FAMILY_PARAMS[family], FAMILY_PARAMS[family][0])
    planted = Connection(conn.algebra, SparseTensor(_matrix(side, 1, 36)))
    report = exact_polynomial_geodesic_certificate(planted)
    assert report["verdict"] is False
    assert (report["details"]["degree"], report["details"]["degree_reached"]) == (None, GEODESIC_MAX_DEGREE)


def test_family_connection_specializes_to_every_instance():
    # the Poly connection at a witness's parameters is the witness family's cp connection
    connections = {f: build_family(f, _family_variables(f))[1].connection for f in FAMILY_PARAMS}
    checked = 0
    for entry in table_rows():
        for w in entry.witnesses:
            point = {name: w.params.get(name, Q(0)) for name in FAMILY_PARAMS[w.family]}
            side = connections[w.family].tensor.side
            values = [[x.subs(point).value() if isinstance(x, Poly) else Q(x) for x in r] for r in side.num]
            expected = cp_connection(build_family(w.family, w.params)[1]).tensor
            assert SparseTensor(QMatrix(values)) == expected, w.name
            checked += 1
    assert checked == 35


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_family_criteria_hold_as_identities(family):
    """Criteria 02, 04 and 09 on the family over its own variables, so at every member at once."""
    g, cps = build_family(family, _family_variables(family))
    e = [basis_vec(6, i) for i in range(6)]
    # 02: span(e3, f3) is central, J e3 = f3, and it is J- and E-invariant
    assert not any(any(g.bracket(e[c], x)) for c in (2, 5) for x in e)
    assert cps.j.col(2) == e[5]
    u = Subspace.from_spanning([e[2], e[5]], 6)
    assert image(cps.j, u) == u and image(cps.e, u) == u
    # 04: the cp connection is Ricci-flat and traceless
    conn = cp_connection(cps)
    rep = curvature(conn)
    assert rep.is_ricci_flat and rep.traceless
    # 09: the Obata connection is Ricci-flat, and every nonzero curvature
    # entry is a constant times the flatness closed form of the cp connection
    obata = curvature(lift_cps(cps).connection)
    assert obata.is_ricci_flat
    form = flatness_closed_form(family)
    entries = [x for m in obata.r.values() for r in m.num for x in r if x]
    assert len(entries) == (16 if family.startswith("H3R") else 0)
    assert all(x.multiple_of(form) is not None for x in entries)
    assert rep.is_flat == obata.is_flat == form.is_zero()
