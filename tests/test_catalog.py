"""Catalog rows, witnesses, families, and the encoded nonexistence proofs."""

import dataclasses
import random
from fractions import Fraction as Q

import pytest

from cpslie.catalog import (
    COLUMN_LABELS,
    EXCLUDED,
    FAMILY_PARAMS,
    FRIED_NABLA,
    FamilyError,
    _encoded_proof_report,
    build_family,
    eight_dim_example,
    family_connection,
    family_data,
    family_flatness_value,
    flatness_closed_form,
    fried_example,
    heisenberg_complex_examples,
    nonexistence_report,
    prove_family_flatness,
    table_rows,
    verify_row,
    verify_table,
    verify_witness,
    witness_structure,
)
from cpslie.connection import (
    Connection,
    cp_connection,
    exact_quadratic_geodesic_certificate,
    lsa_is_complete,
    restrict_to_lsa,
)
from cpslie.lie import LieAlgebra, ThreeDimType, center, change_basis, iso_type_3d
from cpslie.linalg import QMatrix, SparseTensor, Subspace, _matrix, basis_vec, kernel, vec
from cpslie.poly import Poly
from cpslie.salamon import parse_salamon
from cpslie.structures import (
    ascending_series,
    assemble_cps,
    double_type,
    find_central_invariant_ideal,
    h3x2_constant,
    rotate_product,
)

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
        report = verify_witness(row, w)
        assert report.passed, report.to_json()


def test_verify_row_parses_its_tuple_once(monkeypatch):
    import cpslie.catalog as catalog

    calls = []
    parse = catalog.parse_salamon
    monkeypatch.setattr(catalog, "parse_salamon", lambda text: calls.append(text) or parse(text))
    rows = table_rows()
    assert all(verify_row(entry).passed for entry in rows)
    assert sorted(calls) == sorted(entry.salamon for entry in rows)

    # a row tuple that does not parse fails each witness's basis change, and raises nothing
    entry = _row("(0,0,0,0,12,14+25)")
    bad = dataclasses.replace(
        entry, salamon="(0,0,1x)", witnesses=tuple(dataclasses.replace(w, target="(0,0,1x)") for w in entry.witnesses)
    )
    for report in verify_row(bad).witness_reports:
        stages = {name: (ok, detail) for name, ok, detail in report.stages}
        assert not stages["basis_change"][0] and stages["basis_change"][1], report.to_json()


def test_verify_witness_rejects_singular_basis_change():
    row = next(e for e in table_rows() if e.salamon == "(0,0,0,0,0,12)")
    w = row.witnesses[0]
    import dataclasses

    broken = dataclasses.replace(w, basis_change=QMatrix.zeros(6, 6))
    report = verify_witness(row, broken)
    stages = dict((s, ok) for s, ok, _ in report.stages)
    assert not stages["basis_change"]
    assert not report.passed


def test_witness_build_failures_name_their_stage(monkeypatch):
    import dataclasses

    import cpslie.catalog as catalog
    from cpslie.structures import StructureError

    row = next(e for e in table_rows() if e.salamon == "(0,0,0,0,12,13)")
    w = next(w for w in row.witnesses if w.rotation is not None)

    broken = dataclasses.replace(w, family="Nope")
    report = verify_witness(row, broken)
    assert [(s, ok) for s, ok, _ in report.stages] == [("build", False)]
    with pytest.raises(ValueError, match="fails build"):
        witness_structure(broken)

    def no_rotation(cps, c):
        raise StructureError("E_integrability", "rotated product is not integrable")

    monkeypatch.setattr(catalog, "rotate_product", no_rotation)
    stages = {s: (ok, d) for s, ok, d in verify_witness(row, w).stages}
    assert stages["build"] == (True, "")
    assert stages["cps_valid"] == (False, "rotation: E_integrability: rotated product is not integrable")
    assert stages["flatness"] == (False, "no CPS to inspect")
    with pytest.raises(ValueError, match="fails cps_valid: rotation"):
        witness_structure(w)


def test_verify_table_passes():
    report = verify_table()
    assert report.passed
    assert len(report.rows) == 15
    assert len(report.excluded) == 3
    payload = report.to_json()
    assert payload["passed"] is True


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
            e2 = rotate_product(cps, c)
            back = assemble_cps(g, cps.j, e2)
            assert double_type(back) == (ThreeDimType.HEISENBERG3, ThreeDimType.ABELIAN3)
            seen += 1
    assert seen == 11


def test_h3r3_witnesses_rotate_forward_to_h3h3():
    for entry in table_rows():
        for w in entry.witnesses:
            if w.double_type != (ThreeDimType.HEISENBERG3, ThreeDimType.ABELIAN3):
                continue
            if w.family == "Explicit":
                continue
            g, cps = witness_structure(w)
            flipped = assemble_cps(g, cps.j, rotate_product(cps, 1))
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
                        m = m + p.nabla(i).scale(c)
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
        assert rep.kind == "CenterTooSmall" and rep.passed


def test_nonexistence_encoded_proof():
    rep = nonexistence_report(EXCLUDED[2])
    assert rep.kind == "EncodedProof" and rep.passed
    assert [s for s, _, _ in rep.stages] == [
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
        restricted = QMatrix([[adx.entry(r, c) for c in range(2, 6)] for r in range(g.dim)], cols=4)
        block = QMatrix([[restricted.entry(4, 0), restricted.entry(4, 1)],
                         [restricted.entry(5, 0), restricted.entry(5, 1)]])
        det = block.entry(0, 0) * block.entry(1, 1) - block.entry(0, 1) * block.entry(1, 0)
        if det != x[0] ** 2 + x[1] ** 2:
            ok, detail = False, f"2x2 block determinant {det} != x1^2+x2^2 at sample {samples}"
            break
        if kernel(restricted) != expected:
            ok, detail = False, f"kernel not {{y3=y4=0}} at sample {samples}"
            break
    return "generic_pair_forces_center", ok, detail or f"200 seeded samples (seed={seed}) all force y3=y4=0"


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
        (LieAlgebra.from_brackets(6, {**brackets, (0, 4): {5: 1}}, check=False), False, "kernel"),
        (LieAlgebra.from_brackets(6, {**brackets, (0, 5): {4: 1}}, check=False), False, "kernel"),
    ]
    for algebra, ok, word in cases:
        for seed in (0, 7):
            stages = _encoded_proof_report(algebra, EXCLUDED[2], seed).stages
            assert stages[1] == sampled_pair_stage(algebra, seed)
            assert stages[1][1] is ok and word in stages[1][2]


def test_nonexistence_rejects_other_algebras():
    with pytest.raises(ValueError):
        nonexistence_report("(0,0,0,0,0,0)")


def test_fried_example_values():
    n4, lsa = fried_example()
    assert lsa.apply(basis_vec(4, 1), basis_vec(4, 3)) == (-1, 0, 0, 0)
    assert lsa.apply(basis_vec(4, 0), basis_vec(4, 1)) == (0, 0, 1, 0)
    assert lsa_is_complete(lsa)
    for i, rows in enumerate(FRIED_NABLA):
        assert lsa.nabla(i) == QMatrix(rows)


def test_eight_dim_example_properties():
    g, cps = eight_dim_example()
    assert center(g).dim == 1
    assert ascending_series(g, cps.j)[-1].is_zero()
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
    return {c: (ok, d) for c, ok, d in report.checks if c.startswith("slice_")}


@pytest.mark.parametrize("family", ["H3R_00", "H3R_10", "R4_00", "R4_10"])
def test_family_flatness_is_proven(family):
    form = prove_family_flatness(family)
    assert form == flatness_closed_form(family)
    assert form.is_zero() == family.startswith("R4")


def test_slice_check_builds_no_instance(monkeypatch):
    import cpslie.catalog as catalog

    def forbidden(*args, **kwargs):
        raise AssertionError("the slice check must not build an instance")

    for name in ("build_family", "family_data"):
        monkeypatch.setattr(catalog, name, forbidden)

    # the family proofs run the production path, but only on Poly layouts
    def variables(layout):
        return next((x.names for r in layout.num for x in r if isinstance(x, Poly)), None)

    connections = []

    def on_family(name, real, algebra_of):
        def wrapped(arg, *rest):
            names = variables(algebra_of(arg).structure.side)
            assert names is not None, f"{name} saw a rational instance"
            if name == "cp_connection":
                connections.append(names)
            return real(arg, *rest)

        monkeypatch.setattr(catalog, name, wrapped)

    on_family("assemble_cps", catalog.assemble_cps, lambda g: g)
    on_family("cp_connection", catalog.cp_connection, lambda cps: cps.algebra)
    on_family("curvature", catalog.curvature, lambda conn: conn.algebra)
    proofs = {}
    for entry in table_rows():
        for w in entry.witnesses:
            if w.slices:
                ok, detail = catalog.slice_flatness_check(w, w.flat, proofs)
                assert (ok, detail) == (True, "slice consistent"), (entry.salamon, w.name)
    assert set(proofs) == {"H3R_10", "R4_00", "R4_10"}
    assert sorted(connections) == sorted(FAMILY_PARAMS[f] for f in proofs)


def test_second_realizing_slice_reduces_to_A():
    import cpslie.catalog as catalog

    w = _row("(0,0,0,12,13,24)").witnesses[0]
    first, second = w.slices
    assert second["equations"] == ["C*E = A*F"]
    form = prove_family_flatness("H3R_10")
    c, e = (Poly.var(form.names, n) for n in "CE")
    assert catalog._restrict(form, first) == -2 * c * e
    assert catalog._restrict(form, second) == Poly.var(form.names, "A")


def test_planted_wrong_flat_class_fails_the_row():
    for salamon, planted in (("(0,0,0,12,13,23)", "NonFlatOnly"), ("(0,0,0,12,14,24)", "FlatOnly")):
        entry = dataclasses.replace(_row(salamon), flat_class=planted, nonflat_argument="planted")
        report = verify_row(entry)
        assert not report.passed
        checks = {c: ok for c, ok, _ in report.checks}
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
        moved = dataclasses.replace(w, slices=slices)
        report = verify_row(dataclasses.replace(entry, witnesses=(moved,) + entry.witnesses[1:]))
        assert not report.passed
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
        prove_family_flatness(family)
    report = verify_row(_row(salamon))
    assert not report.passed
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
    with pytest.raises(FamilyError, match=failure):
        prove_family_flatness(family)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_every_family_member_has_quadratic_geodesics(family):
    # the grid evaluation over Poly scalars proves P4 = P5 = P6 = 0 identically
    # in the parameters, for every member of the family at once
    conn = family_connection(family)
    report = exact_quadratic_geodesic_certificate(conn)
    assert report.verdict and report.details["vanishing"] == {"P4": True, "P5": True, "P6": True}

    # nabla_{e1} e1 += (first parameter) e1 breaks all three
    side = [list(r) for r in conn.tensor.side.num]
    side[0][0] += Poly.var(FAMILY_PARAMS[family], FAMILY_PARAMS[family][0])
    planted = Connection(conn.algebra, SparseTensor(_matrix(side, 1, 36)))
    report = exact_quadratic_geodesic_certificate(planted)
    assert not report.verdict and not any(report.details["vanishing"].values())


def test_family_connection_specializes_to_every_instance():
    # the Poly connection at a witness's parameters is the witness family's cp connection
    connections = {f: family_connection(f) for f in FAMILY_PARAMS}
    checked = 0
    for entry in table_rows():
        for w in entry.witnesses:
            if w.family == "Explicit":
                continue
            point = {name: w.params.get(name, Q(0)) for name in FAMILY_PARAMS[w.family]}
            side = connections[w.family].tensor.side
            values = [[x.subs(point).value() if isinstance(x, Poly) else Q(x) for x in r] for r in side.num]
            expected = cp_connection(build_family(w.family, w.params)[1]).tensor
            assert SparseTensor(QMatrix(values)) == expected, w.name
            checked += 1
    assert checked == 33
