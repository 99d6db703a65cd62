"""Acceptance suite: one test per acceptance criterion.

Each test prints a single pass/fail line (run with -s to see them).
Every check is exact, with no tolerance: criterion 07 cross-checks the
geodesic certificates against the Fraction Taylor coefficients of the
test-side reference (`geodesic_reference`).
"""

import functools
import random
from fractions import Fraction as Q

from cpslie.catalog import (
    build_family,
    excluded_entries,
    table_rows,
    verify_table,
    witness_structure,
)
from cpslie.connection import (
    connection_is_complete_certificate,
    cp_connection,
    curvature,
    exact_polynomial_geodesic_certificate,
    lsa_is_complete,
    torsion_defect,
)
from cpslie.hypercomplex import lift_cps
from cpslie.lie import center, jacobi_defect
from cpslie.linalg import QMatrix, Subspace, basis_vec, vec
from cpslie.salamon import emit_salamon, parse_salamon
from cpslie.structures import assemble_cps, rotate_product
from examples import (
    SPLIT_E,
    ascending_series,
    col,
    eight_dim_example,
    family_flatness_value,
    find_central_invariant_ideal,
    fried_example,
    image,
    is_nilpotent_matrix,
    nablas,
    obata_connection,
    ref_parallel_defect,
    restrict_to_lsa,
    ricci_via_trace_identity,
    right_mult,
    split_cps,
)
from geodesic_reference import taylor_least_degree

FLAT_ONLY = {
    "(0,0,0,0,0,0)",
    "(0,0,0,0,0,12)",
    "(0,0,0,0,0,12+34)",
    "(0,0,0,0,12,13)",
    "(0,0,0,0,13+42,14+23)",
    "(0,0,0,0,12,14+23)",
    "(0,0,0,0,12,34)",
    "(0,0,0,12,13,23)",
    "(0,0,0,12,13,14+23)",
}
NONFLAT_ONLY = {"(0,0,0,12,14,24)", "(0,0,0,12,13,24)"}
BOTH = {
    "(0,0,0,0,12,14+25)",
    "(0,0,0,12,13,14)",
    "(0,0,0,12,13+14,24)",
    "(0,0,0,12,14,13+42)",
}


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL  {label}")
                raise
            print(f"criterion {num:2d} PASS  {label}")

        return wrapper

    return deco


@functools.lru_cache(maxsize=1)
def all_witnesses():
    out = []
    for entry in table_rows():
        for w in entry.witnesses:
            g, cps = witness_structure(w)
            out.append((entry, w, g, cps))
    return out


@functools.lru_cache(maxsize=1)
def all_connections():
    return [
        (entry, w, g, cps, cp_connection(cps)) for entry, w, g, cps in all_witnesses()
    ]


@criterion(1, "classification table reproduced by verified witnesses")
def test_criterion_01_table():
    report = verify_table()
    assert len(report["rows"]) == 15
    for row in report["rows"]:
        assert row["passed"], row
    assert len(report["excluded"]) == 3
    for ex in report["excluded"]:
        assert ex["passed"], ex


@criterion(2, "2-dimensional J,E-invariant central ideal on every witness")
def test_criterion_02_central_ideal():
    for entry, w, g, cps in all_witnesses():
        u = find_central_invariant_ideal(cps)
        assert u is not None and u.dim >= 2, (entry.salamon, w.name)
        assert all(map(center(g).contains, u.basis_vectors()))
        assert image(cps.j, u) == u
        assert image(cps.e, u) == u


@criterion(3, "every witness J is nilpotent; the 8-dim example J is not")
def test_criterion_03_nilpotent_complex_structures():
    for entry, w, g, cps in all_witnesses():
        assert ascending_series(cps)[-1] == Subspace(QMatrix.identity(g.dim)), (entry.salamon, w.name)
    _, cps8 = eight_dim_example()
    assert ascending_series(cps8)[-1].is_zero()


@criterion(4, "connection identities: torsion, parallelism, traces, Ricci")
def test_criterion_04_connection_identities():
    for entry, w, g, cps, conn in all_connections():
        assert torsion_defect(conn) == []
        assert ref_parallel_defect(conn, cps.j) == []
        assert ref_parallel_defect(conn, cps.e) == []
        rep = curvature(conn)
        assert rep.traceless
        assert rep.is_ricci_flat
        assert ricci_via_trace_identity(conn) == rep.ricci
        assert rep.ricci == rep.ricci.transpose().scale(-1)  # skew, trivially


GRID_SEED = 2


def _family_grid(family, count=24):
    rng = random.Random(GRID_SEED)
    grid = []
    while len(grid) < count - 4:
        params = {k: Q(rng.randint(-4, 4), rng.randint(1, 2)) for k in "ABCDEF"}
        if params["A"] ** 2 + params["C"] ** 2 == 0:
            continue
        grid.append(params)
    # a few guaranteed-flat tuples
    for c, e in ((Q(1), Q(1)), (Q(2), Q(-1)), (Q(1, 2), Q(4)), (Q(-3), Q(1, 3))):
        if family == "H3R_00":
            grid.append({"A": c, "B": Q(1), "C": c, "D": Q(2), "E": e, "F": e})
        else:
            f = Q(1)
            grid.append({"A": 2 * c * e / (2 * f + 1), "B": Q(0), "C": c, "D": Q(1), "E": e, "F": f})
    return grid


@criterion(5, "flatness criteria and displayed curvature coefficients")
def test_criterion_05_flatness_criteria():
    for family in ("H3R_00", "H3R_10"):
        grid = _family_grid(family)
        assert len(grid) >= 20
        flats = 0
        for params in grid:
            value = family_flatness_value(family, params)
            _, cps = build_family(family, params)
            conn = cp_connection(cps)
            rep = curvature(conn)
            assert rep.is_flat == (value == 0), (family, params)
            flats += rep.is_flat
            a, c, e, f = params["A"], params["C"], params["E"], params["F"]
            if family == "H3R_00":
                coeff = -2 * (a * f - c * e)
            else:
                coeff = -(2 * (a * f - c * e) + a)
            op = rep.r[0, 3]
            assert op.apply(basis_vec(6, 0)) == vec((0, 0, coeff, 0, 0, 0))
            assert op.apply(basis_vec(6, 3)) == vec((0, 0, 0, 0, 0, coeff))
        assert flats >= 4 and flats < len(grid)
    # the quotient-R4 families are flat throughout
    for entry, w, g, cps, conn in all_connections():
        if w.family in ("R4_00", "R4_10"):
            assert curvature(conn).is_flat, (entry.salamon, w.name)
    rng = random.Random(GRID_SEED)
    for family, names in (("R4_00", "A1 A2 B1 B2 D1 D2"), ("R4_10", "A1 A2 C1 C2 D1 D2")):
        for _ in range(10):
            params = {k: Q(rng.randint(-3, 3), rng.randint(1, 2)) for k in names.split()}
            _, cps = build_family(family, params)
            assert curvature(cp_connection(cps)).is_flat


@criterion(6, "flat / non-flat classification per row")
def test_criterion_06_nonflat_classification():
    assert FLAT_ONLY | NONFLAT_ONLY | BOTH == {e.salamon for e in table_rows()}
    for entry in table_rows():
        expected = (
            "FlatOnly"
            if entry.salamon in FLAT_ONLY
            else "NonFlatOnly"
            if entry.salamon in NONFLAT_ONLY
            else "Both"
        )
        assert entry.flat_class == expected, entry.salamon
    flat_seen = {}
    for entry, w, g, cps, conn in all_connections():
        flat_seen.setdefault(entry.salamon, set()).add(curvature(conn).is_flat)
    for salamon in FLAT_ONLY:
        assert flat_seen[salamon] == {True}
    for salamon in NONFLAT_ONLY:
        assert flat_seen[salamon] == {False}
    for salamon in BOTH:
        assert flat_seen[salamon] == {True, False}


@criterion(7, "completeness: induced LSA products and quadratic geodesics")
def test_criterion_07_completeness():
    for entry, w, g, cps in all_witnesses():
        for side in ("plus", "minus"):
            p = restrict_to_lsa(cps, side)
            assert torsion_defect(p) == [] and curvature(p).is_flat
            assert lsa_is_complete(p), (entry.salamon, w.name, side)
            lefts = all(map(is_nilpotent_matrix, nablas(p)))
            rights = all(is_nilpotent_matrix(right_mult(p, i)) for i in range(3))
            assert lefts == rights is True
    # exact geodesic certificates, once per distinct non-flat connection
    # tensor, and the Taylor coefficients of the test-side reference agree
    seen = set()
    for entry, w, g, cps, conn in all_connections():
        rep = curvature(conn)
        if rep.is_flat or conn.tensor in seen:
            continue
        seen.add(conn.tensor)
        cert = connection_is_complete_certificate(cps, rep.is_flat)
        assert cert["method"] == "exact-polynomial-geodesic" and cert["verdict"], (entry.salamon, w.name)
        assert cert["details"]["degree"] <= 2, (entry.salamon, w.name, cert["details"])
        poly = exact_polynomial_geodesic_certificate(conn)
        assert poly["verdict"] and poly["details"]["degree"] == 2, (entry.salamon, w.name, poly["details"])
        assert taylor_least_degree(conn) == 2, (entry.salamon, w.name)
    assert len(seen) == 7
    # flat connections carry the exact trace certificate
    for entry, w, g, cps, conn in all_connections():
        if not curvature(conn).is_flat:
            continue
        assert torsion_defect(conn) == []
        assert all(right_mult(conn, j).trace() == 0 for j in range(6))
        assert connection_is_complete_certificate(cps, True)["verdict"]


CIRCLE_CONSTANTS = (Q(1), Q(2), Q(3), Q(1, 2), Q(-1), Q(-2), Q(5), Q(2, 3), Q(-1, 3), Q(7))


@criterion(8, "the connection does not move under rational rotations of E")
def test_criterion_08_rotation_invariance():
    assert len(set(CIRCLE_CONSTANTS)) == 10
    seen = set()
    for entry, w, g, cps, conn in all_connections():
        key = (id(g), conn.tensor)
        if key in seen:
            continue
        seen.add(key)
        for c in CIRCLE_CONSTANTS:
            rotated = assemble_cps(g, cps.j, rotate_product(cps.j, cps.e, c))
            assert cp_connection(rotated) == conn, (entry.salamon, w.name, c)


@criterion(9, "hypercomplex lifts: doubled tables, Obata verdicts, quaternions")
def test_criterion_09_hypercomplex():
    # the doubled (0,0,0,12,13,14) tables, verbatim
    lifts = {name: lift_cps(split_cps(name)[1]) for name in SPLIT_E}
    h1 = lifts["split-flat"]
    hat = lambda i: basis_vec(12, 6 + i)  # noqa: E731
    plain = lambda i: basis_vec(12, i)  # noqa: E731
    neg = lambda v: tuple(-x for x in v)  # noqa: E731
    br = lambda i, j: h1.algebra.bracket(plain(i), plain(j))  # noqa: E731
    assert br(0, 1) == neg(plain(3)) and br(6, 7) == plain(3)
    assert br(0, 2) == neg(plain(4)) and br(6, 8) == plain(4)
    assert br(0, 3) == neg(plain(5)) and br(6, 9) == plain(5)
    assert br(6, 1) == neg(hat(3)) and br(0, 7) == neg(hat(3))
    assert br(6, 2) == neg(hat(4)) and br(0, 8) == neg(hat(4))
    assert br(6, 3) == neg(hat(5)) and br(0, 9) == neg(hat(5))
    for i, sign in ((0, 1), (2, 1), (4, 1), (1, -1), (3, -1), (5, -1)):
        assert col(h1.j1, i) == tuple(Q(sign) * x for x in hat(i))
    for i in (0, 2, 4):  # J e1 = -e2 and so on, on both copies
        assert col(h1.j2, i) == neg(plain(i + 1))
        assert col(h1.j2, 6 + i) == neg(hat(i + 1))
    h2 = lifts["split-nonflat"]
    for i, sign in ((0, 1), (3, 1), (5, 1), (1, -1), (2, -1), (4, -1)):
        assert col(h2.j1, i) == tuple(Q(sign) * x for x in hat(i))
    # Obata verdicts for the two split pairs
    verdicts = {}
    for name in lifts:
        rep = curvature(obata_connection(split_cps(name)[1].connection))
        assert rep.is_ricci_flat
        verdicts[name] = rep.is_flat
    assert verdicts == {"split-flat": True, "split-nonflat": False}
    # every witness lift: lift_cps returning certifies the quaternion
    # relations and integrability; the Obata connection is Ricci-flat
    for entry, w, g, cps, conn in all_connections():
        h = lift_cps(cps)
        assert jacobi_defect(h.algebra.structure) == []
        rep = curvature(obata_connection(conn))
        assert rep.is_ricci_flat, (entry.salamon, w.name)
        assert rep.is_flat == curvature(conn).is_flat


@criterion(10, "the Fried product and the 8-dimensional example")
def test_criterion_10_examples():
    n4, lsa = fried_example()
    assert torsion_defect(lsa) == [] and curvature(lsa).is_flat
    assert lsa_is_complete(lsa)
    assert not nablas(lsa)[3].is_zero()
    g8, cps8 = eight_dim_example()
    assert center(g8).dim == 1
    assert jacobi_defect(g8.structure) == []
    assert cps8.plus.dim == cps8.minus.dim == 4


@criterion(11, "parser round trips and the worked dual-bracket example")
def test_criterion_11_parser():
    strings = [e.salamon for e in table_rows() + excluded_entries()]
    assert len(strings) == 18
    for s in strings:
        g = parse_salamon(s)
        assert parse_salamon(emit_salamon(g)) == g, s
    for e in table_rows():
        assert emit_salamon(parse_salamon(e.salamon)) == e.salamon
    g = parse_salamon("(0,0,0,0,12,14+23)")
    assert g.bracket(basis_vec(6, 0), basis_vec(6, 1)) == vec((0, 0, 0, 0, -1, 0))
    assert g.bracket(basis_vec(6, 0), basis_vec(6, 3)) == vec((0, 0, 0, 0, 0, -1))
    assert g.bracket(basis_vec(6, 1), basis_vec(6, 2)) == vec((0, 0, 0, 0, 0, -1))
