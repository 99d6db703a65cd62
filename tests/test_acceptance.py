"""Acceptance suite: one test per acceptance criterion.

Each test prints a single pass/fail line (run with -s to see them).
All algebraic checks are exact; the only tolerance is the relative
1e-6 of the numeric quadratic-geodesic certificate.
"""

import functools
import random
from fractions import Fraction as Q

from cpslie.catalog import (
    EXCLUDED,
    build_family,
    eight_dim_example,
    family_flatness_value,
    fried_example,
    table_rows,
    verify_table,
    witness_structure,
)
from cpslie.connection import (
    GEODESIC_REL_TOL,
    LSAProduct,
    cp_connection,
    curvature,
    lsa_defects,
    lsa_is_complete,
    parallel_defect,
    quadratic_geodesic_certificate,
    restrict_to_lsa,
    ricci_via_trace_identity,
    torsion_defect,
)
from cpslie.hypercomplex import lift_cps, obata_connection, validate_hypercomplex
from cpslie.lie import center, jacobi_defect
from cpslie.linalg import basis_vec, is_nilpotent_matrix, vec
from cpslie.salamon import emit_salamon, parse_salamon
from cpslie.structures import (
    ascending_series,
    assemble_cps,
    find_central_invariant_ideal,
    rotate_product_rational_angle,
)
from cpslie.linalg import map_subspace

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
    assert len(report.rows) == 15
    for row in report.rows:
        assert row.passed, row.to_json()
    assert len(report.excluded) == 3
    for ex in report.excluded:
        assert ex.passed, ex.to_json()


@criterion(2, "2-dimensional J,E-invariant central ideal on every witness")
def test_criterion_02_central_ideal():
    for entry, w, g, cps in all_witnesses():
        u = find_central_invariant_ideal(cps)
        assert u is not None and u.dim >= 2, (entry.salamon, w.name)
        assert center(g).contains_subspace(u)
        assert map_subspace(cps.j, u) == u
        assert map_subspace(cps.e, u) == u


@criterion(3, "every witness J is nilpotent; the 8-dim example J is not")
def test_criterion_03_nilpotent_complex_structures():
    for entry, w, g, cps in all_witnesses():
        assert ascending_series(g, cps.j)[-1].is_full(), (entry.salamon, w.name)
    g8, cps8 = eight_dim_example()
    assert ascending_series(g8, cps8.j)[-1].is_zero()


@criterion(4, "connection identities: torsion, parallelism, traces, Ricci")
def test_criterion_04_connection_identities():
    for entry, w, g, cps, conn in all_connections():
        assert torsion_defect(conn) == []
        assert parallel_defect(conn, cps.j) == []
        assert parallel_defect(conn, cps.e) == []
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
            op = rep.operator(0, 3)
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
            bad = lsa_defects(p)
            assert bad == {"left_symmetry": [], "compatibility": []}
            assert lsa_is_complete(p), (entry.salamon, w.name, side)
            lefts = all(is_nilpotent_matrix(p.nabla(i)) for i in range(3))
            rights = all(is_nilpotent_matrix(p.right_mult(i)) for i in range(3))
            assert lefts == rights is True
    # numeric certificate, once per distinct non-flat connection tensor
    seen = set()
    checked = 0
    for entry, w, g, cps, conn in all_connections():
        if curvature(conn).is_flat or conn.tensor in seen:
            continue
        seen.add(conn.tensor)
        cert = quadratic_geodesic_certificate(conn, seed=0)
        assert cert.verdict, (entry.salamon, w.name, cert.details)
        assert cert.details["max_relative_residual"] <= GEODESIC_REL_TOL
        assert cert.details["t_max"] == 10.0
        checked += 1
    assert checked >= 6
    # flat connections carry the exact trace certificate
    for entry, w, g, cps, conn in all_connections():
        if not curvature(conn).is_flat:
            continue
        p = LSAProduct(conn.algebra, conn.tensor)
        assert all(p.right_mult(j).trace() == 0 for j in range(6))


CIRCLE_CONSTANTS = (Q(1), Q(2), Q(3), Q(1, 2), Q(-1), Q(-2), Q(5), Q(2, 3), Q(-1, 3), Q(7))


@criterion(8, "the connection does not move under rational rotations of E")
def test_criterion_08_rotation_invariance():
    points = []
    for c in CIRCLE_CONSTANTS:
        d = c * c + 1
        points.append(((c * c - 1) / d, 2 * c / d))
    assert len(points) == 10
    seen = set()
    for entry, w, g, cps, conn in all_connections():
        key = (id(g), conn.tensor)
        if key in seen:
            continue
        seen.add(key)
        for p, qq in points:
            assert p * p + qq * qq == 1
            e_theta = rotate_product_rational_angle(cps, p, qq)
            rotated = assemble_cps(g, cps.j, e_theta)
            assert cp_connection(rotated) == conn, (entry.salamon, w.name, (p, qq))


@criterion(9, "hypercomplex lifts: doubled tables, Obata verdicts, quaternions")
def test_criterion_09_hypercomplex():
    # the doubled (0,0,0,12,13,14) tables, verbatim
    row9 = next(e for e in table_rows() if e.salamon == "(0,0,0,12,13,14)")
    explicit = {w.name: w for w in row9.witnesses if w.family == "Explicit"}
    lifts = {}
    for name, w in explicit.items():
        _, cps = witness_structure(w)
        ghat, h = lift_cps(cps)
        lifts[name] = (ghat, h, cps)
    ghat, h1, cps1 = lifts["split-flat"]
    hat = lambda i: basis_vec(12, 6 + i)  # noqa: E731
    plain = lambda i: basis_vec(12, i)  # noqa: E731
    neg = lambda v: tuple(-x for x in v)  # noqa: E731
    br = lambda i, j: ghat.bracket(plain(i), plain(j))  # noqa: E731
    assert br(0, 1) == neg(plain(3)) and br(6, 7) == plain(3)
    assert br(0, 2) == neg(plain(4)) and br(6, 8) == plain(4)
    assert br(0, 3) == neg(plain(5)) and br(6, 9) == plain(5)
    assert br(6, 1) == neg(hat(3)) and br(0, 7) == neg(hat(3))
    assert br(6, 2) == neg(hat(4)) and br(0, 8) == neg(hat(4))
    assert br(6, 3) == neg(hat(5)) and br(0, 9) == neg(hat(5))
    for i, sign in ((0, 1), (2, 1), (4, 1), (1, -1), (3, -1), (5, -1)):
        assert h1.j1.col(i) == tuple(Q(sign) * x for x in hat(i))
    for i in (0, 2, 4):  # J e1 = -e2 and so on, on both copies
        assert h1.j2.col(i) == neg(plain(i + 1))
        assert h1.j2.col(6 + i) == neg(hat(i + 1))
    _, h2, _ = lifts["split-nonflat"]
    for i, sign in ((0, 1), (3, 1), (5, 1), (1, -1), (2, -1), (4, -1)):
        assert h2.j1.col(i) == tuple(Q(sign) * x for x in hat(i))
    # Obata verdicts for the two explicit structures
    verdicts = {}
    for name, (_, h, cps) in lifts.items():
        ob = obata_connection(h, cp_connection(cps))
        rep = curvature(ob)
        assert rep.is_ricci_flat
        verdicts[name] = rep.is_flat
    assert verdicts == {"split-flat": True, "split-nonflat": False}
    # every witness lift: quaternion relations, integrability, Ricci-flat
    for entry, w, g, cps, conn in all_connections():
        gh, h = lift_cps(cps)
        assert jacobi_defect(gh) == []
        assert validate_hypercomplex(h) == []
        ob = obata_connection(h, conn)
        rep = curvature(ob)
        assert rep.is_ricci_flat, (entry.salamon, w.name)
        assert rep.is_flat == curvature(conn).is_flat


@criterion(10, "the Fried product and the 8-dimensional example")
def test_criterion_10_examples():
    n4, lsa = fried_example()
    assert lsa_defects(lsa) == {"left_symmetry": [], "compatibility": []}
    assert lsa_is_complete(lsa)
    assert not lsa.nabla(3).is_zero()
    g8, cps8 = eight_dim_example()
    assert center(g8).dim == 1
    assert jacobi_defect(g8) == []
    assert cps8.plus.dim == cps8.minus.dim == 4


@criterion(11, "parser round trips and the worked dual-bracket example")
def test_criterion_11_parser():
    strings = [e.salamon for e in table_rows()] + list(EXCLUDED)
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
