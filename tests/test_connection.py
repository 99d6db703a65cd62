"""Canonical connection, curvature, LSA structures, completeness."""

import math
import random
from itertools import combinations_with_replacement
from fractions import Fraction as Q

import pytest

from cpslie.catalog import build_family, load_catalog, witness_structure
from cpslie.connection import (
    GEODESIC_MAX_DEGREE,
    GEODESIC_POINT_BUDGET,
    Connection,
    _grid,
    _grid_size,
    connection_is_complete_certificate,
    cp_connection,
    curvature,
    exact_polynomial_geodesic_certificate,
    lsa_is_complete,
    torsion_defect,
)
from cpslie.lie import LieAlgebra, ThreeDimType, center
from cpslie.linalg import QMatrix, basis_vec, vec
from cpslie.salamon import parse_salamon
from cpslie.structures import assemble_cps, rotate_product
from examples import (
    coordinates,
    eight_dim_example,
    family_flatness_value,
    fried_example,
    heisenberg_complex_examples,
    is_nilpotent,
    is_nilpotent_matrix,
    lower_central_series,
    nablas,
    obata_connection,
    rank,
    ref_parallel_defect,
    restrict_to_lsa,
    ricci_via_trace_identity,
    right_mult,
    vec_sub,
)
from geodesic_reference import taylor_least_degree, taylor_vanishing
from table_helper import tensor_from_table

PARAMS = {"A": 2, "B": 3, "C": 5, "D": 7, "E": 11, "F": 13}


def family_connection(family, params):
    g, cps = build_family(family, params)
    return g, cps, cp_connection(cps)


def x_block(conn, i):
    """The 3x3 matrix X with nabla_{e_i} = diag(X, X) in the family bases."""
    m = nablas(conn)[i]
    plus = [[m.entry(r, c) for c in range(3)] for r in range(3)]
    minus = [[m.entry(3 + r, 3 + c) for c in range(3)] for r in range(3)]
    assert plus == minus, "nabla_z must act identically on both eigenspace bases"
    for r in range(3):
        for c in range(3):
            assert m.entry(r, 3 + c) == 0 and m.entry(3 + r, c) == 0
    return QMatrix(plus)


def test_family_100_connection_matrices():
    a, b, c, d, e, f = (Q(PARAMS[k]) for k in "ABCDEF")
    _, _, conn = family_connection("H3R_00", PARAMS)
    assert x_block(conn, 0) == QMatrix([[0, 0, 0], [c, 0, 0], [d, f, 0]])
    assert x_block(conn, 1) == QMatrix([[0, 0, 0], [0, 0, 0], [f, 0, 0]])
    assert x_block(conn, 3) == QMatrix([[0, 0, 0], [-a, 0, 0], [-b, -e, 0]])
    assert x_block(conn, 4) == QMatrix([[0, 0, 0], [0, 0, 0], [-e, 0, 0]])
    assert nablas(conn)[2].is_zero() and nablas(conn)[5].is_zero()


def test_family_110_connection_matrices():
    a, b, c, d, e, f = (Q(PARAMS[k]) for k in "ABCDEF")
    _, _, conn = family_connection("H3R_10", PARAMS)
    assert x_block(conn, 0) == QMatrix([[0, 0, 0], [c, 0, 0], [d, f + 1, 0]])
    assert x_block(conn, 1) == QMatrix([[0, 0, 0], [0, 0, 0], [f, 0, 0]])
    assert x_block(conn, 3) == QMatrix([[0, 0, 0], [-a, 0, 0], [-b, -e, 0]])
    assert x_block(conn, 4) == QMatrix([[0, 0, 0], [0, 0, 0], [-e, 0, 0]])
    assert nablas(conn)[2].is_zero() and nablas(conn)[5].is_zero()


def test_family_connection_single_entry_example():
    _, _, conn = family_connection("H3R_00", {"A": 1, "F": Q(9, 2)})
    m = x_block(conn, 1)
    assert m.entry(2, 0) == Q(9, 2)
    assert sum(1 for r in range(3) for c in range(3) if m.entry(r, c) != 0) == 1


def test_abelian_cps_has_zero_connection():
    g = LieAlgebra.from_brackets(6, {})
    z = QMatrix.zeros(3, 3)
    i3 = QMatrix.identity(3)
    j = QMatrix.block([[z, i3.scale(-1)], [i3, z]])
    e = QMatrix.diag_blocks(i3, i3.scale(-1))
    conn = cp_connection(assemble_cps(g, j, e))
    assert all(m.is_zero() for m in nablas(conn))


def test_r4_connections_land_in_central_ideal():
    # the quotient-R4 families: nabla_x y lies in u = span{e3, f3} and
    # nabla vanishes on u
    for family, params in (
        ("R4_00", {"A1": 1, "B2": -2, "D1": 3, "D2": 5}),
        ("R4_10", {"A1": 2, "A2": 1, "C1": -1, "C2": 4, "D1": 1, "D2": -3}),
    ):
        _, _, conn = family_connection(family, params)
        u_coords = {2, 5}
        for i in range(6):
            for jdx in range(6):
                w = conn.tensor.contract(basis_vec(6, i), basis_vec(6, jdx))
                assert all(w[k] == 0 for k in range(6) if k not in u_coords)
        assert nablas(conn)[2].is_zero() and nablas(conn)[5].is_zero()


def test_torsion_defect_examples():
    _, _, conn = family_connection("H3R_10", PARAMS)
    assert torsion_defect(conn) == []

    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    zero_conn = Connection(h3, tensor_from_table([[(0, 0, 0)] * 3 for _ in range(3)]))
    assert torsion_defect(zero_conn)

    ab = LieAlgebra.from_brackets(3, {})
    assert torsion_defect(Connection(ab, tensor_from_table([[(0, 0, 0)] * 3 for _ in range(3)]))) == []


def test_parallelism_including_rotations():
    g, cps, conn = family_connection("H3R_10", PARAMS)
    assert ref_parallel_defect(conn, cps.j) == []
    assert ref_parallel_defect(conn, cps.e) == []
    e_theta = rotate_product(cps.j, cps.e, 2)  # the circle point (3/5, 4/5)
    assert ref_parallel_defect(conn, e_theta) == []


def test_curvature_closed_form_family_100():
    a, b, c, d, e, f = (Q(PARAMS[k]) for k in "ABCDEF")
    _, _, conn = family_connection("H3R_00", PARAMS)
    rep = curvature(conn)
    coeff = -2 * (a * f - c * e)
    r_e1_f1 = rep.r[0, 3]
    assert r_e1_f1.apply(basis_vec(6, 0)) == vec((0, 0, coeff, 0, 0, 0))
    assert r_e1_f1.apply(basis_vec(6, 3)) == vec((0, 0, 0, 0, 0, coeff))
    # every other curvature operator vanishes
    for (i, jdx), m in rep.r.items():
        if (i, jdx) != (0, 3):
            assert m.is_zero()


def test_curvature_closed_form_family_110():
    a, b, c, d, e, f = (Q(PARAMS[k]) for k in "ABCDEF")
    _, _, conn = family_connection("H3R_10", PARAMS)
    rep = curvature(conn)
    coeff = -(2 * (a * f - c * e) + a)
    r_e1_f1 = rep.r[0, 3]
    assert r_e1_f1.apply(basis_vec(6, 0)) == vec((0, 0, coeff, 0, 0, 0))
    assert r_e1_f1.apply(basis_vec(6, 3)) == vec((0, 0, 0, 0, 0, coeff))


def test_flatness_iff_closed_form_on_grids():
    rng = random.Random(1)
    for family in ("H3R_00", "H3R_10"):
        flats = nonflats = 0
        for _ in range(25):
            params = {k: Q(rng.randint(-4, 4), rng.randint(1, 2)) for k in "ABCDEF"}
            if params["A"] ** 2 + params["C"] ** 2 == 0:
                params["A"] = Q(1)
            value = family_flatness_value(family, params)
            _, _, conn = family_connection(family, params)
            assert curvature(conn).is_flat == (value == 0)
            flats += value == 0
            nonflats += value != 0
        assert nonflats > 0
        # force a few flat tuples too
        for _ in range(5):
            c, e = Q(rng.randint(1, 4)), Q(rng.randint(1, 4))
            if family == "H3R_00":
                a, f = c, e  # AF = CE
            else:
                f = Q(rng.randint(-3, 3))
                if 2 * f + 1 == 0:
                    f += 1
                a = 2 * c * e / (2 * f + 1)
            params = {"A": a, "B": Q(rng.randint(-2, 2)), "C": c, "D": Q(0), "E": e, "F": f}
            assert family_flatness_value(family, params) == 0
            _, _, conn = family_connection(family, params)
            assert curvature(conn).is_flat


def test_ricci_vanishes_and_matches_trace_identity():
    for family, params in (
        ("H3R_00", PARAMS),
        ("H3R_10", PARAMS),
        ("H3R_00", {"A": 1, "F": 1}),
        ("R4_10", {"D1": 1, "A2": 1}),
    ):
        _, _, conn = family_connection(family, params)
        rep = curvature(conn)
        assert rep.traceless
        assert rep.is_ricci_flat
        assert ricci_via_trace_identity(conn) == rep.ricci


def test_curvature_still_computed_with_torsion():
    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    zero_conn = Connection(h3, tensor_from_table([[(0, 0, 0)] * 3 for _ in range(3)]))
    rep = curvature(zero_conn)
    assert rep.is_flat and torsion_defect(zero_conn)


def test_the_flat_zero_connection_with_torsion_has_polynomial_geodesics():
    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    zero_conn = Connection(h3, tensor_from_table([[(0, 0, 0)] * 3 for _ in range(3)]))
    cert = exact_polynomial_geodesic_certificate(zero_conn)
    # the zero connection's geodesics are straight lines
    assert cert["method"] == "exact-polynomial-geodesic" and cert["verdict"] and cert["details"]["degree"] <= 2


def test_abelian_cps_on_two_step_algebras_is_flat():
    for entry in load_catalog():
        for w in entry.witnesses:
            if set(w.double_type) != {ThreeDimType.ABELIAN3}:
                continue
            g, cps = witness_structure(w)
            if len(lower_central_series(g)) > 3:  # more than 2-step
                continue
            assert curvature(cp_connection(cps)).is_flat


def test_restrict_to_lsa_abelian_side_is_trivial():
    g, cps = build_family("R4_00", {"A1": 1, "D2": 1})
    p = restrict_to_lsa(cps, "minus")
    # abelian eigenspace of an abelian CPS on this family: the product is
    # commutative (torsion-free over a zero bracket), flat and complete, not zero
    assert p.algebra.structure.side.is_zero()
    assert torsion_defect(p) == [] and curvature(p).is_flat
    assert lsa_is_complete(p) and not nablas(p)[0].is_zero()


def test_restrict_to_lsa_heisenberg_side_kills_center():
    # central elements of the h3 side act trivially (Fried-Goldman)
    _, cps = heisenberg_complex_examples()[1]
    p = restrict_to_lsa(cps, "minus")
    z = center(p.algebra)
    assert z.dim == 1
    for zv in z.basis_vectors():
        m = QMatrix.zeros(3, 3)
        for i, c in enumerate(zv):
            if c != 0:
                m = m + nablas(p)[i].scale(c)
        assert m.is_zero()
    assert lsa_is_complete(p)


def test_restrict_to_lsa_matches_per_pair_coordinates():
    """On every witness and both sides, the little algebra and the LSA tensor
    hold the eigenspace coordinates of [x_a, x_b] and x_a . x_b, pair by pair."""
    for entry in load_catalog():
        for w in entry.witnesses:
            g, cps = witness_structure(w)
            conn = cp_connection(cps)
            for side, sub in (("plus", cps.plus), ("minus", cps.minus)):
                p = restrict_to_lsa(cps, side)
                basis, m = sub.basis_vectors(), sub.dim
                assert p.algebra.dim == m
                for a in range(m):
                    for b in range(m):
                        ea, eb = basis_vec(m, a), basis_vec(m, b)
                        assert p.algebra.bracket(ea, eb) == coordinates(sub, g.bracket(basis[a], basis[b]))
                        assert p.tensor.contract(ea, eb) == coordinates(sub, conn.tensor.contract(basis[a], basis[b]))


def test_fried_lsa_table():
    n4, lsa = fried_example()
    e = lambda i: basis_vec(4, i)  # noqa: E731
    assert lsa.tensor.contract(e(1), e(3)) == vec((-1, 0, 0, 0))
    assert lsa.tensor.contract(e(0), e(1)) == vec((0, 0, 1, 0))
    for i in range(4):
        for jdx in range(4):
            lhs = vec(
                tuple(
                    x - y
                    for x, y in zip(lsa.tensor.contract(e(i), e(jdx)), lsa.tensor.contract(e(jdx), e(i)))
                )
            )
            assert lhs == n4.bracket(e(i), e(jdx))
    assert lsa_is_complete(lsa)
    assert not nablas(lsa)[3].is_zero()


def test_lsa_completeness_counterexample():
    # x . y = x on a 1-dimensional algebra: right multiplication is the identity
    one = LieAlgebra.from_brackets(1, {})
    p = Connection(one, tensor_from_table([[(1,)]]))
    assert torsion_defect(p) == [] and curvature(p).is_flat
    assert not lsa_is_complete(p)


def test_completeness_certificates_by_case():
    # flat quotient-R4 witness: exact trace argument
    _, cps = build_family("R4_10", {"A1": 1, "C2": 2})
    cert = connection_is_complete_certificate(cps, curvature(cp_connection(cps)).is_flat)
    assert cert["method"] == "segal-trace" and cert["verdict"]

    # non-flat (110) witness: exact quadratic geodesics, and the Taylor reference agrees
    _, cps = build_family("H3R_10", {"A": 1, "F": 1})
    conn = cp_connection(cps)
    cert = connection_is_complete_certificate(cps, curvature(conn).is_flat)
    assert cert["method"] == "exact-polynomial-geodesic" and cert["verdict"] and cert["details"]["degree"] <= 2
    assert taylor_least_degree(conn) == cert["details"]["degree"]

    # flat (100) slice AF = CE: exact certificate again
    _, cps = build_family("H3R_00", {"A": 2, "F": 3, "C": 2, "E": 3})
    cert = connection_is_complete_certificate(cps, curvature(cp_connection(cps)).is_flat)
    assert cert["method"] == "segal-trace" and cert["verdict"]


def test_geodesic_vector_field_matches_displayed_system():
    # for the alpha=beta=0 family, -nabla_x x expands to
    #   a1' = 0,  a2' = -C a1^2 + A a1 b1,
    #   a3' = -D a1^2 - 2F a1 a2 + B a1 b1 + E a2 b1 + E a1 b2,
    # and the mirrored equations for b1', b2', b3' (the b3 cross term is
    # +2E b1 b2: apply the symmetry e<->f, A<->-C, B<->-D, E<->-F to a3');
    # constants and linear/quadratic degrees per coordinate follow
    a, b, c, d, e, f = (Q(PARAMS[k]) for k in "ABCDEF")
    _, _, conn = family_connection("H3R_00", PARAMS)
    rng = random.Random(9)
    for _ in range(8):
        a1, a2, a3, b1, b2, b3 = (Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6))
        x = vec((a1, a2, a3, b1, b2, b3))
        rhs = tuple(-t for t in conn.tensor.contract(x, x))
        expected = vec(
            (
                0,
                -c * a1 * a1 + a * a1 * b1,
                -d * a1 * a1 - 2 * f * a1 * a2 + b * a1 * b1 + e * a2 * b1 + e * a1 * b2,
                0,
                -c * a1 * b1 + a * b1 * b1,
                -d * a1 * b1 - f * a1 * b2 - f * a2 * b1 + b * b1 * b1 + 2 * e * b1 * b2,
            )
        )
        assert rhs == expected


def test_ricci_against_brute_force_on_nonvanishing_example():
    # symmetric random gamma on an abelian algebra is torsion-free but
    # generically neither flat nor Ricci-flat; the direct trace definition
    # is the oracle here
    rng = random.Random(13)
    g = LieAlgebra.from_brackets(4, {})
    gamma = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for jdx in range(i, 4):
            w = tuple(Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4))
            gamma[i][jdx] = w
            gamma[jdx][i] = w
    conn = Connection(g, tensor_from_table(gamma))
    assert torsion_defect(conn) == []
    rep = curvature(conn)
    assert not rep.is_flat and not rep.is_ricci_flat

    def r_operator(a, b):
        na, nb = nablas(conn)[a], nablas(conn)[b]
        return na @ nb - nb @ na  # brackets vanish on an abelian algebra

    for i in range(4):
        for jdx in range(4):
            cols = [r_operator(z, i).apply(basis_vec(4, jdx)) for z in range(4)]
            oracle = sum((cols[z][z] for z in range(4)), Q(0))
            assert rep.ricci.entry(i, jdx) == oracle


def lsa_defects_by_products(p):
    """Reference: the LSA axioms evaluated product by product on basis triples."""
    n, dot = p.algebra.dim, p.tensor.contract
    e = [basis_vec(n, i) for i in range(n)]
    left = []
    for i in range(n):
        for jdx in range(n):
            for k in range(n):
                lhs = vec_sub(dot(e[i], dot(e[jdx], e[k])), dot(dot(e[i], e[jdx]), e[k]))
                rhs = vec_sub(dot(e[jdx], dot(e[i], e[k])), dot(dot(e[jdx], e[i]), e[k]))
                if lhs != rhs:
                    left.append((i, jdx, k))
    compat = [
        (i, jdx)
        for i in range(n)
        for jdx in range(i + 1, n)
        if vec_sub(dot(e[i], e[jdx]), dot(e[jdx], e[i])) != p.algebra.bracket(e[i], e[jdx])
    ]
    return {"left_symmetry": left, "compatibility": compat}


def test_lsa_product_accepts_exactly_what_the_product_reference_accepts():
    """An LSA is checked as a connection with no `torsion_defect` and a flat
    `curvature`; the reference checks the LSA axioms product by product.  The
    torsion is zero exactly when compatibility holds, and then the curvature
    is flat exactly when left symmetry holds."""
    rng = random.Random(2006)
    algebras = [LieAlgebra.from_brackets(3, {}), parse_salamon("(0,0,12)"), parse_salamon("(0,0,12,13)")]

    def entry():
        return Q(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.2 else Q(0)

    # two planted products on an abelian plane: a symmetric one, torsion-free
    # but not flat, and e_0 . e_1 = e_0 alone, which has torsion
    plane, z = LieAlgebra.from_brackets(2, {}), (0, 0)
    conns = [Connection(plane, tensor_from_table([[(0, 1), (1, 0)], [(1, 0), z]]))]
    conns.append(Connection(plane, tensor_from_table([[z, (1, 0)], [z, z]])))
    assert torsion_defect(conns[0]) == [] and not curvature(conns[0]).is_flat and torsion_defect(conns[1])
    for trial in range(120):
        g = algebras[trial % len(algebras)]
        n = g.dim
        gamma = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        if trial % 2:
            # make it torsion-free: e_j . e_i = e_i . e_j - [e_i, e_j]
            for i in range(n):
                for jdx in range(i + 1, n):
                    gamma[jdx][i] = list(vec_sub(gamma[i][jdx], g.bracket(basis_vec(n, i), basis_vec(n, jdx))))
        conns.append(Connection(g, tensor_from_table(gamma)))
    seen, accepted = set(), 0
    for conn in conns:
        expected = lsa_defects_by_products(conn)
        seen.add((bool(expected["compatibility"]), bool(expected["left_symmetry"])))
        torsion_free = torsion_defect(conn) == []
        assert torsion_free == (expected["compatibility"] == [])
        if torsion_free:
            assert curvature(conn).is_flat == (expected["left_symmetry"] == [])
        accepted += expected == {"left_symmetry": [], "compatibility": []}
    # both outcomes of each axiom occur among the random connections
    assert {c for c, _ in seen} == {l for _, l in seen} == {False, True}
    assert 0 < accepted < 120
    # every LSA the package builds or carries passes both checks, and the reference
    lsas = [fried_example()[1]]
    cases = [cps for _, cps in heisenberg_complex_examples()]
    cases += [witness_structure(w)[1] for entry in load_catalog() for w in entry.witnesses]
    lsas += [restrict_to_lsa(cps, side) for cps in cases for side in ("plus", "minus")]
    for p in lsas:
        assert torsion_defect(p) == [] and curvature(p).is_flat
        assert lsa_defects_by_products(p) == {"left_symmetry": [], "compatibility": []}


def test_left_right_nilpotency_equivalence():
    """The trace criterion of `lsa_is_complete` against the other two
    characterizations (Kim; Segal), on every LSA the package builds or
    carries: the products on both sides of every witness, the 6-dimensional
    cp connection of every flat witness and the Fried product; and on two
    LSAs on the non-unimodular aff(R), where tr R_j and tr L_j differ: the
    complete e1 . e2 = e2 and the incomplete cp connection.  Completeness is
    basis right nilpotency, it makes the left multiplications nilpotent on a
    nilpotent algebra, and by torsion-freeness tr R_j = tr L_j - tr ad(e_j)."""
    structures = [witness_structure(w) for entry in load_catalog() for w in entry.witnesses]
    lsas = [restrict_to_lsa(cps, side) for _, cps in structures for side in ("plus", "minus")]
    flat = [cps.connection for _, cps in structures if curvature(cps.connection).is_flat]
    # aff(R), [e1, e2] = e2; its CPS is J = [[0, -1], [1, 0]], E = diag(1, -1)
    g = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
    cps = assemble_cps(g, QMatrix([[0, -1], [1, 0]]), QMatrix([[1, 0], [0, -1]]))
    aff = [Connection(g, tensor_from_table([[(0, 0), (0, 1)], [(0, 0), (0, 0)]])), cps.connection]
    assert flat and all(torsion_defect(p) == [] and curvature(p).is_flat for p in aff)
    verdicts = []
    for p in lsas + flat + [fried_example()[1]] + aff:
        n, lefts = p.algebra.dim, nablas(p)
        rights = [right_mult(p, j) for j in range(n)]
        complete = lsa_is_complete(p)
        assert complete == all(map(is_nilpotent_matrix, rights))
        if complete and is_nilpotent(p.algebra):
            assert all(map(is_nilpotent_matrix, lefts))
        for j in range(n):
            ad = p.algebra.structure.slice_matrix(basis_vec(n, j))
            assert rights[j].trace() == lefts[j].trace() - ad.trace()
        verdicts.append(complete)
    assert verdicts == [True] * (len(verdicts) - 1) + [False]
    assert [right_mult(p, 0).trace() for p in aff] == [0, 1] and nablas(aff[0])[0].trace() == 1


def nonflat_witness_structures():
    return [witness_structure(w) for entry in load_catalog() for w in entry.witnesses if not w.flat]


def test_exact_and_numeric_completeness_agree_on_witnesses():
    """The grid proof and the Taylor coefficients at numeric starts give degree 2 on every non-flat witness."""
    structures = nonflat_witness_structures()
    assert len({cp_connection(cps) for _, cps in structures}) == 7
    for _, cps in structures:
        conn = cp_connection(cps)
        cert = connection_is_complete_certificate(cps, curvature(conn).is_flat)
        assert cert["method"] == "exact-polynomial-geodesic" and cert["verdict"] is True
        assert cert["details"]["degree"] == taylor_least_degree(conn, seed=11) == 2
        assert cert["details"]["grid"] == {"order": 4, "points": 126}


@pytest.mark.parametrize("seed", [1, 2])
def test_exact_and_numeric_completeness_agree_on_benchmark_inputs(capsys, tmp_path, workloads, seed):
    """connection-report's degree on the `completeness` workload inputs equals
    the Taylor reference's, and its `completeness` is the `geodesic` payload."""
    import json

    from cpslie.cli import main
    from cpslie.lie import algebra_from_json
    from cpslie.structures import endo_from_json

    inputs = workloads.generate("completeness", seed, tmp_path)
    reports = [c for c in inputs.commands if c.kind == "connection-report"]
    assert len(reports) == 7
    for command in reports:
        assert main(list(command.argv)) == 0
        completeness = json.loads(capsys.readouterr().out)["completeness"]
        assert completeness["method"] == "exact-polynomial-geodesic" and completeness["details"]["degree"] <= 2
        assert main(["geodesic", *command.argv[1:]]) == 0
        assert completeness == json.loads(capsys.readouterr().out)
        with open(command.argv[command.argv.index("--cps") + 1]) as fh:
            data = json.load(fh)
        cps = assemble_cps(algebra_from_json(data["algebra"]), endo_from_json(data["J"], "J"), endo_from_json(data["E"], "E"))
        assert completeness["verdict"] is True
        assert completeness["details"]["degree"] == taylor_least_degree(cp_connection(cps), seed=seed) == 2


def circle_connection():
    """Symmetric gamma on the abelian R^3 with x1' = -x2 x3, x2' = x1 x3,
    x3' = 0: every geodesic is a circle, finite and not quadratic."""
    half = Q(1, 2)
    gamma = [[(0, 0, 0)] * 3 for _ in range(3)]
    gamma[1][2] = gamma[2][1] = (half, 0, 0)
    gamma[0][2] = gamma[2][0] = (0, -half, 0)
    return Connection(LieAlgebra.from_brackets(3, {}), tensor_from_table(gamma))


def blow_up_connection():
    """Gamma_11 = e_1 on the abelian R^3: x1' = -x1^2 blows up in finite time."""
    gamma = [[(0, 0, 0)] * 3 for _ in range(3)]
    gamma[0][0] = (1, 0, 0)
    return Connection(LieAlgebra.from_brackets(3, {}), tensor_from_table(gamma))


@pytest.mark.parametrize("make", [circle_connection, blow_up_connection], ids=["circles", "blow_up"])
def test_exact_and_numeric_completeness_agree_on_controls(make):
    conn = make()
    # circles are not polynomials, and x1 = 1/(t + 1/x1(0)) is not either:
    # no degree up to the cap passes, on the grid or at the numeric starts
    poly = exact_polynomial_geodesic_certificate(conn)
    assert poly["verdict"] is False and taylor_least_degree(conn) is None
    assert (poly["details"]["degree"], poly["details"]["degree_reached"]) == (None, GEODESIC_MAX_DEGREE)
    assert poly["details"]["grid"] == {"order": GEODESIC_MAX_DEGREE + 2, "points": 28}


def test_one_entry_perturbation_fails_the_exact_certificate():
    entry = next(e for e in load_catalog() if e.salamon == "(0,0,0,12,14,24)")
    _, cps = witness_structure(next(w for w in entry.witnesses if w.name == "h3r3"))
    conn = cp_connection(cps)
    cert = connection_is_complete_certificate(cps, curvature(conn).is_flat)
    assert cert["method"] == "exact-polynomial-geodesic" and cert["details"]["degree"] == taylor_least_degree(conn) == 2
    # nabla_{e1} e2 gains an e2 component
    e = lambda i: basis_vec(6, i)  # noqa: E731
    gamma = [[conn.tensor.contract(e(i), e(j)) for j in range(6)] for i in range(6)]
    gamma[0][1] = tuple(c + (k == 1) for k, c in enumerate(gamma[0][1]))
    perturbed = Connection(conn.algebra, tensor_from_table(gamma))
    # no degree up to the cap passes, on the grid or at the numeric starts,
    # and connection-report's certificate, given the perturbed connection in
    # place of the certified one, reports that search
    poly = exact_polynomial_geodesic_certificate(perturbed)
    assert poly["method"] == "exact-polynomial-geodesic" and poly["verdict"] is False
    assert taylor_least_degree(perturbed) is None
    assert (poly["details"]["degree"], poly["details"]["degree_reached"]) == (None, GEODESIC_MAX_DEGREE)
    assert poly["details"]["grid"] == {"order": GEODESIC_MAX_DEGREE + 2, "points": 462}
    assert connection_is_complete_certificate(cps._replace(connection=perturbed), curvature(perturbed).is_flat) == poly


def test_exact_certificate_is_invariant_under_dense_basis_changes():
    """Each non-flat tensor, conjugated by three seeded dense P, still has quadratic geodesics."""
    from cpslie.lie import change_basis

    structures = {}
    for g, cps in nonflat_witness_structures():
        structures.setdefault(cp_connection(cps), (g, cps))
    rng = random.Random(2006)
    for g, cps in structures.values():
        for _ in range(3):
            p = QMatrix([[rng.choice((-2, -1, 1, 2)) for _ in range(6)] for _ in range(6)])
            while rank(p) < 6:
                p = QMatrix([[rng.choice((-2, -1, 1, 2)) for _ in range(6)] for _ in range(6)])
            p_inv = p.inverse()
            conj = assemble_cps(change_basis(g, p), p_inv @ cps.j @ p, p_inv @ cps.e @ p)
            conn = cp_connection(conj)
            assert conn != cp_connection(cps)
            assert exact_polynomial_geodesic_certificate(conn)["details"]["degree"] == 2


def test_least_degree_agrees_with_the_taylor_reference():
    """On each non-flat tensor the least degree the grid proves is 2, and so
    is the least degree of the Taylor coefficients at three seeded starts."""
    tensors = {cp_connection(cps) for _, cps in nonflat_witness_structures()}
    assert len(tensors) == 7
    for conn in tensors:
        cert = exact_polynomial_geodesic_certificate(conn)
        assert cert["verdict"] and cert["details"]["grid"] == {"order": 4, "points": 126}
        assert cert["details"]["degree"] == taylor_least_degree(conn) == 2


def quartic_examples():
    _, cps = eight_dim_example()
    return {"fried_n4": fried_example()[1], "eight_dim": cp_connection(cps)}


@pytest.mark.parametrize("name", ["fried_n4", "eight_dim"])
def test_fried_and_eight_dim_geodesics_have_degree_four(name):
    """The least degree is 4, so degrees 2 and 3 fail, as the Taylor
    reference agrees; the 8-dimensional example is the complete connection
    that a degree-2 polynomial fit, once the `geodesic` command, rejected."""
    conn = quartic_examples()[name]
    cert = exact_polynomial_geodesic_certificate(conn)
    assert cert["verdict"] is True
    assert (cert["details"]["degree"], cert["details"]["degree_reached"]) == (4, 4)
    n = conn.algebra.dim
    assert cert["details"]["grid"] == {"order": 6, "points": math.comb(n + 5, 6)}
    assert taylor_least_degree(conn) == 4


def padded_eight_dim(n):
    """The 8-dimensional example plus an abelian R^(n-8), connection padded by zeros: quartic geodesics."""
    eight = quartic_examples()["eight_dim"]
    e = lambda i: basis_vec(8, i)  # noqa: E731
    pad = (0,) * (n - 8)
    gamma = [[tuple(eight.tensor.contract(e(i), e(j))) + pad if max(i, j) < 8 else (0,) * n for j in range(n)] for i in range(n)]
    return Connection(LieAlgebra.from_brackets(n, eight.algebra.brackets()), tensor_from_table(gamma))


def test_polynomial_certificate_reaches_degree_four_in_dimension_twelve():
    """At dimension 12 the degree-4 grid has 12,376 points, under the budget."""
    cert = exact_polynomial_geodesic_certificate(padded_eight_dim(12))
    assert cert["verdict"] is True
    assert (cert["details"]["degree"], cert["details"]["degree_reached"]) == (4, 4)
    assert cert["details"]["grid"] == {"order": 6, "points": 12376}


def test_polynomial_certificate_stops_at_the_point_budget(monkeypatch):
    """At dimension 14 the grid of degree 4 has 27,132 points, over the
    budget: degrees 2 and 3 fail on 2,380 and 8,568 points, and the search
    stops there with no certificate, never building the order-6 grid."""
    from cpslie import connection

    built, grid = [], connection._grid
    monkeypatch.setattr(connection, "_grid", lambda n, order: built.append(order) or grid(n, order))
    n = 14
    cert = exact_polynomial_geodesic_certificate(padded_eight_dim(n))
    assert built == [4, 5]
    assert cert["verdict"] is False
    assert (cert["details"]["degree"], cert["details"]["degree_reached"]) == (None, 3)
    assert cert["details"]["grid"] == {"order": 5, "points": 8568}
    assert math.comb(n + 5, 6) > GEODESIC_POINT_BUDGET == cert["details"]["point_budget"]


def test_no_degree_is_tried_from_dimension_25(monkeypatch):
    """The realified double of the padded example in dimension 13 has
    dimension 26: even the degree-2 grid, 23,751 points, is over the budget,
    so no degree is tried and no grid is built."""
    from cpslie import connection

    built = []
    monkeypatch.setattr(connection, "_grid", lambda n, order: built.append(order))
    base = padded_eight_dim(13)
    cert = exact_polynomial_geodesic_certificate(obata_connection(base))
    assert built == []
    assert cert["verdict"] is False
    assert (cert["details"]["degree"], cert["details"]["degree_reached"], cert["details"]["grid"]) == (None, None, None)
    assert _grid_size(26, 2)["points"] == 23751 > GEODESIC_POINT_BUDGET


def test_degree_two_is_tried_on_every_input_the_cli_accepts():
    """The CLI reads no algebra over MAX_DIM, and the degree-2 grid fits the
    budget through dimension 24; degree 4 fits through dimension 13."""
    from cpslie.lie import MAX_DIM

    assert _grid_size(MAX_DIM, 2)["points"] <= GEODESIC_POINT_BUDGET
    assert _grid_size(24, 2)["points"] <= GEODESIC_POINT_BUDGET < _grid_size(25, 2)["points"]
    assert _grid_size(13, 4)["points"] <= GEODESIC_POINT_BUDGET < _grid_size(14, 4)["points"]


def test_principal_lattice_is_unisolvent_for_each_degree():
    """The proof step of the certificate: on the order-N grid the degree-m
    monomials, m <= N, are independent, so a homogeneous polynomial of degree
    m that vanishes there is zero; the order-(N-1) grid is too small for degree N."""

    def monomials(n, order, m):
        points = list(zip(*_grid(n, order)))
        assert len(points) == math.comb(n + order - 1, order)
        return QMatrix([[math.prod(p[i] for i in e) for e in combinations_with_replacement(range(n), m)] for p in points])

    for n, top in [*((n, top) for n in range(2, 5) for top in range(2, 7)), (6, 4)]:
        for m in range(top + 1):
            full = monomials(n, top, m)
            assert rank(full) == full.cols, (n, top, m)
        coarse = monomials(n, top - 1, top)
        assert rank(coarse) < coarse.cols, (n, top)


def test_certificate_evaluates_on_the_grid_it_reports(monkeypatch):
    """A 6-dimensional connection of degree 2 is proven on the order-4 grid
    alone, which is the grid its report names."""
    from cpslie import connection

    built, grid = [], connection._grid
    monkeypatch.setattr(connection, "_grid", lambda n, order: built.append(order) or grid(n, order))
    _, cps = nonflat_witness_structures()[0]
    cert = exact_polynomial_geodesic_certificate(cp_connection(cps))
    assert built == [4]
    assert (cert["details"]["degree"], cert["details"]["grid"]) == (2, {"order": 4, "points": 126})


def test_taylor_coefficients_stay_zero_after_the_first_zero():
    """The lemma behind the certificate, read off the reference: once a
    Taylor coefficient vanishes at the seeded starts, every later one up to
    v_9 does, on each non-flat cp tensor and its Obata lift, the quartic
    examples and the zero connection.  On the Obata lifts the certificate's
    degree is the reference's."""
    tensors = {cp_connection(cps): cps for _, cps in nonflat_witness_structures()}
    lifts = [obata_connection(conn) for conn in tensors]
    zero = Connection(LieAlgebra.from_brackets(3, {}), tensor_from_table([[(0, 0, 0)] * 3] * 3))
    for conn in [*tensors, *lifts, *quartic_examples().values(), zero]:
        vanishes = taylor_vanishing(conn)
        assert not vanishes[0] and all(vanishes[vanishes.index(True):]), vanishes
    for conn in lifts:
        assert exact_polynomial_geodesic_certificate(conn)["details"]["degree"] == taylor_least_degree(conn) == 2
