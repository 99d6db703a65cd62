"""Canonical connection, curvature, LSA structures, completeness."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslie.catalog import (
    build_family,
    family_flatness_value,
    fried_example,
    heisenberg_complex_examples,
    load_catalog,
    witness_structure,
)
from cpslie.connection import (
    GEODESIC_STEP,
    Connection,
    LSAProduct,
    TorsionError,
    _geodesic_initial_conditions,
    connection_is_complete_certificate,
    cp_connection,
    curvature,
    integrate_geodesics,
    lsa_defects,
    lsa_is_complete,
    parallel_defect,
    quadratic_geodesic_certificate,
    restrict_to_lsa,
    ricci_via_trace_identity,
    torsion_defect,
)
from cpslie.lie import LieAlgebra, ThreeDimType, center, lower_central_series
from cpslie.linalg import QMatrix, basis_vec, vec, vec_sub
from cpslie.salamon import parse_salamon
from cpslie.structures import assemble_cps, rotate_product_rational_angle

PARAMS = {"A": 2, "B": 3, "C": 5, "D": 7, "E": 11, "F": 13}


def family_connection(family, params):
    g, cps = build_family(family, params)
    return g, cps, cp_connection(cps)


def x_block(conn, i):
    """The 3x3 matrix X with nabla_{e_i} = diag(X, X) in the family bases."""
    m = conn.nabla(i)
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
    assert conn.nabla(2).is_zero() and conn.nabla(5).is_zero()


def test_family_110_connection_matrices():
    a, b, c, d, e, f = (Q(PARAMS[k]) for k in "ABCDEF")
    _, _, conn = family_connection("H3R_10", PARAMS)
    assert x_block(conn, 0) == QMatrix([[0, 0, 0], [c, 0, 0], [d, f + 1, 0]])
    assert x_block(conn, 1) == QMatrix([[0, 0, 0], [0, 0, 0], [f, 0, 0]])
    assert x_block(conn, 3) == QMatrix([[0, 0, 0], [-a, 0, 0], [-b, -e, 0]])
    assert x_block(conn, 4) == QMatrix([[0, 0, 0], [0, 0, 0], [-e, 0, 0]])
    assert conn.nabla(2).is_zero() and conn.nabla(5).is_zero()


def test_family_connection_single_entry_example():
    _, _, conn = family_connection("H3R_00", {"A": 1, "F": Q(9, 2)})
    m = x_block(conn, 1)
    assert m.entry(2, 0) == Q(9, 2)
    assert sum(1 for r in range(3) for c in range(3) if m.entry(r, c) != 0) == 1


def test_abelian_cps_has_zero_connection():
    g = LieAlgebra.abelian(6)
    z = QMatrix.zeros(3, 3)
    i3 = QMatrix.identity(3)
    j = QMatrix.block([[z, i3.scale(-1)], [i3, z]])
    e = QMatrix.diag_blocks(i3, i3.scale(-1))
    conn = cp_connection(assemble_cps(g, j, e))
    assert all(conn.nabla(i).is_zero() for i in range(6))


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
                w = conn.gamma[i][jdx]
                assert all(w[k] == 0 for k in range(6) if k not in u_coords)
        assert conn.nabla(2).is_zero() and conn.nabla(5).is_zero()


def test_torsion_defect_examples():
    _, _, conn = family_connection("H3R_10", PARAMS)
    assert torsion_defect(conn) == []

    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    zero_conn = Connection(h3, [[(0, 0, 0)] * 3 for _ in range(3)])
    assert torsion_defect(zero_conn)

    ab = LieAlgebra.abelian(3)
    assert torsion_defect(Connection(ab, [[(0, 0, 0)] * 3 for _ in range(3)])) == []


def test_parallelism_including_rotations():
    g, cps, conn = family_connection("H3R_10", PARAMS)
    assert parallel_defect(conn, cps.j) == []
    assert parallel_defect(conn, cps.e) == []
    e_theta = rotate_product_rational_angle(cps, Q(3, 5), Q(4, 5))
    assert parallel_defect(conn, e_theta) == []


def test_curvature_closed_form_family_100():
    a, b, c, d, e, f = (Q(PARAMS[k]) for k in "ABCDEF")
    _, _, conn = family_connection("H3R_00", PARAMS)
    rep = curvature(conn)
    coeff = -2 * (a * f - c * e)
    r_e1_f1 = rep.operator(0, 3)
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
    r_e1_f1 = rep.operator(0, 3)
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


def test_ricci_trace_identity_rejects_torsion():
    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    zero_conn = Connection(h3, [[(0, 0, 0)] * 3 for _ in range(3)])
    with pytest.raises(TorsionError):
        ricci_via_trace_identity(zero_conn)


def test_curvature_still_computed_with_torsion():
    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    zero_conn = Connection(h3, [[(0, 0, 0)] * 3 for _ in range(3)])
    rep = curvature(zero_conn)
    assert rep.is_flat and torsion_defect(zero_conn)


def test_flat_connection_with_torsion_gets_the_geodesic_certificate():
    # a flat connection is an LSA only when torsion-free, so the exact branch is guarded
    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    zero_conn = Connection(h3, [[(0, 0, 0)] * 3 for _ in range(3)])
    assert connection_is_complete_certificate(curvature(zero_conn)).method == "quadratic-geodesic"


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
    # abelian eigenspace of an abelian CPS on this family: product vanishes
    assert lsa_defects(p) == {"left_symmetry": [], "compatibility": []}


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
                m = m + p.left_mult(i).scale(c)
        assert m.is_zero()
    assert lsa_is_complete(p)


def test_fried_lsa_table():
    n4, lsa = fried_example()
    e = lambda i: basis_vec(4, i)  # noqa: E731
    assert lsa.product(e(1), e(3)) == vec((-1, 0, 0, 0))
    assert lsa.product(e(0), e(1)) == vec((0, 0, 1, 0))
    for i in range(4):
        for jdx in range(4):
            lhs = vec(
                tuple(
                    x - y
                    for x, y in zip(lsa.product(e(i), e(jdx)), lsa.product(e(jdx), e(i)))
                )
            )
            assert lhs == n4.table[i][jdx]
    assert lsa_is_complete(lsa)
    assert not lsa.left_mult(3).is_zero()


def test_lsa_completeness_counterexample():
    # x . y = x on a 1-dimensional algebra: right multiplication is the identity
    one = LieAlgebra.abelian(1)
    p = LSAProduct(one, [[(1,)]])
    assert not lsa_is_complete(p)


def test_completeness_certificates_by_case():
    # flat quotient-R4 witness: exact trace argument
    _, cps = build_family("R4_10", {"A1": 1, "C2": 2})
    cert = connection_is_complete_certificate(curvature(cp_connection(cps)))
    assert cert.method == "segal-trace" and cert.verdict

    # non-flat (110) witness: numeric quadratic fit
    _, cps = build_family("H3R_10", {"A": 1, "F": 1})
    cert = connection_is_complete_certificate(curvature(cp_connection(cps)))
    assert cert.method == "quadratic-geodesic" and cert.verdict
    assert cert.details["max_relative_residual"] <= 1e-6

    # flat (100) slice AF = CE: exact certificate again
    _, cps = build_family("H3R_00", {"A": 2, "F": 3, "C": 2, "E": 3})
    cert = connection_is_complete_certificate(curvature(cp_connection(cps)))
    assert cert.method == "segal-trace" and cert.verdict


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
        rhs = tuple(-t for t in conn.apply(x, x))
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


def test_geodesic_certificate_deterministic():
    _, cps = build_family("H3R_10", {"A": 1, "C": 1})
    conn = cp_connection(cps)
    c1 = quadratic_geodesic_certificate(conn, seed=0)
    c2 = quadratic_geodesic_certificate(conn, seed=0)
    assert c1 == c2


def einsum_rk4(conn, initial, t_max, step=GEODESIC_STEP):
    """Reference RK4 for `integrate_geodesics`: the right-hand side is one
    three-operand einsum over the gamma tensor, x' = -sum_ij x_i x_j gamma_ij."""
    import numpy as np

    n = conn.algebra.dim
    gam = np.array([[[float(c) for c in conn.gamma[i][j]] for j in range(n)] for i in range(n)])
    x = np.array([[float(c) for c in v] for v in initial])
    steps = int(round(t_max / step))
    values = np.empty((steps + 1, *x.shape))
    values[0] = x

    def f(y):
        return -np.einsum("bi,bj,ijk->bk", y, y, gam)

    h = step
    for s in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        values[s + 1] = x
    return values


def test_rk4_is_bit_identical_to_einsum_reference_on_witnesses():
    """The non-flat witness tensors are sparse and their coefficients are
    signed powers of two, so every product x_i x_j gamma_ijk is exact and
    the matrix product, which may fuse each multiply with its add, rounds
    as the einsum does: the trajectories agree bit for bit."""
    import numpy as np

    tensors = {}
    for entry in load_catalog():
        for w in entry.witnesses:
            if not w.flat:
                tensors.setdefault(cp_connection(witness_structure(w)[1]), w.name)
    assert len(tensors) == 7
    initial = _geodesic_initial_conditions(6, 0)
    for conn in tensors:
        times, values = integrate_geodesics(conn, initial, t_max=0.5)
        assert values.shape == (501, len(initial), 6)
        assert np.array_equal(times, np.linspace(0.0, 0.5, 501))
        assert np.array_equal(values, einsum_rk4(conn, initial, t_max=0.5))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=-12, max_value=12).filter(bool), min_size=n**3, max_size=n**3),
        )
    ),
    st.integers(min_value=0, max_value=2**16),
)
def test_rk4_matches_einsum_reference_on_dense_connections(dense, seed):
    """On a dense tensor with coefficients such as 1/12 the matrix product
    does not round each product x_i x_j gamma_ijk on its own, so the
    trajectories agree with the einsum only up to rounding: with OpenBLAS,
    none of 200 random draws agreed bit for bit, and the worst relative
    difference was 1.4e-13."""
    import numpy as np

    n, numerators = dense
    entries = [Q(a, 12) for a in numerators]
    gamma = [[entries[(i * n + j) * n : (i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    conn = Connection(LieAlgebra.abelian(n), gamma)
    initial = _geodesic_initial_conditions(n, seed)
    _, values = integrate_geodesics(conn, initial, t_max=0.05)
    reference = einsum_rk4(conn, initial, t_max=0.05)
    assert np.all(np.isfinite(reference))
    assert np.allclose(values, reference, rtol=1e-12, atol=1e-12)


def test_ricci_against_brute_force_on_nonvanishing_example():
    # symmetric random gamma on an abelian algebra is torsion-free but
    # generically neither flat nor Ricci-flat; the direct trace definition
    # is the oracle here
    rng = random.Random(13)
    g = LieAlgebra.abelian(4)
    gamma = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for jdx in range(i, 4):
            w = tuple(Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4))
            gamma[i][jdx] = w
            gamma[jdx][i] = w
    conn = Connection(g, gamma)
    assert torsion_defect(conn) == []
    rep = curvature(conn)
    assert not rep.is_flat and not rep.is_ricci_flat

    def r_operator(a, b):
        na, nb = conn.nabla(a), conn.nabla(b)
        return na @ nb - nb @ na  # brackets vanish on an abelian algebra

    for i in range(4):
        for jdx in range(4):
            cols = [r_operator(z, i).apply(basis_vec(4, jdx)) for z in range(4)]
            oracle = sum((cols[z][z] for z in range(4)), Q(0))
            assert rep.ricci.entry(i, jdx) == oracle


def test_parallel_defect_detects_failure():
    _, _, conn = family_connection("H3R_10", PARAMS)
    # a generic diagonal endomorphism is not parallel for this connection
    bad = QMatrix([[i + 1 if i == j else 0 for j in range(6)] for i in range(6)])
    assert parallel_defect(conn, bad)


def test_lsa_constructor_rejects_non_left_symmetric_product():
    g = LieAlgebra.abelian(2)
    z = (Q(0), Q(0))
    gamma = [[(0, 1), (1, 0)], [(1, 0), z]]  # symmetric, so torsion-free
    with pytest.raises(ValueError, match="left-symmetric"):
        LSAProduct(g, gamma)
    p = Connection(g, gamma)
    assert lsa_defects(p)["left_symmetry"]


def lsa_defects_by_products(p):
    """Reference: the LSA axioms evaluated product by product on basis triples."""
    n = p.algebra.dim
    e = [basis_vec(n, i) for i in range(n)]
    left = []
    for i in range(n):
        for jdx in range(n):
            for k in range(n):
                lhs = vec_sub(p.apply(e[i], p.apply(e[jdx], e[k])), p.apply(p.apply(e[i], e[jdx]), e[k]))
                rhs = vec_sub(p.apply(e[jdx], p.apply(e[i], e[k])), p.apply(p.apply(e[jdx], e[i]), e[k]))
                if lhs != rhs:
                    left.append((i, jdx, k))
    compat = [
        (i, jdx)
        for i in range(n)
        for jdx in range(i + 1, n)
        if vec_sub(p.apply(e[i], e[jdx]), p.apply(e[jdx], e[i])) != p.algebra.bracket(e[i], e[jdx])
    ]
    return {"left_symmetry": left, "compatibility": compat}


def test_lsa_defects_match_product_reference():
    rng = random.Random(2006)
    algebras = [LieAlgebra.abelian(3), parse_salamon("(0,0,12)"), parse_salamon("(0,0,12,13)")]

    def entry():
        return Q(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.2 else Q(0)

    seen = set()
    for trial in range(120):
        g = algebras[trial % len(algebras)]
        n = g.dim
        gamma = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        if trial % 2:
            # make it torsion-free: e_j . e_i = e_i . e_j - [e_i, e_j]
            for i in range(n):
                for jdx in range(i + 1, n):
                    gamma[jdx][i] = list(vec_sub(gamma[i][jdx], g.table[i][jdx]))
        p = Connection(g, gamma)
        expected = lsa_defects_by_products(p)
        assert lsa_defects(p) == expected
        seen.add((bool(expected["compatibility"]), bool(expected["left_symmetry"])))
    # both outcomes of each axiom occur among the random connections
    assert {c for c, _ in seen} == {l for _, l in seen} == {False, True}
    lsas = [fried_example()[1]] + [restrict_to_lsa(cps, "plus") for _, cps in heisenberg_complex_examples()]
    for p in lsas:
        assert lsa_defects(p) == lsa_defects_by_products(p) == {"left_symmetry": [], "compatibility": []}


def test_left_right_nilpotency_equivalence():
    # Kim/Segal cross-check on the induced eigenspace products
    from cpslie.linalg import is_nilpotent_matrix

    for entry in load_catalog():
        for w in entry.witnesses[:2]:
            _, cps = witness_structure(w)
            for side in ("plus", "minus"):
                p = restrict_to_lsa(cps, side)
                left = all(is_nilpotent_matrix(p.left_mult(i)) for i in range(3))
                right = all(is_nilpotent_matrix(p.right_mult(i)) for i in range(3))
                assert left and right and lsa_is_complete(p)


def test_quadratic_geodesic_certificate_fails_closed_on_non_finite(monkeypatch):
    import json

    import numpy as np

    import cpslie.connection as connection

    zero = Connection(LieAlgebra.abelian(2), [[(0, 0)] * 2 for _ in range(2)])
    finite = connection.quadratic_geodesic_certificate(zero)
    assert finite.verdict is True
    assert 0 <= finite.details["max_relative_residual"] <= connection.GEODESIC_REL_TOL

    real = connection.integrate_geodesics
    for bad in (np.inf, np.nan):

        def blow_up(conn, initial, bad=bad, **kwargs):
            times, values = real(conn, initial, **kwargs)
            values[len(times) // 2 :, 0, 0] = bad
            return times, values

        monkeypatch.setattr(connection, "integrate_geodesics", blow_up)
        rep = connection.quadratic_geodesic_certificate(zero)
        assert rep.verdict is False
        assert rep.details["max_relative_residual"] is None
        json.dumps(rep.to_json(), allow_nan=False)
        assert {k: v for k, v in rep.details.items() if k != "max_relative_residual"} == {
            k: v for k, v in finite.details.items() if k != "max_relative_residual"
        }
