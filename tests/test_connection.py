"""Canonical connection, curvature, LSA structures, completeness."""

import math
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
    exact_quadratic_geodesic_certificate,
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
from cpslie.linalg import QMatrix, basis_vec, rank, vec, vec_sub
from cpslie.salamon import parse_salamon
from cpslie.structures import assemble_cps, rotate_product_rational_angle
from table_helper import tensor_from_table

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
                w = conn.apply(basis_vec(6, i), basis_vec(6, jdx))
                assert all(w[k] == 0 for k in range(6) if k not in u_coords)
        assert conn.nabla(2).is_zero() and conn.nabla(5).is_zero()


def test_torsion_defect_examples():
    _, _, conn = family_connection("H3R_10", PARAMS)
    assert torsion_defect(conn) == []

    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    zero_conn = Connection(h3, tensor_from_table([[(0, 0, 0)] * 3 for _ in range(3)]))
    assert torsion_defect(zero_conn)

    ab = LieAlgebra.abelian(3)
    assert torsion_defect(Connection(ab, tensor_from_table([[(0, 0, 0)] * 3 for _ in range(3)]))) == []


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
    zero_conn = Connection(h3, tensor_from_table([[(0, 0, 0)] * 3 for _ in range(3)]))
    with pytest.raises(TorsionError):
        ricci_via_trace_identity(zero_conn)


def test_curvature_still_computed_with_torsion():
    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    zero_conn = Connection(h3, tensor_from_table([[(0, 0, 0)] * 3 for _ in range(3)]))
    rep = curvature(zero_conn)
    assert rep.is_flat and torsion_defect(zero_conn)


def test_flat_connection_with_torsion_gets_the_exact_geodesic_certificate():
    # a flat connection is an LSA only when torsion-free, so the trace branch is guarded
    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    zero_conn = Connection(h3, tensor_from_table([[(0, 0, 0)] * 3 for _ in range(3)]))
    cert = connection_is_complete_certificate(curvature(zero_conn))
    # the zero connection's geodesics are straight lines
    assert cert.method == "exact-quadratic-geodesic" and cert.verdict


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
                m = m + p.nabla(i).scale(c)
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
                        assert p.algebra.bracket(ea, eb) == sub.coordinates(g.bracket(basis[a], basis[b]))
                        assert p.apply(ea, eb) == sub.coordinates(conn.apply(basis[a], basis[b]))


def test_fried_lsa_table():
    n4, lsa = fried_example()
    e = lambda i: basis_vec(4, i)  # noqa: E731
    assert lsa.apply(e(1), e(3)) == vec((-1, 0, 0, 0))
    assert lsa.apply(e(0), e(1)) == vec((0, 0, 1, 0))
    for i in range(4):
        for jdx in range(4):
            lhs = vec(
                tuple(
                    x - y
                    for x, y in zip(lsa.apply(e(i), e(jdx)), lsa.apply(e(jdx), e(i)))
                )
            )
            assert lhs == n4.bracket(e(i), e(jdx))
    assert lsa_is_complete(lsa)
    assert not lsa.nabla(3).is_zero()


def test_lsa_completeness_counterexample():
    # x . y = x on a 1-dimensional algebra: right multiplication is the identity
    one = LieAlgebra.abelian(1)
    p = LSAProduct(one, tensor_from_table([[(1,)]]))
    assert not lsa_is_complete(p)


def test_completeness_certificates_by_case():
    # flat quotient-R4 witness: exact trace argument
    _, cps = build_family("R4_10", {"A1": 1, "C2": 2})
    cert = connection_is_complete_certificate(curvature(cp_connection(cps)))
    assert cert.method == "segal-trace" and cert.verdict

    # non-flat (110) witness: exact quadratic geodesics, and the numeric fit agrees
    _, cps = build_family("H3R_10", {"A": 1, "F": 1})
    conn = cp_connection(cps)
    cert = connection_is_complete_certificate(curvature(conn))
    assert cert.method == "exact-quadratic-geodesic" and cert.verdict
    numeric = quadratic_geodesic_certificate(conn)
    assert numeric.verdict and numeric.details["max_relative_residual"] <= 1e-6

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
    e = lambda i: basis_vec(n, i)  # noqa: E731
    gam = np.array([[[float(c) for c in conn.apply(e(i), e(j))] for j in range(n)] for i in range(n)])
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
    conn = Connection(LieAlgebra.abelian(n), tensor_from_table(gamma))
    initial = _geodesic_initial_conditions(n, seed)
    _, values = integrate_geodesics(conn, initial, t_max=0.05)
    reference = einsum_rk4(conn, initial, t_max=0.05)
    assert np.all(np.isfinite(reference))
    assert np.allclose(values, reference, rtol=1e-12, atol=1e-12)


def circle_connection():
    """Symmetric gamma on the abelian R^3 with x1' = -x2 x3, x2' = x1 x3,
    x3' = 0: every geodesic is a circle, finite and not quadratic."""
    half = Q(1, 2)
    gamma = [[(0, 0, 0)] * 3 for _ in range(3)]
    gamma[1][2] = gamma[2][1] = (half, 0, 0)
    gamma[0][2] = gamma[2][0] = (0, -half, 0)
    return Connection(LieAlgebra.abelian(3), tensor_from_table(gamma))


def test_quadratic_geodesic_certificate_rejects_finite_circles():
    rep = quadratic_geodesic_certificate(circle_connection())
    residual = rep.details["max_relative_residual"]
    assert rep.verdict is False
    assert residual is not None and math.isfinite(residual)
    assert residual == pytest.approx(1.33130988090621, rel=1e-9)


def polyfit_residual(times, values):
    """Reference for the fit of `quadratic_geodesic_certificate`: one
    polyfit and polyval per coordinate series; None when a relative
    residual is not finite."""
    import numpy as np

    worst = 0.0
    for b in range(values.shape[1]):
        for k in range(values.shape[2]):
            series = values[:, b, k]
            coeffs = np.polynomial.polynomial.polyfit(times, series, 2)
            fitted = np.polynomial.polynomial.polyval(times, coeffs)
            r = float(np.max(np.abs(series - fitted))) / max(1.0, float(np.max(np.abs(series))))
            if not math.isfinite(r):
                return None
            worst = max(worst, r)
    return worst


def test_quadratic_fit_matches_polyfit_reference(monkeypatch):
    """The orthonormal-basis projection sums in another order than the
    per-series least squares, so residuals agree up to rounding: to 1e-12
    on the exactly quadratic witness geodesics and to 1e-9 relative on the
    circles, with the same verdicts.  Each connection is integrated once
    from the initial conditions of all its seeds, and the certificate is
    handed the rows of its own seed."""
    import cpslie.connection as connection

    real = connection.integrate_geodesics
    shared = {}

    def share(conn, seeds):
        row = {}
        for seed in seeds:
            for v in _geodesic_initial_conditions(conn.algebra.dim, seed):
                row.setdefault(v, len(row))
        shared[conn] = (*real(conn, list(row)), row)

    def integrate_once(conn, initial, **kwargs):
        times, values, row = shared[conn]
        return times, values[:, [row[v] for v in initial], :]

    def certificate_and_reference(conn, seed):
        rep = quadratic_geodesic_certificate(conn, seed=seed)
        initial = _geodesic_initial_conditions(conn.algebra.dim, seed)
        return rep, polyfit_residual(*integrate_once(conn, initial))

    monkeypatch.setattr(connection, "integrate_geodesics", integrate_once)
    tensors = {}
    for entry in load_catalog():
        for w in entry.witnesses:
            if not w.flat:
                tensors.setdefault(cp_connection(witness_structure(w)[1]), w.name)
    assert len(tensors) == 7
    for conn in tensors:
        share(conn, range(3))
        for seed in range(3):
            rep, reference = certificate_and_reference(conn, seed)
            assert rep.verdict is (reference <= connection.GEODESIC_REL_TOL)
            assert abs(rep.details["max_relative_residual"] - reference) <= 1e-12
    circle = circle_connection()
    share(circle, [0])
    rep, reference = certificate_and_reference(circle, 0)
    assert rep.verdict is False and reference > connection.GEODESIC_REL_TOL
    assert rep.details["max_relative_residual"] == pytest.approx(reference, rel=1e-9)


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
    conn = Connection(g, tensor_from_table(gamma))
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
        LSAProduct(g, tensor_from_table(gamma))
    p = Connection(g, tensor_from_table(gamma))
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
                    gamma[jdx][i] = list(vec_sub(gamma[i][jdx], g.bracket(basis_vec(n, i), basis_vec(n, jdx))))
        p = Connection(g, tensor_from_table(gamma))
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
                left = all(is_nilpotent_matrix(p.nabla(i)) for i in range(3))
                right = all(is_nilpotent_matrix(p.right_mult(i)) for i in range(3))
                assert left and right and lsa_is_complete(p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quadratic_geodesic_certificate_fails_closed_on_non_finite(monkeypatch):
    import json

    import numpy as np

    import cpslie.connection as connection

    zero = Connection(LieAlgebra.abelian(2), tensor_from_table([[(0, 0)] * 2 for _ in range(2)]))
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


def load_bench_workloads():
    """The benchmark's input generator, `bench/workloads.py`, loaded by path."""
    import importlib.util
    import sys
    from pathlib import Path

    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        # registered before it runs, since its dataclasses look their module up
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.fixture(scope="module")
def numeric_verdict():
    """The numeric certificate's verdict, computed once per connection tensor."""
    verdicts = {}

    def verdict(conn):
        if conn not in verdicts:
            verdicts[conn] = quadratic_geodesic_certificate(conn).verdict
        return verdicts[conn]

    return verdict


def nonflat_witness_structures():
    return [witness_structure(w) for entry in load_catalog() for w in entry.witnesses if not w.flat]


def exact_reference(conn, points):
    """P4, P5 and P6 at the given rational points, from B(x,y) = (nabla_x y + nabla_y x)/2 in Fractions."""

    def b(x, y):
        return tuple((u + v) / 2 for u, v in zip(conn.apply(x, y), conn.apply(y, x)))

    def neg(x):
        return tuple(-c for c in x)

    values = []
    for x0 in points:
        x1 = neg(b(x0, x0))
        x2 = neg(b(x0, x1))
        p4 = tuple(u + 2 * v for u, v in zip(b(x1, x1), b(x0, x2)))
        values.append((p4, b(x1, x2), b(x2, x2)))
    return values


def test_exact_and_numeric_completeness_agree_on_witnesses(numeric_verdict):
    structures = nonflat_witness_structures()
    assert len({cp_connection(cps) for _, cps in structures}) == 7
    rng = random.Random(11)
    points = [vec(Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)) for _ in range(4)]
    for _, cps in structures:
        conn = cp_connection(cps)
        cert = exact_quadratic_geodesic_certificate(conn)
        assert cert.method == "exact-quadratic-geodesic"
        assert cert.verdict is numeric_verdict(conn) is True
        assert cert.details["vanishing"] == {"P4": True, "P5": True, "P6": True}
        assert cert.details["grid"] == {"order": 6, "points": 462}
        assert all(not any(values) for p in exact_reference(conn, points) for values in p)
        assert connection_is_complete_certificate(curvature(conn)) == cert


@pytest.mark.parametrize("seed", [1, 2])
def test_exact_and_numeric_completeness_agree_on_benchmark_inputs(capsys, tmp_path, numeric_verdict, seed):
    """connection-report's verdict on the `completeness` workload inputs equals the numeric one."""
    import json

    from cpslie.cli import main
    from cpslie.lie import algebra_from_json
    from cpslie.structures import endo_from_json

    inputs = load_bench_workloads().generate("completeness", seed, tmp_path)
    reports = [c for c in inputs.commands if c.kind == "connection-report"]
    assert len(reports) == 7
    for command in reports:
        assert main(list(command.argv)) == 0
        completeness = json.loads(capsys.readouterr().out)["completeness"]
        assert completeness["method"] == "exact-quadratic-geodesic"
        with open(command.argv[command.argv.index("--cps") + 1]) as fh:
            data = json.load(fh)
        cps = assemble_cps(algebra_from_json(data["algebra"]), endo_from_json(data["J"]), endo_from_json(data["E"]))
        assert completeness["verdict"] is numeric_verdict(cp_connection(cps)) is True


def blow_up_connection():
    """Gamma_11 = e_1 on the abelian R^3: x1' = -x1^2 blows up in finite time."""
    gamma = [[(0, 0, 0)] * 3 for _ in range(3)]
    gamma[0][0] = (1, 0, 0)
    return Connection(LieAlgebra.abelian(3), tensor_from_table(gamma))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [circle_connection, blow_up_connection], ids=["circles", "blow_up"])
def test_exact_and_numeric_completeness_agree_on_controls(numeric_verdict, make):
    conn = make()
    cert = exact_quadratic_geodesic_certificate(conn)
    assert cert.verdict is numeric_verdict(conn) is False
    assert cert.details["grid"] == {"order": 6, "points": 28}
    vanishing = [cert.details["vanishing"][p] for p in ("P4", "P5", "P6")]
    rng = random.Random(5)
    points = [vec(Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)) for _ in range(4)]
    reference = exact_reference(conn, points)
    assert vanishing == [all(not any(v[d]) for v in reference) for d in range(3)]


def test_one_entry_perturbation_fails_the_exact_certificate(numeric_verdict):
    entry = next(e for e in load_catalog() if e.salamon == "(0,0,0,12,14,24)")
    _, cps = witness_structure(next(w for w in entry.witnesses if w.name == "h3r3"))
    conn = cp_connection(cps)
    assert exact_quadratic_geodesic_certificate(conn).verdict
    # nabla_{e1} e2 gains an e2 component
    e = lambda i: basis_vec(6, i)  # noqa: E731
    gamma = [[conn.apply(e(i), e(j)) for j in range(6)] for i in range(6)]
    gamma[0][1] = tuple(c + (k == 1) for k, c in enumerate(gamma[0][1]))
    perturbed = Connection(conn.algebra, tensor_from_table(gamma))
    cert = exact_quadratic_geodesic_certificate(perturbed)
    assert cert.verdict is numeric_verdict(perturbed) is False
    assert cert.details["vanishing"] == {"P4": False, "P5": True, "P6": True}


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
            assert exact_quadratic_geodesic_certificate(conn).verdict
