"""Complex and product structures, rotations, series, invariant ideals."""

from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpslie.catalog import (
    eight_dim_example,
    heisenberg_complex_examples,
    load_catalog,
    witness_structure,
)
from cpslie.lie import LieAlgebra, ThreeDimType, center
from cpslie.linalg import QMatrix, Subspace, basis_vec, intersect, map_subspace, rank
from cpslie.salamon import parse_salamon
from cpslie.structures import (
    StructureError,
    ascending_series,
    assemble_cps,
    complex_integrability_defect,
    cps_obstructions,
    double_type,
    eigenspaces,
    find_central_invariant_ideal,
    is_abelian_complex,
    mu_matrix,
    product_integrability_defect,
    rho_matrix,
    rotate_product,
    rotate_product_rational_angle,
    validate_cps,
)
from cpslie.linalg import is_nilpotent_matrix

E6 = lambda i: basis_vec(6, i)  # noqa: E731


def block_j(n):
    z = QMatrix.zeros(n, n)
    i = QMatrix.identity(n)
    return QMatrix.block([[z, i.scale(-1)], [i, z]])


def test_complex_integrability_on_abelian():
    g = LieAlgebra.abelian(6)
    assert complex_integrability_defect(g, block_j(3)) == []


def test_complex_integrability_heisenberg_example():
    g, cps = heisenberg_complex_examples()[0]
    assert complex_integrability_defect(g, cps.j) == []


def test_remark_complex_structure_is_abelian():
    # the excluded algebra still has an (abelian) complex structure with
    # J e1 = e2, J e3 = -e4, J e5 = e6
    g = parse_salamon("(0,0,0,12,13+42,14+23)")
    j = QMatrix.from_cols(
        [E6(1), tuple(-x for x in E6(0)), tuple(-x for x in E6(3)), E6(2), E6(5), tuple(-x for x in E6(4))]
    )
    assert complex_integrability_defect(g, j) == []
    assert is_abelian_complex(g, j)


def test_half_bracket_complex_structure_on_complex_heisenberg():
    # J e1 = e2, J e3 = e4, J e5 = e6 satisfies J[x,y] = [Jx,y]; such a J
    # can never belong to a CPS on a non-abelian algebra
    g = parse_salamon("(0,0,0,0,13+42,14+23)")
    j = QMatrix.from_cols(
        [E6(1), tuple(-x for x in E6(0)), E6(3), tuple(-x for x in E6(2)), E6(5), tuple(-x for x in E6(4))]
    )
    assert complex_integrability_defect(g, j) == []
    for a in range(6):
        for b in range(6):
            assert j.apply(g.bracket(E6(a), E6(b))) == g.bracket(j.col(a), E6(b))


def test_complex_integrability_requires_almost_complex():
    with pytest.raises(StructureError, match="J_square"):
        complex_integrability_defect(LieAlgebra.abelian(4), QMatrix.identity(4))


def test_complex_integrability_detects_failure():
    # on h3 x R^3, the pairing e1<->e3, e2<->e4 misses the bracket [e1,e2]
    g = parse_salamon("(0,0,0,0,0,12)")
    j = QMatrix.from_cols(
        [E6(2), E6(3), tuple(-x for x in E6(0)), tuple(-x for x in E6(1)), E6(5), tuple(-x for x in E6(4))]
    )
    defects = complex_integrability_defect(g, j)
    assert (0, 1) in [(a, b) for a, b, _ in defects]


def test_product_integrability_detects_failure():
    # eigenspaces that are not subalgebras produce a defect
    g = parse_salamon("(0,0,0,0,0,12)")
    e = QMatrix.diag_blocks(QMatrix.identity(3), QMatrix.identity(3).scale(-1))
    defects = product_integrability_defect(g, e)
    assert (0, 1) in [(a, b) for a, b, _ in defects]


def test_product_integrability_rejects_identity():
    g = LieAlgebra.abelian(4)
    with pytest.raises(StructureError, match="E_identity"):
        product_integrability_defect(g, QMatrix.identity(4))
    with pytest.raises(StructureError, match="E_identity"):
        product_integrability_defect(g, QMatrix.identity(4).scale(-1))


R4 = LieAlgebra.abelian(4)
I4 = QMatrix.identity(4)


@pytest.mark.parametrize(
    "guard, a, message",
    [
        (lambda a: complex_integrability_defect(R4, a), I4, "J_square: J^2 = -Id fails"),
        (lambda a: is_abelian_complex(R4, a), QMatrix.zeros(4, 3), "J_square: J^2 = -Id fails"),
        (lambda a: product_integrability_defect(R4, a), I4.scale(2), "E_square: E^2 = Id fails"),
        (lambda a: product_integrability_defect(R4, a), I4, "E_identity: E = +/-Id is excluded"),
        (eigenspaces, I4.scale(2), "E_square: E^2 = Id fails"),
        (eigenspaces, I4.scale(-1), "E_identity: E = +/-Id is excluded"),
    ],
    ids=["complex", "abelian_non_square", "product", "product_identity", "eigenspaces", "eigenspaces_identity"],
)
def test_public_guards_raise_the_square_failure(guard, a, message):
    with pytest.raises(StructureError) as exc:
        guard(a)
    assert str(exc.value) == message
    assert exc.value.failures == [message.partition(":")[0]]


def test_paracomplex_structure_on_excluded_algebra():
    # the excluded algebra admits product structures even though it has no CPS
    g = parse_salamon("(0,0,0,12,13+42,14+23)")
    plus = [E6(0), E6(2), E6(4)]
    minus = [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), E6(5)]
    s = QMatrix.from_cols([tuple(Q(x) for x in v) for v in plus + minus])
    d = QMatrix.diag_blocks(QMatrix.identity(3), QMatrix.identity(3).scale(-1))
    e = s @ d @ s.inverse()
    assert product_integrability_defect(g, e) == []


def test_product_integrability_split_sum():
    # h3 + R^3 split into its two factors
    g = parse_salamon("(0,0,0,0,0,12)")
    plus = [E6(0), E6(1), E6(5)]
    minus = [E6(2), E6(3), E6(4)]
    s = QMatrix.from_cols(plus + minus)
    d = QMatrix.diag_blocks(QMatrix.identity(3), QMatrix.identity(3).scale(-1))
    assert product_integrability_defect(g, s @ d @ s.inverse()) == []


def test_is_abelian_complex_examples():
    assert is_abelian_complex(LieAlgebra.abelian(6), block_j(3))
    g, cps = heisenberg_complex_examples()[0]
    assert is_abelian_complex(g, cps.j)
    g2 = parse_salamon("(0,0,0,12,13,14)")
    j = QMatrix.from_cols(
        [tuple(-x for x in E6(1)), E6(0), tuple(-x for x in E6(3)), E6(2), tuple(-x for x in E6(5)), E6(4)]
    )
    assert not is_abelian_complex(g2, j)


def test_eigenspaces_diagonal():
    e = QMatrix.diag_blocks(QMatrix.identity(3), QMatrix.identity(3).scale(-1))
    plus, minus = eigenspaces(e)
    assert plus == Subspace.from_spanning([E6(0), E6(1), E6(2)], 6)
    assert minus == Subspace.from_spanning([E6(3), E6(4), E6(5)], 6)


def test_eigenspaces_rotation_family_at_theta_zero():
    e_theta = QMatrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    plus, minus = eigenspaces(e_theta)
    assert plus == Subspace.from_spanning([(1, 0, 0, 0), (0, 0, 1, 0)], 4)
    assert minus == Subspace.from_spanning([(0, 1, 0, 0), (0, 0, 0, 1)], 4)


def test_rotation_by_one_swaps_to_diagonal_split():
    g, cps = heisenberg_complex_examples()[0]
    e2 = rotate_product(cps, 1)
    assert e2 == cps.j @ cps.e
    plus, minus = eigenspaces(e2)
    assert plus == Subspace.from_spanning(
        [(1, 0, 1, 0, 0, 0), (0, 1, 0, 1, 0, 0), (0, 0, 0, 0, 1, 1)], 6
    )
    assert minus == Subspace.from_spanning(
        [(1, 0, -1, 0, 0, 0), (0, 1, 0, -1, 0, 0), (0, 0, 0, 0, 1, -1)], 6
    )


def test_assemble_cps_heisenberg_cases():
    examples = heisenberg_complex_examples()
    types = [double_type(cps) for _, cps in examples]
    assert types[0] == (ThreeDimType.ABELIAN3, ThreeDimType.ABELIAN3)
    assert types[1] == (ThreeDimType.ABELIAN3, ThreeDimType.HEISENBERG3)
    assert types[2] == (ThreeDimType.HEISENBERG3, ThreeDimType.HEISENBERG3)


def test_assemble_cps_rejects_commuting_pair():
    g = LieAlgebra.abelian(4)
    j = block_j(2)
    e = QMatrix.diag_blocks(QMatrix.identity(2), QMatrix.identity(2).scale(-1))
    # this J maps the + eigenspace onto the - eigenspace, fine; a J preserving
    # both eigenspaces commutes with E instead
    j_commuting = QMatrix.diag_blocks(block_j(1), block_j(1))
    failures = validate_cps(g, j_commuting, e)
    assert "anticommute" in failures
    with pytest.raises(StructureError):
        assemble_cps(g, j_commuting, e)
    assert validate_cps(g, j, e) == []


def eigen_failures_by_subspaces(j, e):
    """Reference: the eigen-conditions decided on the eigenspaces themselves."""
    plus, minus = eigenspaces(e)
    out = []
    if plus.dim != minus.dim:
        out.append("eigen_dim")
    if map_subspace(j, plus) != minus:
        out.append("minus_is_J_plus")
    return out


@st.composite
def conjugated_pairs(draw):
    """A standard J and a +-1-diagonal E other than +-Id, conjugated by one
    random invertible P (both, or only one of them), so J^2 = -Id and
    E^2 = Id still hold."""
    m = draw(st.integers(1, 3))
    n = 2 * m
    plus = draw(st.integers(1, n - 1))
    signs = draw(st.permutations([1] * plus + [-1] * (n - plus)))
    entry = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    p = QMatrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(rank(p) == n)
    pinv = p.inverse()
    j = block_j(m)
    e = QMatrix([[signs[i] if i == k else 0 for k in range(n)] for i in range(n)])
    conj_j, conj_e = draw(st.sampled_from(((True, True), (True, False), (False, True))))
    return (p @ j @ pinv if conj_j else j), (p @ e @ pinv if conj_e else e)


@settings(max_examples=300, deadline=None)
@given(conjugated_pairs())
def test_eigen_conditions_match_subspace_reference(pair):
    j, e = pair
    failures = validate_cps(LieAlgebra.abelian(j.rows), j, e)
    eigen = [f for f in failures if f in ("eigen_dim", "minus_is_J_plus")]
    assert eigen == eigen_failures_by_subspaces(j, e)


def test_rotate_product_formulas():
    g, cps = heisenberg_complex_examples()[0]
    assert rotate_product(cps, 1) == cps.j @ cps.e
    assert rotate_product(cps, 2) == cps.e.scale(Q(3, 5)) + (cps.j @ cps.e).scale(Q(4, 5))
    assert rotate_product(cps, 0) == cps.e.scale(-1)


def test_rotate_product_rational_angle():
    g, cps = heisenberg_complex_examples()[0]
    assert rotate_product_rational_angle(cps, 1, 0) == cps.e
    e2 = rotate_product_rational_angle(cps, Q(3, 5), Q(4, 5))
    assert product_integrability_defect(g, e2) == []
    with pytest.raises(StructureError, match="circle"):
        rotate_product_rational_angle(cps, 1, 1)


def test_ascending_series_abelian():
    g = LieAlgebra.abelian(6)
    series = ascending_series(g, block_j(3))
    assert [s.dim for s in series] == [0, 6]


def test_ascending_series_eight_dim_stalls_at_zero():
    g, cps = eight_dim_example()
    series = ascending_series(g, cps.j)
    assert series[-1].is_zero()


def test_ascending_series_witnesses_reach_full():
    for entry in load_catalog():
        for w in entry.witnesses[:1]:
            g, cps = witness_structure(w)
            assert ascending_series(g, cps.j)[-1].is_full()


def test_find_central_invariant_ideal_examples():
    g, cps = heisenberg_complex_examples()[0]
    u = find_central_invariant_ideal(cps)
    assert u == Subspace.from_spanning([E6(4), E6(5)], 6)

    abelian = LieAlgebra.abelian(6)
    e = QMatrix.diag_blocks(QMatrix.identity(3), QMatrix.identity(3).scale(-1))
    cps_ab = assemble_cps(abelian, block_j(3), e)
    assert find_central_invariant_ideal(cps_ab) == Subspace.full(6)

    g8, cps8 = eight_dim_example()
    assert find_central_invariant_ideal(cps8) is None


def test_find_central_invariant_ideal_invariances():
    for entry in load_catalog():
        for w in entry.witnesses:
            g, cps = witness_structure(w)
            u = find_central_invariant_ideal(cps)
            assert u is not None and u.dim >= 2
            assert center(g).contains_subspace(u)
            assert map_subspace(cps.j, u) == u
            assert map_subspace(cps.e, u) == u


def test_cps_obstructions():
    assert [o.kind for o in cps_obstructions(parse_salamon("(0,0,0,12,23,14-35)"))] == [
        "CenterTooSmall"
    ]
    assert [o.kind for o in cps_obstructions(parse_salamon("(0,0,12,13,23,14+25)"))] == [
        "CenterTooSmall"
    ]
    assert cps_obstructions(parse_salamon("(0,0,0,12,13+42,14+23)")) == []
    with pytest.raises(ValueError):
        cps_obstructions(LieAlgebra.abelian(4))


def test_abelian_center_splitting_lemma():
    # for abelian CPS with nontrivial center: z = (z \cap g+) + (z \cap g-)
    # and J exchanges the two pieces
    seen = 0
    for entry in load_catalog():
        for w in entry.witnesses:
            if set(w.double_type) != {ThreeDimType.ABELIAN3}:
                continue
            g, cps = witness_structure(w)
            z = center(g)
            if z.is_zero():
                continue
            zp = intersect(z, cps.plus)
            zm = intersect(z, cps.minus)
            assert not zp.is_zero() and not zm.is_zero()
            assert zp.dim + zm.dim == z.dim
            assert map_subspace(cps.j, zp) == zm
            seen += 1
    assert seen >= 5


def test_rho_mu_nilpotency_lemma():
    for entry in load_catalog():
        for w in entry.witnesses[:2]:
            g, cps = witness_structure(w)
            for x in cps.plus.basis_vectors():
                assert is_nilpotent_matrix(rho_matrix(cps, x))
            for xp in cps.minus.basis_vectors():
                assert is_nilpotent_matrix(mu_matrix(cps, xp))


def test_rho_iterates_as_projected_ad_powers():
    # pi_-((ad x)^n x') = rho(x)^n x' for x in g+, x' in g-
    from cpslie.structures import rho_matrix, split_coordinates

    for entry in load_catalog():
        for w in entry.witnesses[:1]:
            g, cps = witness_structure(w)
            _, _, pim = split_coordinates(cps)
            for x in cps.plus.basis_vectors():
                rho = rho_matrix(cps, x)
                for xp in cps.minus.basis_vectors():
                    iterate = xp
                    coords = cps.minus.coordinates(xp)
                    for _ in range(3):
                        iterate = g.bracket(x, iterate)
                        coords = rho.apply(coords)
                        expected = cps.minus.coordinates(pim.apply(iterate))
                        assert coords == expected


def test_split_projections_match_basis_change():
    # pi_+- = S diag(Id, 0) S^-1 and S diag(0, Id) S^-1 on every stored witness
    from cpslie.structures import split_coordinates

    for entry in load_catalog():
        for w in entry.witnesses:
            _, cps = witness_structure(w)
            s, pip, pim = split_coordinates(cps)
            z, i3 = QMatrix.zeros(3, 3), QMatrix.identity(3)
            assert pip == s @ QMatrix.diag_blocks(i3, z) @ s.inverse()
            assert pim == s @ QMatrix.diag_blocks(z, i3) @ s.inverse()


def test_heisenberg_derived_lands_in_center():
    # when an eigenspace subalgebra is Heisenberg, its derived line is central
    from cpslie.lie import bracket_subspaces

    seen = 0
    for entry in load_catalog():
        for w in entry.witnesses:
            g, cps = witness_structure(w)
            for side, typ in zip((cps.plus, cps.minus), w.double_type):
                if typ is not ThreeDimType.HEISENBERG3:
                    continue
                derived = bracket_subspaces(g, side, side)
                assert center(g).contains_subspace(derived)
                seen += 1
    assert seen >= 10


def test_abelian_cps_iff_both_sides_abelian():
    for _, cps in heisenberg_complex_examples():
        both_abelian = double_type(cps) == (ThreeDimType.ABELIAN3, ThreeDimType.ABELIAN3)
        assert is_abelian_complex(cps.algebra, cps.j) == both_abelian


def _normal_form_h3x2(cps):
    """Change basis so that [e1,e2]=e3, [f1,f2]=f3, Je1=f1, Je2=f2, Je3=c f3."""
    from cpslie.lie import change_basis
    from cpslie.structures import h3x2_constant

    g = cps.algebra
    basis = cps.plus.basis_vectors()
    a, b = next(
        (a, b)
        for a in range(3)
        for b in range(a + 1, 3)
        if not all(x == 0 for x in g.bracket(basis[a], basis[b]))
    )
    e1, e2 = basis[a], basis[b]
    e3 = g.bracket(e1, e2)
    f1, f2 = cps.j.apply(e1), cps.j.apply(e2)
    f3 = g.bracket(f1, f2)
    p = QMatrix.from_cols([e1, e2, e3, f1, f2, f3])
    g2 = change_basis(g, p)
    pinv = p.inverse()
    j2 = pinv @ cps.j @ p
    e_mat = pinv @ cps.e @ p
    cps2 = assemble_cps(g2, j2, e_mat)
    return cps2, h3x2_constant(cps2)


def test_rotation_eigenspaces_in_h3x2_normal_form():
    # in the normal-form basis, rotating by the structure's own constant c
    # produces the splitting span{c e_i + f_i, e3 + f3} vs
    # span{e_i - c f_i, -(1/c) e3 + c f3}
    from cpslie.catalog import load_catalog, witness_structure
    from cpslie.lie import ThreeDimType as T

    tested = 0
    for entry in load_catalog():
        for w in entry.witnesses:
            if w.double_type != (T.HEISENBERG3, T.HEISENBERG3):
                continue
            _, cps = witness_structure(w)
            nf, c = _normal_form_h3x2(cps)
            assert nf.j.col(2) == tuple(c * x for x in basis_vec(6, 5))
            e_rot = rotate_product(nf, c)
            plus, minus = eigenspaces(e_rot)
            expected_plus = Subspace.from_spanning(
                [(c, 0, 0, 1, 0, 0), (0, c, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)], 6
            )
            expected_minus = Subspace.from_spanning(
                [(1, 0, 0, -c, 0, 0), (0, 1, 0, 0, -c, 0), (0, 0, -1 / c, 0, 0, c)], 6
            )
            assert plus == expected_plus
            assert minus == expected_minus
            tested += 1
            break  # one witness per row keeps this quick
    assert tested >= 7
