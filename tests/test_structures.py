"""Complex and product structures, rotations, series, invariant ideals."""

import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpslie.catalog import _standard_cps, eight_dim_example, load_catalog, witness_structure
from cpslie.connection import _skew, cp_connection
from cpslie.lie import LieAlgebra, ThreeDimType, center, change_basis
from cpslie.linalg import QMatrix, SparseTensor, Subspace, basis_vec, kernel, rank
from cpslie.salamon import parse_salamon
from cpslie.structures import (
    StructureError,
    _integrability_defect,
    ascending_series,
    assemble_cps,
    double_type,
    find_central_invariant_ideal,
    rotate_product,
)
from examples import (
    NotLie,
    dense_conjugator,
    h3x2_constant,
    heisenberg_complex_examples,
    image,
    intersect,
    is_abelian_complex,
    is_nilpotent_matrix,
    is_quaternion_triple,
    ref_central_invariant_ideal,
    validate_cps,
)

E6 = lambda i: basis_vec(6, i)  # noqa: E731


def block_j(n):
    z = QMatrix.zeros(n, n)
    i = QMatrix.identity(n)
    return QMatrix.block([[z, i.scale(-1)], [i, z]])


def abelian_cps():
    """The CPS (block J, diagonal E) on the abelian algebra R^6."""
    e = QMatrix.diag_blocks(QMatrix.identity(3), QMatrix.identity(3).scale(-1))
    return assemble_cps(LieAlgebra.from_brackets(6, {}), block_j(3), e)


def dense_conjugate(cps, rng):
    """(P, the CPS in the basis of the columns of a seeded dense P): the algebra
    through `change_basis`, J and E conjugated to P^-1 J P and P^-1 E P."""
    p = dense_conjugator(rng, cps.algebra.dim)
    pinv = p.inverse()
    return p, assemble_cps(change_basis(cps.algebra, p), pinv @ cps.j @ p, pinv @ cps.e @ p)


def witness_cps():
    return [witness_structure(w)[1] for entry in load_catalog() for w in entry.witnesses]


def test_complex_integrability_on_abelian():
    g = LieAlgebra.from_brackets(6, {})
    assert _integrability_defect(g, block_j(3), 1) == []


def test_complex_integrability_heisenberg_example():
    g, cps = heisenberg_complex_examples()[0]
    assert _integrability_defect(g, cps.j, 1) == []


def test_remark_complex_structure_is_abelian():
    # the excluded algebra still has an (abelian) complex structure with
    # J e1 = e2, J e3 = -e4, J e5 = e6
    g = parse_salamon("(0,0,0,12,13+42,14+23)")
    j = QMatrix.from_cols(
        [E6(1), tuple(-x for x in E6(0)), tuple(-x for x in E6(3)), E6(2), E6(5), tuple(-x for x in E6(4))]
    )
    assert _integrability_defect(g, j, 1) == []
    assert is_abelian_complex(g, j)


def test_half_bracket_complex_structure_on_complex_heisenberg():
    # J e1 = e2, J e3 = e4, J e5 = e6 satisfies J[x,y] = [Jx,y]; such a J
    # can never belong to a CPS on a non-abelian algebra
    g = parse_salamon("(0,0,0,0,13+42,14+23)")
    j = QMatrix.from_cols(
        [E6(1), tuple(-x for x in E6(0)), E6(3), tuple(-x for x in E6(2)), E6(5), tuple(-x for x in E6(4))]
    )
    assert _integrability_defect(g, j, 1) == []
    for a in range(6):
        for b in range(6):
            assert j.apply(g.bracket(E6(a), E6(b))) == g.bracket(j.col(a), E6(b))


def test_complex_integrability_requires_almost_complex():
    # `assemble_cps` stops at a failed square: no integrability code follows it
    assert validate_cps(LieAlgebra.from_brackets(4, {}), QMatrix.identity(4), _standard_cps(2)[1]) == ["J_square"]


def test_complex_integrability_detects_failure():
    # on h3 x R^3, the pairing e1<->e3, e2<->e4 misses the bracket [e1,e2]
    g = parse_salamon("(0,0,0,0,0,12)")
    j = QMatrix.from_cols(
        [E6(2), E6(3), tuple(-x for x in E6(0)), tuple(-x for x in E6(1)), E6(5), tuple(-x for x in E6(4))]
    )
    defects = _integrability_defect(g, j, 1)
    assert (0, 1) in [(a, b) for a, b, _ in defects]


def test_product_integrability_detects_failure():
    # eigenspaces that are not subalgebras produce a defect
    g = parse_salamon("(0,0,0,0,0,12)")
    e = QMatrix.diag_blocks(QMatrix.identity(3), QMatrix.identity(3).scale(-1))
    defects = _integrability_defect(g, e, -1)
    assert (0, 1) in [(a, b) for a, b, _ in defects]


def test_product_integrability_rejects_identity():
    g = LieAlgebra.from_brackets(4, {})
    j = _standard_cps(2)[0]
    assert validate_cps(g, j, QMatrix.identity(4)) == ["E_identity"]
    assert validate_cps(g, j, QMatrix.identity(4).scale(-1)) == ["E_identity"]


R4 = LieAlgebra.from_brackets(4, {})
I4 = QMatrix.identity(4)
G6 = parse_salamon("(0,0,0,12,13,23)")


@pytest.mark.parametrize(
    "guard, a, message",
    [
        (lambda a: is_abelian_complex(R4, a), I4, "J_square: J^2 = -Id fails"),
        (lambda a: is_abelian_complex(R4, a), QMatrix.zeros(4, 3), "shape: J is 4 x 3, not 4 x 4"),
        # a 4 x 4 J on a 6-dimensional algebra, which `assemble_cps` also calls "shape"
        (lambda a: is_abelian_complex(G6, a), _standard_cps(2)[0], "shape: J is 4 x 4, not 6 x 6"),
    ],
    ids=["complex", "abelian_non_square", "complex_size"],
)
def test_public_guards_raise_the_square_failure(guard, a, message):
    """The first failed requirement on the endomorphism: its shape, then its square.
    The guard is the abelian check of the tests; the ascending series and the
    central ideal take a CPS, which `assemble_cps` has validated."""
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
    assert _integrability_defect(g, e, -1) == []


def test_product_integrability_split_sum():
    # h3 + R^3 split into its two factors
    g = parse_salamon("(0,0,0,0,0,12)")
    plus = [E6(0), E6(1), E6(5)]
    minus = [E6(2), E6(3), E6(4)]
    s = QMatrix.from_cols(plus + minus)
    d = QMatrix.diag_blocks(QMatrix.identity(3), QMatrix.identity(3).scale(-1))
    assert _integrability_defect(g, s @ d @ s.inverse(), -1) == []


def test_is_abelian_complex_examples():
    assert is_abelian_complex(LieAlgebra.from_brackets(6, {}), block_j(3))
    g, cps = heisenberg_complex_examples()[0]
    assert is_abelian_complex(g, cps.j)
    g2 = parse_salamon("(0,0,0,12,13,14)")
    j = QMatrix.from_cols(
        [tuple(-x for x in E6(1)), E6(0), tuple(-x for x in E6(3)), E6(2), tuple(-x for x in E6(5)), E6(4)]
    )
    assert not is_abelian_complex(g2, j)


def test_eigenspaces_diagonal():
    e = QMatrix.diag_blocks(QMatrix.identity(3), QMatrix.identity(3).scale(-1))
    cps = assemble_cps(LieAlgebra.from_brackets(6, {}), block_j(3), e)
    plus, minus = cps.plus, cps.minus
    assert plus == Subspace.from_spanning([E6(0), E6(1), E6(2)], 6)
    assert minus == Subspace.from_spanning([E6(3), E6(4), E6(5)], 6)


def test_eigenspaces_rotation_family_at_theta_zero():
    e_theta = QMatrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    j = QMatrix.diag_blocks(block_j(1), block_j(1))
    cps = assemble_cps(LieAlgebra.from_brackets(4, {}), j, e_theta)
    plus, minus = cps.plus, cps.minus
    assert plus == Subspace.from_spanning([(1, 0, 0, 0), (0, 0, 1, 0)], 4)
    assert minus == Subspace.from_spanning([(0, 1, 0, 0), (0, 0, 0, 1)], 4)


def test_rotation_by_one_swaps_to_diagonal_split():
    g, cps = heisenberg_complex_examples()[0]
    e2 = rotate_product(cps.j, cps.e, 1)
    assert e2 == cps.j @ cps.e
    rotated = assemble_cps(g, cps.j, e2)
    plus, minus = rotated.plus, rotated.minus
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
    g = LieAlgebra.from_brackets(4, {})
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


def _slices(t):
    return [t.slice_matrix(basis_vec(t.dim, i)) for i in range(t.dim)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_cp_connection_is_parallel_on_every_basis_bracket(monkeypatch, m):
    """J and E are parallel by construction, so `assemble_cps` checks torsion
    only, and `lift_cps` checks nothing.

    nabla is linear in the bracket and natural under a change of basis, and
    every (J, E) with J^2 = -Id, E^2 = Id and JE = -EJ is conjugate to the
    standard pair.  So parallelism for every input follows from it on each
    single-coefficient bracket [e_i, e_j] = e_l at the standard pair:
    nabla commutes with J and E, and its Obata double D nabla with J1, J2
    and J3 formed as in `lift_cps`.  The torsion layout of the double is the
    double of the base torsion layout, skew(D nabla) - D(bracket) =
    D(skew(nabla) - bracket), so a torsion-free base has a torsion-free
    lift.  These brackets need not satisfy Jacobi nor the pair be
    integrable, so the torsion certificate is switched off.
    """
    monkeypatch.setattr("cpslie.structures.torsion_defect", lambda conn: [])
    n = 2 * m
    j, e = _standard_cps(m)
    zero = QMatrix.zeros(n, n)
    j1 = QMatrix.block([[zero, e.scale(-1)], [e, zero]])
    j2 = QMatrix.diag_blocks(j, j)
    lifted = (j1, j2, j1 @ j2)
    assert is_quaternion_triple(*lifted)
    failed = []
    for i, k in combinations(range(n), 2):
        for l in range(n):
            g = NotLie.from_brackets(n, {(i, k): {l: 1}})
            t = assemble_cps(g, j, e).connection.tensor
            double, bracket = t.realified_double(), g.structure
            pairs = [(s, a) for s in _slices(t) for a in (j, e)]
            pairs += [(s, a) for s in _slices(double) for a in lifted]
            torsion = SparseTensor(_skew(t.side) - bracket.side).realified_double().side
            if any(s @ a != a @ s for s, a in pairs) or _skew(double.side) - bracket.realified_double().side != torsion:
                failed.append((i, k, l))
    assert failed == []


def eigen_failures_by_subspaces(j, e):
    """Reference: the eigen-conditions decided on the eigenspaces themselves."""
    ident = QMatrix.identity(e.rows)
    plus, minus = kernel(e - ident), kernel(e + ident)
    out = []
    if plus.dim != minus.dim:
        out.append("eigen_dim")
    if image(j, plus) != minus:
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
    failures = validate_cps(LieAlgebra.from_brackets(j.rows, {}), j, e)
    eigen = [f for f in failures if f in ("eigen_dim", "minus_is_J_plus")]
    assert eigen == eigen_failures_by_subspaces(j, e)


def test_rotate_product_formulas():
    g, cps = heisenberg_complex_examples()[0]
    assert rotate_product(cps.j, cps.e, 1) == cps.j @ cps.e
    assert rotate_product(cps.j, cps.e, 2) == cps.e.scale(Q(3, 5)) + (cps.j @ cps.e).scale(Q(4, 5))
    assert rotate_product(cps.j, cps.e, 0) == cps.e.scale(-1)


def test_rotate_product_rational_angle():
    # the circle point (p, q) = (3/5, 4/5) is c = q / (1 - p) = 2
    g, cps = heisenberg_complex_examples()[0]
    e2 = rotate_product(cps.j, cps.e, Q(4, 5) / (1 - Q(3, 5)))
    assert e2 == cps.e.scale(Q(3, 5)) + (cps.j @ cps.e).scale(Q(4, 5))
    assert _integrability_defect(g, e2, -1) == []


def test_ascending_series_abelian():
    series = ascending_series(abelian_cps())
    assert [s.dim for s in series] == [0, 6]


def test_ascending_series_eight_dim_stalls_at_zero():
    _, cps = eight_dim_example()
    series = ascending_series(cps)
    assert series[-1].is_zero()


def test_ascending_series_witnesses_reach_full():
    for entry in load_catalog():
        for w in entry.witnesses[:1]:
            g, cps = witness_structure(w)
            assert ascending_series(cps)[-1] == Subspace(QMatrix.identity(g.dim))


def test_find_central_invariant_ideal_examples():
    g, cps = heisenberg_complex_examples()[0]
    u = find_central_invariant_ideal(cps)
    assert u == Subspace.from_spanning([E6(4), E6(5)], 6)

    assert find_central_invariant_ideal(abelian_cps()) == Subspace(QMatrix.identity(6))

    g8, cps8 = eight_dim_example()
    assert find_central_invariant_ideal(cps8) is None


def test_find_central_invariant_ideal_invariances():
    for entry in load_catalog():
        for w in entry.witnesses:
            g, cps = witness_structure(w)
            u = find_central_invariant_ideal(cps)
            assert u is not None and u.dim >= 2
            assert all(map(center(g).contains, u.basis_vectors()))
            assert image(cps.j, u) == u
            assert image(cps.e, u) == u


def test_central_ideal_equals_the_fixed_point_reference():
    """The one kernel equals the loop that intersects the center with its
    preimages under J and E until it is stable: on every witness, a seeded
    dense conjugate of each, the Heisenberg examples, the abelian CPS (the
    whole space) and the 8-dimensional example (None)."""
    rng = random.Random(0)
    witnesses = witness_cps()
    cases = witnesses + [dense_conjugate(cps, rng)[1] for cps in witnesses]
    cases += [cps for _, cps in heisenberg_complex_examples()] + [abelian_cps(), eight_dim_example()[1]]
    ideals = [find_central_invariant_ideal(cps) for cps in cases]
    assert ideals == [ref_central_invariant_ideal(cps) for cps in cases]
    assert len(cases) == 75
    assert ideals[-2:] == [Subspace(QMatrix.identity(6)), None]


def test_central_ideal_and_series_move_with_a_dense_change_of_basis():
    """In the basis of the columns of P, the central ideal and every term of
    the ascending series are P^-1 applied to the original ones."""
    rng = random.Random(1)
    for cps in witness_cps():
        p, moved = dense_conjugate(cps, rng)
        pinv = p.inverse()
        assert find_central_invariant_ideal(moved) == image(pinv, find_central_invariant_ideal(cps))
        series = ascending_series(cps)
        assert ascending_series(moved) == [image(pinv, a) for a in series]


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
            assert image(cps.j, zp) == zm
            seen += 1
    assert seen >= 5


def restricted_nabla(conn, x, side):
    """nabla_x on the subspace `side`, in its basis: rho(x) for x in g+ and
    side g-, mu(x') for x' in g- and side g+."""
    return QMatrix.from_cols([side.coordinates(conn.apply(x, b)) for b in side.basis_vectors()])


def test_rho_mu_nilpotency_lemma():
    for entry in load_catalog():
        for w in entry.witnesses[:2]:
            g, cps = witness_structure(w)
            conn = cp_connection(cps)
            for x in cps.plus.basis_vectors():
                assert is_nilpotent_matrix(restricted_nabla(conn, x, cps.minus))
            for xp in cps.minus.basis_vectors():
                assert is_nilpotent_matrix(restricted_nabla(conn, xp, cps.plus))


def test_rho_iterates_as_projected_ad_powers():
    # pi_-((ad x)^n x') = rho(x)^n x' for x in g+, x' in g-
    for entry in load_catalog():
        for w in entry.witnesses[:1]:
            g, cps = witness_structure(w)
            conn = cp_connection(cps)
            pim = (QMatrix.identity(g.dim) - cps.e).scale(Q(1, 2))
            for x in cps.plus.basis_vectors():
                rho = restricted_nabla(conn, x, cps.minus)
                for xp in cps.minus.basis_vectors():
                    iterate = xp
                    coords = cps.minus.coordinates(xp)
                    for _ in range(3):
                        iterate = g.bracket(x, iterate)
                        coords = rho.apply(coords)
                        expected = cps.minus.coordinates(pim.apply(iterate))
                        assert coords == expected


def test_heisenberg_derived_lands_in_center():
    # when an eigenspace subalgebra is Heisenberg, its derived line is central
    from examples import bracket_subspaces

    seen = 0
    for entry in load_catalog():
        for w in entry.witnesses:
            g, cps = witness_structure(w)
            for side, typ in zip((cps.plus, cps.minus), w.double_type):
                if typ is not ThreeDimType.HEISENBERG3:
                    continue
                derived = bracket_subspaces(g, side, side)
                assert all(map(center(g).contains, derived.basis_vectors()))
                seen += 1
    assert seen >= 10


def test_abelian_cps_iff_both_sides_abelian():
    for _, cps in heisenberg_complex_examples():
        both_abelian = double_type(cps) == (ThreeDimType.ABELIAN3, ThreeDimType.ABELIAN3)
        assert is_abelian_complex(cps.algebra, cps.j) == both_abelian


def _normal_form_h3x2(cps):
    """Change basis so that [e1,e2]=e3, [f1,f2]=f3, Je1=f1, Je2=f2, Je3=c f3."""
    from cpslie.lie import change_basis

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
            rotated = assemble_cps(nf.algebra, nf.j, rotate_product(nf.j, nf.e, c))
            plus, minus = rotated.plus, rotated.minus
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
