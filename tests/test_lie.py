"""Lie algebra data model: brackets, series, constructors."""

import random
from fractions import Fraction as Q

import pytest

from cpslie.lie import (
    JacobiError,
    LieAlgebra,
    ThreeDimType,
    algebra_from_json,
    algebra_to_json,
    center,
    change_basis,
    complexify_realified,
    is_ideal,
    is_nilpotent,
    iso_type_3d,
    jacobi_defect,
    lower_central_series,
    semidirect_product,
)
from cpslie.linalg import QMatrix, SparseTensor, Subspace, basis_vec, vec
from cpslie.salamon import d_squared_is_zero, parse_salamon
from table_helper import tensor_from_table

E = lambda i: basis_vec(6, i)  # noqa: E731

H3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})  # [e1,e2] = e3


def test_bracket_worked_example():
    g = parse_salamon("(0,0,0,0,12,14+23)")
    assert g.bracket(E(0), E(1)) == vec((0, 0, 0, 0, -1, 0))
    assert g.bracket(E(0), E(3)) == vec((0, 0, 0, 0, 0, -1))
    assert g.bracket(E(1), E(2)) == vec((0, 0, 0, 0, 0, -1))


def test_bracket_alternating_on_random_vectors():
    g = parse_salamon("(0,0,0,12,13,14)")
    rng = random.Random(3)
    for _ in range(20):
        x = vec([Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)])
        assert g.bracket(x, x) == vec((0,) * 6)


def test_bracket_sign_of_reversed_pair():
    g = parse_salamon("(0,0,0,12,13+42,14+23)")
    # "42" in slot 5 gives [e4,e2] = -e5, i.e. [e2,e4] = +e5
    assert g.bracket(E(1), E(3)) == vec((0, 0, 0, 0, 1, 0))
    assert g.bracket(E(0), E(1)) == vec((0, 0, 0, -1, 0, 0))
    assert g.bracket(E(0), E(2)) == vec((0, 0, 0, 0, -1, 0))


def test_bracket_length_mismatch():
    with pytest.raises(ValueError):
        H3.bracket((1, 0), (0, 1, 0))


def test_jacobi_defect_empty_on_catalog():
    from cpslie.catalog import load_catalog

    for entry in load_catalog():
        assert jacobi_defect(parse_salamon(entry.salamon)) == []
    assert jacobi_defect(LieAlgebra.abelian(5)) == []


def test_jacobi_defect_detects_failure():
    # [e1,e2] = e3, [e1,e3] = e1 is not a Lie bracket
    bad = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}}, check=False)
    assert jacobi_defect(bad)
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})


def test_lower_central_series_h3():
    series = lower_central_series(H3)
    assert [s.dim for s in series] == [3, 1, 0]
    assert series[1] == Subspace.from_spanning([(0, 0, 1)], 3)


def test_lower_central_series_three_step():
    g = parse_salamon("(0,0,0,12,13,14)")
    series = lower_central_series(g)
    assert [s.dim for s in series] == [6, 3, 1, 0]
    assert series[1] == Subspace.from_spanning([E(3), E(4), E(5)], 6)
    assert series[2] == Subspace.from_spanning([E(5)], 6)


def test_lower_central_series_abelian():
    series = lower_central_series(LieAlgebra.abelian(4))
    assert [s.dim for s in series] == [4, 0]


def test_lcs_terms_are_nested_ideals():
    for s in ("(0,0,0,12,13,14)", "(0,0,12,13,23,14+25)", "(0,0,0,0,13+42,14+23)"):
        g = parse_salamon(s)
        series = lower_central_series(g)
        for prev, nxt in zip(series, series[1:]):
            assert prev.contains_subspace(nxt)
            assert is_ideal(g, nxt)


def test_center_examples():
    g = parse_salamon("(0,0,0,12,13+42,14+23)")
    assert center(g) == Subspace.from_spanning([E(4), E(5)], 6)
    assert center(parse_salamon("(0,0,0,12,23,14-35)")).dim == 1
    assert center(LieAlgebra.abelian(6)) == Subspace.full(6)


def test_center_is_ideal_and_brackets_vanish():
    g = parse_salamon("(0,0,0,0,12,14+25)")
    z = center(g)
    assert is_ideal(g, z)
    for zv in z.basis_vectors():
        for i in range(6):
            assert g.bracket(zv, basis_vec(6, i)) == vec((0,) * 6)


def test_iso_type_3d_examples():
    hc = parse_salamon("(0,0,0,0,13+42,14+23)")
    abelian = Subspace.from_spanning([E(0), E(1), E(4)], 6)
    assert iso_type_3d(hc, abelian) is ThreeDimType.ABELIAN3

    heis = Subspace.from_spanning(
        [(1, 1, 1, 0, 0, 0), (1, -1, 0, 1, 0, 0), (0, 0, 0, 0, 1, -1)], 6
    )
    assert iso_type_3d(hc, heis) is ThreeDimType.HEISENBERG3

    g = parse_salamon("(0,0,0,12,13,14)")
    not_sub = Subspace.from_spanning([E(0), E(1), E(2)], 6)
    assert iso_type_3d(g, not_sub) is ThreeDimType.NOT_SUBALGEBRA

    with pytest.raises(ValueError):
        iso_type_3d(g, Subspace.from_spanning([E(0)], 6))


def _h3_table():
    e = lambda i: basis_vec(3, i)  # noqa: E731
    return [[list(H3.bracket(e(i), e(j))) for j in range(3)] for i in range(3)]


def test_table_must_be_antisymmetric():
    table = _h3_table()
    table[1][0] = [0, 0, 0]  # [e1,e2] = e3 but [e2,e1] = 0
    with pytest.raises(ValueError, match=r"antisymmetry fails on pair \(0,1\)"):
        LieAlgebra(tensor_from_table(table))


def test_table_diagonal_must_vanish():
    table = _h3_table()
    table[1][1] = [1, 0, 0]  # [e2,e2] = e1
    with pytest.raises(ValueError, match=r"antisymmetry fails on pair \(1,1\)"):
        LieAlgebra(tensor_from_table(table))


def test_semidirect_with_zero_action_is_abelian():
    h = LieAlgebra.abelian(2)
    g = semidirect_product(h, [QMatrix.zeros(3, 3)] * 2)
    assert g.dim == 5 and g.is_abelian()


def test_semidirect_rejects_non_representation():
    h = H3
    bad = [QMatrix.identity(2), QMatrix.identity(2), QMatrix.identity(2)]
    # rho([e1,e2]) = Id but [rho(e1), rho(e2)] = 0: the Jacobi check of
    # the product on (e1, e2, v) rejects it
    with pytest.raises(JacobiError):
        semidirect_product(h, bad)


@pytest.mark.parametrize(
    "action",
    [[QMatrix.identity(2)] * 2, [QMatrix.identity(2), QMatrix.identity(2), QMatrix.identity(3)]],
    ids=["too_few", "mixed_sizes"],
)
def test_semidirect_checks_action_shapes(action):
    with pytest.raises(ValueError, match="action matrix") as exc:
        semidirect_product(H3, action)
    assert not isinstance(exc.value, JacobiError)


def test_semidirect_fried_center():
    from cpslie.catalog import eight_dim_example

    g, _ = eight_dim_example()
    assert g.dim == 8
    assert jacobi_defect(g) == []
    z = center(g)
    assert z.dim == 1
    assert z == Subspace.from_spanning([(0, 0, 0, 0, 1, 0, 0, 0)], 8)


def test_complexify_hat_bracket_signs():
    g = parse_salamon("(0,0,0,12,13,14)")
    gh = complexify_realified(g)
    assert gh.dim == 12
    # [e1,e2] = -e4 so [hat e1, hat e2] = +e4 and [hat e1, e4] = -hat e6
    e = lambda i: basis_vec(12, i)  # noqa: E731
    assert gh.bracket(e(6), e(7)) == vec((0, 0, 0, 1, 0, 0) + (0,) * 6)
    assert gh.bracket(e(6), e(3)) == vec((0,) * 6 + (0, 0, 0, 0, 0, -1))
    assert gh.bracket(e(0), e(9)) == vec((0,) * 6 + (0, 0, 0, 0, 0, -1))
    # unhatted block reproduces g
    for i in range(6):
        for j in range(6):
            assert gh.bracket(e(i), e(j))[:6] == g.bracket(E(i), E(j))
            assert gh.bracket(e(i), e(j))[6:] == vec((0,) * 6)


def test_complexify_abelian():
    gh = complexify_realified(LieAlgebra.abelian(3))
    assert gh.dim == 6 and gh.is_abelian()


def test_change_basis_identity_and_swap():
    g = parse_salamon("(0,0,0,12,13,24)")
    assert change_basis(g, QMatrix.identity(6)) == g

    swap = QMatrix.from_cols([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    swapped = change_basis(H3, swap)
    assert swapped.bracket((1, 0, 0), (0, 1, 0)) == vec((0, 0, -1))


def test_change_basis_rejects_singular():
    p = QMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        change_basis(H3, p)


def test_change_basis_family_reduction():
    # the A != 0 reduction of the alpha=beta=0 family lands on (0,0,0,0,12,14+25)
    from cpslie.catalog import family_data

    g, _, _ = family_data("H3R_00", {"A": 2, "B": 1, "C": 3, "D": 5, "E": 1, "F": 4})
    a, b, c, d, e, f = Q(2), Q(1), Q(3), Q(5), Q(1), Q(4)
    e1, e2, e3, f1, f2, f3 = (basis_vec(6, i) for i in range(6))
    v1 = vec((a, 0, 0, c, 0, 0))
    v2 = vec((0, 0, 0, -1, 0, 0))
    v3 = vec((0, 0, f, 0, 0, -e))
    v4 = vec((0, 0, 0, 0, a, 0))
    v5 = tuple(a * x for x in (0, a, b, 0, c, d))
    v6 = tuple(-a * a * x for x in (0, 0, e, 0, 0, f))
    p = QMatrix.from_cols([v1, v2, v3, v4, v5, v6])
    assert change_basis(g, p) == parse_salamon("(0,0,0,0,12,14+25)")


def test_change_basis_round_trip_random():
    g = parse_salamon("(0,0,0,0,13+42,14+23)")
    rng = random.Random(5)
    for _ in range(10):
        while True:
            p = QMatrix(
                [[Q(rng.randint(-3, 3)) for _ in range(6)] for _ in range(6)]
            )
            try:
                pinv = p.inverse()
                break
            except ValueError:
                continue
        assert change_basis(change_basis(g, p), pinv) == g


def test_d_squared_matches_jacobi_on_random_tables():
    rng = random.Random(0)
    agree = 0
    for _ in range(200):
        brackets = {}
        for _ in range(rng.randint(1, 5)):
            i, j = sorted(rng.sample(range(5), 2))
            k = rng.randrange(5)
            if k in (i, j):
                continue
            brackets.setdefault((i, j), {})[k] = Q(rng.randint(-2, 2))
        g = LieAlgebra.from_brackets(5, brackets, check=False)
        assert d_squared_is_zero(g) == (jacobi_defect(g) == [])
        agree += 1
    assert agree == 200


def test_json_round_trip():
    g = parse_salamon("(0,0,0,12,14,13+42)")
    data = algebra_to_json(g)
    assert algebra_from_json(data) == g
    assert data["dim"] == 6
    assert {"i": 1, "j": 2, "coeffs": {"4": "-1"}} in data["brackets"]


def _round_trip_cases():
    from cpslie.catalog import load_catalog, witness_structure

    entries = load_catalog()
    yield from ((entry.salamon, parse_salamon(entry.salamon)) for entry in entries)
    yield from ((w.name, witness_structure(w)[0]) for entry in entries for w in entry.witnesses)
    rng = random.Random(11)
    while True:
        p = QMatrix([[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)] for _ in range(6)])
        try:
            yield "dense conjugate", change_basis(parse_salamon("(0,0,0,12,14,13+42)"), p)
            return
        except ValueError:  # singular P
            continue


def test_brackets_is_the_inverse_of_from_brackets():
    cases = list(_round_trip_cases())
    assert len(cases) > 18
    for name, g in cases:
        br = g.brackets()
        assert LieAlgebra.from_brackets(g.dim, br) == g, name
        # only i < j pairs with nonzero coefficients, both in index order
        assert list(br) == sorted(br) and all(i < j for i, j in br), name
        assert all(list(c) == sorted(c) and all(c.values()) for c in br.values()), name
        e = lambda i: basis_vec(g.dim, i)  # noqa: E731
        assert all(g.bracket(e(i), e(j))[k] == c for (i, j), coeffs in br.items() for k, c in coeffs.items()), name
    assert any(c.denominator > 1 for c in cases[-1][1].brackets()[(0, 1)].values())


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: QMatrix([[x]]),
        lambda x: SparseTensor(QMatrix([[x]])),
        lambda x: LieAlgebra.from_brackets(3, {(0, 1): {2: x}}),
    ],
    ids=["QMatrix", "SparseTensor", "from_brackets"],
)
def test_builders_refuse_bool_and_float_entries(build, bad):
    """A bool has a denominator, but is not a rational scalar."""
    with pytest.raises(TypeError):
        build(bad)


def test_nilpotency_predicate():
    assert is_nilpotent(parse_salamon("(0,0,12,13,23,14+25)"))
    # a solvable non-nilpotent algebra: [e1,e2] = e2
    aff = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
    assert not is_nilpotent(aff)
