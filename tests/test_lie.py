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
    iso_type_3d,
    jacobi_defect,
    semidirect_product,
)
from cpslie.linalg import QMatrix, SparseTensor, Subspace, basis_vec, rank, vec
from cpslie.salamon import parse_salamon
from examples import NotLie, bracket_subspaces, d_squared_is_zero, is_nilpotent, lower_central_series
from table_helper import tensor_from_table

E = lambda i: basis_vec(6, i)  # noqa: E731

H3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})  # [e1,e2] = e3


def is_ideal(g, v):
    """[v, g] lies in v."""
    return all(map(v.contains, bracket_subspaces(g, v, Subspace(QMatrix.identity(g.dim))).basis_vectors()))


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
        assert jacobi_defect(parse_salamon(entry.salamon).structure) == []
    assert jacobi_defect(LieAlgebra.from_brackets(5, {}).structure) == []


def test_jacobi_defect_detects_failure():
    # [e1,e2] = e3, [e1,e3] = e1 is not a Lie bracket
    bad = NotLie.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}}).structure
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
    series = lower_central_series(LieAlgebra.from_brackets(4, {}))
    assert [s.dim for s in series] == [4, 0]


def test_lcs_terms_are_nested_ideals():
    for s in ("(0,0,0,12,13,14)", "(0,0,12,13,23,14+25)", "(0,0,0,0,13+42,14+23)"):
        g = parse_salamon(s)
        series = lower_central_series(g)
        for prev, nxt in zip(series, series[1:]):
            assert all(map(prev.contains, nxt.basis_vectors()))
            assert is_ideal(g, nxt)


def test_center_examples():
    g = parse_salamon("(0,0,0,12,13+42,14+23)")
    assert center(g) == Subspace.from_spanning([E(4), E(5)], 6)
    assert center(parse_salamon("(0,0,0,12,23,14-35)")).dim == 1
    assert center(LieAlgebra.from_brackets(6, {})) == Subspace(QMatrix.identity(6))


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
    h = LieAlgebra.from_brackets(2, {})
    g = semidirect_product(h, [QMatrix.zeros(3, 3)] * 2)
    assert g == LieAlgebra.from_brackets(5, {})


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
    assert jacobi_defect(g.structure) == []
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
    gh = complexify_realified(LieAlgebra.from_brackets(3, {}))
    assert gh == LieAlgebra.from_brackets(6, {})


def test_double_satisfies_jacobi_exactly_when_the_algebra_does():
    """The Jacobi check that complexify_realified runs on the double repeats
    the one of g: it finds nothing on the double of every catalog witness and
    of a dense conjugate, and rejects the double of a g built unchecked
    without the identity."""
    from cpslie.catalog import load_catalog, witness_structure

    rng = random.Random(16)
    for entry in load_catalog():
        for w in entry.witnesses:
            g, _ = witness_structure(w)
            p = QMatrix([[rng.choice((-2, -1, 1, 2)) for _ in range(6)] for _ in range(6)])
            while rank(p) < 6:
                p = QMatrix([[rng.choice((-2, -1, 1, 2)) for _ in range(6)] for _ in range(6)])
            for h in (g, change_basis(g, p)):
                assert jacobi_defect(complexify_realified(h).structure) == [], w.name
    bad = NotLie.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    assert jacobi_defect(bad.structure)
    with pytest.raises(JacobiError):
        complexify_realified(bad)


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
        g = NotLie.from_brackets(5, brackets)
        assert d_squared_is_zero(g) == (jacobi_defect(g.structure) == [])
        agree += 1
    assert agree == 200


def test_json_round_trip():
    g = parse_salamon("(0,0,0,12,14,13+42)")
    data = algebra_to_json(g)
    assert algebra_from_json(data) == g
    assert data["dim"] == 6
    assert {"i": 1, "j": 2, "coeffs": {"4": "-1"}} in data["brackets"]


@pytest.mark.parametrize(
    "item, message",
    [
        ({"i": 0, "j": 2, "coeffs": {}}, "bracket pair (0,2) must satisfy 1 <= i < j <= dim"),
        ({"i": 2, "j": 2, "coeffs": {}}, "bracket pair (2,2) must satisfy 1 <= i < j <= dim"),
        ({"i": 1, "j": 7, "coeffs": {}}, "bracket pair (1,7) must satisfy 1 <= i < j <= dim"),
        ({"i": 3, "j": 1, "coeffs": {}}, "bracket pair (3,1) must satisfy 1 <= i < j <= dim"),
        ({"i": 1, "j": 2, "coeffs": {"7": "1"}}, "coefficient index 7 of pair (1,2) must satisfy 1 <= k <= dim"),
        ({"i": 1, "j": 2, "coeffs": {"0": "1"}}, "coefficient index 0 of pair (1,2) must satisfy 1 <= k <= dim"),
    ],
)
def test_an_index_out_of_range_is_named_1_based_by_from_brackets(item, message):
    """`from_brackets` alone checks the ranges, and names the pair and the
    index 1-based, as the JSON gives them; a 0-based description gets the
    same message."""
    with pytest.raises(ValueError) as exc:
        algebra_from_json({"dim": 6, "brackets": [item]})
    assert str(exc.value) == message
    pair = (item["i"] - 1, item["j"] - 1)
    with pytest.raises(ValueError) as exc:
        LieAlgebra.from_brackets(6, {pair: {int(k) - 1: 1 for k in item["coeffs"]}})
    assert str(exc.value) == message


def test_json_shape_faults_come_before_range_faults():
    """The JSON reader checks every item's shape first, then `from_brackets`
    the dimension and the ranges."""
    out_of_range = {"i": 0, "j": 2, "coeffs": {}}
    with pytest.raises(ValueError, match="^dimension -2 is negative$"):
        algebra_from_json({"dim": -2, "brackets": [out_of_range]})
    with pytest.raises(ValueError, match="^coeffs of pair"):
        algebra_from_json({"dim": 6, "brackets": [out_of_range, {"i": 1, "j": 2, "coeffs": []}]})


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
