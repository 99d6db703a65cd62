"""Tuple-notation parser and printer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslie.lie import LieAlgebra, is_nilpotent
from cpslie.linalg import basis_vec, vec
from cpslie.salamon import SalamonError, emit_salamon, parse_salamon

E = lambda i: basis_vec(6, i)  # noqa: E731

CATALOG_STRINGS = [
    "(0,0,0,0,0,0)",
    "(0,0,0,0,0,12)",
    "(0,0,0,0,0,12+34)",
    "(0,0,0,0,12,14+25)",
    "(0,0,0,0,12,13)",
    "(0,0,0,0,13+42,14+23)",
    "(0,0,0,0,12,14+23)",
    "(0,0,0,0,12,34)",
    "(0,0,0,12,13,14)",
    "(0,0,0,12,13,23)",
    "(0,0,0,12,14,24)",
    "(0,0,0,12,13,24)",
    "(0,0,0,12,13+14,24)",
    "(0,0,0,12,13,14+23)",
    "(0,0,0,12,14,13+42)",
]
EXCLUDED_STRINGS = [
    "(0,0,0,12,23,14-35)",
    "(0,0,12,13,23,14+25)",
    "(0,0,0,12,13+42,14+23)",
]


def test_parse_worked_example():
    g = parse_salamon("(0,0,0,0,12,14+23)")
    assert g.bracket(E(0), E(1)) == vec((0, 0, 0, 0, -1, 0))
    assert g.bracket(E(0), E(3)) == vec((0, 0, 0, 0, 0, -1))
    assert g.bracket(E(1), E(2)) == vec((0, 0, 0, 0, 0, -1))


def test_parse_abelian():
    assert parse_salamon("(0,0,0,0,0,0)") == LieAlgebra.abelian(6)


def test_parse_minus_term():
    g = parse_salamon("(0,0,0,12,23,14-35)")
    assert g.bracket(E(0), E(1)) == vec((0, 0, 0, -1, 0, 0))
    assert g.bracket(E(1), E(2)) == vec((0, 0, 0, 0, -1, 0))
    assert g.bracket(E(0), E(3)) == vec((0, 0, 0, 0, 0, -1))
    assert g.bracket(E(2), E(4)) == vec((0, 0, 0, 0, 0, 1))


def test_parse_ignores_whitespace():
    assert parse_salamon(" ( 0, 0 ,0, 12 , 13 , 14 + 23 ) ") == parse_salamon(
        "(0,0,0,12,13,14+23)"
    )


def test_parse_syntax_error_carries_position():
    with pytest.raises(SalamonError) as err:
        parse_salamon("(0,0,1x)")
    assert err.value.position is not None


def test_parse_rejects_zero_digit_terms():
    with pytest.raises(SalamonError):
        parse_salamon("(0,0,10)")


def test_parse_triangularity():
    with pytest.raises(SalamonError, match="triangularity"):
        parse_salamon("(0,0,13)")
    with pytest.raises(SalamonError, match="triangularity"):
        parse_salamon("(0,12,12)")


def test_parse_jacobi_failure():
    # d e6 = e4 ^ e5 with d e4, d e5 nonzero breaks d^2 = 0
    s = "(0,0,12,13,23,45)"
    with pytest.raises(SalamonError, match="Jacobi") as err:
        parse_salamon(s)
    assert err.value.position == s.index("45")


@pytest.mark.parametrize(
    "s, repeat",
    [("(0,0,12+12)", "+12"), ("(0,0,12-21)", "-21"), ("(0,0,12+21)", "+21"), ("(0,0,0,-13+12-31)", "-31")],
)
def test_parse_rejects_a_repeated_two_form(s, repeat):
    # 12+12 would parse to [e1,e2] = -2 e3, which emit_salamon cannot print
    with pytest.raises(SalamonError, match="repeats the 2-form") as err:
        parse_salamon(s)
    assert err.value.position == s.rindex(repeat) + 1


def test_jacobi_error_names_triples_one_based():
    with pytest.raises(SalamonError, match=r"basis triples \(1,3,5\), \(2,3,4\);"):
        parse_salamon("(0,0,12,13,23,45)")


def test_emit_abelian_and_h3():
    assert emit_salamon(LieAlgebra.abelian(6)) == "(0,0,0,0,0,0)"
    h3 = LieAlgebra.from_brackets(3, {(0, 1): {2: -1}})  # [e1,e2] = -e3
    assert emit_salamon(h3) == "(0,0,12)"


def test_emit_requires_triangular_basis():
    # [e1,e3] = e2 is antisymmetric and Jacobi-flat but not triangular
    g = LieAlgebra.from_brackets(3, {(0, 2): {1: 1}})
    with pytest.raises(SalamonError, match="triangular"):
        emit_salamon(g)


def test_emit_rejects_non_unit_coefficients():
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: 2}})
    with pytest.raises(SalamonError, match="unit"):
        emit_salamon(g)


@pytest.mark.parametrize("s", CATALOG_STRINGS)
def test_emit_reproduces_catalog_strings(s):
    assert emit_salamon(parse_salamon(s)) == s


@pytest.mark.parametrize("s", CATALOG_STRINGS + EXCLUDED_STRINGS)
def test_parse_emit_identity_on_algebras(s):
    g = parse_salamon(s)
    assert parse_salamon(emit_salamon(g)) == g


def test_emit_canonicalizes_whitespace_and_minus():
    s = "( 0,0, 0, 12 ,23,14-35 )"
    assert emit_salamon(parse_salamon(s)) == "(0,0,0,12,23,14+53)"


@pytest.mark.parametrize("s", CATALOG_STRINGS + EXCLUDED_STRINGS)
def test_parsed_algebras_are_nilpotent(s):
    assert is_nilpotent(parse_salamon(s))


@st.composite
def triangular_tuples(draw, unique=True):
    """Tuple strings whose slot k holds pairs of indices below k (distinct
    pairs if `unique`), each written in either order with either sign."""
    n = draw(st.integers(min_value=1, max_value=9))
    entries = []
    for k in range(1, n + 1):
        pairs = [(i, j) for i in range(1, k) for j in range(i + 1, k)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=unique, max_size=3)) if pairs else []
        terms = [
            draw(st.sampled_from("+-")) + (f"{j}{i}" if draw(st.booleans()) else f"{i}{j}")
            for i, j in chosen
        ]
        entries.append("".join(terms).removeprefix("+") or "0")
    return "(" + ",".join(entries) + ")"


@settings(max_examples=200, deadline=None)
@given(triangular_tuples())
def test_parse_emit_round_trip_on_random_tuples(s):
    try:
        g = parse_salamon(s)
    except SalamonError as exc:
        # only d^2 != 0 can fail here; it points at the first term of the
        # first slot that breaks it, so the slots before that one parse
        assert "Jacobi" in str(exc)
        assert exc.position is not None and s[exc.position : exc.position + 2].isdigit()
        slot = s[: exc.position].count(",")
        parse_salamon("(" + ",".join(s[1:-1].split(",")[:slot]) + ")")
        return
    assert parse_salamon(emit_salamon(g)) == g


@settings(max_examples=200, deadline=None)
@given(triangular_tuples(unique=False))
def test_parse_then_emit_is_total(s):
    # whatever parses, emit_salamon prints, and the print parses back
    try:
        g = parse_salamon(s)
    except SalamonError as exc:
        assert exc.position is not None
        return
    assert parse_salamon(emit_salamon(g)) == g
