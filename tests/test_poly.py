"""Sparse rational polynomials: arithmetic and substitution agree with evaluation."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslie.lie import LieAlgebra
from cpslie.linalg import QMatrix, basis_vec
from cpslie.poly import Poly

NAMES = ("x", "y", "z")

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
points = st.fixed_dictionaries({n: rationals for n in NAMES})


@st.composite
def polys(draw):
    exps = st.tuples(*[st.integers(0, 2)] * len(NAMES))
    terms = draw(st.dictionaries(exps, rationals, max_size=5))
    out = Poly(NAMES)
    for e, c in terms.items():
        mono = Poly.const(NAMES, c)
        for name, k in zip(NAMES, e):
            for _ in range(k):
                mono = mono * Poly.var(NAMES, name)
        out = out + mono
    return out


def at(p: Poly, point) -> Q:
    return p.subs(point).value()


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), rationals, points)
def test_arithmetic_agrees_with_evaluation(a, b, c, point):
    va, vb = at(a, point), at(b, point)
    assert at(a + b, point) == va + vb
    assert at(a - b, point) == va - vb
    assert at(a * b, point) == va * vb
    assert at(-a, point) == -va
    assert at(c * a + c, point) == c * va + c
    assert at(c - a, point) == c - va


@settings(max_examples=150, deadline=None)
@given(polys(), points)
def test_partial_substitution_then_the_rest(p, point):
    first = {"y": point["y"]}
    rest = {n: v for n, v in point.items() if n != "y"}
    assert p.subs(first).subs(rest) == p.subs(point)
    assert at(p.subs(first), point) == at(p, point)


@settings(max_examples=150, deadline=None)
@given(polys(), polys())
def test_canonical_form(a, b):
    # equal polynomials built two ways have equal fields and hashes
    lhs, rhs = (a + b) * (a - b), a * a - b * b
    assert lhs == rhs and hash(lhs) == hash(rhs)
    assert lhs.terms == rhs.terms and lhs.den == rhs.den
    assert (a - a).is_zero() and not (a - a)
    assert all(c for c in lhs.terms.values())


@settings(max_examples=150, deadline=None)
@given(polys(), rationals, rationals)
def test_rewrite_preserves_values_on_the_variety(p, y, z):
    # on the surface x*y = z^2 + 1 with y != 0, rewriting x*y -> z^2 + 1 keeps p's value
    if y == 0:
        return
    lhs = Poly.monomial(NAMES, "x*y")
    rhs = Poly.var(NAMES, "z") * Poly.var(NAMES, "z") + 1
    point = {"x": (z * z + 1) / y, "y": y, "z": z}
    reduced = p.rewrite(lhs, rhs)
    assert at(reduced, point) == at(p, point)
    assert all(not (e[0] and e[1]) for e in reduced.terms)


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), rationals)
def test_multiple_of(a, b, c):
    if b.is_zero():
        return
    assert (b * c).multiple_of(b) == c
    m = a.multiple_of(b)
    if m is not None:
        assert a == b * m
    x, y = Poly.var(NAMES, "x"), Poly.var(NAMES, "y")
    assert x.multiple_of(y) is None and (x + y).multiple_of(x + 2 * y) is None


def test_monomial_parsing_and_printing():
    x, y = Poly.var(NAMES, "x"), Poly.var(NAMES, "y")
    assert Poly.monomial(NAMES, "2*x*y") == 2 * x * y
    assert Poly.monomial(NAMES, "-x * 1/2") == x * Q(-1, 2)
    assert repr(x * (2 * y + 1) - Q(3, 2)) == "2*x*y + x - 3/2"
    assert repr(Poly(NAMES)) == "0"
    with pytest.raises(ValueError):
        Poly.monomial(NAMES, "w")


def test_value_and_variable_checks():
    x = Poly.var(NAMES, "x")
    with pytest.raises(ValueError, match="not a constant"):
        x.value()
    assert (x - x + Q(5, 3)).value() == Q(5, 3)
    with pytest.raises(ValueError, match="differ"):
        x + Poly.var(("x",), "x")
    with pytest.raises(ValueError, match="involves"):
        x.rewrite(Poly.monomial(NAMES, "x*y"), x)


def test_poly_layouts_over_a_denominator_are_canonical():
    """The gcd that brings a rational layout to canonical form takes in the
    integer coefficients of Poly numerators: a Poly coefficient over 2 keeps
    its layout over den 2, and a product whose numerators share the
    denominator's factor is reduced, so equal matrices compare and hash equal."""
    a = Poly.var(("A",), "A")
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: a * Q(1, 2)}})
    assert g.structure.den == 2
    assert g.bracket(basis_vec(3, 0), basis_vec(3, 1)) == (0, 0, a * Q(1, 2))

    product = QMatrix([[a * Q(1, 2), Q(1, 2)]]) @ QMatrix([[2], [0]])
    assert (product.den, product.num) == (1, ((a,),))
    assert product == QMatrix([[a]]) and hash(product) == hash(QMatrix([[a]]))


def test_a_constant_hashes_as_the_number_it_equals():
    """Equal values hash equal across Poly, int and Fraction, so a set of
    Poly matrices holds each matrix once."""
    a = Poly.var(NAMES, "x")
    assert a - a == 0 and hash(a - a) == hash(0)
    assert Poly.const(NAMES, 3) == 3 and hash(Poly.const(NAMES, 3)) == hash(3)
    assert Poly.const(NAMES, Q(1, 2)) == Q(1, 2) and hash(Poly.const(NAMES, Q(1, 2))) == hash(Q(1, 2))
    assert len({QMatrix([[a - a, 1]]), QMatrix([[0, 1]])}) == 1


def test_equality_across_variable_tuples_compares_constants():
    """== across variable tuples holds only between equal constants, as the
    hashes do; a set or a matrix comparison of such Polys never raises."""
    x3, y3 = Poly.const(("x",), 3), Poly.const(("y",), 3)
    assert x3 == y3 and hash(x3) == hash(y3) and len({x3, y3}) == 1
    assert QMatrix([[x3]]) == QMatrix([[y3]])
    assert x3 != Poly.const(("y",), 4)
    assert Poly.var(("x",), "x") != Poly.var(("y",), "y")
    assert Poly.var(("x", "y"), "x") != Poly.var(("x",), "x")
    assert x3 != Poly.var(("y",), "y") and Poly.var(("y",), "y") != x3
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="differ"):
            op(x3, y3)
