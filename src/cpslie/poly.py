"""Sparse multivariate polynomials over the rationals.

A Poly lives in a fixed ordered tuple of variable names.  It is held in
the same canonical integer form as a QMatrix: a dict from exponent
tuples to nonzero Python-int numerators, and one positive common
denominator, with the gcd of all numerators and the denominator divided
out.  Equal polynomials therefore have equal fields and equal hashes.

Ints and Fractions mix with Polys in +, - , * and ==, as constants, and
a constant Poly hashes as the number it equals; a product by the int 0
is the int 0, as in a matrix of ints and Polys.  Polys in different
variables do not mix in +, - and *; under == only equal constants match.
Substitution of rational values (`subs`) and of a monomial by a
polynomial (`rewrite`) keep the variable names; a substituted variable
simply no longer occurs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add


class Poly:
    """Immutable polynomial over Q in canonical integer form (see the module doc)."""

    __slots__ = ("names", "terms", "den")

    def __init__(self, names, terms=None, den: int = 1):
        """`terms` maps exponent tuples to int numerators, all over `den` > 0."""
        terms = {e: c for e, c in (terms or {}).items() if c}
        if den > 1:
            g = gcd(den, *terms.values())
            if g > 1:
                terms = {e: c // g for e, c in terms.items()}
                den //= g
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "den", den if terms else 1)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # numerator / denominator, as on a Fraction, so that `linalg` reads a
    # Poly bracket coefficient into its integer layouts as it reads a rational
    @property
    def numerator(self) -> "Poly":
        return self if self.den == 1 else Poly(self.names, self.terms)

    @property
    def denominator(self) -> int:
        return self.den

    @classmethod
    def const(cls, names, c) -> "Poly":
        c = Fraction(c)
        return cls(names, {(0,) * len(names): c.numerator}, c.denominator)

    @classmethod
    def var(cls, names, name: str) -> "Poly":
        names = tuple(names)
        return cls(names, {tuple(int(n == name) for n in names): 1})

    @classmethod
    def monomial(cls, names, text: str) -> "Poly":
        """A product like "2*A*F" or "-C*E": rational factors and variable names."""
        out = cls.const(names, 1)
        for factor in text.replace(" ", "").split("*"):
            if factor.lstrip("-") in names:
                sign = -1 if factor.startswith("-") else 1
                out = out * cls.var(names, factor.lstrip("-")) * sign
            else:
                out = out * Fraction(factor)
        return out

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.names != self.names:
                raise ValueError(f"variables {other.names} differ from {self.names}")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly.const(self.names, other)
        return NotImplemented

    def _combine(self, other, sign: int) -> "Poly":
        if type(other) is int and not other:
            return self
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not other.terms:
            return self
        if not self.terms:
            return other if sign > 0 else -other
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        terms = {e: c * fa for e, c in self.terms.items()}
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c * fb
        return Poly(self.names, terms, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "Poly":
        return Poly(self.names, {e: -c for e, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        if type(other) is int:
            if not other:
                return 0
            if other == 1 or not self.terms:
                return self
            return Poly(self.names, {e: c * other for e, c in self.terms.items()}, self.den)
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not self.terms:
            return self
        terms: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                terms[e] = terms.get(e, 0) + ca * cb
        return Poly(self.names, terms, self.den * other.den)

    __rmul__ = __mul__

    def __floordiv__(self, k: int) -> "Poly":
        """self / k, exact for any int k > 0: `linalg` divides a numerator by its gcd with `//`."""
        return Poly(self.names, self.terms, self.den * k)

    def __eq__(self, other) -> bool:
        if type(other) is int and not other:
            return not self.terms
        if isinstance(other, Poly) and other.names != self.names:  # equal only as one constant, as they hash
            return not any(map(any, chain(self.terms, other.terms))) and self.value() == other.value()
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        if not any(any(e) for e in self.terms):
            return hash(self.value())
        return hash((self.names, self.den, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def value(self) -> Fraction:
        """The constant this polynomial is; ValueError if a variable occurs."""
        if any(any(e) for e in self.terms):
            raise ValueError(f"{self} is not a constant")
        return Fraction(sum(self.terms.values()), self.den)

    def subs(self, values) -> "Poly":
        """Substitute rational values {name: value} for variables."""
        idx = {self.names.index(n): Fraction(v) for n, v in values.items()}
        out: dict = {}
        for e, c in self.terms.items():
            c = Fraction(c)
            for i, v in idx.items():
                if e[i]:
                    c *= v ** e[i]
            key = tuple(0 if i in idx else k for i, k in enumerate(e))
            out[key] = out.get(key, 0) + c
        den = lcm(*(c.denominator for c in out.values())) if out else 1
        return Poly(self.names, {e: c.numerator * (den // c.denominator) for e, c in out.items()}, den * self.den)

    def rewrite(self, lhs: "Poly", rhs: "Poly") -> "Poly":
        """Replace the monomial `lhs` by `rhs` wherever it divides a term, until none is left.

        `rhs` must not involve the variables of `lhs`, so each step lowers
        their degree and the rewriting ends.
        """
        ((m, cm),) = lhs.terms.items()
        step = self._coerce(rhs) * Fraction(lhs.den, cm)
        if any(a and b for e in step.terms for a, b in zip(e, m)):
            raise ValueError(f"{rhs} involves a variable of {lhs}")
        out = self
        while True:
            hits = {e: c for e, c in out.terms.items() if all(a >= b for a, b in zip(e, m))}
            if not hits:
                return out
            rest = Poly(self.names, {e: c for e, c in out.terms.items() if e not in hits}, out.den)
            quot = Poly(self.names, {tuple(a - b for a, b in zip(e, m)): c for e, c in hits.items()}, out.den)
            out = rest + quot * step

    def multiple_of(self, other: "Poly") -> Fraction | None:
        """c with self == c * other, or None if there is none (other nonzero)."""
        e, c = next(iter(other.terms.items()))
        ratio = Fraction(self.terms.get(e, 0) * other.den, self.den * c)
        return ratio if self == other * ratio else None

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            coeff = Fraction(c, self.den)
            mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(self.names, e) if k)
            if not mono:
                parts.append(str(coeff))
            elif coeff in (1, -1):
                parts.append(("-" if coeff < 0 else "") + mono)
            else:
                parts.append(f"{coeff}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

