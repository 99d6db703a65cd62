"""Parser and printer for the tuple notation of nilpotent Lie algebras.

A tuple like "(0,0,0,0,12,14+23)" lists, per dual basis vector e^k, the
2-form d e^k as a signed sum of index pairs "ij" (meaning e^i ^ e^j).
With the convention (d f)(x ^ y) = -f([x, y]), a term +"ij" in slot k
yields [e_i, e_j] = -e_k.  Pair order matters: "42" is e^4 ^ e^2 and
contributes with the opposite sign to "24".

Grammar (whitespace ignored between tokens):

    tuple := "(" entry ("," entry)* ")"
    entry := "0" | ["-"] term (("+"|"-") term)*
    term  := digit digit          with digits in 1..9
"""

from __future__ import annotations

from .lie import JacobiError, LieAlgebra
from .linalg import Q


class SalamonError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),+-0":
            tokens.append((ch, i))
            i += 1
            continue
        if ch in "123456789":  # ASCII only: str.isdigit() also admits superscripts and Arabic-Indic digits
            if i + 1 < len(text) and text[i + 1] in "0123456789":
                a, b = int(ch), int(text[i + 1])
                if b == 0:
                    raise SalamonError("term digits must be in 1..9", i)
                tokens.append((("term", a, b), i))
                i += 2
                continue
            raise SalamonError("a term needs exactly two digits", i)
        raise SalamonError(f"unexpected character {ch!r}", i)
    return tokens


def parse_salamon(text: str) -> LieAlgebra:
    """Parse a tuple string into the Lie algebra it denotes."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise SalamonError("unexpected end of input", len(text))
        tok, at = tokens[pos]
        if expected is not None and tok != expected:
            raise SalamonError(f"expected {expected!r}", at)
        pos += 1
        return tok, at

    take("(")
    entries = []
    while True:
        # one entry: "0" or a signed sum of terms
        terms = []
        if peek() == "0":
            take()
        else:
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            while True:
                tok, at = take()
                if not (isinstance(tok, tuple) and tok[0] == "term"):
                    raise SalamonError("expected a two-digit term", at)
                terms.append((sign, tok[1], tok[2], at))
                if peek() in ("+", "-"):
                    sign = 1 if take()[0] == "+" else -1
                else:
                    break
        entries.append(terms)
        if peek() == ",":
            take()
            continue
        take(")")
        break
    if pos != len(tokens):
        raise SalamonError("trailing input after tuple", tokens[pos][1])

    dim = len(entries)
    brackets: dict[tuple[int, int], dict[int, Q]] = {}
    for k, terms in enumerate(entries, start=1):
        for sign, a, b, at in terms:
            if a == b:
                raise SalamonError(f"degenerate pair {a}{b}", at)
            if a >= k or b >= k:
                raise SalamonError(
                    f"triangularity violation: pair {a}{b} in slot {k} needs indices < {k}", at
                )
            # d e^k contains sign * e^a ^ e^b, so [e_a, e_b] gets -sign * e_k
            i, j, s = (a, b, sign) if a < b else (b, a, -sign)
            coeffs = brackets.setdefault((i - 1, j - 1), {})
            if k - 1 in coeffs:
                # every coefficient stays a unit, so emit_salamon prints what parses
                raise SalamonError(f"pair {a}{b} repeats the 2-form e^{i}^e^{j} in slot {k}", at)
            coeffs[k - 1] = -s
    try:
        return LieAlgebra.from_brackets(dim, brackets)
    except JacobiError as exc:
        # (d d e^k)(x, y, z) = e^k(Jacobiator(x, y, z)), so the lowest coordinate
        # a defect reaches is the first slot whose entry breaks d^2 = 0
        k = min(m for *_, v in exc.defects for m, c in enumerate(v) if c)
        _, _, _, at = entries[k][0]
        raise SalamonError(f"{exc}; d d e^{k + 1} != 0", at) from None


def emit_salamon(g: LieAlgebra) -> str:
    """Canonical tuple string of a triangular structure-constant table.

    Negative unit coefficients are written as reversed positive pairs
    ("42" rather than "-24"); terms are sorted as written.
    """
    entries = []
    for k, form in enumerate(differential(g)):
        terms = []
        for (i, j), s in form.items():
            if i >= k or j >= k:
                raise SalamonError(
                    f"not triangular: [e_{i+1}, e_{j+1}] hits e_{k+1}"
                )
            if s == 1:
                terms.append((i + 1, j + 1))
            elif s == -1:
                terms.append((j + 1, i + 1))
            else:
                raise SalamonError(
                    f"coefficient {s} of e^{i+1}^e^{j+1} in d e^{k+1} is not a unit;"
                    " change basis before emitting"
                )
        entries.append("+".join(f"{a}{b}" for a, b in sorted(terms)) or "0")
    return "(" + ",".join(entries) + ")"


def differential(g: LieAlgebra) -> list[dict[tuple[int, int], Q]]:
    """d e^k as {(i, j): coeff} with i < j, for each k (0-based), in index order."""
    out: list[dict[tuple[int, int], Q]] = [{} for _ in range(g.dim)]
    for pair, coeffs in g.brackets().items():
        for k, c in coeffs.items():
            out[k][pair] = -c
    return out

