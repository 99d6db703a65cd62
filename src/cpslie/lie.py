"""Lie algebras given by rational structure-constant tables.

Basis indices are 0-based throughout the Python API; the JSON wire
format is 1-based and lists only i<j brackets.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Mapping, Sequence

from .linalg import (
    Q,
    QMatrix,
    SparseTensor,
    Subspace,
    Vector,
    _matrix,
    _scaled,
    _unscaled,
    kernel,
    q,
    reshaped,
    right_product,
    swapped,
    vec_is_zero,
)


class JacobiError(ValueError):
    """Raised when a would-be Lie algebra violates the Jacobi identity.

    `defects` holds 0-based triples; the message names them 1-based, as
    the tuple notation does.
    """

    def __init__(self, defects):
        self.defects = defects
        triples = ", ".join(f"({i + 1},{j + 1},{k + 1})" for i, j, k, _ in defects[:4])
        super().__init__(f"Jacobi identity fails on basis triples {triples}")


# The largest dimension read from a bracket description: the layout takes
# n^3 integers and the Jacobi check n^3 / 6 triples.  Doubles for the
# hypercomplex lift are built from a layout and are not bounded by it.
MAX_DIM = 16


class LieAlgebra:
    """dim plus the antisymmetric structure constants, held as a SparseTensor."""

    __slots__ = ("dim", "structure")

    def __init__(self, structure: SparseTensor):
        """Column i*n + j of `structure.side` holds [e_i, e_j]; `from_brackets`
        builds the algebra from a bracket description instead.  Antisymmetry
        and the Jacobi identity are checked on every layout."""
        pairs = [dict(row) for row in structure.terms]
        for i, row in enumerate(pairs):
            for j, w in row.items():
                if pairs[j].get(i) != tuple((k, -c) for k, c in w):
                    raise ValueError(f"antisymmetry fails on pair ({i},{j})")
        defects = jacobi_defect(structure)
        if defects:
            raise JacobiError(defects)
        object.__setattr__(self, "dim", structure.dim)
        object.__setattr__(self, "structure", structure)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]]) -> "LieAlgebra":
        """Build from a sparse {(i, j): {k: coeff}} description, i < j; `brackets` reads it back.

        The only way from such a description into the side-by-side layout:
        the coefficients (rationals, or Polys in a family's parameters) go
        through `linalg._scaled` once, onto one common denominator.  A
        negative dimension or one over MAX_DIM is refused before anything is
        allocated; a pair or index out of range is named 1-based, as in JSON.
        """
        if dim < 0:
            raise ValueError(f"dimension {dim} is negative")
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} is over the maximum of {MAX_DIM}")
        n, cells, coeffs = dim, [], []
        for (i, j), row in brackets.items():
            if not 0 <= i < j < n:
                raise ValueError(f"bracket pair ({i + 1},{j + 1}) must satisfy 1 <= i < j <= dim")
            for k, c in row.items():
                if not 0 <= k < n:
                    raise ValueError(f"coefficient index {k + 1} of pair ({i + 1},{j + 1}) must satisfy 1 <= k <= dim")
                cells.append((k, i * n + j, j * n + i))
                coeffs.append(c)
        nums, den = _scaled(coeffs)
        side = [[0] * n * n for _ in range(n)]  # column i*n + j holds [e_i, e_j]
        for (k, ij, ji), x in zip(cells, nums):
            side[k][ij], side[k][ji] = x, -x
        return cls(SparseTensor(_matrix(side, den, n * n)))

    def brackets(self) -> dict[tuple[int, int], dict[int, Q]]:
        """{(i, j): {k: coeff}} for every i < j and nonzero coeff, in index
        order: the only way back from the layout to `from_brackets`' form."""
        den = self.structure.den
        return {
            (i, j): {k: Q(c, den) for k, c in w} for i, row in enumerate(self.structure.terms) for j, w in row if i < j
        }

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """Bilinear antisymmetric product from the structure constants."""
        return self.structure.contract(x, y)

    def ad_vector(self, x: Sequence) -> QMatrix:
        return self.structure.slice_matrix(x)

    def ad_columns(self, a: QMatrix) -> QMatrix:
        """Row i is ad(A e_i) read row by row: one product on the flat layout,
        whose row k is ad(e_k)."""
        return a.transpose() @ swapped(self.structure.side)

    def __eq__(self, other) -> bool:
        return isinstance(other, LieAlgebra) and self.structure == other.structure

    def __hash__(self):
        return hash(self.structure)

    def __repr__(self):
        nonzero = sum(1 for i, row in enumerate(self.structure.terms) for j, _ in row if i < j)
        return f"LieAlgebra(dim={self.dim}, {nonzero} nonzero basis brackets)"


def jacobi_defect(t: SparseTensor) -> list[tuple[int, int, int, Vector]]:
    """Basis triples where [[x,y],z] + [[y,z],x] + [[z,x],y] != 0 for the
    bracket held in the layout t: the Jacobi check of a tensor, which raises nothing."""
    n = t.dim
    pairs = [dict(row) for row in t.terms]

    def nested(i, j, k):
        # [[e_i, e_j], e_k], numerators over den^2
        acc = [0] * n
        for m, c in pairs[i].get(j, ()):
            for l, d in pairs[m].get(k, ()):
                acc[l] += c * d
        return acc

    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = [a + b + c for a, b, c in zip(nested(i, j, k), nested(j, k, i), nested(k, i, j))]
                if any(s):
                    out.append((i, j, k, _unscaled(s, t.den ** 2)))
    return out


def center(g: LieAlgebra) -> Subspace:
    """Intersection of the kernels of ad(e_i) over the basis: the kernel of
    the stacked [ad(e_0); ...; ad(e_{n-1})]."""
    return kernel(reshaped(swapped(g.structure.side), g.dim**2))


class ThreeDimType(str, Enum):
    ABELIAN3 = "Abelian3"
    HEISENBERG3 = "Heisenberg3"
    NOT_SUBALGEBRA = "NotSubalgebra"
    OTHER = "Other"


def iso_type_3d(g: LieAlgebra, v: Subspace) -> ThreeDimType:
    """Classify a 3-dimensional subspace as a subalgebra type."""
    if v.dim != 3:
        raise ValueError("iso_type_3d needs a 3-dimensional subspace")
    basis = v.basis_vectors()
    internal = []
    for a in range(3):
        for b in range(a + 1, 3):
            w = g.bracket(basis[a], basis[b])
            if not v.contains(w):
                return ThreeDimType.NOT_SUBALGEBRA
            internal.append(w)
    derived = Subspace.from_spanning(internal, g.dim)
    if derived.is_zero():
        return ThreeDimType.ABELIAN3
    if derived.dim == 1:
        gen = derived.basis_vectors()[0]
        if all(vec_is_zero(g.bracket(gen, b)) for b in basis):
            return ThreeDimType.HEISENBERG3
    return ThreeDimType.OTHER


def semidirect_product(h: LieAlgebra, action: Sequence[QMatrix]) -> LieAlgebra:
    """h acting on an abelian V = Q^s by rho(e_i) = action[i]:
    [(x,u),(y,v)] = ([x,y], rho(x)v - rho(y)u).

    Only the shapes are checked here.  The Jacobi identity of the result
    on (e_i, e_j, v) is rho([e_i,e_j]) = [rho(e_i), rho(e_j)], so the
    construction raises JacobiError exactly when rho is not a representation.
    """
    m = h.dim
    s = action[0].rows if action else 0
    if len(action) != m or any(a.rows != s or a.cols != s for a in action):
        raise ValueError("one s x s action matrix per basis vector of h required")
    brackets = h.brackets()
    for i in range(m):
        for j in range(s):
            coeffs = {m + k: c for k, c in enumerate(action[i].col(j)) if c != 0}
            if coeffs:
                brackets[(i, m + j)] = coeffs
    return LieAlgebra.from_brackets(m + s, brackets)


def complexify_realified(g: LieAlgebra) -> LieAlgebra:
    """Complexification viewed as a real algebra on {e_i} + {hat e_i}.

    [x, y] is as in g, [x^, y^] = -[x, y], and [x^, y] = [x, y^] = ([x, y])^.
    """
    return LieAlgebra(g.structure.realified_double())


def change_basis(g: LieAlgebra, p: QMatrix) -> LieAlgebra:
    """Same bracket in the basis given by the columns of P (old coordinates)."""
    if p.rows != g.dim or p.cols != g.dim:
        raise ValueError("basis-change matrix must be dim x dim")
    # column j of P^-1 ad(P e_i) P is [e_i, e_j] in the new basis
    side = p.inverse() @ swapped(right_product(g.ad_columns(p), p))
    return LieAlgebra(SparseTensor(side))


def algebra_to_json(g: LieAlgebra) -> dict:
    """1-indexed sparse JSON form listing only i<j nonzero brackets."""
    items = [
        {"i": i + 1, "j": j + 1, "coeffs": {str(k + 1): str(c) for k, c in coeffs.items()}}
        for (i, j), coeffs in g.brackets().items()
    ]
    return {"dim": g.dim, "brackets": items}


def _json_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


# a coefficient index as a JSON key: ASCII digits without sign, spaces,
# underscores or leading zeros, so that each index has exactly one key
_INDEX_KEY = re.compile(r"0|[1-9][0-9]*")


def algebra_from_json(data: Mapping) -> LieAlgebra:
    dim = _json_int(data["dim"], "dim")
    brackets: dict[tuple[int, int], dict[int, Q]] = {}
    for item in data.get("brackets", []):
        i, j = _json_int(item["i"], "i"), _json_int(item["j"], "j")
        if (i - 1, j - 1) in brackets:
            raise ValueError(f"bracket pair ({i},{j}) is given twice")
        if not isinstance(item["coeffs"], dict):
            raise ValueError(f"coeffs of pair ({i},{j}) must be an object mapping indices to values")
        coeffs = {}
        for k, v in item["coeffs"].items():
            if not (isinstance(k, str) and _INDEX_KEY.fullmatch(k)):
                raise ValueError(f"coefficient index {k!r} of pair ({i},{j}) must be a decimal integer like \"4\"")
            if len(k) > len(str(MAX_DIM)):
                raise ValueError(f"coefficient index of pair ({i},{j}) has {len(k)} digits, over the maximum dimension {MAX_DIM}")
            coeffs[int(k) - 1] = q(v)
        brackets[(i - 1, j - 1)] = coeffs
    return LieAlgebra.from_brackets(dim, brackets)
