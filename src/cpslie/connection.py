"""The torsion-free connection of a CPS and everything derived from it.

The connection, curvature, Ricci form and the induced left-symmetric
products are all exact rational tensors, and so is every completeness
certificate: the trace argument for flat connections and the integer
grid proofs that every geodesic is a polynomial in time.  The package
has no floating point.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement
from math import comb, lcm
from typing import TYPE_CHECKING, NamedTuple

from .lie import LieAlgebra
from .linalg import (
    Q,
    QMatrix,
    SparseTensor,
    Vector,
    _matrix,
    _product_rows,
    block_columns,
    reshaped,
    swapped,
)

if TYPE_CHECKING:
    from .structures import CPS


class TorsionError(ValueError):
    pass


class CertificateError(ValueError):
    """Two exact certificates of the same property disagree."""


class Connection:
    """nabla_{e_i} e_j as a coordinate vector, held in column i*n + j of a SparseTensor's layout.

    A flat torsion-free connection is a left-symmetric product
    x . y = nabla_x y; `apply` and `nablas` give that view.
    """

    __slots__ = ("algebra", "tensor")

    def __init__(self, algebra: LieAlgebra, tensor: SparseTensor):
        if tensor.dim != algebra.dim:
            raise ValueError("the connection tensor must have the algebra's dimension")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "tensor", tensor)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def nablas(self) -> list[QMatrix]:
        """Every nabla_{e_i} (columns are images of basis vectors), cut from the flat layout."""
        n, den = self.algebra.dim, self.tensor.den
        return [_matrix([r[s:s + n] for s in range(0, n * n, n)], den, n) for r in swapped(self.tensor.side).num]

    def apply(self, x, y) -> Vector:
        return self.tensor.contract(x, y)

    def __eq__(self, other):
        return (
            isinstance(other, Connection)
            and self.algebra == other.algebra
            and self.tensor == other.tensor
        )

    def __hash__(self):
        return hash((self.algebra, self.tensor))


def cp_connection(cps: CPS) -> Connection:
    """The unique torsion-free connection with parallel J and E, built and checked by `assemble_cps`."""
    return cps.connection


def _skew(side: QMatrix) -> QMatrix:
    """Column i*n + j minus column j*n + i of a side-by-side layout, at column i*n + j."""
    n = side.rows
    return _matrix([[r[i * n + j] - r[j * n + i] for i in range(n) for j in range(n)] for r in side.num], side.den, n * n)


def torsion_defect(conn: Connection) -> list[tuple[int, int, Vector]]:
    """Pairs where nabla_x y - nabla_y x != [x, y]."""
    d = _skew(conn.tensor.side) - conn.algebra.structure.side
    return [(i, j, v) for i, j, v in block_columns(d) if j > i]


def _commutator_defects(t: SparseTensor, bracket: QMatrix) -> dict:
    """{(i, j): [M_i, M_j] - M_b for i < j}, over the slices M of t and b the
    column i*n + j of `bracket` (side by side), in two products: one gives
    every M_i M_j, the other every M_b, read row by row."""
    n, side = t.dim, t.side
    flat = swapped(side)  # row k is M_k read row by row
    prod = _product_rows(reshaped(flat, n * n).num, side)  # block (i, j) is M_i M_j
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mbs = _product_rows([[r[i * n + j] for r in bracket.num] for i, j in pairs], flat)
    den = lcm(side.den, bracket.den) * side.den  # over side.den**2 and bracket.den * side.den
    f, h = den // side.den**2, den // (bracket.den * side.den)
    out = {}
    for (i, j), mb in zip(pairs, mbs):
        ij = chain.from_iterable(r[j * n:(j + 1) * n] for r in prod[i * n:(i + 1) * n])
        ji = chain.from_iterable(r[i * n:(i + 1) * n] for r in prod[j * n:(j + 1) * n])
        d = [f * (a - b) - h * c for a, b, c in zip(ij, ji, mb)]
        out[i, j] = _matrix([d[s:s + n] for s in range(0, n * n, n)], den, n)
    return out


class CurvatureReport(NamedTuple):
    r: dict  # {(i, j): QMatrix} for i < j; R(e_j, e_i) = -R(e_i, e_j)
    ricci: QMatrix
    is_flat: bool
    is_ricci_flat: bool
    traceless: bool


def curvature(conn: Connection) -> CurvatureReport:
    """R(x,y) = [nabla_x, nabla_y] - nabla_[x,y], plus Ricci and flags."""
    g = conn.algebra
    n = g.dim
    r = _commutator_defects(conn.tensor, g.structure.side)
    is_flat = all(m.is_zero() for m in r.values())
    # ric(e_i, e_j) = tr(z -> R(z, e_i) e_j): row i sums row z of R(e_z, e_i)
    den = lcm(*[m.den for m in r.values()])
    ricci_rows = []
    for i in range(n):
        acc = [0] * n
        for z in range(n):
            if z != i:
                m = r[(z, i)] if z < i else r[(i, z)]
                f = den // m.den if z < i else -(den // m.den)
                acc = [a + f * b for a, b in zip(acc, m.num[z])]
        ricci_rows.append(acc)
    ricci = _matrix(ricci_rows, den, n)
    return CurvatureReport(
        r=r,
        ricci=ricci,
        is_flat=is_flat,
        is_ricci_flat=ricci.is_zero(),
        traceless=_traces(conn.tensor).is_zero(),
    )


def _traces(t: SparseTensor) -> QMatrix:
    """The row (tr M_0, ..., tr M_{n-1}) over the slices M_i of t."""
    n, side = t.dim, t.side
    return _matrix([[sum(side.num[l][i * n + l] for l in range(n)) for i in range(n)]], side.den, n)


def ricci_via_trace_identity(conn: Connection) -> QMatrix:
    """ric(x,y) = (1/4) tr nabla_{[x,y]} for torsion-free connections
    with skew-symmetric Ricci (the cp connections of this package)."""
    if torsion_defect(conn):
        raise TorsionError("the trace identity needs a torsion-free connection")
    g = conn.algebra
    n = g.dim
    # entry (i, j) is t . [e_i, e_j] / 4: entry i*n + j of t^T [ad(e_0) | ...] / 4
    return reshaped(_traces(conn.tensor).scale(Q(1, 4)) @ g.structure.side, n)


class LSAProduct(Connection):
    """A Connection checked torsion-free and flat, so x . y = nabla_x y is left-symmetric.

    Torsion-freeness is x.y - y.x = [x, y]; given it, the left-symmetry
    defect on (e_i, e_j) is [L_i, L_j] - L_[e_i, e_j], the curvature
    R(e_i, e_j).
    """

    __slots__ = ()

    def __init__(self, algebra: LieAlgebra, tensor: SparseTensor):
        super().__init__(algebra, tensor)
        if torsion_defect(self):
            raise ValueError("not a left-symmetric product: the torsion is nonzero")
        if not curvature(self).is_flat:
            raise ValueError("not a left-symmetric product: the curvature is nonzero")


def restrict_to_lsa(cps: CPS, side: str) -> LSAProduct:
    """The flat LSA induced on one eigenspace subalgebra by the cp connection."""
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    sub = cps.plus if side == "plus" else cps.minus
    conn = cps.connection
    g, basis, m = cps.algebra, sub.basis_vectors(), sub.dim
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    little = LieAlgebra.from_brackets(
        m, {(a, b): dict(enumerate(sub.coordinates(g.bracket(basis[a], basis[b])))) for a, b in pairs}
    )
    # column a*m + b holds the coordinates of basis[a] . basis[b]
    products = [sub.coordinates(conn.apply(x, y)) for x in basis for y in basis]
    return LSAProduct(little, SparseTensor(QMatrix.from_cols(products)))


def lsa_is_complete(p: Connection) -> bool:
    """Completeness of an LSA by the right-multiplication trace criterion.

    Theorem (Helmstetter; Segal): an LSA is complete iff every right
    multiplication R_x : y -> y . x is nilpotent, iff tr R_x = 0 for all x;
    by linearity the basis decides it, tr R_{e_j} = sum_l (e_l . e_j)_l.
    """
    n, num = p.algebra.dim, p.tensor.side.num
    return not any(sum(num[l][l * n + j] for l in range(n)) for j in range(n))


# {a in N^n : |a| = N}, the principal lattice of order N on the simplex, is
# unisolvent for polynomials of degree <= N, so a homogeneous polynomial of
# degree <= N that vanishes on it is zero.  The polynomial certificate tries
# degrees d = 2, 3, ... up to GEODESIC_MAX_DEGREE on grids of order d + 2, and
# stops before a grid of more than GEODESIC_POINT_BUDGET points: the
# 8-dimensional example needs degree 4, on 1,716 points.  Degree 2 fits the
# budget through n = 24, degree 4 through n = 13.
GEODESIC_MAX_DEGREE = 4
GEODESIC_POINT_BUDGET = 20_000


def _grid(n: int, order: int) -> list[list[int]]:
    """The order-`order` grid as one list of values over the points per coordinate.

    A multiset of `order` indices is a grid point, a_i counting index i.
    """
    points = [[p.count(i) for i in range(n)] for p in combinations_with_replacement(range(n), order)]
    return [list(c) for c in zip(*points)]


def _on_grid(terms, ys) -> list[list[int]]:
    """y_{k+1} = sum_i binom(k,i) N(y_i, y_{k-i}) at every grid point at once, for ys = [y_0, ..., y_k].

    Each y_i, and the result, holds one list of values over the points per
    coordinate; `terms` is the `SparseTensor.terms` of N = den * nabla.
    """
    k, out = len(ys) - 1, [None] * len(ys[0])
    for i in range(k + 1):
        x, y, b = ys[i], ys[k - i], comb(k, i)
        live = [any(v) for v in y]
        for u, row in zip(x, terms):
            if any(u):
                for j, col in row:
                    if live[j]:
                        uv = [p * q for p, q in zip(u, y[j])]
                        for m, c in col:
                            c *= b
                            acc = out[m]
                            out[m] = [c * p for p in uv] if acc is None else [s + c * p for s, p in zip(acc, uv)]
    zero = [0] * len(ys[0][0])
    return [zero if o is None else o for o in out]


def _least_degree(terms, n: int, d: int) -> int | None:
    """The least degree of every geodesic if it is at most d: the first k
    whose y_{k+1} vanishes on the order-(d+2) grid; None if y_{d+1} does not."""
    ys = [_grid(n, d + 2)]
    for k in range(d + 1):
        ys.append(_on_grid(terms, ys))
        if not any(chain.from_iterable(ys[-1])):
            return k
    return None


def _grid_size(n: int, d: int) -> dict:
    return {"order": d + 2, "points": comb(n + d + 1, d + 2)}


def exact_polynomial_geodesic_certificate(conn: Connection) -> dict:
    """Prove in integers that every geodesic is a polynomial in t, and find its least degree.

    The body velocity of a geodesic solves x' = F(x) = -B(x,x), with
    B(x,y) = (nabla_x y + nabla_y x)/2, so B(x,x) = nabla_x x.  With
    N = den nabla, the integer numerators of the connection tensor, its
    Taylor coefficients are x_k = (-1)^k y_k / (den^k k!) with y_0 = x(0)
    and y_{k+1} = sum_i binom(k,i) N(y_i, y_{k-i}); y_k is homogeneous of
    degree k + 1 in x(0).

    Every geodesic has degree <= d exactly when y_{d+1} vanishes
    identically.  Let G_k be the k-th time derivative as a function of the
    start, x^(k) = G_k(x), so G_{k+1} = DG_k F.  If G_{d+1} is zero, so is
    its derivative, hence G_{d+2} and every later G_k.  y_{d+1} has degree
    d + 2, so the order-(d+2) grid proves it zero, and it decides the
    earlier y_k, of lower degree, too.  The least degree is the first k
    whose y_{k+1} vanishes there; the y_j before it are nonzero.

    This runs for d = 2, 3, ..., GEODESIC_MAX_DEGREE and stops at the first
    d that passes.  A degree whose grid has more than GEODESIC_POINT_BUDGET
    points is not tried, and `degree_reached` is the last degree tried
    (null if none was).  A false verdict means no certificate up to that
    degree, not a proof of incompleteness.  The scalars are ints for an
    instance and Polys for a family's connection (`catalog.build_family`
    on `_family_variables`), where the zero tests are identities in
    the parameters.  Returns the `geodesic` JSON: "method", "verdict" and
    the "details" of the search.
    """
    n, degree, reached = conn.algebra.dim, None, None
    for d in range(2, GEODESIC_MAX_DEGREE + 1):
        if _grid_size(n, d)["points"] > GEODESIC_POINT_BUDGET:
            break
        reached = d
        if (degree := _least_degree(conn.tensor.terms, n, d)) is not None:
            break
    return {
        "method": "exact-polynomial-geodesic",
        "verdict": degree is not None,
        "details": {
            "equation": "x' = -B(x,x), B(x,y) = (nabla_x y + nabla_y x)/2",
            "recursion": (
                "x(t) = sum_k (-1)^k y_k t^k / (den^k k!), N = den nabla:"
                " y_0 = x(0), y_(k+1) = sum_i binom(k,i) N(y_i, y_(k-i))"
            ),
            "criterion": (
                "degree <= d iff y_(d+1) vanishes on the order-(d+2) grid;"
                " the least degree is the first k with y_(k+1) = 0 there"
            ),
            "degree": degree,
            "degree_reached": reached,
            "max_degree": GEODESIC_MAX_DEGREE,
            "point_budget": GEODESIC_POINT_BUDGET,
            "grid": None if reached is None else _grid_size(n, reached),
        },
    }


def connection_is_complete_certificate(cps: CPS, is_flat: bool) -> dict:
    """The "completeness" JSON of `connection-report` for a CPS whose cp connection has `is_flat`.

    `assemble_cps` certified the connection torsion-free, so a flat one is an
    LSA and gets the exact trace criterion of `lsa_is_complete`, whose theorem
    makes every right multiplication nilpotent when it holds; any other gets
    the exact `exact_polynomial_geodesic_certificate`, the `geodesic` payload.
    """
    if is_flat:
        verdict = lsa_is_complete(cps.connection)
        details = {"right_mult_traces_zero": True, "right_mult_nilpotent": True} if verdict else {}
        return {"method": "segal-trace", "verdict": verdict, "details": details}
    return exact_polynomial_geodesic_certificate(cps.connection)
