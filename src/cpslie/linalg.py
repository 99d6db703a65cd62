"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction.  A QMatrix is held in one canonical
integer form: a positive common denominator `den` and rows `num` of
Python-int numerators, with the gcd of all numerators and `den` divided
out, so equal matrices have equal fields and equal hashes.  Products,
sums, scaling, applications to vectors, traces and comparisons work on
those integers.  The Fraction rows of `.entries` are built lazily, once
per matrix, when a caller reads them.  Python ints cannot overflow, so
there is no fixed-width path and no fallback.

A SparseTensor holds an n x n table of rational n-vectors (structure
constants, connection coefficients) the same way: its n slice matrices
side by side as one QMatrix, plus the nonzero entries as integers over
the same denominator.  Bilinear contraction and slice matrices run on
those integers; an identity over all n slices runs as a few products
on the side-by-side layout and its re-cuts.

Subspaces are kept in reduced row-echelon form with unit pivots so that
equal subspaces compare (and hash) identically; the row reduction itself
is fraction free.

Outside input enters the integer form through `_scaled`, which reads
ints and Fractions directly and sends everything else through `q`: that
accepts "p" or "p/q" strings of decimal digits and rejects everything
else (floats, bools and exponent notation in particular).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Q = Fraction

Vector = tuple[Q, ...]

_ZERO = Q(0)


# digits only: the eight bytes "1e999999" would cost minutes of big-integer work
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def q(x) -> Q:
    """Coerce an int, a string "p" or "p/q" of decimal digits, or a Fraction to Fraction."""
    if isinstance(x, Q):
        return x
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise ValueError(f"not a rational literal (an integer or p/q): {x!r}")
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Q(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not a rational scalar: {x!r}")


def vec(entries) -> Vector:
    return tuple(q(e) for e in entries)


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def basis_vec(n: int, i: int, scale=1) -> Vector:
    return tuple(q(scale) if j == i else Q(0) for j in range(n))


def _scaled(v) -> tuple[list[int], int]:
    """(numerators, d) with v = numerators / d and d the least common denominator.

    Ints and Fractions (and Polys, whose numerators stay Polys) are read
    directly; anything else goes through `q`, bools too, though they have
    a denominator.  For reduced entries the form is canonical: no common
    factor is left in d and the numerators.
    """
    if bool not in map(type, v):
        try:
            d = lcm(*[x.denominator for x in v])
            return [x.numerator * (d // x.denominator) for x in v], d
        except AttributeError:
            pass
    return _scaled(vec(v))


def _unscaled(nums: Sequence, d: int) -> Vector:
    """The Fraction vector nums / d, for d > 0; Poly numerators (a family's layouts) stay Polys."""
    try:
        return tuple(Q(a, d) if a else _ZERO for a in nums)
    except TypeError:
        return tuple(a * Q(1, d) if a else _ZERO for a in nums)


class SingularMatrixError(ValueError):
    pass


def _matrix(num, den: int, cols: int) -> "QMatrix":
    """QMatrix with entries num / den (den > 0), brought to canonical form;
    Poly numerators (a family's layouts) are left unreduced."""
    if den > 1:
        try:
            g = gcd(den, *chain.from_iterable(num))
        except TypeError:
            g = 1
        if g > 1:
            num = [[x // g for x in r] for r in num]
            den //= g
    m = object.__new__(QMatrix)
    object.__setattr__(m, "num", tuple(map(tuple, num)))
    object.__setattr__(m, "den", den)
    object.__setattr__(m, "rows", len(num))
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "_entries", None)
    return m


class QMatrix:
    """Immutable rational matrix in canonical integer form (see the module doc)."""

    __slots__ = ("rows", "cols", "num", "den", "_entries")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        rows = [tuple(r) for r in entries]
        flat, den = _scaled([x for r in rows for x in r])
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged matrix")
            if cols is not None and cols != ncols:
                raise ValueError("cols mismatch")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = cols
        object.__setattr__(self, "num", tuple(tuple(flat[r * ncols:(r + 1) * ncols]) for r in range(len(rows))))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "_entries", None)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The rows as Fraction tuples, built on first use."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(_unscaled(r, self.den) for r in self.num))
        return self._entries

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return _matrix([[0] * cols for _ in range(rows)], 1, cols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return _matrix([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @classmethod
    def from_cols(cls, cols: Sequence[Vector]) -> "QMatrix":
        n = len(cols[0])
        return cls([[c[i] for c in cols] for i in range(n)])

    @classmethod
    def diag_blocks(cls, *blocks: "QMatrix") -> "QMatrix":
        return cls.block(
            [[b if k == r else cls.zeros(blocks[r].rows, b.cols) for k, b in enumerate(blocks)]
             for r in range(len(blocks))]
        )

    @classmethod
    def block(cls, grid: Sequence[Sequence["QMatrix"]]) -> "QMatrix":
        den = lcm(*[b.den for row_of_blocks in grid for b in row_of_blocks])
        out = []
        for row_of_blocks in grid:
            for i in range(row_of_blocks[0].rows):
                out.append([x * (den // b.den) for b in row_of_blocks for x in b.num[i]])
        return _matrix(out, den, sum(b.cols for b in grid[0]))

    def entry(self, i: int, j: int) -> Q:
        return Q(self.num[i][j], self.den)

    def col(self, j: int) -> Vector:
        return _unscaled([r[j] for r in self.num], self.den)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.num))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"QMatrix({self.rows}x{self.cols}: {body})"

    def _combine(self, other: "QMatrix", sign: int) -> "QMatrix":
        """self + sign * other."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        num = [[x * a + y * b for x, y in zip(r, s)] for r, s in zip(self.num, other.num)]
        return _matrix(num, den, self.cols)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "QMatrix":
        return _matrix([[-x for x in r] for r in self.num], self.den, self.cols)

    def scale(self, c) -> "QMatrix":
        c = q(c)
        a = c.numerator
        return _matrix([[a * x for x in r] for r in self.num], self.den * c.denominator, self.cols)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        zero = [0] * other.cols
        num = []
        for r in self.num:
            acc = zero
            for a, brow in zip(r, other.num):
                if a:
                    acc = [x + a * y for x, y in zip(acc, brow)]
            num.append(acc)
        return _matrix(num, self.den * other.den, other.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector."""
        xs, d = _scaled(v)
        if len(xs) != self.cols:
            raise ValueError("vector length mismatch")
        return _unscaled([sum(map(mul, r, xs)) for r in self.num], self.den * d)

    def transpose(self) -> "QMatrix":
        return _matrix(list(zip(*self.num)) if self.rows else [], self.den, self.rows)

    def trace(self) -> Q:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return Q(sum(self.num[i][i] for i in range(self.rows)), self.den)

    def inverse(self) -> "QMatrix":
        if not self.is_square():
            raise SingularMatrixError("only square matrices can be inverted")
        n = self.rows
        # (num / den)^-1 = den * num^-1; reduce [num | Id] to [diag(p) | X]
        aug = [list(r) + [int(j == i) for j in range(n)] for i, r in enumerate(self.num)]
        reduced, pivots = _rref(aug, n)
        if pivots != list(range(n)):
            raise SingularMatrixError("singular matrix")
        den = lcm(*[r[i] for i, r in enumerate(reduced)])
        num = [[self.den * (den // r[i]) * x for x in r[n:]] for i, r in enumerate(reduced)]
        return _matrix(num, den, n)

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in r] for r in self.entries]

    @classmethod
    def from_json(cls, data, cols: int | None = None) -> "QMatrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise TypeError("a JSON matrix must be a list of row lists")
        return cls(data, cols=cols)


class SparseTensor:
    """An n x n table of rational n-vectors T[i][j], kept on integers.

    `side` is the n x n^2 QMatrix [M_0 | ... | M_{n-1}] of the slices
    M_i = slice_matrix(e_i): column i*n + j holds T[i][j].  Identities
    over all slices run as a few products on it and its re-cuts
    (`swapped`, `transposed_blocks`, `reshaped`).  `terms[i]` lists
    `(j, ((k, c), ...))` for every j with T[i][j] != 0, both in index
    order, with T[i][j][k] = c / den; so equal tensors have equal fields.
    The layout is the only way in: `LieAlgebra.from_brackets` builds one
    from a bracket description.
    """

    __slots__ = ("dim", "den", "terms", "side")

    def __init__(self, side: QMatrix):
        n = side.rows
        if side.cols != n * n:
            raise ValueError(f"a tensor layout must be n x n^2, not {n} x {side.cols}")
        cols = list(zip(*side.num))
        terms = tuple(
            tuple((j, w) for j in range(n) if (w := tuple((k, c) for k, c in enumerate(cols[i * n + j]) if c)))
            for i in range(n)
        )
        for name, value in (("dim", n), ("den", side.den), ("terms", terms), ("side", side)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SparseTensor is immutable")

    def realified_double(self) -> "SparseTensor":
        """The 2n tensor whose slice i is diag(M_i, M_i) and slice n+i is
        [[0, -M_i], [M_i, 0]], for M_i = slice_matrix(e_i).

        On a Lie bracket this is the complexification viewed as a real
        algebra on {e_i} + {e_i^}; on a connection it is the blockwise
        extension to that algebra.
        """
        n, z = self.dim, (0,) * self.dim
        plain, hatted = [], []
        for r in self.side.num:
            row_k = [r[i * n:(i + 1) * n] for i in range(n)]
            plain.append([*chain(*[m + z for m in row_k]), *chain(*[z + tuple(-x for x in m) for m in row_k])])
            hatted.append([*chain(*[z + m for m in row_k]), *chain(*[m + z for m in row_k])])
        return SparseTensor(_matrix(plain + hatted, self.den, 4 * n * n))

    def contract(self, x, y) -> Vector:
        """sum_ij x_i y_j T[i][j]."""
        xs, dx = _scaled(x)
        ys, dy = _scaled(y)
        if len(xs) != self.dim or len(ys) != self.dim:
            raise ValueError("vector length must equal dim")
        out = [0] * self.dim
        for a, row in zip(xs, self.terms):
            if a:
                for j, w in row:
                    b = ys[j]
                    if b:
                        ab = a * b
                        for k, c in w:
                            out[k] += ab * c
        return _unscaled(out, dx * dy * self.den)

    def slice_matrix(self, x) -> QMatrix:
        """Matrix of y -> sum_ij x_i y_j T[i][j]."""
        xs, dx = _scaled(x)
        if len(xs) != self.dim:
            raise ValueError("vector length must equal dim")
        n = self.dim
        num = [[0] * n for _ in range(n)]
        for a, row in zip(xs, self.terms):
            if a:
                for j, w in row:
                    for k, c in w:
                        num[k][j] += a * c
        return _matrix(num, dx * self.den, n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensor)
            and self.dim == other.dim
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, self.den, self.terms))


def swapped(m: QMatrix) -> QMatrix:
    """X[b][a][c] for m read as X[a][b][c] = m[a][b*n + c], n = m.rows.

    Takes the side-by-side layout of square blocks, X[p][i][y] = B_i[p][y],
    to the flat one, X[i][p][y], whose row i is B_i read row by row, and back.
    """
    n = m.rows
    return _matrix([list(chain.from_iterable(r[b * n:(b + 1) * n] for r in m.num)) for b in range(n)], m.den, n * n)


def transposed_blocks(m: QMatrix) -> QMatrix:
    """X[c][b][a] for m read as X[a][b][c] = m[a][b*n + c]: [B_0^T | B_1^T | ...]
    from the side-by-side [B_0 | B_1 | ...]."""
    n, cols = m.rows, list(zip(*m.num))
    return _matrix([list(chain.from_iterable(cols[c::n])) for c in range(n)], m.den, n * n)


def right_product(m: QMatrix, a: QMatrix) -> QMatrix:
    """Every square block of m times A, in m's layout (side by side or flat):
    one product on the layout that puts the blocks' column index first."""
    return transposed_blocks(a.transpose() @ transposed_blocks(m))


def reshaped(m: QMatrix, rows: int) -> QMatrix:
    """The same entries read row by row into `rows` rows."""
    flat, cols = list(chain.from_iterable(m.num)), m.rows * m.cols // rows
    return _matrix([flat[s:s + cols] for s in range(0, len(flat), cols)], m.den, cols)


def block_columns(m: QMatrix) -> list[tuple[int, int, Vector]]:
    """(i, j, column j of B_i) for every nonzero column of a side-by-side [B_0 | B_1 | ...]."""
    n, cols = m.rows, list(zip(*m.num))
    return [(i, j, _unscaled(cols[i * n + j], m.den)) for i in range(n) for j in range(n) if any(cols[i * n + j])]


def _rref(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of integer rows.

    Pivots are searched in the first `cols` columns; row operations act on
    whole rows.  Returns the nonzero rows, each primitive with a positive
    pivot entry, and the pivot columns: row r divided by its pivot entry
    is row r of the usual RREF with unit pivots.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                new = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*new)
                mat[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out = []
    for row, c in zip(mat[:r], pivots):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        out.append([x // g for x in row])
    return out, pivots


def rank(m: QMatrix) -> int:
    """Row rank over the rationals."""
    return len(_rref(m.num, m.cols)[1])


def is_nilpotent_matrix(m: QMatrix) -> bool:
    """True iff M**n = 0; tested by repeated squaring up to exponent >= n."""
    if not m.is_square():
        raise ValueError("nilpotency is only defined for square matrices")
    n = m.rows
    power = m
    e = 1
    while e < n:
        power = power @ power
        e *= 2
    return power.is_zero()


class Subspace:
    """Linear subspace of Q^n held as a canonical RREF row basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: QMatrix):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(
            self, "pivots", tuple(next(j for j, x in enumerate(r) if x) for r in basis.num)
        )

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_spanning(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        rows = [_scaled(v)[0] for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        reduced, pivots = _rref(rows, ambient_dim)
        den = lcm(*[r[p] for r, p in zip(reduced, pivots)])
        num = [[x * (den // r[p]) for x in r] for r, p in zip(reduced, pivots)]
        return cls(ambient_dim, _matrix(num, den, ambient_dim))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, QMatrix.zeros(0, n))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, QMatrix.identity(n))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.basis.entries

    def contains(self, v: Sequence) -> bool:
        xs, _ = _scaled(v)
        if len(xs) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        # basis row r is num[r] / den with num[r][pivot] == den
        den = self.basis.den
        residual = [x * den for x in xs]
        for row, p in zip(self.basis.num, self.pivots):
            f = xs[p]
            if f:
                residual = [a - f * b for a, b in zip(residual, row)]
        return not any(residual)

    def coordinates(self, v: Sequence) -> Vector:
        """Coefficients of v in the RREF basis; raises if v is outside."""
        w = vec(v)
        if len(w) != self.ambient_dim or not self.contains(w):
            raise ValueError("vector not in subspace")
        return tuple(w[p] for p in self.pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def to_json(self) -> list[list[str]]:
        return self.basis.to_json()


def kernel(m: QMatrix) -> Subspace:
    """Canonical basis of the null space; dim kernel + rank = cols."""
    reduced, pivots = _rref(m.num, m.cols)
    pivot_set = set(pivots)
    gens = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        # x_f = scale, x_p = -row[f] / row[p] * scale for each pivot row
        scale = lcm(*[r[p] for r, p in zip(reduced, pivots) if r[f]])
        v = [0] * m.cols
        v[f] = scale
        for r, p in zip(reduced, pivots):
            if r[f]:
                v[p] = -r[f] * (scale // r[p])
        gens.append(v)
    return Subspace.from_spanning(gens, m.cols)


def map_subspace(m: QMatrix, v: Subspace) -> Subspace:
    """Image of a subspace under a linear map."""
    if m.cols != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_spanning((v.basis @ m.transpose()).num, m.rows)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Canonical basis of the intersection: the kernel of the stacked annihilators."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return kernel(QMatrix.block([[annihilator(u).basis], [annihilator(v).basis]]))


def annihilator(v: Subspace) -> Subspace:
    """Functionals (as coordinate rows) vanishing on the subspace."""
    return kernel(v.basis)


def preimage(m: QMatrix, v: Subspace) -> Subspace:
    """{x : Mx in V}, canonical form."""
    if m.rows != v.ambient_dim:
        raise ValueError("matrix size does not match ambient dimension")
    return kernel(annihilator(v).basis @ m)
