"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction.  A QMatrix is held in one canonical
integer form: a positive common denominator `den` and rows `num` of
Python-int numerators, with the gcd of all numerators and `den` divided
out, so equal matrices have equal fields and equal hashes.  Products,
sums, scaling, applications to vectors, traces and comparisons work on
those integers.  The Fraction rows of `.entries` are built lazily, once
per matrix, when a caller reads them.

A product runs row by row.  A row a of the left factor with more than
two nonzero entries is multiplied on packed rows (Kronecker
substitution): each row of the right factor B is packed once into one
int, entry j in slot j of 64 bits, two's complement, little-endian, so
the result row is the one big-integer sum_k a_k * packed(B_k), read back
slot by slot with `struct`.  That is exact while sum_k |a_k| * max |B|
< 2**63, as then every entry of the result fits its signed slot.  A
sparser row, a row over that bound, or a Poly on either side keeps the
loop that adds one row of B per nonzero a_k: on the sparse rows of the
catalog's products the loop is faster, and Python ints cannot overflow
there.  Canonical form is taken where a QMatrix is built: `_product_rows`
returns a product's raw integer rows, and those never leave the kernel
that reads them.

A SparseTensor holds an n x n table of rational n-vectors (structure
constants, connection coefficients) the same way: its n slice matrices
side by side as one QMatrix, plus the nonzero entries as integers over
the same denominator.  Bilinear contraction and slice matrices run on
those integers; an identity over all n slices runs as a few products
on the side-by-side layout and its re-cuts.

The one elimination, `_rref`, is fraction free and returns the canonical
reduced row-echelon form: the rows over one denominator, each holding it
at its pivot.  A Subspace's constructor takes those rows as its basis,
whatever spanning rows it is given, so equal subspaces compare (and hash)
identically however they were spanned; `kernel` and `inverse` read the
same form.

Outside input enters the integer form through `_scaled`, which reads
ints and Fractions directly and sends everything else through `q`: that
accepts "p" or "p/q" strings of decimal digits and rejects everything
else (floats, bools and exponent notation in particular).
"""

from __future__ import annotations

import re
import struct
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
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"not a rational literal (an integer or p/q): {x!r}")
        num, _, den = x.partition("/")  # ASCII digits only, so int() reads what matched
        try:
            return Q(int(num), int(den or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
        except ValueError:  # more digits than int() reads, sys.get_int_max_str_digits()
            raise ValueError(f"rational literal of {len(x)} characters has too many digits") from None
    if isinstance(x, int) and not isinstance(x, bool):
        return Q(x)
    raise TypeError(f"not a rational scalar: {x!r}")


def vec(entries) -> Vector:
    return tuple(q(e) for e in entries)


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def basis_vec(n: int, i: int) -> Vector:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


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


# A product row takes the packed path when it has more than this many nonzero
# entries: on the sparser rows of the catalog's products the loop is faster.
_PACK_MIN_TERMS = 2
# Every entry of a packed product must fit a signed 64-bit slot.
_SLOT_LIMIT = 1 << 63
_TOP_BIT = bytes(7) + b"\x80"  # 2**63 in one little-endian slot
# (struct layout, slot bias) per number of slots
_SLOT_LAYOUTS: dict[int, tuple[struct.Struct, int]] = {}


class _PackedRows:
    """The rows of an integer matrix, each packed into one int with entry j in
    the signed 64-bit slot j (Kronecker substitution), so that a combination
    sum_k a_k B_k of the rows is one big-integer `sum(map(mul, a, rows))`.
    It is exact while sum_k |a_k| * bound < 2**63, `bound` being the largest
    |entry|: then no slot of the sum overflows into the next."""

    __slots__ = ("rows", "bound", "layout", "bias")

    @classmethod
    def of(cls, m: "QMatrix") -> "_PackedRows | bool":
        """m's rows packed, or False if an entry is a Poly or does not fit a slot."""
        try:
            bound = max(map(abs, chain.from_iterable(m.num)), default=0)
        except TypeError:  # a Poly has no abs
            return False
        if bound >= _SLOT_LIMIT:
            return False
        if m.cols not in _SLOT_LAYOUTS:
            _SLOT_LAYOUTS[m.cols] = (struct.Struct(f"<{m.cols}q"), int.from_bytes(_TOP_BIT * m.cols, "little"))
        layout, bias = _SLOT_LAYOUTS[m.cols]
        packed = cls()
        packed.layout, packed.bias, packed.bound = layout, bias, bound
        # two's-complement slots to one signed sum: flip each top bit, then take it off again
        packed.rows = [(int.from_bytes(layout.pack(*r), "little") ^ bias) - bias for r in m.num]
        return packed

    def fits(self, a: Sequence) -> bool:
        """Whether sum_k a_k B_k is exact on the slots: false for a row holding a Poly."""
        try:
            return sum(map(abs, a)) * self.bound < _SLOT_LIMIT
        except TypeError:  # a Poly has no abs
            return False

    def times(self, a: Sequence[int]) -> tuple[int, ...]:
        """The row sum_k a_k B_k, for sum_k |a_k| * bound < 2**63."""
        s = sum(map(mul, a, self.rows)) + self.bias  # every slot now holds its entry + 2**63 >= 0
        return self.layout.unpack((s ^ self.bias).to_bytes(self.layout.size, "little"))


def _matrix(num, den: int, cols: int) -> "QMatrix":
    """QMatrix with entries num / den (den > 0), brought to canonical form;
    a Poly numerator (a family's layouts) enters the gcd with its integer coefficients."""
    if den > 1:
        try:
            g = gcd(den, *chain.from_iterable(num))
        except TypeError:
            coefficients = ((x,) if type(x) is int else x.terms.values() for x in chain.from_iterable(num))
            g = gcd(den, *chain.from_iterable(coefficients))
        if g > 1:
            num = [[x // g for x in r] for r in num]
            den //= g
    return _fill(object.__new__(QMatrix), num, den, cols)


def _fill(m: "QMatrix", num, den: int, cols: int) -> "QMatrix":
    """m with the fields of the canonical rows num over den: the one place a QMatrix is set."""
    object.__setattr__(m, "num", tuple(map(tuple, num)))
    object.__setattr__(m, "den", den)
    object.__setattr__(m, "rows", len(num))
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "_entries", None)
    return m


def _product_rows(num: Sequence[Sequence], b: "QMatrix") -> list:
    """The integer rows of num times b.num, not in canonical form: packed
    where that is exact, else the zero-skipping loop (see the module doc)."""
    zero = [0] * b.cols
    out = []
    packed = None
    zeros_below = b.rows - _PACK_MIN_TERMS  # a row with fewer zeros packs
    for r in num:
        if r.count(0) < zeros_below:
            if packed is None:
                packed = _PackedRows.of(b)
            if packed and packed.fits(r):
                out.append(packed.times(r))
                continue
        acc = zero
        for a, brow in zip(r, b.num):
            if a:
                acc = [x + a * y for x, y in zip(acc, brow)]
        out.append(acc)
    return out


class QMatrix:
    """Immutable rational matrix in canonical integer form (see the module doc)."""

    __slots__ = ("rows", "cols", "num", "den", "_entries")

    def __init__(self, entries: Iterable[Iterable]):
        """The matrix with rows `entries`; `zeros(0, cols)` builds one with no rows."""
        rows = [tuple(r) for r in entries]
        if not rows:
            raise ValueError("empty matrix: no row gives the column count")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix")
        flat, den = _scaled([x for r in rows for x in r])
        _fill(self, [flat[r * ncols:(r + 1) * ncols] for r in range(len(rows))], den, ncols)

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
        cols = sum(b.cols for b in grid[0])
        for row_of_blocks in grid:
            if len({b.rows for b in row_of_blocks}) != 1:
                raise ValueError("the blocks of a block row differ in row count")
            if sum(b.cols for b in row_of_blocks) != cols:
                raise ValueError("the block rows differ in column count")
        den = lcm(*[b.den for row_of_blocks in grid for b in row_of_blocks])
        out = []
        for row_of_blocks in grid:
            for i in range(row_of_blocks[0].rows):
                out.append([x * (den // b.den) for b in row_of_blocks for x in b.num[i]])
        return _matrix(out, den, cols)

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
        return _matrix(_product_rows(self.num, other), self.den * other.den, other.cols)

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
        # (num / den)^-1 = den * num^-1; reduce [num | Id] to [d·Id | d·num^-1] over d
        aug = [list(r) + [int(j == i) for j in range(n)] for i, r in enumerate(self.num)]
        reduced, d, pivots = _rref(aug, n)
        if pivots != list(range(n)):
            raise SingularMatrixError("singular matrix")
        return _matrix([[self.den * x for x in r[n:]] for r in reduced], d, n)

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in r] for r in self.entries]

    @classmethod
    def from_json(cls, data) -> "QMatrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise TypeError("a JSON matrix must be a list of row lists")
        return cls(data)


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


def _rref(rows: Sequence[Sequence[int]], cols: int) -> tuple[list[list[int]], int, list[int]]:
    """Fraction-free reduced row echelon form of integer rows, in canonical form.

    Pivots are searched in the first `cols` columns; row operations act on
    whole rows.  Returns (rows, den, pivots): the nonzero rows over one
    positive denominator den, each holding den at its own pivot column and 0
    at the others, so rows / den is the usual RREF with unit pivots.
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
    den = lcm(*[row[c] for row, c in zip(mat, pivots)])  # positive, so the scaling fixes each sign
    return [[x * (den // row[c]) for x in row] for row, c in zip(mat, pivots)], den, pivots


def rank(m: QMatrix) -> int:
    """Row rank over the rationals."""
    return len(_rref(m.num, m.cols)[2])


class Subspace:
    """The row space of any spanning rows, held as its canonical RREF row basis."""

    __slots__ = ("basis", "pivots")

    def __init__(self, basis: QMatrix):
        reduced, den, pivots = _rref(basis.num, basis.cols)
        object.__setattr__(self, "basis", _matrix(reduced, den, basis.cols))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_spanning(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        rows = [_scaled(v)[0] for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return cls(_matrix(rows, 1, ambient_dim))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(QMatrix.zeros(0, n))

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def to_json(self) -> list[list[str]]:
        return self.basis.to_json()


def kernel(m: QMatrix) -> Subspace:
    """Canonical basis of the null space; dim kernel + rank = cols."""
    reduced, den, pivots = _rref(m.num, m.cols)
    gens = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        # x_f = 1 and x_p = -row[f] / den on each pivot row p, all times den
        v = [0] * m.cols
        v[f] = den
        for r, p in zip(reduced, pivots):
            v[p] = -r[f]
        gens.append(v)
    return Subspace.from_spanning(gens, m.cols)
