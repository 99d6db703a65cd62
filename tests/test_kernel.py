"""The integer matrix and tensor kernels against plain Fraction loops.

The reference implementations below work entry by entry on Fraction
lists, the way the kernels worked before they moved to integers; every
kernel result must equal them exactly.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpslie.linalg as linalg
from cpslie.catalog import load_catalog, witness_structure
from cpslie.connection import Connection, curvature
from cpslie.hypercomplex import lift_cps
from cpslie.lie import LieAlgebra, change_basis
from cpslie.linalg import QMatrix, SingularMatrixError, SparseTensor, basis_vec
from cpslie.poly import Poly
from cpslie.structures import assemble_cps
from examples import NotLie
from table_helper import tensor_from_table

# ----------------------------------------------------------------------
# reference loops


def ref_matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0)) for j in range(len(b[0]))] for i in range(len(a))]


def ref_apply(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Q(0)) for row in a)


def ref_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(r, s)] for r, s in zip(a, b)]


def ref_scale(a, c):
    return [[c * x for x in r] for r in a]


def ref_trace(a):
    return sum((a[i][i] for i in range(len(a))), Q(0))


def ref_inverse(a):
    """Gauss-Jordan on Fractions; None when singular."""
    n = len(a)
    aug = [list(r) + [Q(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [r[n:] for r in aug]


def ref_contract(table, x, y):
    n = len(x)
    out = [Q(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += x[i] * y[j] * table[i][j][k]
    return tuple(out)


def rows_of(m):
    return [list(r) for r in m.entries]


def is_fraction_matrix(m):
    return all(type(x) is Q for r in m.entries for x in r)


# ----------------------------------------------------------------------
# strategies: dense rationals with large denominators, some rows zeroed

big = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9)


def fraction_rows(rows, cols):
    dense = st.lists(st.lists(big, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    zeroed = st.lists(st.booleans(), min_size=rows, max_size=rows)
    return st.tuples(dense, zeroed).map(
        lambda t: [[Q(0)] * cols if z else r for r, z in zip(*t)]
    )


def vectors(n):
    return st.lists(st.one_of(big, st.just(Q(0))), min_size=n, max_size=n)


def tables(n, antisymmetric):
    def build(flat):
        t = [[[flat[(i * n + j) * n + k] for k in range(n)] for j in range(n)] for i in range(n)]
        if antisymmetric:
            for i in range(n):
                for j in range(n):
                    t[i][j] = [Q(0)] * n if i == j else t[min(i, j)][max(i, j)]
                    if i > j:
                        t[i][j] = [-x for x in t[i][j]]
        return t

    return st.lists(st.one_of(big, st.just(Q(0))), min_size=n**3, max_size=n**3).map(build)


# ----------------------------------------------------------------------
# matrices


@given(fraction_rows(4, 3), fraction_rows(3, 5))
@settings(max_examples=25, deadline=None)
def test_matmul_matches_reference(a, b):
    m = QMatrix(a) @ QMatrix(b)
    assert rows_of(m) == ref_matmul(a, b)
    assert is_fraction_matrix(m)


# ----------------------------------------------------------------------
# integer products: the packed rows against the reference

# (rows, inner, cols) of the products the workloads make most
TRAFFIC_SHAPES = [(6, 6, 6), (6, 6, 36), (12, 12, 144)]


def int_rows(rows, cols, bits):
    """Integer rows with entries up to 2**bits in size, each with 0..cols nonzero entries."""

    def place(t):
        values, nonzero, order = t
        row = [0] * cols
        for k in order[:nonzero]:
            row[k] = values[k] or 1
        return row

    row = st.tuples(
        st.lists(st.integers(-(2**bits), 2**bits), min_size=cols, max_size=cols),
        st.integers(0, cols),
        st.permutations(range(cols)),
    ).map(place)
    return st.lists(row, min_size=rows, max_size=rows)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_int_matmul_matches_reference(data):
    """Rows of every density and size, on either side of the 64-bit slot bound."""
    n, k, m = data.draw(st.sampled_from(TRAFFIC_SHAPES))
    a = data.draw(int_rows(n, k, data.draw(st.integers(0, 40))))
    b = data.draw(int_rows(k, m, data.draw(st.integers(0, 40))))
    assert rows_of(QMatrix(a) @ QMatrix(b)) == ref_matmul(a, b)


@pytest.mark.parametrize(
    "row, bound, packed",
    [((1, -1, 5), (2**63 - 1) // 7, 1), ((1, -2, 5), 2**60, 0)],
    ids=["2**63-1", "2**63"],
)
def test_rows_at_the_slot_bound(packed_rows, row, bound, packed):
    """sum |a| * max |b| = 2**63 - 1 packs, with result entries +-(2**63 - 1);
    2**63 would overflow a slot and takes the loop."""
    b = [[bound, -bound], [-bound, bound], [bound, -bound]]
    m = QMatrix([row]) @ QMatrix(b)
    assert rows_of(m) == ref_matmul([row], b)
    assert abs(m.num[0][0]) == sum(map(abs, row)) * bound
    assert len(packed_rows) == packed


@pytest.mark.parametrize("a, b", [((0, 3), (3, 4)), ((2, 0), (0, 3)), ((2, 3), (3, 0))], ids=["rows", "inner", "cols"])
def test_empty_products(a, b):
    left = QMatrix([[1, 2, 3][: a[1]]] * a[0]) if a[0] else QMatrix.zeros(0, a[1])
    right = QMatrix([[1, -1, 2, 5][: b[1]]] * b[0]) if b[0] else QMatrix.zeros(0, b[1])
    m = left @ right
    assert (m.rows, m.cols) == (a[0], b[1])
    assert m == QMatrix.zeros(a[0], b[1])


def test_poly_operands_take_the_loop(packed_rows):
    names = ("A", "B")
    a, b = Poly.var(names, "A"), Poly.var(names, "B")
    ints = QMatrix([[1, 0], [0, 1], [1, 1]])
    assert (QMatrix([[a, b, a + b]]) @ ints).num == ((2 * a + b, a + 2 * b),)
    assert (QMatrix([[1, 2, 3]]) @ QMatrix([[a, 0], [0, b], [b, a]])).num == ((a + 3 * b, 2 * b + 3 * a),)
    assert (QMatrix([[a, b, a + b]]) @ QMatrix([[a], [b], [1]])).num == ((a * a + b * b + a + b,),)
    assert not packed_rows


def test_the_dense_lift_packs_its_product_rows(packed_rows):
    """The 12-dim lift of a dense conjugate: its curvature products take the packed path."""
    witness = next(w for entry in load_catalog() for w in entry.witnesses if w.name == "split-nonflat")
    g, cps = witness_structure(witness)
    rng = random.Random(0)
    while True:
        p = QMatrix([[rng.choice((-2, -1, 1, 2)) for _ in range(6)] for _ in range(6)])
        if linalg.rank(p) == 6:
            break
    pinv = p.inverse()
    moved = assemble_cps(change_basis(g, p), pinv @ cps.j @ p, pinv @ cps.e @ p)
    obata = lift_cps(moved).connection
    packed_rows.clear()
    curvature(obata)
    assert len(packed_rows) > 100


@given(fraction_rows(4, 4), vectors(4))
@settings(max_examples=25, deadline=None)
def test_apply_matches_reference(a, v):
    out = QMatrix(a).apply(v)
    assert out == ref_apply(a, v)
    assert all(type(x) is Q for x in out)


@given(fraction_rows(3, 4), fraction_rows(3, 4), big)
@settings(max_examples=25, deadline=None)
def test_sum_difference_scale_match_reference(a, b, c):
    ma, mb = QMatrix(a), QMatrix(b)
    assert rows_of(ma + mb) == ref_add(a, b)
    assert rows_of(ma - mb) == ref_add(a, b, -1)
    assert rows_of(ma.scale(c)) == ref_scale(a, c)
    assert rows_of(-ma) == ref_scale(a, Q(-1))
    assert all(is_fraction_matrix(m) for m in (ma + mb, ma - mb, ma.scale(c)))


@given(fraction_rows(5, 5))
@settings(max_examples=25, deadline=None)
def test_trace_and_inverse_match_reference(a):
    m = QMatrix(a)
    assert m.trace() == ref_trace(a)
    expected = ref_inverse(a)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            m.inverse()
    else:
        inv = m.inverse()
        assert rows_of(inv) == expected
        assert is_fraction_matrix(inv)
        assert m @ inv == QMatrix.identity(5)


@given(fraction_rows(4, 4), fraction_rows(4, 4), big)
@settings(max_examples=25, deadline=None)
def test_equal_matrices_by_different_routes_compare_and_hash_equal(a, b, c):
    m, other = QMatrix(a), QMatrix(b)
    routes = [
        QMatrix([[str(x) for x in r] for r in a]),
        QMatrix.from_cols([m.col(j) for j in range(4)]),
        m.transpose().transpose(),
        m @ QMatrix.identity(4),
        (m + other) - other,
        -(-m),
        QMatrix.block([[m]]),
        QMatrix(m.entries),
    ]
    if c != 0:
        routes.append(m.scale(c).scale(1 / c))
    for r in routes:
        assert r == m
        assert hash(r) == hash(m)
        assert r.entries == m.entries


def test_canonical_form_divides_out_common_factors():
    m = QMatrix([[Q(2, 3), Q(4, 3)], [0, Q(2)]])
    assert m.den == 3 and m.num == ((2, 4), (0, 6))
    assert m.scale(Q(3, 2)).den == 1
    assert QMatrix.zeros(2, 2).den == 1 and QMatrix.zeros(2, 2) == QMatrix([[0, 0], [0, 0]])


def test_outside_input_still_rejects_floats():
    with pytest.raises(TypeError):
        QMatrix([[0.5]])
    with pytest.raises(TypeError):
        QMatrix.identity(2).apply((0.5, 1))
    with pytest.raises(TypeError):
        QMatrix.identity(2).scale(0.5)


# ----------------------------------------------------------------------
# bilinear contraction


@given(tables(4, antisymmetric=True), vectors(4), vectors(4))
@settings(max_examples=20, deadline=None)
def test_bracket_matches_reference(table, x, y):
    g = NotLie(tensor_from_table(table))
    out = g.bracket(x, y)
    assert out == ref_contract(table, x, y)
    assert all(type(c) is Q for c in out)
    assert SparseTensor(g.structure.side) == g.structure
    assert [[g.bracket(basis_vec(4, i), basis_vec(4, j)) for j in range(4)] for i in range(4)] == [
        [tuple(v) for v in row] for row in table
    ]
    assert g.ad_vector(x).apply(y) == out


@given(tables(3, antisymmetric=False), vectors(3), vectors(3))
@settings(max_examples=20, deadline=None)
def test_connection_apply_matches_reference(table, x, y):
    conn = Connection(LieAlgebra.from_brackets(3, {}), tensor_from_table(table))
    out = conn.apply(x, y)
    assert out == ref_contract(table, x, y)
    assert conn.tensor.slice_matrix(x).apply(y) == out
    assert SparseTensor(conn.tensor.side) == conn.tensor
    assert [[conn.apply(basis_vec(3, i), basis_vec(3, j)) for j in range(3)] for i in range(3)] == [
        [tuple(v) for v in row] for row in table
    ]
    assert conn == Connection(LieAlgebra.from_brackets(3, {}), tensor_from_table([[[str(c) for c in v] for v in row] for row in table]))


def ref_realified_double(table):
    """T[i][j] for x in g, x^ in the hatted copy: [x^, y^] = -[x, y], [x^, y] = [x, y^] = [x, y]^."""
    n = len(table)
    zero = [Q(0)] * n
    out = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            v = list(table[i][j])
            out[i][j] = v + zero
            out[i][n + j] = out[n + i][j] = zero + v
            out[n + i][n + j] = [-x for x in v] + zero
    return out


@given(tables(3, antisymmetric=False))
@settings(max_examples=20, deadline=None)
def test_realified_double_matches_reference(table):
    doubled = tensor_from_table(table).realified_double()
    assert doubled == tensor_from_table(ref_realified_double(table))
