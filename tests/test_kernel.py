"""The integer matrix and tensor kernels against plain Fraction loops.

The reference implementations below work entry by entry on Fraction
lists, the way the kernels worked before they moved to integers; every
kernel result must equal them exactly.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslie.connection import Connection
from cpslie.lie import LieAlgebra
from cpslie.linalg import QMatrix, SingularMatrixError, SparseTensor

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
    g = LieAlgebra(4, table, check=False)
    out = g.bracket(x, y)
    assert out == ref_contract(table, x, y)
    assert all(type(c) is Q for c in out)
    assert g.table == tuple(tuple(tuple(v) for v in row) for row in table)
    assert g.ad_vector(x).apply(y) == out


@given(tables(3, antisymmetric=False), vectors(3), vectors(3))
@settings(max_examples=20, deadline=None)
def test_connection_apply_matches_reference(table, x, y):
    conn = Connection(LieAlgebra.abelian(3), table)
    out = conn.apply(x, y)
    assert out == ref_contract(table, x, y)
    assert conn.nabla_vector(x).apply(y) == out
    assert conn.gamma == tuple(tuple(tuple(v) for v in row) for row in table)
    assert conn == Connection(LieAlgebra.abelian(3), [[[str(c) for c in v] for v in row] for row in table])


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
    doubled = SparseTensor(3, table).realified_double()
    assert doubled == SparseTensor(6, ref_realified_double(table))
