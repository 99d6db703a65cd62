"""Exact linear algebra kernel: examples plus property tests."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslie.linalg import (
    QMatrix,
    SparseTensor,
    Subspace,
    intersect,
    is_nilpotent_matrix,
    kernel,
    preimage,
    q,
    rank,
)

# ----------------------------------------------------------------------
# examples


def test_rank_identity_and_zero():
    assert rank(QMatrix.identity(2)) == 2
    assert rank(QMatrix.zeros(3, 3)) == 0


def test_rank_family_connection_matrix():
    # the plus-block of nabla_{e1} for parameters C=1, D=1, F=1;
    # Gaussian elimination by hand gives two pivots
    m = QMatrix([[0, 0, 0], [1, 0, 0], [1, 1, 0]])
    assert rank(m) == 2


def test_kernel_identity_and_zero():
    assert kernel(QMatrix.identity(4)).is_zero()
    assert kernel(QMatrix.zeros(3, 3)) == Subspace.full(3)


def test_kernel_of_ad_e1_on_h3_r3():
    # on (0,0,0,0,0,12) the only nonzero bracket is [e1,e2] = -e6
    from cpslie.salamon import parse_salamon

    g = parse_salamon("(0,0,0,0,0,12)")
    k = kernel(g.ad(0))
    expected = Subspace.from_spanning(
        [
            (1, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1),
        ],
        6,
    )
    assert k == expected


def test_nilpotency_examples():
    lower = QMatrix([[0, 0, 0], [1, 0, 0], [2, 3, 0]])
    assert is_nilpotent_matrix(lower)
    assert not is_nilpotent_matrix(QMatrix.identity(3))


def test_nilpotency_fried_matrix_cubes_to_zero():
    from cpslie.catalog import fried_example

    _, lsa = fried_example()
    m = lsa.nabla(0)
    assert (m @ m @ m).is_zero()  # independent of the squaring route
    assert is_nilpotent_matrix(m)


def test_tensor_layout_must_be_n_by_n_squared():
    assert SparseTensor(QMatrix.zeros(3, 9)).dim == 3
    with pytest.raises(ValueError, match="n x n"):
        SparseTensor(QMatrix.zeros(3, 8))


def test_intersect_examples():
    u = Subspace.from_spanning([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    v = Subspace.from_spanning([(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    assert intersect(u, u) == u
    assert intersect(u, v).is_zero()

    a = Subspace.from_spanning([(0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)], 6)
    b = Subspace.from_spanning(
        [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)], 6
    )
    assert intersect(a, b) == Subspace.from_spanning([(0, 0, 0, 0, 1, 0)], 6)


def test_intersect_full_and_zero():
    full, zero = Subspace.full(3), Subspace.zero(3)
    assert intersect(full, full) == full
    assert intersect(full, zero) == zero
    assert intersect(zero, full) == zero
    assert intersect(zero, zero) == zero


def test_block_of_zero_row_blocks_keeps_its_columns():
    m = QMatrix.block([[QMatrix.zeros(0, 2), QMatrix.zeros(0, 3)], [QMatrix.zeros(0, 2), QMatrix.zeros(0, 3)]])
    assert (m.rows, m.cols) == (0, 5)
    assert kernel(m) == Subspace.full(5)


@pytest.mark.parametrize("text, value", [("7", Q(7)), ("-3/4", Q(-3, 4)), ("+2", Q(2)), ("0/5", Q(0))])
def test_q_reads_integers_and_fractions(text, value):
    assert q(text) == value


@pytest.mark.parametrize("text", ["1e999999", "1E3", "1.5", ".5", " 1", "1_000", "nan", "inf", "1/-2", "", "١"])
def test_q_refuses_other_notation(text):
    with pytest.raises(ValueError, match="not a rational literal"):
        q(text)


def test_intersect_dimension_mismatch():
    u = Subspace.full(3)
    v = Subspace.full(4)
    with pytest.raises(ValueError):
        intersect(u, v)


def test_preimage_examples():
    v = Subspace.from_spanning([(1, 2, 0), (0, 0, 1)], 3)
    assert preimage(QMatrix.identity(3), v) == v
    assert preimage(QMatrix.zeros(3, 3), v) == Subspace.full(3)

    rot = QMatrix([[0, -1], [1, 0]])
    x_axis = Subspace.from_spanning([(1, 0)], 2)
    y_axis = Subspace.from_spanning([(0, 1)], 2)
    assert preimage(rot, x_axis) == y_axis


def test_preimage_size_mismatch():
    with pytest.raises(ValueError):
        preimage(QMatrix.identity(2), Subspace.full(3))


# ----------------------------------------------------------------------
# properties

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def matrices(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(QMatrix)


@given(matrices(4, 5))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel(m).dim == m.cols


@given(matrices(3, 3), matrices(3, 3))
@settings(max_examples=40, deadline=None)
def test_intersect_commutes(a, b):
    u = Subspace.from_spanning(a.entries, 3)
    v = Subspace.from_spanning(b.entries, 3)
    assert intersect(u, v) == intersect(v, u)
    assert intersect(u, u) == u


@given(matrices(2, 4), matrices(2, 4), matrices(2, 4))
@settings(max_examples=30, deadline=None)
def test_intersect_associates(a, b, c):
    u = Subspace.from_spanning(a.entries, 4)
    v = Subspace.from_spanning(b.entries, 4)
    w = Subspace.from_spanning(c.entries, 4)
    assert intersect(intersect(u, v), w) == intersect(u, intersect(v, w))


def _char_poly_coeffs(m):
    """Faddeev-LeVerrier: coefficients c1..cn of x^n + c1 x^(n-1) + ... + cn."""
    n = m.rows
    coeffs = []
    work = m
    for k in range(1, n + 1):
        c = -work.trace() / k
        coeffs.append(c)
        if k < n:
            work = m @ (work + QMatrix.identity(n).scale(c))
    return coeffs


def _random_matrix(rng, n, nilpotent):
    entries = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if nilpotent and j <= i:
                continue
            entries[i][j] = Q(rng.randint(-3, 3), rng.randint(1, 2))
    m = QMatrix(entries)
    if nilpotent:
        # conjugate by a unipotent matrix to hide the triangular shape
        u = [[Q(1) if i == j else (Q(rng.randint(-2, 2)) if j < i else Q(0)) for j in range(n)] for i in range(n)]
        p = QMatrix(u)
        m = p @ m @ p.inverse()
    return m


def test_nilpotent_iff_char_poly_xn():
    rng = random.Random(7)
    for trial in range(60):
        m = _random_matrix(rng, 4, nilpotent=trial % 2 == 0)
        via_powers = is_nilpotent_matrix(m)
        via_char_poly = all(c == 0 for c in _char_poly_coeffs(m))
        assert via_powers == via_char_poly


def test_subspace_canonical_representation():
    rng = random.Random(11)
    for _ in range(40):
        rows = [
            [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
            for _ in range(3)
        ]
        u = Subspace.from_spanning(rows, 5)
        # same span, different generators: shuffled sums with nonzero scales
        mixed = [
            [2 * a + b for a, b in zip(rows[0], rows[1])],
            [Q(-1, 3) * a for a in rows[2]],
            [a + c for a, c in zip(rows[0], rows[2])],
            rows[1],
        ]
        v = Subspace.from_spanning(mixed, 5)
        assert u == v
        assert hash(u) == hash(v)
        assert u.basis.entries == v.basis.entries
