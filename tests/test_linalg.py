"""Exact linear algebra kernel: examples plus property tests."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslie.linalg import (
    QMatrix,
    SingularMatrixError,
    SparseTensor,
    Subspace,
    _rref,
    basis_vec,
    kernel,
    q,
    rank,
)
from examples import intersect, is_nilpotent_matrix, preimage

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
    assert kernel(QMatrix.zeros(3, 3)) == Subspace(QMatrix.identity(3))


def test_kernel_of_ad_e1_on_h3_r3():
    # on (0,0,0,0,0,12) the only nonzero bracket is [e1,e2] = -e6
    from cpslie.salamon import parse_salamon

    g = parse_salamon("(0,0,0,0,0,12)")
    k = kernel(g.ad_vector(basis_vec(6, 0)))
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
    m = lsa.nablas()[0]
    assert (m @ m @ m).is_zero()  # independent of the squaring route
    assert is_nilpotent_matrix(m)


def test_tensor_layout_must_be_n_by_n_squared():
    assert SparseTensor(QMatrix.zeros(3, 9)).dim == 3
    with pytest.raises(ValueError, match="n x n"):
        SparseTensor(QMatrix.zeros(3, 8))


# `intersect` and `preimage` are the test helpers of examples.py, on which
# the references for the center and the central invariant ideal rest


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
    full, zero = Subspace(QMatrix.identity(3)), Subspace.zero(3)
    assert intersect(full, full) == full
    assert intersect(full, zero) == zero
    assert intersect(zero, full) == zero
    assert intersect(zero, zero) == zero


def test_block_of_zero_row_blocks_keeps_its_columns():
    m = QMatrix.block([[QMatrix.zeros(0, 2), QMatrix.zeros(0, 3)], [QMatrix.zeros(0, 2), QMatrix.zeros(0, 3)]])
    assert (m.rows, m.cols) == (0, 5)
    assert kernel(m) == Subspace(QMatrix.identity(5))


def test_block_rejects_blocks_of_different_heights_in_one_block_row():
    with pytest.raises(ValueError, match="row count"):
        QMatrix.block([[QMatrix.identity(2), QMatrix.zeros(3, 1)]])


def test_block_rejects_block_rows_of_different_widths():
    with pytest.raises(ValueError, match="column count"):
        QMatrix.block([[QMatrix.identity(2)], [QMatrix.zeros(1, 3)]])


@pytest.mark.parametrize("text, value", [("7", Q(7)), ("-3/4", Q(-3, 4)), ("+2", Q(2)), ("0/5", Q(0))])
def test_q_reads_integers_and_fractions(text, value):
    assert q(text) == value


# " 1", "1_000" and "١٢" are accepted by Fraction(str) and int(), but are not literals here
@pytest.mark.parametrize(
    "text",
    ["1e999999", "1E3", "1.5", ".5", " 1", "1 ", "1\n", "1_000", "nan", "inf", "1/-2", "1/+2", "1/ 2", "", "١", "١٢", "²"],
)
def test_q_refuses_other_notation(text):
    with pytest.raises(ValueError, match="not a rational literal"):
        q(text)


WIDE = "123456789012345678901234567890"  # 30 digits


@pytest.mark.parametrize(
    "text",
    ["0", "-0", "+0", "7", "-7", "+7", "007", "-007/010", "0/5", "-0/3", "+12/8", "6/4", "-6/4",
     WIDE, "-" + WIDE, WIDE + "/7", "-" + WIDE + "/" + WIDE, "1/" + WIDE],
)
def test_q_agrees_with_fraction_parsing(text):
    value = q(text)
    assert type(value) is Q and value == Q(text)


@given(st.from_regex(r"[+-]?[0-9]{1,30}(/0*[1-9][0-9]{0,29})?", fullmatch=True))
@settings(max_examples=200, deadline=None)
def test_q_agrees_with_fraction_parsing_on_random_literals(text):
    assert q(text) == Q(text)


@pytest.mark.parametrize("text", ["1/0", "-5/000", "0/0", WIDE + "/0"])
def test_q_reports_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        q(text)


def test_intersect_dimension_mismatch():
    u = Subspace(QMatrix.identity(3))
    v = Subspace(QMatrix.identity(4))
    with pytest.raises(ValueError):
        intersect(u, v)


def test_preimage_examples():
    v = Subspace.from_spanning([(1, 2, 0), (0, 0, 1)], 3)
    assert preimage(QMatrix.identity(3), v) == v
    assert preimage(QMatrix.zeros(3, 3), v) == Subspace(QMatrix.identity(3))

    rot = QMatrix([[0, -1], [1, 0]])
    x_axis = Subspace.from_spanning([(1, 0)], 2)
    y_axis = Subspace.from_spanning([(0, 1)], 2)
    assert preimage(rot, x_axis) == y_axis


def test_preimage_size_mismatch():
    with pytest.raises(ValueError):
        preimage(QMatrix.identity(2), Subspace(QMatrix.identity(3)))


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


def test_subspace_constructor_is_canonical_for_any_spanning_rows():
    """`Subspace(QMatrix(rows))` is the subspace `from_spanning` gives, with the
    same hash, whatever spanning rows it gets: zero, scaled and repeated ones too."""
    rng = random.Random(34)
    for trial in range(60):
        n = rng.randint(1, 5)
        base = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        scale = Q(rng.choice((-2, 3, 5)), rng.randint(1, 4))
        extras = [[Q(0)] * n, [scale * x for x in rng.choice(base)], rng.choice(base)]
        rows = base + extras[: trial % 4]
        rng.shuffle(rows)
        u, v = Subspace(QMatrix(rows)), Subspace.from_spanning(rows, n)
        assert u == v == Subspace(QMatrix(base))
        assert hash(u) == hash(v) == hash(Subspace(QMatrix(base)))
        assert (u.basis.entries, u.pivots) == (v.basis.entries, v.pivots)


def test_subspace_constructor_reads_zero_and_scaled_rows():
    for n in (1, 2, 4):
        for k in (1, 2):
            assert Subspace(QMatrix([[0] * n] * k)) == Subspace.zero(n)
    assert Subspace(QMatrix([[0, 0]])).dim == 0
    assert Subspace(QMatrix([[2, 0]])) == Subspace.from_spanning([[1, 0]], 2)
    assert Subspace(QMatrix([[0, 3], [2, 4], [1, 2]])) == Subspace(QMatrix.identity(2))


# ----------------------------------------------------------------------
# the elimination's contract: `_rref` returns the canonical RREF, rows over
# one denominator, and `Subspace`, `kernel` and `inverse` read it as it is


def ref_rref(rows, cols):
    """(nonzero rows, pivots) of the usual RREF with unit pivots, over Fractions."""
    mat = [[Q(x) for x in r] for r in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = [x - row[c] * y for x, y in zip(row, mat[r])]
        pivots.append(c)
    return mat[: len(pivots)], pivots


def elimination_cases(seed, count):
    """Seeded integer rows with a common factor per row, negative pivots,
    a zero row and a repeated row."""
    rng = random.Random(seed)
    for _ in range(count):
        cols = rng.randint(1, 6)
        rows = [[rng.choice((-4, -2, 3, 6)) * rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, 5))]
        rows += [[0] * cols, list(rng.choice(rows))]
        rng.shuffle(rows)
        yield rows, cols


def test_rref_rows_hold_den_at_their_pivot():
    for rows, cols in elimination_cases(35, 200):
        reduced, den, pivots = _rref(rows, cols)
        assert den > 0 and len(reduced) == len(pivots)
        for r, p in zip(reduced, pivots):
            assert [r[c] for c in pivots] == [den if c == p else 0 for c in pivots]
        ref, ref_pivots = ref_rref(rows, cols)
        assert pivots == ref_pivots
        assert [[Q(x, den) for x in r] for r in reduced] == ref


def test_subspace_and_kernel_match_the_fraction_rref():
    for rows, cols in elimination_cases(36, 200):
        m = QMatrix(rows)
        ref, pivots = ref_rref(rows, cols)
        u = Subspace(m)
        assert (u.basis.entries, u.pivots) == (tuple(map(tuple, ref)), tuple(pivots))
        # the null space: x_f = 1 on one free column f, x_p = -ref[p][f] on the pivots
        gens = []
        for f in (c for c in range(cols) if c not in pivots):
            v = [Q(c == f) for c in range(cols)]
            for r, p in zip(ref, pivots):
                v[p] = -r[f]
            gens.append(v)
        k = kernel(m)
        ref_k, ref_k_pivots = ref_rref(gens, cols)
        assert (k.basis.entries, k.pivots) == (tuple(map(tuple, ref_k)), tuple(ref_k_pivots))
        assert all(not any(m.apply(v)) for v in k.basis_vectors())


def test_inverse_matches_the_fraction_rref():
    rng = random.Random(37)
    inverted = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        entries = [[Q(rng.choice((-4, -2, 3, 6)) * rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        m = QMatrix(entries)
        ref, pivots = ref_rref([r + [Q(i == j) for j in range(n)] for i, r in enumerate(entries)], n)
        if pivots != list(range(n)):
            with pytest.raises(SingularMatrixError):
                m.inverse()
            continue
        inverted += 1
        assert m.inverse() == QMatrix([r[n:] for r in ref])
        assert m @ m.inverse() == QMatrix.identity(n)
    assert inverted > 50
