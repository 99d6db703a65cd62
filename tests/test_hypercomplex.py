"""Hypercomplex lifts and the extended (Obata) connection."""

import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from cpslie.catalog import load_catalog, witness_structure
from cpslie.connection import Connection, cp_connection, curvature, torsion_defect
from cpslie.hypercomplex import lift_cps
from cpslie.lie import LieAlgebra, change_basis
from cpslie.linalg import QMatrix, basis_vec
from cpslie.structures import assemble_cps
from examples import (
    SPLIT_E,
    col,
    dense_conjugator,
    heisenberg_complex_examples,
    is_abelian_complex,
    obata_connection,
    split_cps,
)
from table_helper import tensor_from_table

WITNESSES = [(entry.salamon, w) for entry in load_catalog() for w in entry.witnesses]


def hat(i):
    return basis_vec(12, 6 + i)


def plain(i):
    return basis_vec(12, i)


def is_abelian_hypercomplex(h):
    """True iff each of J1, J2, J3 satisfies [Jx, Jy] = [x, y]."""
    return all(is_abelian_complex(h.algebra, j) for j in (h.j1, h.j2, h.j3))


def test_lift_reproduces_flat_structure_table():
    _, cps = split_cps("split-flat")
    h = lift_cps(cps)
    assert h.algebra.dim == 12
    # I1 e1 = hat e1, I1 e2 = -hat e2, paired signs on (e3,e4), (e5,e6)
    for i, sign in ((0, 1), (1, -1), (2, 1), (3, -1), (4, 1), (5, -1)):
        assert col(h.j1, i) == tuple(Q(sign) * x for x in hat(i))
    # J acts the same on both copies: J e1 = -e2, J hat e1 = -hat e2
    assert col(h.j2, 0) == tuple(-x for x in plain(1))
    assert col(h.j2, 6) == tuple(-x for x in hat(1))
    assert col(h.j2, 2) == tuple(-x for x in plain(3))
    assert col(h.j2, 4) == tuple(-x for x in plain(5))


def test_lift_reproduces_nonflat_structure_table():
    _, cps = split_cps("split-nonflat")
    h = lift_cps(cps)
    for i, sign in ((0, 1), (3, 1), (5, 1), (1, -1), (2, -1), (4, -1)):
        assert col(h.j1, i) == tuple(Q(sign) * x for x in hat(i))


def test_lift_bracket_table_matches_doubling_rules():
    _, cps = split_cps("split-flat")
    ghat = lift_cps(cps).algebra
    # twelve displayed relations of the doubled algebra
    expected = {
        (0, 1): -1, (6, 7): 1,   # [e1,e2] = -e4 = -[^e1,^e2]
        (0, 2): -1, (6, 8): 1,   # [e1,e3] = -e5 = -[^e1,^e3]
        (0, 3): -1, (6, 9): 1,   # [e1,e4] = -e6 = -[^e1,^e4]
    }
    targets = {(0, 1): 3, (6, 7): 3, (0, 2): 4, (6, 8): 4, (0, 3): 5, (6, 9): 5}
    for (i, j), sign in expected.items():
        assert ghat.bracket(plain(i), plain(j)) == tuple(Q(sign) * x for x in plain(targets[(i, j)]))
    hatted = {(6, 1): 3, (0, 7): 3, (6, 2): 4, (0, 8): 4, (6, 3): 5, (0, 9): 5}
    for (i, j), k in hatted.items():
        assert ghat.bracket(plain(i), plain(j)) == tuple(-x for x in hat(k))


def test_lift_quaternion_relations_fail_loudly():
    _, cps = split_cps("split-flat")
    h = lift_cps(cps)
    minus_ident = QMatrix.identity(12).scale(-1)
    assert h.j1 @ h.j1 == minus_ident
    assert h.j2 @ h.j2 == minus_ident
    assert h.j3 @ h.j3 == minus_ident
    assert h.j1 @ h.j2 == h.j3
    assert h.j2 @ h.j1 == h.j3.scale(-1)


def test_lift_forms_j3_once(monkeypatch):
    _, cps = split_cps("split-flat")
    products = []
    matmul = QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__", lambda a, b: products.append((a, b)) or matmul(a, b))
    h = lift_cps(cps)
    assert products.count((h.j1, h.j2)) == 1


def test_lift_of_trivial_cps_on_r2():
    g = LieAlgebra.from_brackets(2, {})
    j = QMatrix([[0, -1], [1, 0]])
    e = QMatrix([[1, 0], [0, -1]])
    cps = assemble_cps(g, j, e)
    h = lift_cps(cps)
    assert h.algebra == LieAlgebra.from_brackets(4, {})
    assert is_abelian_hypercomplex(h)


def test_obata_flat_iff_base_flat_on_explicit_pair():
    verdicts = {}
    for name in SPLIT_E:
        _, cps = split_cps(name)
        rep = curvature(obata_connection(cps.connection))
        base_rep = curvature(cp_connection(cps))
        assert rep.is_flat == base_rep.is_flat
        assert rep.is_ricci_flat
        verdicts[name] = rep.is_flat
    assert verdicts == {"split-flat": True, "split-nonflat": False}


def test_abelian_lift_of_abelian_cps():
    g, cps = heisenberg_complex_examples()[0]
    h = lift_cps(cps)
    assert is_abelian_hypercomplex(h)


def test_nonabelian_lift_of_nonabelian_cps():
    _, cps = split_cps("split-flat")
    h = lift_cps(cps)
    assert not is_abelian_hypercomplex(h)



def doubled_curvature(rep, n):
    """The curvature of the double of a connection with curvature `rep`, read
    off `rep` by the identity in `lift_cps`'s docstring: R(e_i, e_j) is
    diag(R, R), [[0, -R], [R, 0]] or -diag(R, R) as none, one or both of
    the two basis vectors are hatted, for R = R(e_i, e_j) of the base."""
    zero = QMatrix.zeros(n, n)

    def base(i, j):
        return rep.r[i, j] if i < j else rep.r[j, i].scale(-1) if i > j else zero

    def doubled(m, hats):
        if hats == 1:
            return QMatrix.block([[zero, m.scale(-1)], [m, zero]])
        m = m.scale(-1) if hats == 2 else m
        return QMatrix.diag_blocks(m, m)

    return {(a, b): doubled(base(a % n, b % n), (a >= n) + (b >= n)) for a, b in combinations(range(2 * n), 2)}


def assert_the_double_curves_as_doubled(conn):
    """The 12-dimensional curvature that `hypercomplex` does not compute:
    entry by entry the base curvature doubled, Ric = diag(2 Ric, -2 Ric),
    and the same flat, Ricci-flat and traceless flags as the base."""
    base, double = curvature(conn), curvature(obata_connection(conn))
    assert double.r == doubled_curvature(base, conn.algebra.dim)
    assert double.ricci == QMatrix.diag_blocks(base.ricci.scale(2), base.ricci.scale(-2))
    assert (double.is_flat, double.is_ricci_flat, double.traceless) == (base.is_flat, base.is_ricci_flat, base.traceless)
    return base


@pytest.mark.parametrize("salamon, witness", WITNESSES, ids=[f"{s}-{w.name}" for s, w in WITNESSES])
def test_obata_curvature_is_the_cp_curvature_doubled(salamon, witness):
    _, cps = witness_structure(witness)
    rep = assert_the_double_curves_as_doubled(cps.connection)
    assert (rep.is_flat, rep.is_ricci_flat) == (witness.flat, True)


def test_obata_curvature_is_doubled_on_the_dense_conjugate():
    """The lift of one dense conjugate of split-nonflat, where no entry of the 12-dim curvature is zero by layout."""
    witness = next(w for _, w in WITNESSES if w.name == "split-nonflat")
    g, cps = witness_structure(witness)
    p = dense_conjugator(random.Random(0), g.dim)
    pinv = p.inverse()
    moved = assemble_cps(change_basis(g, p), pinv @ cps.j @ p, pinv @ cps.e @ p)
    rep = assert_the_double_curves_as_doubled(moved.connection)
    assert (rep.is_flat, rep.is_ricci_flat) == (False, True)


@pytest.mark.parametrize("seed", range(6))
def test_the_doubling_identity_does_not_rest_on_the_cps(seed):
    """Seeded random connections on catalog algebras, with torsion and a
    nonzero Ricci form: the identity is one of doubling alone."""
    rng = random.Random(seed)
    g, _ = witness_structure(rng.choice(WITNESSES)[1])
    n = g.dim
    table = [[[Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    conn = Connection(g, tensor_from_table(table))
    assert torsion_defect(conn)
    rep = assert_the_double_curves_as_doubled(conn)
    assert not rep.is_flat and not rep.is_ricci_flat
