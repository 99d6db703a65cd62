"""Hypercomplex lifts and the extended (Obata) connection."""

from fractions import Fraction as Q

from cpslie.connection import cp_connection, curvature
from cpslie.hypercomplex import lift_cps
from cpslie.lie import LieAlgebra
from cpslie.linalg import QMatrix, basis_vec
from cpslie.structures import assemble_cps
from examples import SPLIT_E, heisenberg_complex_examples, is_abelian_complex, split_cps


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
        assert h.j1.col(i) == tuple(Q(sign) * x for x in hat(i))
    # J acts the same on both copies: J e1 = -e2, J hat e1 = -hat e2
    assert h.j2.col(0) == tuple(-x for x in plain(1))
    assert h.j2.col(6) == tuple(-x for x in hat(1))
    assert h.j2.col(2) == tuple(-x for x in plain(3))
    assert h.j2.col(4) == tuple(-x for x in plain(5))


def test_lift_reproduces_nonflat_structure_table():
    _, cps = split_cps("split-nonflat")
    h = lift_cps(cps)
    for i, sign in ((0, 1), (3, 1), (5, 1), (1, -1), (2, -1), (4, -1)):
        assert h.j1.col(i) == tuple(Q(sign) * x for x in hat(i))


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
        h = lift_cps(cps)
        rep = curvature(h.connection)
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

