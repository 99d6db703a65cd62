"""Hypercomplex lifts and the extended (Obata) connection."""

from fractions import Fraction as Q

import pytest

from cpslie.catalog import (
    build_family,
    heisenberg_complex_examples,
    load_catalog,
    witness_structure,
)
from cpslie.connection import cp_connection, curvature
from cpslie.hypercomplex import (
    HypercomplexStructure,
    is_abelian_hypercomplex,
    lift_cps,
    obata_connection,
    validate_hypercomplex,
)
from cpslie.lie import LieAlgebra
from cpslie.linalg import QMatrix, basis_vec
from cpslie.structures import assemble_cps


def _explicit_row9_witnesses():
    row = next(e for e in load_catalog() if e.salamon == "(0,0,0,12,13,14)")
    return {w.name: w for w in row.witnesses if w.family == "Explicit"}


def hat(i):
    return basis_vec(12, 6 + i)


def plain(i):
    return basis_vec(12, i)


def test_lift_reproduces_flat_structure_table():
    w = _explicit_row9_witnesses()["split-flat"]
    _, cps = witness_structure(w)
    ghat, h = lift_cps(cps)
    assert ghat.dim == 12
    # I1 e1 = hat e1, I1 e2 = -hat e2, paired signs on (e3,e4), (e5,e6)
    for i, sign in ((0, 1), (1, -1), (2, 1), (3, -1), (4, 1), (5, -1)):
        assert h.j1.col(i) == tuple(Q(sign) * x for x in hat(i))
    # J acts the same on both copies: J e1 = -e2, J hat e1 = -hat e2
    assert h.j2.col(0) == tuple(-x for x in plain(1))
    assert h.j2.col(6) == tuple(-x for x in hat(1))
    assert h.j2.col(2) == tuple(-x for x in plain(3))
    assert h.j2.col(4) == tuple(-x for x in plain(5))


def test_lift_reproduces_nonflat_structure_table():
    w = _explicit_row9_witnesses()["split-nonflat"]
    _, cps = witness_structure(w)
    _, h = lift_cps(cps)
    for i, sign in ((0, 1), (3, 1), (5, 1), (1, -1), (2, -1), (4, -1)):
        assert h.j1.col(i) == tuple(Q(sign) * x for x in hat(i))


def test_lift_bracket_table_matches_doubling_rules():
    w = _explicit_row9_witnesses()["split-flat"]
    _, cps = witness_structure(w)
    ghat, _ = lift_cps(cps)
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
    from cpslie.hypercomplex import LiftError  # noqa: F401

    w = _explicit_row9_witnesses()["split-flat"]
    _, cps = witness_structure(w)
    ghat, h = lift_cps(cps)
    minus_ident = QMatrix.identity(12).scale(-1)
    assert h.j1 @ h.j1 == minus_ident
    assert h.j2 @ h.j2 == minus_ident
    assert h.j3 @ h.j3 == minus_ident
    assert h.j1 @ h.j2 == h.j3
    assert h.j2 @ h.j1 == h.j3.scale(-1)
    assert validate_hypercomplex(h) == []


def test_lift_forms_j3_once(monkeypatch):
    _, cps = witness_structure(_explicit_row9_witnesses()["split-flat"])
    products = []
    matmul = QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__", lambda a, b: products.append((a, b)) or matmul(a, b))
    _, h = lift_cps(cps)
    assert products.count((h.j1, h.j2)) == 1


def test_lift_of_trivial_cps_on_r2():
    g = LieAlgebra.abelian(2)
    j = QMatrix([[0, -1], [1, 0]])
    e = QMatrix([[1, 0], [0, -1]])
    cps = assemble_cps(g, j, e)
    ghat, h = lift_cps(cps)
    assert ghat.dim == 4 and ghat.is_abelian()
    assert is_abelian_hypercomplex(h)


def test_obata_flat_iff_base_flat_on_explicit_pair():
    ws = _explicit_row9_witnesses()
    verdicts = {}
    for name, w in ws.items():
        _, cps = witness_structure(w)
        _, h = lift_cps(cps)
        base = cp_connection(cps)
        ob = obata_connection(h, base)
        rep = curvature(ob)
        base_rep = curvature(base)
        assert rep.is_flat == base_rep.is_flat
        assert rep.is_ricci_flat
        verdicts[name] = rep.is_flat
    assert verdicts == {"split-flat": True, "split-nonflat": False}


def test_abelian_lift_of_abelian_cps():
    g, cps = heisenberg_complex_examples()[0]
    _, h = lift_cps(cps)
    assert is_abelian_hypercomplex(h)


def test_nonabelian_lift_of_nonabelian_cps():
    w = _explicit_row9_witnesses()["split-flat"]
    _, cps = witness_structure(w)
    _, h = lift_cps(cps)
    assert not is_abelian_hypercomplex(h)


def test_validate_hypercomplex_detects_broken_triple():
    w = _explicit_row9_witnesses()["split-flat"]
    _, cps = witness_structure(w)
    ghat, h = lift_cps(cps)
    assert "anticommute" in validate_hypercomplex(HypercomplexStructure(ghat, h.j1, h.j1))
    assert "J1_square" in validate_hypercomplex(HypercomplexStructure(ghat, h.j1.scale(2), h.j2))


def test_obata_rejects_wrong_base():
    w = _explicit_row9_witnesses()["split-flat"]
    _, cps = witness_structure(w)
    _, h = lift_cps(cps)
    # wrong dimension
    g2 = LieAlgebra.abelian(2)
    j2 = QMatrix([[0, -1], [1, 0]])
    e2 = QMatrix([[1, 0], [0, -1]])
    small = cp_connection(assemble_cps(g2, j2, e2))
    with pytest.raises(ValueError):
        obata_connection(h, small)
    # right dimension, wrong connection: fails the torsion check
    from cpslie.hypercomplex import LiftError

    _, other = build_family("R4_00", {"A1": 1})
    with pytest.raises(LiftError):
        obata_connection(h, cp_connection(other))
