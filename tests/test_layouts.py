"""The batched tensor identities against their per-basis-index definitions.

The references below loop over basis indices with a few small QMatrix
products per index, the way the identities were first written.  The
batched code, a constant number of products on the side-by-side layout
of a tensor's slices, must give exactly the same results: the same
defect lists in the same order, the same curvature operators, Ricci form
and flags, and the same tensors.  The cases are the stored witnesses,
seeded dense conjugates of them, their 12-dimensional lifts with the
Obata connections, and planted faults, so the nonzero-defect branches
are compared too.
"""

import random
from fractions import Fraction as Q

import pytest

from cpslie.catalog import load_catalog, witness_structure
from cpslie.connection import (
    Connection,
    cp_connection,
    curvature,
    lsa_defects,
    parallel_defect,
    ricci_via_trace_identity,
    torsion_defect,
)
from cpslie.hypercomplex import lift_cps, obata_connection
from cpslie.lie import LieAlgebra, center, change_basis
from cpslie.linalg import (
    QMatrix,
    SparseTensor,
    Subspace,
    basis_vec,
    intersect,
    kernel,
    rank,
    reshaped,
    right_product,
    swapped,
    transposed_blocks,
    vec_is_zero,
    vec_sub,
)
from cpslie.structures import _integrability_defect, assemble_cps, is_abelian_complex, split_coordinates
from table_helper import tensor_from_table

WITNESSES = [(entry.salamon, w) for entry in load_catalog() for w in entry.witnesses]
IDS = [f"{s}-{w.name}" for s, w in WITNESSES]

# ----------------------------------------------------------------------
# per-index references


def ref_integrability_defect(g, a, sign):
    out = []
    n = g.dim
    for i in range(n):
        ad_i = g.ad(i)
        ad_ai = g.ad_vector(a.col(i))
        d = a @ ad_i - ad_ai - ad_i @ a - (a @ ad_ai @ a).scale(sign)
        if not d.is_zero():
            out.extend((i, b, d.col(b)) for b in range(i + 1, n) if any(r[b] for r in d.num))
    return out


def ref_parallel_defect(conn, a):
    out = []
    for i in range(conn.algebra.dim):
        na = conn.nabla(i) @ a
        an = a @ conn.nabla(i)
        for jdx in range(conn.algebra.dim):
            d = vec_sub(na.col(jdx), an.col(jdx))
            if not vec_is_zero(d):
                out.append((i, jdx, d))
    return out


def ref_curvature(conn):
    """(r, ricci, is_flat, is_ricci_flat, traceless)."""
    g = conn.algebra
    n = g.dim
    nablas = [conn.nabla(i) for i in range(n)]
    e = lambda i: basis_vec(n, i)  # noqa: E731
    r = {}
    for i in range(n):
        for jdx in range(i + 1, n):
            nabla_ij = conn.tensor.slice_matrix(g.bracket(e(i), e(jdx)))
            r[(i, jdx)] = nablas[i] @ nablas[jdx] - nablas[jdx] @ nablas[i] - nabla_ij
    # ric(e_i, e_j) = sum_z (R(e_z, e_i) e_j)_z
    ricci = QMatrix(
        [[sum((r[z, i] if z < i else r[i, z].scale(-1)).entry(z, j) for z in range(n) if z != i) for j in range(n)]
         for i in range(n)]
    )
    flat = all(m.is_zero() for m in r.values())
    return r, ricci, flat, ricci.is_zero(), all(m.trace() == 0 for m in nablas)


def ref_cp_connection(cps):
    g, j = cps.algebra, cps.j
    _, pip, pim = split_coordinates(cps)
    lp, rp = -(pip @ j), j @ pip
    lm, rm = -(pim @ j), j @ pim
    nablas = []
    for i in range(g.dim):
        ap = g.ad_vector(pip.col(i))
        am = g.ad_vector(pim.col(i))
        nablas.append(lp @ ap @ rp + pim @ ap @ pim + lm @ am @ rm + pip @ am @ pip)
    return Connection(g, tensor_from_table([[m.col(jdx) for jdx in range(g.dim)] for m in nablas]))


def ref_change_basis(g, p):
    pinv = p.inverse()
    slices = [pinv @ g.ad_vector(p.col(i)) @ p for i in range(g.dim)]
    return LieAlgebra(tensor_from_table([[m.col(jdx) for jdx in range(g.dim)] for m in slices]))


def ref_is_abelian(g, j):
    return all(g.ad_vector(j.col(i)) @ j == g.ad(i) for i in range(g.dim))


def ref_ricci_via_trace_identity(conn):
    g = conn.algebra
    traces = tuple(conn.nabla(i).trace() for i in range(g.dim))
    return QMatrix([g.ad(i).transpose().apply(traces) for i in range(g.dim)], cols=g.dim).scale(Q(1, 4))


def ref_left_symmetry(p):
    n = p.algebra.dim
    lefts = [p.nabla(i) for i in range(n)]
    e = lambda i: basis_vec(n, i)  # noqa: E731
    bad_cols = {}
    for i in range(n):
        for jdx in range(i + 1, n):
            skew = vec_sub(p.apply(e(i), e(jdx)), p.apply(e(jdx), e(i)))
            d = lefts[i] @ lefts[jdx] - lefts[jdx] @ lefts[i] - p.tensor.slice_matrix(skew)
            bad_cols[i, jdx] = bad_cols[jdx, i] = [k for k in range(n) if any(r[k] for r in d.num)]
    return [(i, jdx, k) for i in range(n) for jdx in range(n) for k in bad_cols.get((i, jdx), ())]


def ref_center(g):
    out = Subspace.full(g.dim)
    for i in range(g.dim):
        out = intersect(out, kernel(g.ad(i)))
    return out


# ----------------------------------------------------------------------
# comparisons


def assert_structure_identities(g, j, e):
    for a, sign in ((j, 1), (e, -1)):
        assert _integrability_defect(g, a, sign) == ref_integrability_defect(g, a, sign)
    assert center(g) == ref_center(g)
    assert is_abelian_complex(g, j) == ref_is_abelian(g, j)


def assert_curvature(conn):
    rep = curvature(conn)
    r, ricci, flat, ricci_flat, traceless = ref_curvature(conn)
    assert list(rep.r.items()) == list(r.items())
    assert (rep.ricci, rep.is_flat, rep.is_ricci_flat, rep.traceless) == (ricci, flat, ricci_flat, traceless)
    return rep


def assert_connection_identities(conn, endos):
    assert_curvature(conn)
    for a in endos:
        assert parallel_defect(conn, a) == ref_parallel_defect(conn, a)
    assert lsa_defects(conn)["left_symmetry"] == ref_left_symmetry(conn)
    if not torsion_defect(conn):
        assert ricci_via_trace_identity(conn) == ref_ricci_via_trace_identity(conn)


def dense_conjugator(rng, n):
    """A random invertible P with every entry nonzero."""
    while True:
        p = QMatrix([[Q(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        if rank(p) == n:
            return p


def planted_j(j, g=None):
    """J with one entry moved by 1: no longer a complex structure.  Given the
    algebra, the first such entry in row order that breaks integrability."""
    for k in range(j.rows * j.cols):
        rows = [list(r) for r in j.entries]
        rows[k // j.cols][k % j.cols] += 1
        bad = QMatrix(rows)
        if g is None or ref_integrability_defect(g, bad, 1):
            return bad
    return bad


def random_connection(g, rng):
    """A connection with seeded random small coefficients: torsion, curvature, no parallel J."""
    n = g.dim
    table = [[[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return Connection(g, tensor_from_table(table))


# ----------------------------------------------------------------------
# tests


@pytest.mark.parametrize("salamon, witness", WITNESSES, ids=IDS)
def test_batched_identities_equal_the_references(salamon, witness):
    rng = random.Random(IDS.index(f"{salamon}-{witness.name}"))
    g, cps = witness_structure(witness)
    p = dense_conjugator(rng, g.dim)
    pinv = p.inverse()
    moved = change_basis(g, p)
    assert moved == ref_change_basis(g, p)
    for alg, j, e in ((g, cps.j, cps.e), (moved, pinv @ cps.j @ p, pinv @ cps.e @ p)):
        assert_structure_identities(alg, j, e)
        structure = assemble_cps(alg, j, e)
        conn = cp_connection(structure)
        assert conn == ref_cp_connection(structure)
        assert_connection_identities(conn, (j, e, j @ e))
        # planted faults: a perturbed J, a non-parallel endomorphism, a
        # connection with torsion and curvature
        bad_j = planted_j(j, alg)
        defects = _integrability_defect(alg, bad_j, 1)
        assert defects == ref_integrability_defect(alg, bad_j, 1)
        assert defects or alg.is_abelian()
        bad_conn = random_connection(alg, rng)
        assert not assert_curvature(bad_conn).is_flat
        assert parallel_defect(bad_conn, j) == ref_parallel_defect(bad_conn, j) != []
        assert parallel_defect(conn, bad_j) == ref_parallel_defect(conn, bad_j)
        assert lsa_defects(bad_conn)["left_symmetry"] == ref_left_symmetry(bad_conn) != []


@pytest.mark.parametrize("salamon, witness", WITNESSES, ids=IDS)
def test_lifted_identities_equal_the_references(salamon, witness):
    g, cps = witness_structure(witness)
    g_hat, h = lift_cps(cps)
    for a in (h.j1, h.j2, h.j3):
        assert _integrability_defect(g_hat, a, 1) == ref_integrability_defect(g_hat, a, 1)
    obata = obata_connection(h, cp_connection(cps))
    assert_connection_identities(obata, (h.j1, h.j2, h.j3, planted_j(h.j1)))


def test_dense_lift_identities_equal_the_references():
    """The lift of one dense conjugate: dense 12 x 12 operands, where no zero-skip fires."""
    salamon, witness = next((s, w) for s, w in WITNESSES if w.name == "split-nonflat")
    g, cps = witness_structure(witness)
    p = dense_conjugator(random.Random(0), g.dim)
    pinv = p.inverse()
    moved = assemble_cps(change_basis(g, p), pinv @ cps.j @ p, pinv @ cps.e @ p)
    g_hat, h = lift_cps(moved)
    assert _integrability_defect(g_hat, h.j3, 1) == ref_integrability_defect(g_hat, h.j3, 1)
    obata = obata_connection(h, cp_connection(moved))
    assert_connection_identities(obata, (h.j1, planted_j(h.j2)))


def test_layout_recuts_match_the_slices():
    rng = random.Random(7)
    n = 4
    table = [[[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    t = tensor_from_table(table)
    slices = [t.slice_matrix([int(k == i) for k in range(n)]) for i in range(n)]
    a = QMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
    side = QMatrix.block([slices])
    assert t.side == side and SparseTensor(side) == t
    assert swapped(side) == QMatrix([[x for r in m.entries for x in r] for m in slices])
    assert swapped(swapped(side)) == side
    assert transposed_blocks(side) == QMatrix.block([[m.transpose() for m in slices]])
    assert right_product(side, a) == QMatrix.block([[m @ a for m in slices]])
    assert reshaped(swapped(side), n * n) == QMatrix.block([[m] for m in slices])


def test_work_per_identity_does_not_grow_with_the_dimension(monkeypatch):
    """Each identity is a fixed number of products, on a 6-dim witness and on its 12-dim lift alike."""
    calls = []
    product = QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__", lambda a, b: calls.append(1) or product(a, b))

    def count(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    salamon, witness = next((s, w) for s, w in WITNESSES if w.name == "split-nonflat")
    g, cps = witness_structure(witness)
    conn = cp_connection(cps)
    g_hat, h = lift_cps(cps)
    obata = obata_connection(h, conn)
    small = (count(curvature, conn), count(_integrability_defect, g, cps.j, 1), count(parallel_defect, conn, cps.j))
    large = (count(curvature, obata), count(_integrability_defect, g_hat, h.j1, 1), count(parallel_defect, obata, h.j1))
    assert small == large == (1, 3, 2)
