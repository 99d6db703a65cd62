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

from cpslie import connection, linalg
from cpslie.catalog import (
    FAMILY_PARAMS,
    _family_variables,
    build_family,
    load_catalog,
    witness_structure,
)
from cpslie.connection import (
    CertificateError,
    Connection,
    cp_connection,
    curvature,
    ricci_via_trace_identity,
    torsion_defect,
)
from cpslie.hypercomplex import lift_cps
from cpslie.lie import LieAlgebra, center, change_basis
from cpslie.linalg import (
    QMatrix,
    SparseTensor,
    Subspace,
    basis_vec,
    kernel,
    rank,
    reshaped,
    right_product,
    swapped,
    transposed_blocks,
)
from cpslie.structures import _integrability_defect, assemble_cps
from examples import (
    dense_conjugator,
    intersect,
    is_abelian_complex,
    is_quaternion_triple,
    ref_parallel_defect,
    validate_cps,
)
from table_helper import tensor_from_table

WITNESSES = [(entry.salamon, w) for entry in load_catalog() for w in entry.witnesses]
IDS = [f"{s}-{w.name}" for s, w in WITNESSES]

# ----------------------------------------------------------------------
# per-index references


def ref_integrability_defect(g, a, sign):
    out = []
    n = g.dim
    for i in range(n):
        ad_i = g.ad_vector(basis_vec(n, i))
        ad_ai = g.ad_vector(a.col(i))
        d = a @ ad_i - ad_ai - ad_i @ a - (a @ ad_ai @ a).scale(sign)
        if not d.is_zero():
            out.extend((i, b, d.col(b)) for b in range(i + 1, n) if any(r[b] for r in d.num))
    return out


def ref_curvature(conn):
    """(r, ricci, is_flat, is_ricci_flat, traceless)."""
    g = conn.algebra
    n = g.dim
    e = lambda i: basis_vec(n, i)  # noqa: E731
    nablas = [conn.tensor.slice_matrix(e(i)) for i in range(n)]
    r = {}
    for i in range(n):
        for jdx in range(i + 1, n):
            nabla_ij = conn.tensor.slice_matrix(g.bracket(e(i), e(jdx)))
            r[(i, jdx)] = nablas[i] @ nablas[jdx] - nablas[jdx] @ nablas[i] - nabla_ij
    # ric(e_i, e_j) = sum_z (R(e_z, e_i) e_j)_z
    # read through `entries`, which keeps a Poly entry (a family's layouts) a Poly
    ricci = QMatrix(
        [[sum((r[z, i] if z < i else r[i, z].scale(-1)).entries[z][j] for z in range(n) if z != i) for j in range(n)]
         for i in range(n)]
    )
    flat = all(m.is_zero() for m in r.values())
    return r, ricci, flat, ricci.is_zero(), all(sum(m.entries[k][k] for k in range(n)) == 0 for m in nablas)


def ref_cp_connection(cps):
    g, j = cps.algebra, cps.j
    ident = QMatrix.identity(g.dim)
    pip, pim = (ident + cps.e).scale(Q(1, 2)), (ident - cps.e).scale(Q(1, 2))
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
    return all(g.ad_vector(j.col(i)) @ j == g.ad_vector(basis_vec(g.dim, i)) for i in range(g.dim))


def ref_ricci_via_trace_identity(conn):
    g = conn.algebra
    traces = tuple(conn.tensor.slice_matrix(basis_vec(g.dim, i)).trace() for i in range(g.dim))
    rows = [g.ad_vector(basis_vec(g.dim, i)).transpose().apply(traces) for i in range(g.dim)]
    return QMatrix(rows).scale(Q(1, 4))


def ref_center(g):
    out = Subspace(QMatrix.identity(g.dim))
    for i in range(g.dim):
        out = intersect(out, kernel(g.ad_vector(basis_vec(g.dim, i))))
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


def assert_connection_identities(conn):
    assert_curvature(conn)
    if not torsion_defect(conn):
        assert ricci_via_trace_identity(conn) == ref_ricci_via_trace_identity(conn)


def planted_j(j, g):
    """J with one entry moved by 1, no longer a complex structure: the first
    such entry in row order that breaks integrability on `g`."""
    for k in range(j.rows * j.cols):
        rows = [list(r) for r in j.entries]
        rows[k // j.cols][k % j.cols] += 1
        bad = QMatrix(rows)
        if ref_integrability_defect(g, bad, 1):
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
        assert ref_parallel_defect(conn, j) == ref_parallel_defect(conn, e) == []
        assert_connection_identities(conn)
        # planted faults: a perturbed J, a connection with torsion,
        # curvature and no parallel J
        bad_j = planted_j(j, alg)
        defects = _integrability_defect(alg, bad_j, 1)
        assert defects == ref_integrability_defect(alg, bad_j, 1)
        assert defects or alg == LieAlgebra.from_brackets(alg.dim, {})
        bad_conn = random_connection(alg, rng)
        assert not assert_curvature(bad_conn).is_flat
        assert ref_parallel_defect(bad_conn, j) != []


def assert_lift_relations(h):
    """What `lift_cps` does not check, since the CPS certificate proves it: the
    Obata connection is torsion-free and (J1, J2, J3) is a quaternion triple."""
    assert torsion_defect(h.connection) == []
    assert is_quaternion_triple(h.j1, h.j2, h.j3)


@pytest.mark.parametrize("salamon, witness", WITNESSES, ids=IDS)
def test_lifted_identities_equal_the_references(salamon, witness):
    g, cps = witness_structure(witness)
    h = lift_cps(cps)
    assert_lift_relations(h)
    for a in (h.j1, h.j2, h.j3):
        assert _integrability_defect(h.algebra, a, 1) == ref_integrability_defect(h.algebra, a, 1)
        assert ref_parallel_defect(h.connection, a) == []
    assert_connection_identities(h.connection)


def test_dense_lift_identities_equal_the_references():
    """The lift of one dense conjugate: dense 12 x 12 operands, where no zero-skip fires."""
    salamon, witness = next((s, w) for s, w in WITNESSES if w.name == "split-nonflat")
    g, cps = witness_structure(witness)
    p = dense_conjugator(random.Random(0), g.dim)
    pinv = p.inverse()
    moved = assemble_cps(change_basis(g, p), pinv @ cps.j @ p, pinv @ cps.e @ p)
    h = lift_cps(moved)
    assert_lift_relations(h)
    assert _integrability_defect(h.algebra, h.j3, 1) == ref_integrability_defect(h.algebra, h.j3, 1)
    assert_connection_identities(h.connection)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_family_cp_connection_equals_the_reference(family):
    """The same formula on the family's Poly layouts, where no product packs its rows."""
    _, cps = build_family(family, _family_variables(family))
    assert cp_connection(cps) == ref_cp_connection(cps)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_family_curvature_equals_the_reference(packed_rows, family):
    """The curvature kernel on a family's Poly connection, where every row takes the loop."""
    assert_curvature(build_family(family, _family_variables(family))[1].connection)
    assert packed_rows == []


def test_curvature_beyond_the_packed_slots_equals_the_reference(packed_rows):
    """A witness conjugated by diag(10^30, 1, ..., 1), and its lift: every
    integer entry bound is at least 2^63, so no product packs its rows."""
    salamon, witness = next((s, w) for s, w in WITNESSES if w.name == "split-nonflat")
    g, cps = witness_structure(witness)
    p = QMatrix.diag_blocks(QMatrix([[10**30]]), QMatrix.identity(g.dim - 1))
    pinv = p.inverse()
    moved = assemble_cps(change_basis(g, p), pinv @ cps.j @ p, pinv @ cps.e @ p)
    for conn in (moved.connection, lift_cps(moved).connection):
        assert max(abs(x) for r in conn.tensor.side.num for x in r) >= 2**63
        packed_rows.clear()
        assert not assert_curvature(conn).is_flat
        assert packed_rows == []


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
    """Each identity is a fixed number of products, on a 6-dim witness and on its 12-dim lift alike.

    Every product runs the one row loop, `linalg._product_rows`: a QMatrix
    product through `__matmul__`, the curvature kernel directly."""
    calls = []
    product = linalg._product_rows
    spy = lambda a, b: calls.append(1) or product(a, b)  # noqa: E731
    monkeypatch.setattr(linalg, "_product_rows", spy)
    monkeypatch.setattr(connection, "_product_rows", spy)

    def count(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    salamon, witness = next((s, w) for s, w in WITNESSES if w.name == "split-nonflat")
    g, cps = witness_structure(witness)
    conn = cp_connection(cps)
    h = lift_cps(cps)
    obata = h.connection
    small = (count(curvature, conn), count(_integrability_defect, g, cps.j, 1))
    large = (count(curvature, obata), count(_integrability_defect, h.algebra, h.j1, 1))
    assert small == large == (2, 3)


def test_cp_connection_is_ten_products(monkeypatch):
    """Six products build the connection inside `assemble_cps`, after two squarings
    and two for JE = -EJ: ten in all, with no parallelism check, since J and E
    are parallel by construction.  `cp_connection` takes none.  On a witness and
    on a family's Poly CPS alike."""
    calls = []
    product = QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__", lambda a, b: calls.append(1) or product(a, b))
    salamon, witness = next((s, w) for s, w in WITNESSES if w.name == "split-nonflat")
    for _, cps in (witness_structure(witness), build_family("H3R_10", _family_variables("H3R_10"))):
        calls.clear()
        again = assemble_cps(cps.algebra, cps.j, cps.e)
        assert len(calls) == 4 + 6
        calls.clear()
        assert cp_connection(again) == cp_connection(cps)
        assert calls == []


def keeping(rng, a, sign):
    """I + (M + sign A M A)/2 for a random single-entry M, invertible and not I.
    It commutes with A (sign 1 for A = E, -1 for A = J), so conjugating by
    it moves only the other structure."""
    n, ident = a.rows, QMatrix.identity(a.rows)
    while True:
        r, c = rng.randrange(n), rng.randrange(n)
        m = QMatrix([[rng.choice((-2, -1, 1, 2)) if (i, k) == (r, c) else 0 for k in range(n)] for i in range(n)])
        p = ident + (m + (a @ m @ a).scale(sign)).scale(Q(1, 2))
        if p != ident and rank(p) == n:
            return p


def test_connection_certificate_agrees_with_the_defects():
    """P^-1 J P and P^-1 E P keep J^2 = -Id, E^2 = Id and JE = -EJ, but mostly
    not integrability.  For seeded dense P, and for P that keep E or J, the
    codes of `validate_cps`, which tests the torsion of the cp connection,
    are those of the two integrability defects; on valid draws
    the carried connection is the reference's."""
    seen = set()
    for k, (salamon, witness) in enumerate(WITNESSES):
        rng = random.Random(k)
        g, cps = witness_structure(witness)
        draws = [dense_conjugator(rng, g.dim) for _ in range(4)]
        draws += [keeping(rng, cps.e, 1) for _ in range(4)] + [keeping(rng, cps.j, -1) for _ in range(4)]
        for p in draws:
            pinv = p.inverse()
            j, e = pinv @ cps.j @ p, pinv @ cps.e @ p
            codes = ["J_integrability"] * bool(_integrability_defect(g, j, 1))
            codes += ["E_integrability"] * bool(_integrability_defect(g, e, -1))
            assert validate_cps(g, j, e) == codes, (salamon, witness.name)
            if not codes:
                moved = assemble_cps(g, j, e)
                assert moved.connection == ref_cp_connection(moved)
            seen.add(tuple(codes))
    assert seen == {(), ("J_integrability",), ("E_integrability",), ("J_integrability", "E_integrability")}


def test_valid_structures_and_lifts_run_no_integrability_defect(monkeypatch):
    """The connections certify integrability: no defect runs on a witness, a
    dense conjugate of one, or their 12-dimensional lifts."""
    calls = []
    spy = lambda g, a, sign: calls.append(g.dim) or _integrability_defect(g, a, sign)  # noqa: E731
    monkeypatch.setattr("cpslie.structures._integrability_defect", spy)
    rng = random.Random(3)
    for salamon, witness in WITNESSES:
        g, cps = witness_structure(witness)
        p = dense_conjugator(rng, g.dim)
        pinv = p.inverse()
        moved = assemble_cps(change_basis(g, p), pinv @ cps.j @ p, pinv @ cps.e @ p)
        lift_cps(cps), lift_cps(moved)
    assert calls == []


@pytest.mark.parametrize("build", ["assemble_cps"])
def test_a_negated_connection_contradicts_the_defects(monkeypatch, build):
    """A sign bug in the cp connection builder fails the torsion check while
    J and E are integrable: CertificateError, not a failure code.  (`lift_cps`
    checks nothing; `test_lifted_identities_equal_the_references` catches
    a sign bug there.)"""
    salamon, witness = next((s, w) for s, w in WITNESSES if w.name == "split-nonflat")
    g, cps = witness_structure(witness)
    monkeypatch.setattr("cpslie.structures.Connection", lambda alg, t: Connection(alg, SparseTensor(t.side.scale(-1))))
    with pytest.raises(CertificateError, match="integrable"):
        assemble_cps(g, cps.j, cps.e)
