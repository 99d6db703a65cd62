"""Test-only fixtures: example structures and checks that no command uses.

The Heisenberg examples, the paper's split pairs on (0,0,0,12,13,14),
the Heisenberg x Heisenberg constant, the abelian check, the failure
codes of `assemble_cps`, the per-index parallelism check, the quaternion
relations of a lift, the seeded dense basis changes, a family's flatness
closed form at one point, the unchecked bracket layout `NotLie`, the
d^2 = 0 reference for the Jacobi identity, the fixed-point reference
for the central invariant ideal, the vector difference and the
subspace image, intersection and preimage the references share, and
the nilpotency checks (of a matrix, by repeated squaring, and of an
algebra, by its lower central series) and the right multiplications
of a connection that cross-check the trace criterion of
`lsa_is_complete` live here rather than in the package, since only
the tests read them.
"""

from cpslie.catalog import _family_point, flatness_closed_form
from cpslie.lie import LieAlgebra, ThreeDimType, center
from cpslie.linalg import (
    Q,
    QMatrix,
    SparseTensor,
    Subspace,
    _matrix,
    basis_vec,
    kernel,
    q,
    rank,
    right_product,
    swapped,
    vec,
    vec_is_zero,
)
from cpslie.salamon import differential, parse_salamon
from cpslie.structures import CPS, Endo, StructureError, _integrability_defect, assemble_cps, double_type


# The paper's two split pairs on (0,0,0,12,13,14), in the row basis:
# J e1 = -e2, J e3 = -e4, J e5 = -e6, and E = +/-Id on basis vectors.  The
# catalog stores them as H3R_10 points with a basis change onto the row.
SPLIT_ROW = "(0,0,0,12,13,14)"
SPLIT_J = QMatrix.diag_blocks(*[QMatrix([[0, 1], [-1, 0]])] * 3)
SPLIT_E = {
    name: QMatrix([[sign if i == k else 0 for k in range(6)] for i, sign in enumerate(signs)])
    for name, signs in (("split-flat", (1, -1, 1, -1, 1, -1)), ("split-nonflat", (1, -1, -1, 1, -1, 1)))
}


class NotLie(LieAlgebra):
    """A bracket layout stored without the antisymmetry and Jacobi checks.

    Every `LieAlgebra` checks its layout, so the tests that plant a
    bracket violating the Jacobi identity build it as this fake;
    `NotLie.from_brackets` reads the same description.
    """

    __slots__ = ()

    def __init__(self, structure: SparseTensor):
        object.__setattr__(self, "dim", structure.dim)
        object.__setattr__(self, "structure", structure)


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def image(m: QMatrix, v: Subspace) -> Subspace:
    """M V, canonical form."""
    return Subspace.from_spanning([m.apply(x) for x in v.basis_vectors()], m.rows)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """U and V intersected, canonical form: the kernel of the stacked annihilators."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return kernel(QMatrix.block([[kernel(u.basis).basis], [kernel(v.basis).basis]]))


def preimage(m: QMatrix, v: Subspace) -> Subspace:
    """{x : Mx in V}, canonical form."""
    if m.rows != v.ambient_dim:
        raise ValueError("matrix size does not match ambient dimension")
    return kernel(kernel(v.basis).basis @ m)


def is_nilpotent_matrix(m: QMatrix) -> bool:
    """True iff M**n = 0; tested by repeated squaring up to exponent >= n."""
    if not m.is_square():
        raise ValueError("nilpotency is only defined for square matrices")
    n = m.rows
    power = m
    e = 1
    while e < n:
        power = power @ power
        e *= 2
    return power.is_zero()


def bracket_subspaces(g: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of [u_i, v_j] over basis vectors of the two subspaces."""
    gens = [g.bracket(x, y) for x in u.basis_vectors() for y in v.basis_vectors()]
    return Subspace.from_spanning(gens, g.dim)


def lower_central_series(g: LieAlgebra) -> list[Subspace]:
    """Terms g^0 = g, g^k = [g^(k-1), g] until stable."""
    full = Subspace(QMatrix.identity(g.dim))
    series = [full]
    while True:
        nxt = bracket_subspaces(g, series[-1], full)
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_nilpotent(g: LieAlgebra) -> bool:
    return lower_central_series(g)[-1].is_zero()


def right_mult(conn, j: int) -> QMatrix:
    """Matrix of x -> x . e_j = nabla_x e_j: columns j, n + j, 2n + j, ... of the side-by-side layout."""
    side, n = conn.tensor.side, conn.algebra.dim
    return _matrix([r[j::n] for r in side.num], side.den, n)


def ref_central_invariant_ideal(cps: CPS) -> Subspace | None:
    """The reference for `find_central_invariant_ideal`: from the center, intersect
    w with its preimages under J and E until w is stable."""
    w = center(cps.algebra)
    while True:
        nxt = intersect(w, intersect(preimage(cps.j, w), preimage(cps.e, w)))
        if nxt == w:
            break
        w = nxt
    return w if w.dim >= 2 else None


def family_flatness_value(family: str, params) -> Q:
    """The flatness closed form at one parameter point (absent parameters are 0)."""
    return flatness_closed_form(family).subs(_family_point(family, params)).value()


def d_squared_is_zero(g: LieAlgebra) -> bool:
    """Check d^2 = 0 on the dual basis via formal form arithmetic.

    Independent of jacobi_defect: works on wedge coefficients only.
    """
    d1 = differential(g)

    def wedge21(two: dict[tuple[int, int], Q], c: int, sign: Q):
        # (e^a ^ e^b) ^ e^c, accumulated into a 3-form dict
        out: dict[tuple[int, int, int], Q] = {}
        for (a, b), coeff in two.items():
            if c == a or c == b:
                continue
            idx = sorted((a, b, c))
            perm = (a, b, c)
            # parity of sorting the triple
            swaps = sum(
                1
                for x in range(3)
                for y in range(x + 1, 3)
                if perm[x] > perm[y]
            )
            s = coeff * sign * (-1 if swaps % 2 else 1)
            key = tuple(idx)
            out[key] = out.get(key, Q(0)) + s
        return out

    for k in range(g.dim):
        total: dict[tuple[int, int, int], Q] = {}
        for (i, j), coeff in d1[k].items():
            # d(e^i ^ e^j) = d e^i ^ e^j - e^i ^ d e^j
            for key, s in wedge21(d1[i], j, coeff).items():
                total[key] = total.get(key, Q(0)) + s
            for key, s in wedge21(d1[j], i, -coeff).items():
                total[key] = total.get(key, Q(0)) + s
        if any(v != 0 for v in total.values()):
            return False
    return True


def split_cps(name: str) -> tuple[LieAlgebra, CPS]:
    """The row algebra and the named split pair on it, assembled."""
    g = parse_salamon(SPLIT_ROW)
    return g, assemble_cps(g, SPLIT_J, SPLIT_E[name])


def validate_cps(g: LieAlgebra, j: Endo, e: Endo) -> list[str]:
    """Failure codes for the CPS axioms, in `assemble_cps`'s order; empty means valid."""
    try:
        assemble_cps(g, j, e)
    except StructureError as exc:
        return exc.failures
    return []


def ref_parallel_defect(conn, a):
    """Pairs (i, j) where nabla_{e_i} (A e_j) != A nabla_{e_i} e_j, with the difference.

    `assemble_cps` and `lift_cps` check no parallelism: their connections
    are parallel by construction.  This is the independent check of the
    paper's claim, one nabla_{e_i} at a time.
    """
    out, nablas = [], conn.nablas()
    for i in range(conn.algebra.dim):
        diff = nablas[i] @ a - a @ nablas[i]
        for jdx in range(conn.algebra.dim):
            d = diff.col(jdx)
            if not vec_is_zero(d):
                out.append((i, jdx, d))
    return out


def is_quaternion_triple(j1, j2, j3) -> bool:
    """J1^2 = J2^2 = J3^2 = -Id, J1 J2 = J3 and J2 J1 = -J3.

    `lift_cps` checks none of these: they follow from the CPS axioms.
    """
    minus_ident = QMatrix.identity(j1.rows).scale(-1)
    return all(a @ a == minus_ident for a in (j1, j2, j3)) and j1 @ j2 == j3 and j2 @ j1 == j3.scale(-1)


def dense_conjugator(rng, n):
    """A random invertible P with every entry nonzero."""
    while True:
        p = QMatrix([[Q(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        if rank(p) == n:
            return p


def is_abelian_complex(g: LieAlgebra, j: Endo) -> bool:
    """[Jx, Jy] = [x, y] on all basis pairs (implies integrability).

    J must be a g.dim x g.dim matrix with J^2 = -Id: StructureError "shape"
    or "J_square" otherwise."""
    if (j.rows, j.cols) != (g.dim, g.dim):
        raise StructureError("shape", f"J is {j.rows} x {j.cols}, not {g.dim} x {g.dim}")
    if j @ j != QMatrix.identity(g.dim).scale(-1):
        raise StructureError("J_square", "J^2 = -Id fails")
    if right_product(g.ad_columns(j), j) != swapped(g.structure.side):
        return False
    if _integrability_defect(g, j, 1):
        raise StructureError("J_integrability", "an abelian J must be integrable")
    return True


def cps_from_split(g: LieAlgebra, j: Endo, plus_vectors, minus_vectors) -> CPS:
    """Build E = +Id/-Id on a given splitting and assemble the CPS."""
    n = g.dim
    cols = [list(v) for v in plus_vectors] + [list(v) for v in minus_vectors]
    if len(cols) != n:
        raise ValueError("splitting must cover the whole space")
    s = QMatrix.from_cols([tuple(q(x) for x in c) for c in cols])
    d = QMatrix.diag_blocks(
        QMatrix.identity(len(plus_vectors)),
        QMatrix.identity(len(minus_vectors)).scale(-1),
    )
    e = s @ d @ s.inverse()
    return assemble_cps(g, j, e)


def h3x2_constant(cps: CPS) -> Q:
    """The scalar c with J z_+ = c z_- for a Heisenberg x Heisenberg CPS.

    z_+ = [u1, u2] for a basis u1, u2 complementing the derived line of
    the + side, and z_- = [J u1, J u2]; c does not depend on the choice.
    """
    types = double_type(cps)
    if types != (ThreeDimType.HEISENBERG3, ThreeDimType.HEISENBERG3):
        raise ValueError("both eigenspace subalgebras must be Heisenberg")
    g = cps.algebra
    basis = cps.plus.basis_vectors()
    pair = next(
        (a, b)
        for a in range(3)
        for b in range(a + 1, 3)
        if not vec_is_zero(g.bracket(basis[a], basis[b]))
    )
    u1, u2 = basis[pair[0]], basis[pair[1]]
    z_plus = g.bracket(u1, u2)
    z_minus = g.bracket(cps.j.apply(u1), cps.j.apply(u2))
    jz = cps.j.apply(z_plus)
    ratios = {jz[k] / z_minus[k] for k in range(g.dim) if z_minus[k] != 0}
    if len(ratios) != 1:
        raise ValueError("J z_+ is not proportional to z_-")
    c = ratios.pop()
    if Subspace.from_spanning([jz], g.dim) != Subspace.from_spanning([z_minus], g.dim):
        raise ValueError("J z_+ is not proportional to z_-")
    return c


def heisenberg_complex_examples():
    """Three CPS on the realified complex Heisenberg algebra.

    Double types: (abelian, abelian), (abelian, Heisenberg), and
    (Heisenberg, Heisenberg).
    """
    g = parse_salamon("(0,0,0,0,13+42,14+23)")
    e = [basis_vec(6, i) for i in range(6)]
    minus_e = [tuple(-x for x in v) for v in e]

    j1 = QMatrix.from_cols([e[2], e[3], minus_e[0], minus_e[1], e[5], minus_e[4]])
    cps1 = cps_from_split(g, j1, [e[0], e[1], e[4]], [e[2], e[3], e[5]])

    # J e1 = e2 - e4, J e2 = -(e1 + e3); squares to -Id
    j2 = QMatrix.from_cols(
        [
            vec(( 0, 1, 0, -1, 0, 0)),
            vec((-1, 0, -1, 0, 0, 0)),
            vec(( 0, 0, 0, 1, 0, 0)),
            vec(( 0, 0, -1, 0, 0, 0)),
            e[5],
            minus_e[4],
        ]
    )
    plus2 = [e[0], e[1], e[4]]
    minus2 = [vec((1, 0, 1, 0, 0, 0)), vec((0, -1, 0, 1, 0, 0)), e[5]]
    cps2 = cps_from_split(g, j2, plus2, minus2)

    plus3 = [vec((1, 1, 1, 0, 0, 0)), vec((1, -1, 0, 1, 0, 0)), vec((0, 0, 0, 0, 1, -1))]
    minus3 = [vec((-1, 1, -1, 0, 0, 0)), vec((1, 1, 0, -1, 0, 0)), vec((0, 0, 0, 0, 1, 1))]
    cps3 = cps_from_split(g, j2, plus3, minus3)
    return [(g, cps1), (g, cps2), (g, cps3)]
