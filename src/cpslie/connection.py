"""The torsion-free connection of a CPS and everything derived from it.

The connection, curvature, Ricci form and the induced left-symmetric
products are all exact rational tensors, and so are both completeness
certificates that `connection_is_complete_certificate` chooses between.
The only floating point in the package is the numeric quadratic-geodesic
certificate (`integrate_geodesics`, `quadratic_geodesic_certificate`),
which only the `geodesic` command runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from math import isfinite, lcm

from .lie import LieAlgebra
from .linalg import (
    Q,
    QMatrix,
    SparseTensor,
    Vector,
    _matrix,
    basis_vec,
    block_columns,
    is_nilpotent_matrix,
    reshaped,
    right_product,
    swapped,
)
from .structures import CPS, Endo, split_coordinates


class TorsionError(ValueError):
    pass


class CertificateError(ValueError):
    """Two exact certificates of the same property disagree."""


class Connection:
    """nabla_{e_i} e_j as a coordinate vector, held in column i*n + j of a SparseTensor's layout.

    A flat torsion-free connection is a left-symmetric product
    x . y = nabla_x y; `apply`, `nabla` and `right_mult` give that view.
    """

    __slots__ = ("algebra", "tensor")

    def __init__(self, algebra: LieAlgebra, tensor: SparseTensor):
        if tensor.dim != algebra.dim:
            raise ValueError("the connection tensor must have the algebra's dimension")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "tensor", tensor)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def nabla(self, i: int) -> QMatrix:
        """Matrix of nabla_{e_i} (columns are images of basis vectors)."""
        return self.tensor.slice_matrix(basis_vec(self.algebra.dim, i))

    def nablas(self) -> list[QMatrix]:
        """Every nabla_{e_i}, cut from the flat layout."""
        n, den = self.algebra.dim, self.tensor.den
        return [_matrix([r[s:s + n] for s in range(0, n * n, n)], den, n) for r in swapped(self.tensor.side).num]

    def apply(self, x, y) -> Vector:
        return self.tensor.contract(x, y)

    def right_mult(self, j: int) -> QMatrix:
        """Matrix of x -> x . e_j: columns j, n + j, 2n + j, ... of the side-by-side layout."""
        side = self.tensor.side
        return _matrix([r[j::self.algebra.dim] for r in side.num], side.den, self.algebra.dim)

    def __eq__(self, other):
        return (
            isinstance(other, Connection)
            and self.algebra == other.algebra
            and self.tensor == other.tensor
        )

    def __hash__(self):
        return hash((self.algebra, self.tensor))


def cp_connection(cps: CPS) -> Connection:
    """The unique torsion-free connection with parallel J and E.

    Case-wise on the eigenspace splitting, for x,y in the respective
    eigenspaces:

        nabla_{x+} y+ = -pi+ J [x+, J y+]      nabla_{x+} y- = pi- [x+, y-]
        nabla_{x-} y- = -pi- J [x-, J y-]      nabla_{x-} y+ = pi+ [x-, y+]

    Torsion-freeness and parallelism of J and E are checked here, once,
    and a failure raises, so callers rely on them without checking again.
    """
    g, j = cps.algebra, cps.j
    _, pip, pim = split_coordinates(cps)
    # nabla_{e_i} y for x+- = pi+- e_i and y+- = pi+- y, as matrices in y
    lp, rp = -(pip @ j), j @ pip
    lm, rm = -(pim @ j), j @ pim
    # nabla_{e_i} = lp ap_i rp + pim ap_i pim + lm am_i rm + pip am_i pip with
    # ap_i = ad(pi+ e_i), am_i = ad(pi- e_i), for all i at once on the layouts
    ap, am = g.ad_columns(pip), g.ad_columns(pim)
    terms = ((lp, ap, rp), (pim, ap, pim), (lm, am, rm), (pip, am, pip))
    side = QMatrix.zeros(g.dim, g.dim**2)
    for left, ads, right in terms:
        side = side + left @ swapped(right_product(ads, right))
    conn = Connection(g, SparseTensor(side))
    # sign bugs die here, not downstream
    if torsion_defect(conn):
        raise TorsionError("cp connection came out with torsion")
    if parallel_defect(conn, cps.j) or parallel_defect(conn, cps.e):
        raise ValueError("cp connection fails to parallelize J or E")
    return conn


def _skew(side: QMatrix) -> QMatrix:
    """Column i*n + j minus column j*n + i of a side-by-side layout, at column i*n + j."""
    n = side.rows
    return _matrix([[r[i * n + j] - r[j * n + i] for i in range(n) for j in range(n)] for r in side.num], side.den, n * n)


def torsion_defect(conn: Connection) -> list[tuple[int, int, Vector]]:
    """Pairs where nabla_x y - nabla_y x != [x, y]."""
    d = _skew(conn.tensor.side) - conn.algebra.structure.side
    return [(i, j, v) for i, j, v in block_columns(d) if j > i]


def parallel_defect(conn: Connection, a: Endo) -> list[tuple[int, int, Vector]]:
    """Pairs where nabla_x (A y) != A nabla_x y."""
    side = conn.tensor.side
    return block_columns(right_product(side, a) - a @ side)


def _commutator_defects(t: SparseTensor, bracket: QMatrix) -> dict:
    """{(i, j): [M_i, M_j] - M_b for i < j}, over the slices M of t and b the
    column i*n + j of `bracket` (side by side); one product gives every M_i M_j."""
    n, side = t.dim, t.side
    flat = swapped(side)  # row k is M_k read row by row
    prod = reshaped(flat, n * n) @ side  # block (i, j) is M_i M_j
    den = lcm(prod.den, side.den * bracket.den)
    f, h = den // prod.den, den // (side.den * bracket.den)
    rows = [prod.num[s:s + n] for s in range(0, n * n, n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            ij = chain.from_iterable(r[j * n:(j + 1) * n] for r in rows[i])
            ji = chain.from_iterable(r[i * n:(i + 1) * n] for r in rows[j])
            d = [f * (a - b) for a, b in zip(ij, ji)]
            for k, row in enumerate(bracket.num):
                if c := h * row[i * n + j]:
                    d = [x - c * y for x, y in zip(d, flat.num[k])]
            out[i, j] = _matrix([d[s:s + n] for s in range(0, n * n, n)], den, n)
    return out


@dataclass(frozen=True)
class CurvatureReport:
    connection: Connection
    r: dict  # {(i, j): QMatrix} for i < j; R(e_j, e_i) = -R(e_i, e_j)
    ricci: QMatrix
    is_flat: bool
    is_ricci_flat: bool
    traceless: bool

    def operator(self, i: int, j: int) -> QMatrix:
        if i == j:
            return QMatrix.zeros(self.ricci.rows, self.ricci.cols)
        if i < j:
            return self.r[(i, j)]
        return self.r[(j, i)].scale(-1)

    def nonzero_entries(self):
        out = []
        for (i, j), m in sorted(self.r.items()):
            for k in range(m.cols):
                for l in range(m.rows):
                    if m.num[l][k]:
                        out.append({"x": i + 1, "y": j + 1, "z": k + 1, "w": l + 1, "value": str(m.entry(l, k))})
        return out


def curvature(conn: Connection) -> CurvatureReport:
    """R(x,y) = [nabla_x, nabla_y] - nabla_[x,y], plus Ricci and flags."""
    g = conn.algebra
    n = g.dim
    r = _commutator_defects(conn.tensor, g.structure.side)
    is_flat = all(m.is_zero() for m in r.values())
    # ric(e_i, e_j) = tr(z -> R(z, e_i) e_j): row i sums row z of R(e_z, e_i)
    den = lcm(*[m.den for m in r.values()])
    ricci_rows = []
    for i in range(n):
        acc = [0] * n
        for z in range(n):
            if z != i:
                m = r[(z, i)] if z < i else r[(i, z)]
                f = den // m.den if z < i else -(den // m.den)
                acc = [a + f * b for a, b in zip(acc, m.num[z])]
        ricci_rows.append(acc)
    ricci = _matrix(ricci_rows, den, n)
    return CurvatureReport(
        connection=conn,
        r=r,
        ricci=ricci,
        is_flat=is_flat,
        is_ricci_flat=ricci.is_zero(),
        traceless=_traces(conn.tensor).is_zero(),
    )


def _traces(t: SparseTensor) -> QMatrix:
    """The row (tr M_0, ..., tr M_{n-1}) over the slices M_i of t."""
    n, side = t.dim, t.side
    return _matrix([[sum(side.num[l][i * n + l] for l in range(n)) for i in range(n)]], side.den, n)


def ricci_via_trace_identity(conn: Connection) -> QMatrix:
    """ric(x,y) = (1/4) tr nabla_{[x,y]} for torsion-free connections
    with skew-symmetric Ricci (the cp connections of this package)."""
    if torsion_defect(conn):
        raise TorsionError("the trace identity needs a torsion-free connection")
    g = conn.algebra
    n = g.dim
    # entry (i, j) is t . [e_i, e_j] / 4: entry i*n + j of t^T [ad(e_0) | ...] / 4
    return reshaped(_traces(conn.tensor).scale(Q(1, 4)) @ g.structure.side, n)


class LSAProduct(Connection):
    """A Connection whose constructor also checks the left-symmetric algebra axioms."""

    __slots__ = ()

    def __init__(self, algebra: LieAlgebra, tensor: SparseTensor):
        super().__init__(algebra, tensor)
        bad = lsa_defects(self)
        if bad["left_symmetry"] or bad["compatibility"]:
            raise ValueError(f"not a left-symmetric product: {bad}")


def lsa_defects(p: Connection) -> dict:
    """Left-symmetry and bracket-compatibility defects on basis triples/pairs.

    (x.y).z - x.(y.z) = (y.x).z - y.(x.z) fails on (e_i, e_j, e_k) iff
    column k of [L_i, L_j] - L_(e_i.e_j - e_j.e_i) is nonzero; the
    matrix changes sign when i and j swap.  Compatibility,
    x.y - y.x = [x, y], is torsion-freeness.
    """
    n = p.algebra.dim
    bad_cols = {}
    # column i*n + j of the skew layout is e_i . e_j - e_j . e_i
    for (i, jdx), d in _commutator_defects(p.tensor, _skew(p.tensor.side)).items():
        bad_cols[i, jdx] = bad_cols[jdx, i] = [k for k in range(n) if any(r[k] for r in d.num)]
    left = [(i, jdx, k) for i in range(n) for jdx in range(n) for k in bad_cols.get((i, jdx), ())]
    compat = [(i, jdx) for i, jdx, _ in torsion_defect(p)]
    return {"left_symmetry": left, "compatibility": compat}


def restrict_to_lsa(cps: CPS, side: str) -> LSAProduct:
    """The flat LSA induced on one eigenspace subalgebra by the cp connection."""
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    sub = cps.plus if side == "plus" else cps.minus
    conn = cp_connection(cps)
    g, basis, m = cps.algebra, sub.basis_vectors(), sub.dim
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    little = LieAlgebra.from_brackets(
        m, {(a, b): dict(enumerate(sub.coordinates(g.bracket(basis[a], basis[b])))) for a, b in pairs}
    )
    # column a*m + b holds the coordinates of basis[a] . basis[b]
    products = [sub.coordinates(conn.apply(x, y)) for x in basis for y in basis]
    return LSAProduct(little, SparseTensor(QMatrix.from_cols(products)))


def lsa_is_complete(p: Connection) -> bool:
    """Completeness via the right-multiplication trace criterion.

    All right multiplications are nilpotent iff tr(y -> y.x) = 0 for
    all x, which is linear and hence decidable on the basis.  Basis
    nilpotency is cross-checked, and on nilpotent algebras so is the
    left-multiplication characterization.
    """
    n = p.algebra.dim
    rights = [p.right_mult(j) for j in range(n)]
    complete = all(r.trace() == 0 for r in rights)
    basis_right_nilpotent = all(is_nilpotent_matrix(r) for r in rights)
    if basis_right_nilpotent != complete:
        raise CertificateError("trace and nilpotency certificates disagree")
    from .lie import is_nilpotent

    if complete and is_nilpotent(p.algebra):
        if not all(is_nilpotent_matrix(m) for m in p.nablas()):
            raise CertificateError(
                "complete LSA on a nilpotent algebra with non-nilpotent left multiplication"
            )
    return complete


@dataclass(frozen=True)
class CompletenessReport:
    method: str  # "segal-trace", "exact-quadratic-geodesic" or "quadratic-geodesic"
    verdict: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"method": self.method, "verdict": self.verdict, "details": self.details}


GEODESIC_STEP = 1e-3
GEODESIC_T_MAX = 10.0
GEODESIC_REL_TOL = 1e-6


def _geodesic_initial_conditions(n: int, seed: int) -> list[Vector]:
    """Signed coordinate vectors plus 10 seeded rational points in [-2, 2]."""
    out = [basis_vec(n, i, s) for i in range(n) for s in (1, -1)]
    rng = random.Random(seed)
    for _ in range(10):
        out.append(tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(n)))
    return out


def integrate_geodesics(conn: Connection, initial: list[Vector], t_max=GEODESIC_T_MAX, step=GEODESIC_STEP):
    """RK4 trajectories of x' = -nabla_x x from each initial condition.

    Returns (times, values) with values of shape (steps+1, len(initial), dim).
    """
    import numpy as np

    n = conn.algebra.dim
    # row i*n + j holds -nabla_{e_i} e_j, so each stage's -nabla_y y is one
    # product of the (b, n*n) outer products y_i y_j with this matrix.  The
    # doubled copy gives stages 2 and 3 as 2k exactly, so their stage inputs
    # scale by h/4 and h/2 and the weighted sum is three adds, bit for bit
    # the classical k1 + 2 k2 + 2 k3 + k4.  The int quotient num / den is
    # correctly rounded, so each entry has the bits of -float(Fraction)
    side = conn.tensor.side
    neg_gam = np.array([[-(x / side.den) for x in col] for col in zip(*side.num)])
    neg_gam2 = 2.0 * neg_gam
    x = np.array([[float(c) for c in v] for v in initial])
    steps = int(round(t_max / step))
    times = np.linspace(0.0, steps * step, steps + 1)
    values = np.empty((steps + 1, *x.shape))
    values[0] = x
    y, k1, k2, k3, k4 = (np.empty_like(x) for _ in range(5))
    outer = np.empty((len(initial), n, n))
    outer_rows = outer.reshape(len(initial), n * n)
    x_i, x_j, y_i, y_j = x[:, :, None], x[:, None, :], y[:, :, None], y[:, None, :]

    def stage(k, scale, gam, out):
        np.multiply(k, scale, out=y)
        np.add(x, y, out=y)
        np.multiply(y_i, y_j, out=outer)
        np.matmul(outer_rows, gam, out=out)

    half, quarter, sixth = 0.5 * step, 0.25 * step, step / 6.0
    for s in range(steps):
        np.multiply(x_i, x_j, out=outer)
        np.matmul(outer_rows, neg_gam, out=k1)
        stage(k1, half, neg_gam2, k2)
        stage(k2, quarter, neg_gam2, k3)
        stage(k3, half, neg_gam, k4)
        np.add(k1, k2, out=k1)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(k1, sixth, out=k1)
        np.add(x, k1, out=x)
        values[s + 1] = x
    return times, values


def quadratic_geodesic_certificate(conn: Connection, seed: int = 0) -> CompletenessReport:
    """Check every geodesic coordinate is a polynomial of degree <= 2.

    Integrates over t in [0, t_max] and fits each coordinate with a
    quadratic by least squares: with Q an orthonormal basis of the
    quadratics sampled at the times, the residual of a series y is
    y - Q Q^T y.  Passes when the relative residual stays within tolerance.
    Fails closed: a trajectory that blew up or a coefficient beyond the
    float range makes the verdict false and `max_relative_residual` null.
    """
    import numpy as np

    n = conn.algebra.dim
    initial = _geodesic_initial_conditions(n, seed)
    try:
        # a trajectory that blows up becomes inf/nan and fails below, without warnings
        with np.errstate(all="ignore"):
            times, values = integrate_geodesics(conn, initial)
    except OverflowError:
        # a coefficient beyond the float range leaves no trajectory to fit
        worst = np.inf
    else:
        basis = np.linalg.qr(np.polynomial.polynomial.polyvander(times, 2))[0]
        rel = []
        with np.errstate(all="ignore"):
            # one (steps+1, n) block per initial condition keeps the scratch arrays small
            for b in range(len(initial)):
                block = values[:, b, :]
                # constants lie in the span, so fitting block - block[0] leaves the
                # residual unchanged and fits a constant coordinate without rounding
                shifted = block - block[0]
                resid = np.abs(shifted - basis @ (basis.T @ shifted)).max(axis=0)
                rel.append(resid / np.maximum(1.0, np.abs(block).max(axis=0)))
        worst = float(np.max(rel))
    finite = isfinite(worst)
    verdict = finite and worst <= GEODESIC_REL_TOL
    return CompletenessReport(
        method="quadratic-geodesic",
        verdict=verdict,
        details={
            "max_relative_residual": worst if finite else None,
            "tolerance": GEODESIC_REL_TOL,
            "step": GEODESIC_STEP,
            "t_max": GEODESIC_T_MAX,
            "seed": seed,
            "initial_conditions": len(initial),
        },
    )


# {a in N^n : |a| = 6}, the principal lattice of order 6 on the simplex, is
# unisolvent for polynomials of degree <= 6, so a homogeneous polynomial of
# degree <= 6 that vanishes on it is zero
GRID_ORDER = 6


def _on_grid(pairs, x, y) -> list[list[int]]:
    """sum_ij x_i y_j C[ij] at every grid point at once.

    x, y and the result hold one list of values over the points per
    coordinate; `pairs` lists (i, j, ((k, C[ij][k]), ...)) for the nonzero C[ij].
    """
    live_x, live_y = [any(u) for u in x], [any(v) for v in y]
    out = [None] * len(x)
    for i, j, col in pairs:
        if live_x[i] and live_y[j]:
            uv = [a * b for a, b in zip(x[i], y[j])]
            for k, c in col:
                acc = out[k]
                out[k] = [c * p for p in uv] if acc is None else [s + c * p for s, p in zip(acc, uv)]
    zero = [0] * len(x[0])
    return [zero if o is None else o for o in out]


def exact_quadratic_geodesic_certificate(conn: Connection) -> CompletenessReport:
    """Prove in integers that every geodesic is quadratic in t, hence complete.

    With B(x,y) = (nabla_x y + nabla_y x)/2 the body velocity of a
    geodesic solves x' = -B(x,x).  For x1 = -B(x0,x0) and x2 = -B(x0,x1),
    x0 + t x1 + t^2 x2 is the solution, defined for all t, exactly when

        P4 = B(x1,x1) + 2B(x0,x2),  P5 = B(x1,x2),  P6 = B(x2,x2)

    vanish; P_d is homogeneous of degree d in x0.  They are evaluated on
    the integer tensor C = 2 den B at every point of the order-6 grid,
    where y1 = C(a,a) and y2 = C(a,y1) are multiples of x1 and x2, so
    C(y1,y1) + 2C(a,y2), C(y1,y2) and C(y2,y2) are nonzero multiples of
    P4, P5 and P6.  A false verdict means no certificate, not a proof of
    incompleteness.  The scalars are ints for an instance and Polys for a
    family's connection (`catalog.family_connection`), where the zero
    tests are identities in the parameters.
    """
    n, side = conn.algebra.dim, conn.tensor.side
    cols = list(zip(*side.num))  # column i*n + j holds den * nabla_{e_i} e_j
    full = []
    for i in range(n):
        for j in range(n):
            col = tuple((k, a + b) for k, (a, b) in enumerate(zip(cols[i * n + j], cols[j * n + i])) if a + b)
            if col:
                full.append((i, j, col))
    # C is symmetric, so C(x,x) needs only the pairs i <= j, doubled off the diagonal
    sym = [(i, j, col if i == j else tuple((k, 2 * c) for k, c in col)) for i, j, col in full if i <= j]
    # a multiset of GRID_ORDER indices is a grid point, a_i counting index i;
    # the points are held as one list of values per coordinate
    points = [[p.count(i) for i in range(n)] for p in combinations_with_replacement(range(n), GRID_ORDER)]
    a = [list(c) for c in zip(*points)]
    y1 = _on_grid(sym, a, a)
    y2 = _on_grid(full, a, y1)
    p4 = zip(chain.from_iterable(_on_grid(sym, y1, y1)), chain.from_iterable(_on_grid(full, a, y2)))
    vanishing = {
        "P4": not any(s + 2 * t for s, t in p4),
        "P5": not any(chain.from_iterable(_on_grid(full, y1, y2))),
        "P6": not any(chain.from_iterable(_on_grid(sym, y2, y2))),
    }
    return CompletenessReport(
        method="exact-quadratic-geodesic",
        verdict=all(vanishing.values()),
        details={
            "equation": "x' = -B(x,x), B(x,y) = (nabla_x y + nabla_y x)/2, x1 = -B(x0,x0), x2 = -B(x0,x1)",
            "identities": {"P4": "B(x1,x1) + 2B(x0,x2)", "P5": "B(x1,x2)", "P6": "B(x2,x2)"},
            "vanishing": vanishing,
            "grid": {"order": GRID_ORDER, "points": len(points)},
        },
    )


def connection_is_complete_certificate(rep: CurvatureReport) -> CompletenessReport:
    """Completeness certificate for the connection of a curvature report.

    Both branches are exact.  Flat torsion-free connections get the trace
    argument (they are LSA structures); the others get the integer proof
    that every geodesic is quadratic.
    """
    conn = rep.connection
    if rep.is_flat and not torsion_defect(conn):
        verdict = lsa_is_complete(conn)
        return CompletenessReport(
            method="segal-trace",
            verdict=verdict,
            details={"right_mult_traces_zero": True, "right_mult_nilpotent": True}
            if verdict
            else {},
        )
    return exact_quadratic_geodesic_certificate(conn)
