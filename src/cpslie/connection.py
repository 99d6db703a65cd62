"""The torsion-free connection of a CPS and everything derived from it.

The connection, curvature, Ricci form and the induced left-symmetric
products are all exact rational tensors.  The only floating point in
the package lives in the quadratic-geodesic completeness certificate at
the bottom of this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, lcm

from .lie import LieAlgebra
from .linalg import (
    Q,
    QMatrix,
    SparseTensor,
    Vector,
    _matrix,
    _unscaled,
    basis_vec,
    is_nilpotent_matrix,
    vec_is_zero,
    vec_sub,
)
from .structures import CPS, Endo, split_coordinates


class TorsionError(ValueError):
    pass


class CertificateError(ValueError):
    """Two exact certificates of the same property disagree."""


class Connection:
    """gamma[i][j] = nabla_{e_i} e_j as a coordinate vector, held as a SparseTensor.

    A flat torsion-free connection is a left-symmetric product
    x . y = nabla_x y; `product`, `left_mult` and `right_mult` give that view.
    """

    __slots__ = ("algebra", "tensor")

    def __init__(self, algebra: LieAlgebra, gamma):
        """`gamma` is a dim x dim table of dim-vectors, or a SparseTensor."""
        n = algebra.dim
        t = gamma if isinstance(gamma, SparseTensor) else SparseTensor(n, gamma)
        if t.dim != n:
            raise ValueError("gamma must be a dim x dim table of dim-vectors")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "tensor", t)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def gamma(self) -> tuple[tuple[Vector, ...], ...]:
        return self.tensor.table

    def nabla(self, i: int) -> QMatrix:
        """Matrix of nabla_{e_i} (columns are images of basis vectors)."""
        return self.tensor.slice_matrix(basis_vec(self.algebra.dim, i))

    def nabla_vector(self, x) -> QMatrix:
        return self.tensor.slice_matrix(x)

    def apply(self, x, y) -> Vector:
        return self.tensor.contract(x, y)

    product = apply
    left_mult = nabla

    def right_mult(self, j: int) -> QMatrix:
        """Matrix of x -> x . e_j."""
        return QMatrix.from_cols([self.gamma[i][j] for i in range(self.algebra.dim)])

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
    nablas = []
    for i in range(g.dim):
        ap = g.ad_vector(pip.col(i))
        am = g.ad_vector(pim.col(i))
        nablas.append(lp @ ap @ rp + pim @ ap @ pim + lm @ am @ rm + pip @ am @ pip)
    conn = Connection(g, SparseTensor.from_slices(nablas))
    # sign bugs die here, not downstream
    if torsion_defect(conn):
        raise TorsionError("cp connection came out with torsion")
    if parallel_defect(conn, cps.j) or parallel_defect(conn, cps.e):
        raise ValueError("cp connection fails to parallelize J or E")
    return conn


def torsion_defect(conn: Connection) -> list[tuple[int, int, Vector]]:
    """Pairs where nabla_x y - nabla_y x != [x, y]."""
    g = conn.algebra
    gam, gden = conn.tensor.dense(), conn.tensor.den
    br, bden = g.structure.dense(), g.structure.den
    out = []
    for i in range(g.dim):
        for jdx in range(i + 1, g.dim):
            d = [(a - b) * bden - c * gden for a, b, c in zip(gam[i][jdx], gam[jdx][i], br[i][jdx])]
            if any(d):
                out.append((i, jdx, _unscaled(d, gden * bden)))
    return out


def parallel_defect(conn: Connection, a: Endo) -> list[tuple[int, int, Vector]]:
    """Pairs where nabla_x (A y) != A nabla_x y."""
    g = conn.algebra
    out = []
    nablas = [conn.nabla(i) for i in range(g.dim)]
    for i in range(g.dim):
        na = nablas[i] @ a
        an = a @ nablas[i]
        if na != an:
            for jdx in range(g.dim):
                d = vec_sub(na.col(jdx), an.col(jdx))
                if not vec_is_zero(d):
                    out.append((i, jdx, d))
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
    nablas = [conn.nabla(i) for i in range(n)]
    r = {}
    for i in range(n):
        for jdx in range(i + 1, n):
            r[(i, jdx)] = (
                nablas[i] @ nablas[jdx] - nablas[jdx] @ nablas[i] - conn.nabla_vector(g.table[i][jdx])
            )
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
        traceless=all(m.trace() == 0 for m in nablas),
    )


def ricci_via_trace_identity(conn: Connection) -> QMatrix:
    """ric(x,y) = (1/4) tr nabla_{[x,y]} for torsion-free connections
    with skew-symmetric Ricci (the cp connections of this package)."""
    if torsion_defect(conn):
        raise TorsionError("the trace identity needs a torsion-free connection")
    g = conn.algebra
    n = g.dim
    # column j of ad(e_i) is [e_i, e_j], so row i is ad(e_i)^T t / 4
    traces = tuple(conn.nabla(i).trace() for i in range(n))
    return QMatrix([g.ad(i).transpose().apply(traces) for i in range(n)], cols=n).scale(Q(1, 4))


class LSAProduct(Connection):
    """A Connection whose constructor also checks the left-symmetric algebra axioms."""

    __slots__ = ()

    def __init__(self, algebra: LieAlgebra, gamma):
        super().__init__(algebra, gamma)
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
    lefts = [p.nabla(i) for i in range(n)]
    bad_cols = {}
    for i in range(n):
        for jdx in range(i + 1, n):
            commutator = lefts[i] @ lefts[jdx] - lefts[jdx] @ lefts[i]
            d = commutator - p.nabla_vector(vec_sub(p.gamma[i][jdx], p.gamma[jdx][i]))
            bad_cols[i, jdx] = bad_cols[jdx, i] = [k for k in range(n) if any(r[k] for r in d.num)]
    left = [(i, jdx, k) for i in range(n) for jdx in range(n) for k in bad_cols.get((i, jdx), ())]
    compat = [(i, jdx) for i, jdx, _ in torsion_defect(p)]
    return {"left_symmetry": left, "compatibility": compat}


def connection_as_lsa(conn: Connection) -> LSAProduct:
    """Reinterpret a flat torsion-free connection as a left-symmetric product."""
    return LSAProduct(conn.algebra, conn.tensor)


def restrict_to_lsa(cps: CPS, side: str) -> LSAProduct:
    """The flat LSA induced on one eigenspace subalgebra by the cp connection."""
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    sub = cps.plus if side == "plus" else cps.minus
    conn = cp_connection(cps)
    g = cps.algebra
    basis = sub.basis_vectors()
    m = sub.dim
    sub_table = [[None] * m for _ in range(m)]
    gamma = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            sub_table[a][b] = sub.coordinates(g.bracket(basis[a], basis[b]))
            gamma[a][b] = sub.coordinates(conn.apply(basis[a], basis[b]))
    little = LieAlgebra(m, sub_table)
    return LSAProduct(little, gamma)


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
        if not all(is_nilpotent_matrix(p.left_mult(i)) for i in range(n)):
            raise CertificateError(
                "complete LSA on a nilpotent algebra with non-nilpotent left multiplication"
            )
    return complete


@dataclass(frozen=True)
class CompletenessReport:
    method: str  # "segal-trace" or "quadratic-geodesic"
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
    # product of the (b, n*n) outer products y_i y_j with this matrix
    neg_gam = np.array([[-float(c) for c in conn.gamma[i][j]] for i in range(n) for j in range(n)])
    x = np.array([[float(c) for c in v] for v in initial])
    steps = int(round(t_max / step))
    times = np.linspace(0.0, steps * step, steps + 1)
    values = np.empty((steps + 1, *x.shape))
    values[0] = x
    outer = np.empty((len(initial), n, n))
    outer_rows = outer.reshape(len(initial), n * n)

    def f(y):
        np.multiply(y[:, :, None], y[:, None, :], out=outer)
        return outer_rows @ neg_gam

    h, half, sixth = step, 0.5 * step, step / 6.0
    for s in range(steps):
        k1 = f(x)
        k2 = f(x + half * k1)
        k3 = f(x + half * k2)
        k4 = f(x + h * k3)
        x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        values[s + 1] = x
    return times, values


def quadratic_geodesic_certificate(conn: Connection, seed: int = 0) -> CompletenessReport:
    """Check every geodesic coordinate is a polynomial of degree <= 2.

    Integrates over t in [0, t_max] and fits each coordinate with a
    quadratic; passes when the relative residual stays within tolerance.
    Fails closed: a non-finite residual (a trajectory that blew up) makes
    the verdict false and reports `max_relative_residual` as null.
    """
    import numpy as np

    n = conn.algebra.dim
    initial = _geodesic_initial_conditions(n, seed)
    times, values = integrate_geodesics(conn, initial)
    worst = 0.0
    finite = True
    for b in range(len(initial)):
        for k in range(n):
            series = values[:, b, k]
            coeffs = np.polynomial.polynomial.polyfit(times, series, 2)
            fitted = np.polynomial.polynomial.polyval(times, coeffs)
            resid = float(np.max(np.abs(series - fitted)))
            scale = max(1.0, float(np.max(np.abs(series))))
            r = resid / scale
            if isfinite(r):
                worst = max(worst, r)
            else:
                finite = False
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


def connection_is_complete_certificate(rep: CurvatureReport, seed: int = 0) -> CompletenessReport:
    """Completeness certificate for the connection of a curvature report.

    Flat torsion-free connections get the exact trace argument (they are
    LSA structures); the others get the numeric quadratic-geodesic fit.
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
    return quadratic_geodesic_certificate(conn, seed=seed)
