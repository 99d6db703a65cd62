"""Almost complex / almost product endomorphisms and their interaction.

An endomorphism is just a square QMatrix acting on a LieAlgebra's
coordinate space.  A CPS bundles an integrable complex structure J and
an integrable product structure E with JE = -EJ.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lie import LieAlgebra, ThreeDimType, center, is_ideal, iso_type_3d
from .linalg import (
    Q,
    QMatrix,
    Subspace,
    Vector,
    annihilator,
    block_columns,
    intersect,
    kernel,
    preimage,
    q,
    reshaped,
    right_product,
    swapped,
    transposed_blocks,
    vec_is_zero,
)

Endo = QMatrix


class StructureError(ValueError):
    """`code` names the first failed axiom; `failures` lists every one."""

    def __init__(self, code: str, message: str, failures: list[str] | None = None):
        self.code = code
        self.failures = list(failures) if failures else [code]
        super().__init__(f"{code}: {message}")


def square_failures(a: Endo, sign: int, name: str) -> list[str]:
    """[] if A^2 = -sign * Id, else the one failure code: "{name}_square", or
    "{name}_identity" for a product structure (sign -1) equal to +/-Id."""
    ident = QMatrix.identity(a.rows)
    if not a.is_square() or (a @ a) != ident.scale(-sign):
        return [f"{name}_square"]
    if sign < 0 and (a == ident or a == ident.scale(-1)):
        return [f"{name}_identity"]
    return []


_REQUIRED = {"J_square": "J^2 = -Id fails", "E_square": "E^2 = Id fails", "E_identity": "E = +/-Id is excluded"}


def _require(a: Endo, sign: int, name: str):
    """Raise StructureError naming the failure of `square_failures`, if any."""
    failures = square_failures(a, sign, name)
    if failures:
        raise StructureError(failures[0], _REQUIRED[failures[0]])


def _integrability_defect(g: LieAlgebra, a: Endo, sign: int) -> list[tuple[int, int, Vector]]:
    """Pairs violating A[x,y] = [Ax,y] + [x,Ay] + sign * A[Ax,Ay].

    A must already satisfy A^2 = -sign * Id; this routine does not check it.
    Column y of A ad(e_i) - ad(A e_i) - ad(e_i) A - sign * A ad(A e_i) A is
    the defect on the pair (e_i, e_y).  One product gives every ad(A e_i);
    antisymmetry, (ad(e_k) A) e_y = -[A e_y, e_k], gives every ad(e_k) A
    from them without a product; `right_product` gives every ad(A e_i) A;
    a last product applies A on the left.
    """
    ad_a = g.ad_columns(a)
    # side by side: block k of swapped(transposed_blocks(ad_a)) is -ad(e_k) A
    d = a @ (g.structure.side - swapped(right_product(ad_a, a)).scale(sign))
    d = d + swapped(transposed_blocks(ad_a) - ad_a)
    return [(i, b, v) for i, b, v in block_columns(d) if b > i]


def complex_integrability_defect(g: LieAlgebra, j: Endo) -> list[tuple[int, int, Vector]]:
    """Pairs violating J[x,y] = [Jx,y] + [x,Jy] + J[Jx,Jy]."""
    _require(j, 1, "J")
    return _integrability_defect(g, j, 1)


def product_integrability_defect(g: LieAlgebra, e: Endo) -> list[tuple[int, int, Vector]]:
    """Pairs violating E[x,y] = [Ex,y] + [x,Ey] - E[Ex,Ey]."""
    _require(e, -1, "E")
    return _integrability_defect(g, e, -1)


def is_abelian_complex(g: LieAlgebra, j: Endo) -> bool:
    """[Jx, Jy] = [x, y] on all basis pairs (implies integrability)."""
    _require(j, 1, "J")
    if right_product(g.ad_columns(j), j) != swapped(g.structure.side):
        return False
    if _integrability_defect(g, j, 1):
        raise StructureError("J_integrability", "an abelian J must be integrable")
    return True


def eigenspaces(e: Endo) -> tuple[Subspace, Subspace]:
    """(+1 eigenspace, -1 eigenspace) of a product structure E != +/-Id."""
    _require(e, -1, "E")
    ident = QMatrix.identity(e.rows)
    return kernel(e - ident), kernel(e + ident)


class CPS:
    """Validated complex product structure {J, E} on a Lie algebra."""

    __slots__ = ("algebra", "j", "e", "plus", "minus")

    def __init__(self, algebra: LieAlgebra, j: Endo, e: Endo, plus: Subspace, minus: Subspace):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def __setattr__(self, name, value):
        raise AttributeError("CPS is immutable")

    def __repr__(self):
        return f"CPS(dim={self.algebra.dim}, split {self.plus.dim}+{self.minus.dim})"


def validate_cps(g: LieAlgebra, j: Endo, e: Endo) -> list[str]:
    """Failure codes for the CPS axioms; empty means valid."""
    n = g.dim
    if j.rows != n or j.cols != n or e.rows != n or e.cols != n:
        return ["shape"]
    failures = square_failures(j, 1, "J") + square_failures(e, -1, "E")
    if failures:
        return failures
    ident = QMatrix.identity(n)
    if (j @ e) != (e @ j).scale(-1):
        failures.append("anticommute")
    if _integrability_defect(g, j, 1):
        failures.append("J_integrability")
    if _integrability_defect(g, e, -1):
        failures.append("E_integrability")
    # As E^2 = Id, tr E = dim g+ - dim g-, and Id + E has image g+ and kernel g-,
    # so J g+ = g- iff the dimensions agree and (Id + E) J (Id + E) = 0
    unequal = e.trace() != 0
    if unequal:
        failures.append("eigen_dim")
    if unequal or not ((ident + e) @ j @ (ident + e)).is_zero():
        failures.append("minus_is_J_plus")
    return failures


def assemble_cps(g: LieAlgebra, j: Endo, e: Endo) -> CPS:
    """Validate all CPS axioms, once, and bundle the result.

    This is the only way to a validated CPS.  On failure the
    StructureError's `failures` holds every failure code of `validate_cps`.
    """
    failures = validate_cps(g, j, e)
    if failures:
        raise StructureError(failures[0], f"CPS invalid: {failures}", failures)
    ident = QMatrix.identity(g.dim)
    return CPS(g, j, e, kernel(e - ident), kernel(e + ident))


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


def double_type(cps: CPS) -> tuple[ThreeDimType, ThreeDimType]:
    return iso_type_3d(cps.algebra, cps.plus), iso_type_3d(cps.algebra, cps.minus)


def rotate_product(cps: CPS, c) -> Endo:
    """E' = pE + qJE with p = (c^2-1)/(c^2+1), q = 2c/(c^2+1).

    c = 0 returns -E; c = 1 returns JE.
    """
    c = q(c)
    denom = c * c + 1
    return rotate_product_rational_angle(cps, (c * c - 1) / denom, 2 * c / denom)


def rotate_product_rational_angle(cps: CPS, p, qq) -> Endo:
    """pE + qJE for an exact circle point p^2 + q^2 = 1; `assemble_cps` validates it."""
    p, qq = q(p), q(qq)
    if p * p + qq * qq != 1:
        raise StructureError("circle", f"p^2 + q^2 = {p * p + qq * qq} != 1")
    return cps.e.scale(p) + (cps.j @ cps.e).scale(qq)


def ascending_series(g: LieAlgebra, j: Endo) -> list[Subspace]:
    """a_0 = 0, a_t = {x : [x,g] and [Jx,g] land in a_(t-1)}, until stable."""
    if complex_integrability_defect(g, j):
        raise StructureError("J_integrability", "J is not a complex structure")
    n = g.dim
    series = [Subspace.zero(n)]
    while True:
        prev = series[-1]
        ann = annihilator(prev)
        if ann.is_zero():
            # previous term is everything; the chain is stable
            break
        # ann [x, e_j] = 0 and ann [Jx, e_j] = 0 for every j: row (a, j) of
        # ann_ad is row a of ann ad(e_j)
        ann_ad = reshaped(ann.basis @ g.structure.side, ann.dim * n)
        nxt = kernel(QMatrix.block([[ann_ad], [ann_ad @ j]]))
        if nxt == prev:
            break
        series.append(nxt)
    return series


def find_central_invariant_ideal(cps: CPS) -> Subspace | None:
    """Largest J- and E-invariant subspace of the center, if dim >= 2."""
    w = center(cps.algebra)
    while True:
        nxt = intersect(w, intersect(preimage(cps.j, w), preimage(cps.e, w)))
        if nxt == w:
            break
        w = nxt
    if w.dim >= 2:
        if not is_ideal(cps.algebra, w):
            raise StructureError("central_ideal", "a J- and E-invariant central subspace must be an ideal")
        return w
    return None


@dataclass(frozen=True)
class Obstruction:
    kind: str
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


def cps_obstructions(g: LieAlgebra) -> list[Obstruction]:
    """Sound necessary-condition failures for admitting any CPS."""
    from .lie import is_nilpotent

    if g.dim != 6:
        raise ValueError("obstruction checks are specific to dimension 6")
    if not is_nilpotent(g):
        raise ValueError("obstruction checks expect a nilpotent algebra")
    out = []
    z = center(g)
    if z.dim < 2:
        out.append(
            Obstruction(
                "CenterTooSmall",
                f"center has dimension {z.dim}; a CPS needs a 2-dimensional central ideal",
            )
        )
    return out


def split_coordinates(cps: CPS) -> tuple[QMatrix, QMatrix, QMatrix]:
    """(S, pi_plus, pi_minus): S columns are plus then minus basis vectors.

    E^2 = Id makes the projections onto the eigenspaces (Id +- E) / 2.
    """
    s = QMatrix.from_cols(list(cps.plus.basis_vectors()) + list(cps.minus.basis_vectors()))
    ident = QMatrix.identity(cps.algebra.dim)
    return s, (ident + cps.e).scale(Q(1, 2)), (ident - cps.e).scale(Q(1, 2))


def rho_matrix(cps: CPS, x: Vector) -> QMatrix:
    """rho(x): minus -> minus, the minus-component of [x, .], for x in plus."""
    if not cps.plus.contains(x):
        raise ValueError("x must lie in the + eigenspace")
    g = cps.algebra
    _, _, pim = split_coordinates(cps)
    cols = []
    for b in cps.minus.basis_vectors():
        w = pim.apply(g.bracket(x, b))
        cols.append(cps.minus.coordinates(w))
    return QMatrix.from_cols(cols)


def mu_matrix(cps: CPS, xp: Vector) -> QMatrix:
    """mu(x'): plus -> plus, via [x, x'] = -mu(x')x + rho(x)x'."""
    if not cps.minus.contains(xp):
        raise ValueError("x' must lie in the - eigenspace")
    g = cps.algebra
    _, pip, _ = split_coordinates(cps)
    cols = []
    for b in cps.plus.basis_vectors():
        w = pip.apply(g.bracket(b, xp))
        cols.append(cps.plus.coordinates(tuple(-a for a in w)))
    return QMatrix.from_cols(cols)


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


def endo_from_json(data) -> Endo:
    return QMatrix.from_json(data["matrix"])
