"""Almost complex / almost product endomorphisms and their interaction.

An endomorphism is just a square QMatrix acting on a LieAlgebra's
coordinate space.  A CPS bundles an integrable complex structure J and
an integrable product structure E with JE = -EJ.
"""

from __future__ import annotations

from .lie import LieAlgebra, ThreeDimType, center, is_ideal, iso_type_3d
from .linalg import (
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


def double_type(cps: CPS) -> tuple[ThreeDimType, ThreeDimType]:
    return iso_type_3d(cps.algebra, cps.plus), iso_type_3d(cps.algebra, cps.minus)


def rotate_product(cps: CPS, c) -> Endo:
    """E' = pE + qJE with p = (c^2-1)/(c^2+1), q = 2c/(c^2+1); `assemble_cps` validates it.

    Every circle point (p, q) other than (1, 0) is c = q/(1-p).  c = 0
    returns -E; c = 1 returns JE.
    """
    c = q(c)
    denom = c * c + 1
    return cps.e.scale((c * c - 1) / denom) + (cps.j @ cps.e).scale(2 * c / denom)


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


def endo_from_json(data) -> Endo:
    return QMatrix.from_json(data["matrix"])
