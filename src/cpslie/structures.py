"""Almost complex / almost product endomorphisms and their interaction.

An endomorphism is just a square QMatrix acting on a LieAlgebra's
coordinate space.  A CPS bundles an integrable complex structure J and
an integrable product structure E with JE = -EJ.
"""

from __future__ import annotations

from typing import NamedTuple

from .connection import CertificateError, Connection, torsion_defect
from .lie import LieAlgebra, ThreeDimType, iso_type_3d
from .linalg import (
    Q,
    QMatrix,
    SparseTensor,
    Subspace,
    Vector,
    block_columns,
    kernel,
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
    """[] if the square matrix A has A^2 = -sign * Id, else the one failure code: "{name}_square",
    or "{name}_identity" for a product structure (sign -1) equal to +/-Id."""
    ident = QMatrix.identity(a.rows)
    if (a @ a) != ident.scale(-sign):
        return [f"{name}_square"]
    if sign < 0 and (a == ident or a == ident.scale(-1)):
        return [f"{name}_identity"]
    return []


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


class CPS(NamedTuple):
    """Validated complex product structure {J, E} with its cp connection; only `assemble_cps` builds one."""

    algebra: LieAlgebra
    j: Endo
    e: Endo
    plus: Subspace
    minus: Subspace
    connection: Connection


def _integrability_failures(g: LieAlgebra, named) -> list[str]:
    """"{name}_integrability" for each (name, A, sign) of `named` whose A has a defect."""
    return [f"{name}_integrability" for name, a, sign in named if _integrability_defect(g, a, sign)]


def assemble_cps(g: LieAlgebra, j: Endo, e: Endo) -> CPS:
    """Validate all CPS axioms, once, and bundle the result with its cp connection.

    This is the only way to a validated CPS.  On failure the
    StructureError's `failures` lists every failure code, in the order
    shape, squares, anticommute, J and E integrability, eigen_dim,
    minus_is_J_plus; a failed shape or square check stops there.

    The last two say J g+ = g-: tr E = dim g+ - dim g- = 0, and Id + E,
    with image g+ and kernel g-, has (Id + E) J (Id + E) = 0.  Both follow
    from J^2 = -Id, E^2 = Id and JE = -EJ, so they can fail only with
    anticommute.  The cp connection, the unique torsion-free connection
    with parallel J and E, is then, for x, y in the respective eigenspaces,

        nabla_{x+} y+ = -pi+ J [x+, J y+]      nabla_{x+} y- = pi- [x+, y-]
        nabla_{x-} y- = -pi- J [x-, J y-]      nabla_{x-} y+ = pi+ [x-, y+]

    The mixed terms together are W(x, y) = pi- [x+, y-] + pi+ [x-, y+],
    which is 1/4 ([x,y] - [Ex,Ey] - E[Ex,y] + E[x,Ey]) for all x, y.  As
    J anticommutes with E, J pi- = pi+ J, so the other two terms are
    -J W(x, J y), and nabla_x y = W(x, y) - J W(x, J y): six products.

    J and E are parallel by construction, for any bilinear bracket.
    W(x, .) = pi- ad(pi+ x) pi- + pi+ ad(pi- x) pi+ maps each eigenspace
    of E into itself, and so does J W(x, J .), since J swaps them; so
    nabla_x commutes with E.  And with J^2 = -Id,

        nabla_x (J y) = W(x, J y) + J W(x, y) = J nabla_x y.

    So a skew sum that nabla is torsion-free is the only check, and that
    exact zero test proves N_J = N_E = 0: by [u, v] = nabla_u v - nabla_v u
    and nabla_u (A v) = A nabla_u v,

        N_A(x, y) = [Ax, Ay] - A[Ax, y] - A[x, Ay] + A^2 [x, y]
                  = (A nabla_{Ax} y - A nabla_{Ay} x) - (A nabla_{Ax} y - A^2 nabla_y x)
                    - (A^2 nabla_x y - A nabla_{Ay} x) + (A^2 nabla_x y - A^2 nabla_y x) = 0,

    and N_A is A times the `_integrability_defect` of A.  The defects run
    only when the torsion check fails, to name J or E; if neither has one,
    the connection and the defects disagree: CertificateError.
    """
    n = g.dim
    shaped = (j.rows, j.cols, e.rows, e.cols) == (n,) * 4
    failures = square_failures(j, 1, "J") + square_failures(e, -1, "E") if shaped else ["shape"]
    if not failures:
        ident = QMatrix.identity(n)
        named = (("J", j, 1), ("E", e, -1))
        if (j @ e) == (e @ j).scale(-1):
            # both on the side-by-side layout: block i of s is ad(e_i), of se ad(E e_i)
            s, se = g.structure.side, swapped(g.ad_columns(e))
            w = (s - right_product(se, e) - e @ (se - right_product(s, e))).scale(Q(1, 4))
            conn = Connection(g, SparseTensor(w - j @ right_product(w, j)))
            if not torsion_defect(conn):
                return CPS(g, j, e, kernel(e - ident), kernel(e + ident), conn)
            failures = _integrability_failures(g, named)
            if not failures:
                raise CertificateError("the cp connection has torsion, but J and E are integrable")
        else:
            unequal = e.trace() != 0
            failures = ["anticommute", *_integrability_failures(g, named)] + ["eigen_dim"] * unequal
            if unequal or not ((ident + e) @ j @ (ident + e)).is_zero():
                failures.append("minus_is_J_plus")
    raise StructureError(failures[0], f"CPS invalid: {failures}", failures)


def double_type(cps: CPS) -> tuple[ThreeDimType, ThreeDimType]:
    return iso_type_3d(cps.algebra, cps.plus), iso_type_3d(cps.algebra, cps.minus)


def rotate_product(j: Endo, e: Endo, c) -> Endo:
    """E' = pE + qJE with p = (c^2-1)/(c^2+1), q = 2c/(c^2+1); `assemble_cps` validates it.

    Every circle point (p, q) other than (1, 0) is c = q/(1-p).  c = 0
    returns -E; c = 1 returns JE.
    """
    c = q(c)
    denom = c * c + 1
    return e.scale((c * c - 1) / denom) + (j @ e).scale(2 * c / denom)


def ascending_series(cps: CPS) -> list[Subspace]:
    """a_0 = 0, a_t = {x : [x,g] and [Jx,g] land in a_(t-1)}, until stable: the CFGU series of
    the complex structure J of a CPS, which `assemble_cps` has proven integrable."""
    g, j = cps.algebra, cps.j
    n = g.dim
    series = [Subspace.zero(n)]
    while True:
        prev = series[-1]
        ann = kernel(prev.basis)  # the functionals vanishing on prev
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
    """Largest J- and E-invariant subspace of the center, if dim >= 2; central, so an ideal.

    J and E generate the group {+/-Id, +/-J, +/-E, +/-JE}, so that subspace
    is {x : Ax in z for A = Id, J, E, JE}: with S the stacked ad(e_k), whose
    kernel is the center z, it is the kernel of [S; SJ; SE; SJE].
    """
    n = cps.algebra.dim
    s = reshaped(swapped(cps.algebra.structure.side), n * n)
    sj = s @ cps.j
    w = kernel(QMatrix.block([[s], [sj], [s @ cps.e], [sj @ cps.e]]))
    return w if w.dim >= 2 else None


def endo_from_json(data) -> Endo:
    return QMatrix.from_json(data["matrix"])
