"""Hypercomplex lifts of a CPS to the realified complexification.

The lift sends {J, E} on g to the anticommuting complex pair
(J1, J2) = (hat o E, diag(J, J)) on the doubled algebra; J3 = J1 J2
completes the quaternion triple.  The cp connection extends blockwise
to the unique torsion-free connection parallelizing the whole triple, the
Obata connection; its curvature is the cp curvature doubled, so no command
builds it (see `lift_cps`).
"""

from __future__ import annotations

from typing import NamedTuple

from .lie import LieAlgebra, complexify_realified
from .linalg import QMatrix
from .structures import CPS, Endo


class HypercomplexStructure(NamedTuple):
    """Triple (J1, J2, J3 = J1 J2) on the doubled algebra; only `lift_cps` builds one."""

    algebra: LieAlgebra
    j1: Endo
    j2: Endo
    j3: Endo


def lift_cps(cps: CPS) -> HypercomplexStructure:
    """Double the algebra and lift {J, E} to a hypercomplex triple on `h.algebra`.

    J1 x = (E x)^ and J1 x^ = -E x, so vectors in the + eigenspace go to
    their hatted copies; J2 acts as J on both copies.  The cp connection
    extends blockwise (nabla_x y^ = nabla_{x^} y = (nabla_x y)^,
    nabla_{x^} y^ = -nabla_x y) to the Obata connection, the double of the
    cp connection.  This is a construction: `assemble_cps` certified the
    CPS, and that certifies the lift, so only `complexify_realified` checks
    anything (Jacobi on the doubled bracket).  What the Obata connection
    satisfies is read off the cp connection, proven below, so the lift
    does not build it.

    The quaternion relations follow from J^2 = -Id, E^2 = Id and JE = -EJ.
    With J1 = [[0, -E], [E, 0]] and J2 = diag(J, J), J1^2 = diag(-E^2, -E^2)
    and J2^2 = diag(J^2, J^2) are -Id; J1 J2 = [[0, -EJ], [EJ, 0]] = J3 and
    J2 J1 = [[0, -JE], [JE, 0]] = -J3; so J3^2 = -J1 J1 J2 J2 = -Id.

    The Obata connection is torsion-free.  The double of a bilinear B has
    B(x, y), B(x^, y) = B(x, y^) = B(x, y)^ and B(x^, y^) = -B(x, y), rules
    symmetric in the two arguments, so skewing commutes with doubling; the
    torsion layout of the double, skew(D nabla) - D(bracket), is then the
    double of the base torsion layout, skew(nabla) - bracket, which
    `assemble_cps` found zero.

    The triple is parallel.  The double commutes with the hat map: each of
    its slices is diag(M, M) or [[0, -M], [M, 0]] for a slice M of the cp
    connection.  M commutes with J and E (see `assemble_cps`), so each
    slice commutes with J1, J2 and J3.  A torsion-free connection with
    J1, J2 and J3 parallel proves them integrable.

    The Obata curvature is the cp curvature doubled.  Read {e_i} + {e_i^}
    as C^n with e_i^ = i e_i: a complex matrix A acts as the real matrix
    rho(A) = [[Re A, -Im A], [Im A, Re A]], and rho is a ring map with
    rho(i A) = [[0, -Id], [Id, 0]] rho(A).  The doubled bracket and the
    double are the complex-bilinear extensions of the bracket and of
    nabla: nabla_{e_i} = rho(M_i) and nabla_{e_i^} = rho(i M_i), for the
    slices M_i of the cp connection.  So R(x, y) = [nabla_x, nabla_y] -
    nabla_[x,y] is complex-bilinear too, and for R = R(e_i, e_j):
    R(e_i, e_j) = diag(R, R), R(e_i, e_j^) = R(e_i^, e_j) = [[0, -R], [R, 0]]
    and R(e_i^, e_j^) = -diag(R, R).  The real trace of rho(A) is
    2 Re tr A, and z -> R(z, x) y is complex-linear, so the Ricci form
    ric(x, y) = tr(z -> R(z, x) y) is 2 Re of the complex-bilinear
    extension of Ric: ric(e_i, e_j) = 2 Ric_ij, ric(e_i^, e_j^) = -2 Ric_ij
    and ric(e_i, e_j^) = 0, that is Ric = diag(2 Ric, -2 Ric).  The slice
    traces are 2 tr M_i and 0.  So the Obata connection is flat, Ricci-flat
    or traceless iff the cp connection is; none of this uses the CPS.

    The lift is natural: conjugating (J, E) by P conjugates J1, J2, J3 by
    diag(P, P), and every CPS is conjugate to one at the standard pair, so
    what holds there on each basis bracket holds for every input.
    """
    n = cps.algebra.dim
    zero = QMatrix.zeros(n, n)
    j1 = QMatrix.block([[zero, cps.e.scale(-1)], [cps.e, zero]])
    j2 = QMatrix.diag_blocks(cps.j, cps.j)
    return HypercomplexStructure(complexify_realified(cps.algebra), j1, j2, j1 @ j2)
