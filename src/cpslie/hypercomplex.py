"""Hypercomplex lifts of a CPS to the realified complexification.

The lift sends {J, E} on g to the anticommuting complex pair
(J1, J2) = (hat o E, diag(J, J)) on the doubled algebra; J3 = J1 J2
completes the quaternion triple.  The cp connection extends blockwise
to the unique torsion-free connection parallelizing the whole triple.
"""

from __future__ import annotations

from typing import NamedTuple

from .connection import Connection
from .lie import LieAlgebra, complexify_realified
from .linalg import QMatrix
from .structures import CPS, Endo


class HypercomplexStructure(NamedTuple):
    """Triple (J1, J2, J3 = J1 J2) with its Obata connection; only `lift_cps` builds one."""

    algebra: LieAlgebra
    j1: Endo
    j2: Endo
    j3: Endo
    connection: Connection


def lift_cps(cps: CPS) -> HypercomplexStructure:
    """Double the algebra and lift {J, E} to a hypercomplex triple on `h.algebra`.

    J1 x = (E x)^ and J1 x^ = -E x, so vectors in the + eigenspace go to
    their hatted copies; J2 acts as J on both copies.  The cp connection
    extends blockwise (nabla_x y^ = nabla_{x^} y = (nabla_x y)^,
    nabla_{x^} y^ = -nabla_x y) to the Obata connection.  This is a
    construction: `assemble_cps` certified the CPS, and that certifies the
    lift, so only `complexify_realified` checks anything (Jacobi on the
    doubled bracket).

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

    The lift is natural: conjugating (J, E) by P conjugates J1, J2, J3 by
    diag(P, P), and every CPS is conjugate to one at the standard pair, so
    what holds there on each basis bracket holds for every input.
    """
    n = cps.algebra.dim
    zero = QMatrix.zeros(n, n)
    j1 = QMatrix.block([[zero, cps.e.scale(-1)], [cps.e, zero]])
    j2 = QMatrix.diag_blocks(cps.j, cps.j)
    g = complexify_realified(cps.algebra)
    return HypercomplexStructure(g, j1, j2, j1 @ j2, Connection(g, cps.connection.tensor.realified_double()))
