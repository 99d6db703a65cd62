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
from .structures import CPS, Endo, _certified_failures, square_failures


class LiftError(ValueError):
    """A lift invariant failed; this signals a sign-convention bug."""


class HypercomplexStructure(NamedTuple):
    """Validated triple (J1, J2, J3 = J1 J2) with its Obata connection; only `lift_cps` builds one."""

    algebra: LieAlgebra
    j1: Endo
    j2: Endo
    j3: Endo
    connection: Connection


def lift_cps(cps: CPS) -> HypercomplexStructure:
    """Double the algebra and lift {J, E} to a hypercomplex triple on `h.algebra`.

    J1 x = (E x)^ and J1 x^ = -E x, so vectors in the + eigenspace go to
    their hatted copies; J2 acts as J on both copies.  This is the only
    validation of a lift: it checks the three squares and J2 J1 = -J3, then
    extends the cp connection blockwise (nabla_x y^ = nabla_{x^} y =
    (nabla_x y)^, nabla_{x^} y^ = -nabla_x y) to the Obata connection.

    The triple is parallel by construction.  The double commutes with the
    hat map: each of its slices is diag(M, M) or [[0, -M], [M, 0]] for a
    slice M of the cp connection.  M commutes with J and E (see
    `assemble_cps`), so each slice commutes with J1 = [[0, -E], [E, 0]],
    J2 = diag(J, J) and J3 = J1 J2, and the Obata connection being
    torsion-free proves J1, J2 and J3 integrable.  Any failure raises
    LiftError with its codes.
    """
    n = cps.algebra.dim
    zero = QMatrix.zeros(n, n)
    j1 = QMatrix.block([[zero, cps.e.scale(-1)], [cps.e, zero]])
    j2 = QMatrix.diag_blocks(cps.j, cps.j)
    j3 = j1 @ j2
    named = (("J1", j1, 1), ("J2", j2, 1), ("J3", j3, 1))
    failures = [code for name, j, sign in named for code in square_failures(j, sign, name)]
    if (j2 @ j1) != -j3:
        failures.append("anticommute")
    if not failures:
        g = complexify_realified(cps.algebra)
        conn = Connection(g, cps.connection.tensor.realified_double())
        failures = _certified_failures(conn, named)
        if not failures:
            return HypercomplexStructure(g, j1, j2, j3, conn)
    raise LiftError(f"hypercomplex lift invalid: {failures}")
