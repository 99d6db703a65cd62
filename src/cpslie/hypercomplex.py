"""Hypercomplex lifts of a CPS to the realified complexification.

The lift sends {J, E} on g to the anticommuting complex pair
(J1, J2) = (hat o E, diag(J, J)) on the doubled algebra; J3 = J1 J2
completes the quaternion triple.  The cp connection extends blockwise
to the unique torsion-free connection parallelizing the whole triple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connection import Connection, parallel_defect, torsion_defect
from .lie import LieAlgebra, complexify_realified
from .linalg import QMatrix
from .structures import CPS, Endo, _integrability_defect, is_abelian_complex


class LiftError(ValueError):
    """A lift invariant failed; this signals a sign-convention bug."""


@dataclass(frozen=True)
class HypercomplexStructure:
    algebra: LieAlgebra
    j1: Endo
    j2: Endo
    j3: Endo


def validate_hypercomplex(g: LieAlgebra, j1: Endo, j2: Endo, j3: Endo) -> list[str]:
    failures = []
    n = g.dim
    if n % 4:
        failures.append("dimension")
    minus_ident = QMatrix.identity(n).scale(-1)
    squares_ok = []
    for name, j in (("J1", j1), ("J2", j2), ("J3", j3)):
        if (j @ j) != minus_ident:
            failures.append(f"{name}_square")
        else:
            squares_ok.append((name, j))
    if (j1 @ j2) != j3:
        failures.append("J1J2_is_J3")
    if (j2 @ j1) != j3.scale(-1):
        failures.append("anticommute")
    for name, j in squares_ok:
        if _integrability_defect(g, j, 1):
            failures.append(f"{name}_integrability")
    return failures


def lift_cps(cps: CPS) -> tuple[LieAlgebra, HypercomplexStructure]:
    """Double the algebra and lift {J, E} to a hypercomplex triple.

    J1 x = (E x)^ and J1 x^ = -E x, so vectors in the + eigenspace go to
    their hatted copies; J2 acts as J on both copies.
    """
    g = cps.algebra
    n = g.dim
    ghat = complexify_realified(g)
    zero = QMatrix.zeros(n, n)
    j1 = QMatrix.block([[zero, cps.e.scale(-1)], [cps.e, zero]])
    j2 = QMatrix.diag_blocks(cps.j, cps.j)
    j3 = j1 @ j2
    failures = validate_hypercomplex(ghat, j1, j2, j3)
    if failures:
        raise LiftError(f"hypercomplex lift invalid: {failures}")
    return ghat, HypercomplexStructure(ghat, j1, j2, j3)


def obata_connection(g_hat: LieAlgebra, h: HypercomplexStructure, base: Connection) -> Connection:
    """Blockwise extension of the base connection to the doubled algebra.

    nabla_x y is the base value; nabla_x y^ = nabla_{x^} y = (nabla_x y)^
    and nabla_{x^} y^ = -nabla_x y.  Torsion-freeness plus parallelism of
    the triple certify it as the Obata connection.
    """
    n = base.algebra.dim
    if g_hat.dim != 2 * n:
        raise ValueError("doubled algebra does not match the base connection")
    conn = Connection(g_hat, base.tensor.realified_double())
    if torsion_defect(conn):
        raise LiftError("extended connection has torsion")
    for name, j in (("J1", h.j1), ("J2", h.j2), ("J3", h.j3)):
        if parallel_defect(conn, j):
            raise LiftError(f"extended connection does not parallelize {name}")
    return conn


def is_abelian_hypercomplex(h: HypercomplexStructure) -> bool:
    """True iff each of J1, J2, J3 satisfies [Jx, Jy] = [x, y]."""
    return all(is_abelian_complex(h.algebra, j) for j in (h.j1, h.j2, h.j3))
