"""Hypercomplex lifts of a CPS to the realified complexification.

The lift sends {J, E} on g to the anticommuting complex pair
(J1, J2) = (hat o E, diag(J, J)) on the doubled algebra; J3 = J1 J2
completes the quaternion triple.  The cp connection extends blockwise
to the unique torsion-free connection parallelizing the whole triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .connection import Connection, parallel_defect, torsion_defect
from .lie import LieAlgebra, complexify_realified
from .linalg import QMatrix
from .structures import CPS, Endo, _integrability_defect, is_abelian_complex, square_failures


class LiftError(ValueError):
    """A lift invariant failed; this signals a sign-convention bug."""


@dataclass(frozen=True)
class HypercomplexStructure:
    """(J1, J2) on `algebra`; J3 = J1 J2 by definition, formed once here."""

    algebra: LieAlgebra
    j1: Endo
    j2: Endo
    j3: Endo = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "j3", self.j1 @ self.j2)


def validate_hypercomplex(h: HypercomplexStructure) -> list[str]:
    """Failure codes for the hypercomplex axioms; empty means valid."""
    g = h.algebra
    failures = ["dimension"] if g.dim % 4 else []
    triple = (("J1", h.j1), ("J2", h.j2), ("J3", h.j3))
    squares = [square_failures(j, 1, name) for name, j in triple]
    failures += [code for codes in squares for code in codes]
    if (h.j2 @ h.j1) != -h.j3:
        failures.append("anticommute")
    for (name, j), square in zip(triple, squares):
        if not square and _integrability_defect(g, j, 1):
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
    h = HypercomplexStructure(ghat, j1, QMatrix.diag_blocks(cps.j, cps.j))
    failures = validate_hypercomplex(h)
    if failures:
        raise LiftError(f"hypercomplex lift invalid: {failures}")
    return ghat, h


def obata_connection(h: HypercomplexStructure, base: Connection) -> Connection:
    """Blockwise extension of the base connection to the doubled algebra.

    nabla_x y is the base value; nabla_x y^ = nabla_{x^} y = (nabla_x y)^
    and nabla_{x^} y^ = -nabla_x y.  Torsion-freeness plus parallelism of
    the triple certify it as the Obata connection.
    """
    n = base.algebra.dim
    if h.algebra.dim != 2 * n:
        raise ValueError("doubled algebra does not match the base connection")
    conn = Connection(h.algebra, base.tensor.realified_double())
    if torsion_defect(conn):
        raise LiftError("extended connection has torsion")
    for name, j in (("J1", h.j1), ("J2", h.j2), ("J3", h.j3)):
        if parallel_defect(conn, j):
            raise LiftError(f"extended connection does not parallelize {name}")
    return conn


def is_abelian_hypercomplex(h: HypercomplexStructure) -> bool:
    """True iff each of J1, J2, J3 satisfies [Jx, Jy] = [x, y]."""
    return all(is_abelian_complex(h.algebra, j) for j in (h.j1, h.j2, h.j3))
