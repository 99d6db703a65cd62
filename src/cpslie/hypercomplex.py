"""Hypercomplex lifts of a CPS to the realified complexification.

The lift sends {J, E} on g to the anticommuting complex pair
(J1, J2) = (hat o E, diag(J, J)) on the doubled algebra; J3 = J1 J2
completes the quaternion triple.  The cp connection extends blockwise
to the unique torsion-free connection parallelizing the whole triple.
"""

from __future__ import annotations

from .connection import Connection, parallel_defect, torsion_defect
from .lie import LieAlgebra, complexify_realified
from .linalg import QMatrix
from .structures import CPS, Endo, _integrability_defect, square_failures


class LiftError(ValueError):
    """A lift invariant failed; this signals a sign-convention bug."""


class HypercomplexStructure:
    """The triple (J1, J2, J3) on `algebra`; J3 = J1 J2 is formed once, here.

    Construction does not validate: `lift_cps` checks the axioms with
    `validate_hypercomplex`.  Immutable, like `CPS`.
    """

    __slots__ = ("algebra", "j1", "j2", "j3")

    def __init__(self, algebra: LieAlgebra, j1: Endo, j2: Endo):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "j1", j1)
        object.__setattr__(self, "j2", j2)
        object.__setattr__(self, "j3", j1 @ j2)

    def __setattr__(self, name, value):
        raise AttributeError("HypercomplexStructure is immutable")

    def __repr__(self):
        return f"HypercomplexStructure(dim={self.algebra.dim})"


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


def lift_cps(cps: CPS) -> HypercomplexStructure:
    """Double the algebra and lift {J, E} to a hypercomplex triple on `h.algebra`.

    J1 x = (E x)^ and J1 x^ = -E x, so vectors in the + eigenspace go to
    their hatted copies; J2 acts as J on both copies.
    """
    n = cps.algebra.dim
    zero = QMatrix.zeros(n, n)
    j1 = QMatrix.block([[zero, cps.e.scale(-1)], [cps.e, zero]])
    h = HypercomplexStructure(complexify_realified(cps.algebra), j1, QMatrix.diag_blocks(cps.j, cps.j))
    failures = validate_hypercomplex(h)
    if failures:
        raise LiftError(f"hypercomplex lift invalid: {failures}")
    return h


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

