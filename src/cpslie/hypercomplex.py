"""Hypercomplex lifts of a CPS to the realified complexification.

The lift sends {J, E} on g to the anticommuting complex pair
(J1, J2) = (hat o E, diag(J, J)) on the doubled algebra; J3 = J1 J2
completes the quaternion triple.  The cp connection extends blockwise
to the unique torsion-free connection parallelizing the whole triple.
"""

from __future__ import annotations

from .connection import CertificateError, Connection, parallel_defect, torsion_defect
from .lie import LieAlgebra, complexify_realified
from .linalg import QMatrix
from .structures import CPS, Endo, _integrability_failures, square_failures


class LiftError(ValueError):
    """A lift invariant failed; this signals a sign-convention bug."""


class HypercomplexStructure:
    """The triple (J1, J2, J3) on `algebra`; J3 = J1 J2 is formed once, here.

    A lift holds its candidate Obata `connection` and the `base` connection
    it extends, else None.  Construction does not validate: `lift_cps`
    checks the axioms with `validate_hypercomplex`.  Immutable, like `CPS`.
    """

    __slots__ = ("algebra", "j1", "j2", "j3", "connection", "base")

    def __init__(self, algebra: LieAlgebra, j1: Endo, j2: Endo, connection=None, base=None):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "j1", j1)
        object.__setattr__(self, "j2", j2)
        object.__setattr__(self, "j3", j1 @ j2)
        object.__setattr__(self, "connection", connection)
        object.__setattr__(self, "base", base)

    def __setattr__(self, name, value):
        raise AttributeError("HypercomplexStructure is immutable")

    def __repr__(self):
        return f"HypercomplexStructure(dim={self.algebra.dim})"


def validate_hypercomplex(h: HypercomplexStructure) -> list[str]:
    """Failure codes for the hypercomplex axioms; empty means valid.

    As in `assemble_cps`, a torsion-free `h.connection` that parallelizes
    J1, J2 and J3 proves them integrable; the defects of the Jk whose
    square holds run only without it or when a check fails.
    """
    g, conn = h.algebra, h.connection
    failures = ["dimension"] if g.dim % 4 else []
    triple = (("J1", h.j1), ("J2", h.j2), ("J3", h.j3))
    squares = [square_failures(j, 1, name) for name, j in triple]
    failures += [code for codes in squares for code in codes]
    if (h.j2 @ h.j1) != -h.j3:
        failures.append("anticommute")
    if conn is not None and not failures:
        if not (torsion_defect(conn) or any(parallel_defect(conn, j) for _, j in triple)):
            return []
    defects = _integrability_failures(g, [(name, j, 1) for (name, j), square in zip(triple, squares) if not square])
    if conn is not None and not failures and not defects:
        raise CertificateError("the Obata connection fails its checks, but J1, J2 and J3 are integrable")
    return failures + defects


def lift_cps(cps: CPS) -> HypercomplexStructure:
    """Double the algebra and lift {J, E} to a hypercomplex triple on `h.algebra`.

    J1 x = (E x)^ and J1 x^ = -E x, so vectors in the + eigenspace go to
    their hatted copies; J2 acts as J on both copies.  The cp connection
    extends blockwise (nabla_x y^ = nabla_{x^} y = (nabla_x y)^, nabla_{x^} y^
    = -nabla_x y) to the Obata connection; its torsion-freeness and the
    parallelism of the triple prove J1, J2 and J3 integrable.
    """
    n = cps.algebra.dim
    zero = QMatrix.zeros(n, n)
    j1 = QMatrix.block([[zero, cps.e.scale(-1)], [cps.e, zero]])
    g = complexify_realified(cps.algebra)
    conn = Connection(g, cps.connection.tensor.realified_double())
    h = HypercomplexStructure(g, j1, QMatrix.diag_blocks(cps.j, cps.j), conn, cps.connection)
    failures = validate_hypercomplex(h)
    if failures:
        raise LiftError(f"hypercomplex lift invalid: {failures}")
    return h


def obata_connection(h: HypercomplexStructure, base: Connection) -> Connection:
    """The Obata connection `lift_cps` built and certified, once `base` is
    checked to be the connection it extended."""
    if base is not h.base and base != h.base:
        raise LiftError("the base connection is not the one the lift extended")
    return h.connection
