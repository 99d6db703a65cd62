"""The classification is invariant under a change of basis.

Each stored witness is conjugated by a random invertible rational P: the
algebra goes through `change_basis` and J, E become P^-1 J P, P^-1 E P.
CPS validity, the double type, flatness and Ricci-flatness of the cp
connection, and the Heisenberg x Heisenberg constant must not change.
The Obata connection of the moved structure's hypercomplex lift must be
Ricci-flat, and flat iff the cp connection is.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpslie.catalog import load_catalog, witness_structure
from cpslie.connection import cp_connection, curvature
from cpslie.hypercomplex import lift_cps, obata_connection
from cpslie.lie import ThreeDimType, change_basis
from cpslie.linalg import QMatrix, rank
from cpslie.structures import assemble_cps, double_type, h3x2_constant, validate_cps

WITNESSES = [(entry.salamon, w) for entry in load_catalog() for w in entry.witnesses]
H3XH3 = (ThreeDimType.HEISENBERG3, ThreeDimType.HEISENBERG3)


@st.composite
def invertible(draw, n=6):
    entry = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    p = QMatrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(rank(p) == n)
    return p


def invariants(g, j, e, lift=False):
    """What the classification reads off (g, J, E), plus the failure codes
    of the rotated pair {J, JE}, which need not be a CPS; with `lift`, also
    flatness and Ricci-flatness of the Obata connection of the lift."""
    cps = assemble_cps(g, j, e)
    types = double_type(cps)
    conn = cp_connection(cps)
    rep = curvature(conn)
    constant = h3x2_constant(cps) if types == H3XH3 else None
    out = (types, rep.is_flat, rep.is_ricci_flat, constant, validate_cps(g, j, j @ e))
    if lift:
        _, h = lift_cps(cps)
        lifted = curvature(obata_connection(h, conn))
        out += ((lifted.is_flat, lifted.is_ricci_flat),)
    return out


@pytest.mark.parametrize(
    "salamon, witness", WITNESSES, ids=[f"{s}-{w.name}" for s, w in WITNESSES]
)
@settings(max_examples=1, deadline=None)
@given(p=invertible())
def test_witness_invariants_survive_a_change_of_basis(salamon, witness, p):
    g, cps = witness_structure(witness)
    pinv = p.inverse()
    moved = invariants(change_basis(g, p), pinv @ cps.j @ p, pinv @ cps.e @ p, lift=True)
    assert moved[:-1] == invariants(g, cps.j, cps.e)
    assert moved[:2] == (witness.double_type, witness.flat)
    assert moved[-1] == (witness.flat, True)
