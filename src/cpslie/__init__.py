"""Exact verification of complex product structures on nilpotent Lie algebras."""

from .catalog import (
    build_family,
    load_catalog,
    nonexistence_report,
    verify_table,
    verify_witness,
    witness_structure,
)
from .connection import (
    Connection,
    CurvatureReport,
    connection_is_complete_certificate,
    cp_connection,
    curvature,
    lsa_is_complete,
    torsion_defect,
)
from .hypercomplex import HypercomplexStructure, lift_cps
from .lie import (
    LieAlgebra,
    ThreeDimType,
    center,
    change_basis,
    complexify_realified,
    iso_type_3d,
    jacobi_defect,
)
from .linalg import QMatrix, Subspace, kernel
from .salamon import emit_salamon, parse_salamon
from .structures import (
    CPS,
    assemble_cps,
    rotate_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
