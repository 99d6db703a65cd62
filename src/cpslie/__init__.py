"""Exact verification of complex product structures on nilpotent Lie algebras."""

from .catalog import (
    build_family,
    eight_dim_example,
    fried_example,
    load_catalog,
    nonexistence_report,
    verify_table,
    verify_witness,
    witness_structure,
)
from .connection import (
    Connection,
    CurvatureReport,
    LSAProduct,
    connection_is_complete_certificate,
    cp_connection,
    curvature,
    lsa_is_complete,
    restrict_to_lsa,
    ricci_via_trace_identity,
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
    semidirect_product,
)
from .linalg import QMatrix, Subspace, kernel, rank
from .salamon import emit_salamon, parse_salamon
from .structures import (
    CPS,
    ascending_series,
    assemble_cps,
    find_central_invariant_ideal,
    rotate_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
