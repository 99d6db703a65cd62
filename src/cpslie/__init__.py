"""Exact verification of complex product structures on nilpotent Lie algebras."""

from .catalog import (
    build_family,
    eight_dim_example,
    family_flatness_value,
    fried_example,
    heisenberg_complex_examples,
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
    parallel_defect,
    restrict_to_lsa,
    ricci_via_trace_identity,
    torsion_defect,
)
from .hypercomplex import (
    HypercomplexStructure,
    is_abelian_hypercomplex,
    lift_cps,
    obata_connection,
)
from .lie import (
    LieAlgebra,
    ThreeDimType,
    center,
    change_basis,
    complexify_realified,
    iso_type_3d,
    jacobi_defect,
    lower_central_series,
    semidirect_product,
)
from .linalg import QMatrix, Subspace, intersect, is_nilpotent_matrix, kernel, preimage, rank
from .salamon import emit_salamon, parse_salamon
from .structures import (
    CPS,
    ascending_series,
    assemble_cps,
    complex_integrability_defect,
    cps_obstructions,
    eigenspaces,
    find_central_invariant_ideal,
    is_abelian_complex,
    product_integrability_defect,
    rotate_product,
    rotate_product_rational_angle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
