"""Finite local-hidden-state models for two-qubit T-states.

Constructs explicit finite-atom LHS models (icosahedron-based, and a
four-atom tetrahedron model on the separable boundary), verifies them
against the quantum assemblage, traces the axial unsteerability boundary,
and quantifies the shared randomness and entanglement involved.
"""

from .belldecomp import (
    critical_separable_density,
    extract_local_blochs,
    mirror_decomposition,
    product_state_decomposition,
    schmidt_residual,
)
from .boundary import (
    BoundaryCurve,
    axial_boundary_solve,
    boundary_csv,
    norm_integral,
    sample_axial_family,
)
from .geometry import (
    GOLDEN_RATIO,
    ICOSAHEDRON_INRADIUS,
    ICOSAHEDRON_SIGN_SUM,
    Polyhedron,
    Rotation,
    cube,
    icosahedron,
    octahedron,
    polyhedron_from_vertices,
    random_rotation,
    special_orientations,
    tetrahedron,
)
from .lhsmodel import (
    Atom,
    FiniteLhsModel,
    LinearResponse,
    SignMixture,
    VerificationReport,
    build_polyhedron_model,
    build_separable_tetrahedron_model,
    entropy_bits,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    verify_model,
)
from .qstate import (
    DiagMat3,
    TState,
)
from .scanopt import (
    REGIMES,
    AxialScan,
    analytic_norm_constants,
    best_regime,
    face_edge_crossover,
    random_orientation_search,
    scan_axial_family,
    scan_csv,
    scan_summary,
    vertex_face_crossover,
    werner_reference,
    zero_entanglement_interval,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AxialScan",
    "BoundaryCurve",
    "DiagMat3",
    "FiniteLhsModel",
    "GOLDEN_RATIO",
    "ICOSAHEDRON_INRADIUS",
    "ICOSAHEDRON_SIGN_SUM",
    "LinearResponse",
    "Polyhedron",
    "REGIMES",
    "Rotation",
    "SignMixture",
    "TState",
    "VerificationReport",
    "analytic_norm_constants",
    "axial_boundary_solve",
    "best_regime",
    "boundary_csv",
    "build_polyhedron_model",
    "build_separable_tetrahedron_model",
    "critical_separable_density",
    "cube",
    "entropy_bits",
    "extract_local_blochs",
    "face_edge_crossover",
    "icosahedron",
    "mirror_decomposition",
    "model_from_dict",
    "model_from_json",
    "model_to_dict",
    "model_to_json",
    "norm_integral",
    "octahedron",
    "polyhedron_from_vertices",
    "product_state_decomposition",
    "random_orientation_search",
    "random_rotation",
    "sample_axial_family",
    "scan_axial_family",
    "scan_csv",
    "scan_summary",
    "schmidt_residual",
    "special_orientations",
    "tetrahedron",
    "verify_model",
    "vertex_face_crossover",
    "werner_reference",
    "zero_entanglement_interval",
]
