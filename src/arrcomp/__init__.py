"""Exact invariants of complex hyperplane arrangement complements.

The package computes, in exact arithmetic: intersection posets and their
Möbius functions, characteristic polynomials and Betti numbers, fibration
towers of fiber-type arrangements, wedge-of-spheres models of suspended
complements, and the four-periodic surgery group tables of the
fundamental groups of fiber-type complements, the pure braid groups
included.
"""

from .arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    IntersectionPoset,
    braid_arrangement,
    deletion,
    intersection_poset,
    make_arrangement,
    restriction,
)
from .errors import (
    ArrcompError,
    DimensionMismatchError,
    DuplicateHyperplaneError,
    FlatNotFoundError,
    IndexOutOfRangeError,
    InvalidParameterError,
    MalformedBettiError,
    ParseError,
    ZeroNormalError,
)
from .fileformat import (
    ArrangementFile,
    load_arrangement_file,
    parse_arrangement,
    serialize_arrangement,
)
from .lattice import (
    FibrationTower,
    betti_numbers,
    char_poly,
    fiber_type,
    is_modular,
    mobius,
)
from .linalg import (
    GaussianRational,
    IntegerMatrix,
    Matrix,
    gauss,
    matrix_rank,
    rref,
    smith_normal_form,
    solve_affine,
)
from .surgery import (
    AbelianGroup,
    BraidExtension,
    KTheoryMetadata,
    SpfCertificate,
    SurgeryTable,
    assembly_from_betti,
    braid_extension,
    h_of_complement,
    k_theory_metadata,
    l_point,
    spf_pure_braid,
    surgery_fiber_type,
    surgery_pure_braid,
)
from .topology import (
    ReducedHomology,
    SimplicialComplex,
    WedgeDecomposition,
    gm_wedge,
    order_complex_below,
    reduced_homology,
    suspension_wedge,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "Arrangement",
    "ArrangementFile",
    "ArrcompError",
    "BraidExtension",
    "DimensionMismatchError",
    "DuplicateHyperplaneError",
    "FibrationTower",
    "Flat",
    "FlatNotFoundError",
    "GaussianRational",
    "Hyperplane",
    "IndexOutOfRangeError",
    "IntegerMatrix",
    "IntersectionPoset",
    "InvalidParameterError",
    "KTheoryMetadata",
    "MalformedBettiError",
    "Matrix",
    "ParseError",
    "ReducedHomology",
    "SimplicialComplex",
    "SpfCertificate",
    "SurgeryTable",
    "WedgeDecomposition",
    "ZeroNormalError",
    "assembly_from_betti",
    "betti_numbers",
    "braid_arrangement",
    "braid_extension",
    "char_poly",
    "deletion",
    "fiber_type",
    "gauss",
    "gm_wedge",
    "h_of_complement",
    "intersection_poset",
    "is_modular",
    "k_theory_metadata",
    "l_point",
    "load_arrangement_file",
    "make_arrangement",
    "matrix_rank",
    "mobius",
    "order_complex_below",
    "parse_arrangement",
    "reduced_homology",
    "restriction",
    "rref",
    "serialize_arrangement",
    "smith_normal_form",
    "solve_affine",
    "spf_pure_braid",
    "surgery_fiber_type",
    "surgery_pure_braid",
    "suspension_wedge",
]
