"""Pointwise structure-tensor machinery for almost contact B-metric geometry.

The library validates point structures (phi, xi, eta, g), works with
the space of admissible rank-3 structure tensors, decomposes its
elements into the eleven basic classes, checks structure-group
equivariance, and reproduces two classical example models: the unit
time-like sphere and a solvable Lie-group family whose tensor comes
out of the Koszul formula.
"""

from .decomposition import (
    CLASS_NAMES,
    NUM_CLASSES,
    ClassReport,
    Decomposition,
    classify,
    component,
    decompose,
    in_w_subspace,
    project_w,
    satisfies_class,
    w2_involution,
)
from .errors import PreconditionError
from .group import (
    act,
    group_element_from_blocks,
    random_group_element,
    validate_group_element,
)
from .models import (
    Dim3Coefficients,
    LieAlgebraSpec,
    check_jacobi,
    connection_residuals,
    dim3_coefficients,
    dim3_decompose,
    dim3_lee_forms,
    koszul_connection,
    lie_family,
    sphere_structure_tensor,
    structure_tensor_from_connection,
)
from .structure import (
    StructureData,
    canonical_structure,
    is_canonical_basis,
    validate_structure,
)
from .tensors import (
    embed_structure_tensor,
    inner_product,
    is_structure_tensor,
    lee_forms,
    membership_residuals,
    random_structure_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "CLASS_NAMES",
    "NUM_CLASSES",
    "ClassReport",
    "Decomposition",
    "Dim3Coefficients",
    "LieAlgebraSpec",
    "PreconditionError",
    "StructureData",
    "act",
    "canonical_structure",
    "check_jacobi",
    "classify",
    "component",
    "connection_residuals",
    "decompose",
    "dim3_coefficients",
    "dim3_decompose",
    "dim3_lee_forms",
    "embed_structure_tensor",
    "group_element_from_blocks",
    "in_w_subspace",
    "inner_product",
    "is_canonical_basis",
    "is_structure_tensor",
    "koszul_connection",
    "lee_forms",
    "lie_family",
    "membership_residuals",
    "project_w",
    "random_group_element",
    "random_structure_tensor",
    "satisfies_class",
    "sphere_structure_tensor",
    "structure_tensor_from_connection",
    "validate_group_element",
    "validate_structure",
    "w2_involution",
]
