"""Pointwise structure-tensor machinery for almost contact B-metric geometry.

The library validates point structures (phi, xi, eta, g), works with
the space of admissible rank-3 structure tensors, decomposes its
elements into the eleven basic classes, checks structure-group
equivariance, and reproduces two classical example models: the unit
time-like sphere and a solvable Lie-group family whose tensor comes
out of the Koszul formula.
"""

from .decomposition import (
    NUM_CLASSES,
    ClassReport,
    Decomposition,
    classify,
    component,
    decompose,
    project_w,
)
from .errors import PreconditionError
from .group import (
    act,
    group_element_from_blocks,
    random_group_element,
    validate_group_element,
)
from .models import (
    check_jacobi,
    connection_residuals,
    koszul_connection,
    lie_family,
    sphere_structure_tensor,
    structure_tensor_from_connection,
)
from .structure import (
    StructureData,
    canonical_structure,
)
from .tensors import (
    inner_product,
    is_structure_tensor,
    lee_forms,
    random_structure_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "NUM_CLASSES",
    "ClassReport",
    "Decomposition",
    "PreconditionError",
    "StructureData",
    "act",
    "canonical_structure",
    "check_jacobi",
    "classify",
    "component",
    "connection_residuals",
    "decompose",
    "group_element_from_blocks",
    "inner_product",
    "is_structure_tensor",
    "koszul_connection",
    "lee_forms",
    "lie_family",
    "project_w",
    "random_group_element",
    "random_structure_tensor",
    "sphere_structure_tensor",
    "structure_tensor_from_connection",
    "validate_group_element",
]
