"""Shared exception types."""


class PreconditionError(ValueError):
    """A structurally well-formed input violates a mathematical precondition.

    Examples: a rank-3 tensor outside the admissible structure-tensor
    space, a bracket table that is not antisymmetric, components that do
    not sum back to their tensor. Distinct from plain ValueError, which
    signals malformed input (wrong shapes, bad parameter counts).
    """
