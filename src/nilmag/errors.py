"""Exceptions shared across the package."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class ShapeError(ValueError):
    """An array does not have the shape or structure the operation expects."""
