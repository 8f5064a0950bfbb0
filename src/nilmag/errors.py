"""Exceptions shared across the package."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class ShapeError(ValueError):
    """A matrix does not have the structure the conversion expects."""
