"""Exception types shared across the package."""

__all__ = [
    "CayleyError",
    "NotASolutionError",
    "NonIntegralFamilyError",
    "DegeneratePellError",
    "BudgetExceededError",
    "InvariantError",
]


class CayleyError(Exception):
    """Base class for domain errors raised by this package."""


class NotASolutionError(CayleyError, ValueError):
    """An operation that requires an exact solution was handed a non-solution."""


class NonIntegralFamilyError(CayleyError, ValueError):
    """The scaled Chebyshev chain needs s | 2b to stay integer-valued."""


class DegeneratePellError(CayleyError, ValueError):
    """The Pell coefficient y^2 - s^2 is non-positive, too small, or a perfect square."""


class BudgetExceededError(CayleyError, RuntimeError):
    """A bounded search would exceed its configured compute budget."""


class InvariantError(CayleyError, RuntimeError):
    """A result failed the exact check the library makes before returning it."""
