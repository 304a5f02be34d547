"""Semantic exception hierarchy for the package."""

import operator


class DivBoundsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistributionError(DivBoundsError, ValueError):
    """A probability object violates its construction invariants."""


class DomainError(DivBoundsError, ValueError):
    """An argument is outside the documented domain of an operation."""


class AbsoluteContinuityError(DomainError):
    """P is not absolutely continuous with respect to Q where required."""


class QuadratureError(DivBoundsError, RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance.

    Carries the achieved absolute error estimate in ``achieved_error``.
    """

    def __init__(self, message: str, achieved_error: float):
        super().__init__(message)
        self.achieved_error = achieved_error


def _integer(name: str, value, least: int) -> int:
    # a float or string count or seed is a DomainError, not a TypeError
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value
