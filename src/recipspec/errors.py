"""Exception types shared across the package, and the one check applied to
every number that enters it from outside."""

import math


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UnsupportedOrderError(DomainError):
    """A coefficient order with no closed-form expression was requested."""


class ConfigError(ValueError):
    """A configuration object violates its invariants."""


def _as_float(value, name: str, error) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {value!r}") from None


def finite_nonnegative(value, name: str, error=DomainError) -> float:
    """Return ``float(value)`` if it is finite and >= 0, else raise ``error``."""
    x = _as_float(value, name, error)
    if not (math.isfinite(x) and x >= 0.0):
        raise error(f"{name} must be finite and >= 0, got {x!r}")
    return x


def finite_positive(value, name: str, error=DomainError) -> float:
    """Return ``float(value)`` if it is finite and > 0, else raise ``error``."""
    x = _as_float(value, name, error)
    if not (math.isfinite(x) and x > 0.0):
        raise error(f"{name} must be finite and > 0, got {x!r}")
    return x


class AccuracyError(RuntimeError):
    """Requested accuracy was not reached within the term/node budget.

    Carries the best available value and a tail/error estimate so callers
    can decide whether the partial result is still usable.
    """

    def __init__(self, message, partial_value=None, tail_estimate=None):
        super().__init__(message)
        self.partial_value = partial_value
        self.tail_estimate = tail_estimate


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (e.g. a Hermitian transform residue)."""


class StatisticalQualityError(RuntimeError):
    """An estimator does not meet its statistical quality requirements."""
