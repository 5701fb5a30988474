"""Truncated power-series evaluation of the normalized autocorrelation and
autocovariance of the reciprocal process, plus the asymptotic floor.

The expansion variable is the mean-to-standard-deviation ratio of the
underlying Gaussian process; only even powers appear.  The autocovariance
series uses the centered coefficients, so by construction

    autocovariance(r, w, N) + floor_partial(w, N) == autocorrelation(r, w, N)

holds exactly (same coefficient evaluations on both sides).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coefficients import omega_bound, omega_limit, omega_n_general
from .errors import DomainError, finite_nonnegative, finite_positive

#: relative tail-bound level above which a SeriesEvaluation is flagged
TAIL_FLAG_RELATIVE = 1e-3


@dataclass(frozen=True)
class OmegaRatio:
    """Non-negative ratio |w0| / sqrt(R_ww(0)) driving the expansion."""

    value: float

    def __post_init__(self):
        finite_nonnegative(self.value, "omega ratio")

    @classmethod
    def from_mean_and_power(cls, w0: complex, r_ww0: float) -> "OmegaRatio":
        return cls(abs(w0) / math.sqrt(finite_positive(r_ww0, "process power")))

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class SeriesEvaluation:
    """A partial sum together with its truncation diagnostics.

    ``tail_bound`` is the magnitude-majorant estimate of everything beyond the
    truncation order; it is often astronomically loose near |r| = 1 (the
    majorant grows like (1-|r|)^(-1-n/2)), in which case ``flagged`` is set
    and the caller decides whether that matters.
    """

    value: complex
    truncation_order: int
    last_term_magnitude: float
    tail_bound: float

    @property
    def flagged(self) -> bool:
        return not (self.tail_bound <= TAIL_FLAG_RELATIVE * abs(self.value))


def asymptotic_floor(omega) -> float:
    """Large-lag limit of the normalized autocorrelation: ((1-e^{-w^2})/w)^2.

    Coincides with the squared magnitude of the process mean; the limit at
    w = 0 is 0.
    """
    w = finite_nonnegative(omega, "omega")
    if w == 0.0:
        return 0.0
    return ((1.0 - math.exp(-w * w)) / w) ** 2


def floor_partial(omega, order: int) -> float:
    """Partial sum of the limit coefficients: sum_{n<=order} lim Omega_n w^n/n!."""
    w = finite_nonnegative(omega, "omega")
    if order < 0:
        raise DomainError("order must be nonnegative")
    total = 0.0
    for n in range(0, order + 1, 2):
        if n == 0:
            continue  # limit of order zero vanishes
        total += omega_limit(n) * w ** n / math.factorial(n)
    return total


def _tail_bound(abs_r: float, w: float, order: int) -> float:
    """Geometric-type majorant of the dropped terms, from the magnitude bound.

    Term majorants t_n = bound(n,|r|) w^n/n! obey t_{n+2}/t_n =
    4 w^2 / ((n+1)(1-|r|)); the tail from order+2 is summed stepwise until the
    ratio drops below 1/2 and geometrically after that.  Returns inf when the
    majorant is still growing past the step budget.
    """
    if w == 0.0:
        return 0.0
    n = order + 2
    t = omega_bound(n, abs_r) * w ** n / math.factorial(n)
    total = 0.0
    for _ in range(400):
        total += t
        ratio = 4.0 * w * w / ((n + 1.0) * (1.0 - abs_r))
        if ratio < 0.5:
            return total + t * ratio / (1.0 - ratio)
        t *= ratio
        n += 2
    return math.inf


def autocorrelation(r: complex, omega, order: int = 20) -> SeriesEvaluation:
    """Normalized autocorrelation partial sum: sum_{even n<=order} Omega_n w^n/n!."""
    w = finite_nonnegative(omega, "omega")
    r = complex(r)
    if not abs(r) < 1.0:
        raise DomainError(f"series requires |r| < 1, got {abs(r)}")
    if order % 2 == 1 or order < 0:
        raise DomainError("truncation order must be even and nonnegative")
    total = 0.0 + 0.0j
    last = 0.0
    for n in range(0, order + 1, 2):
        term = omega_n_general(n, r) * w ** n / math.factorial(n)
        total += term
        last = abs(term)
    return SeriesEvaluation(value=total, truncation_order=order,
                            last_term_magnitude=last,
                            tail_bound=_tail_bound(abs(r), w, order))


def autocovariance(r: complex, omega, order: int = 20) -> SeriesEvaluation:
    """Normalized autocovariance partial sum (centered coefficients).

    Implemented literally as autocorrelation minus the partial floor, so
    ``autocovariance(...).value == autocorrelation(...).value - floor_partial(...)``
    holds bitwise.
    """
    w = finite_nonnegative(omega, "omega")
    ac = autocorrelation(r, omega, order)
    last = ((omega_n_general(order, complex(r)) - omega_limit(order))
            * w ** order / math.factorial(order))
    return SeriesEvaluation(value=ac.value - floor_partial(omega, order),
                            truncation_order=order,
                            last_term_magnitude=abs(last),
                            tail_bound=ac.tail_bound)


def denormalize(normalized_value: complex, r_ww0: float) -> complex:
    """Undo the unit-power normalization: R_ss = R_hat / R_ww(0)."""
    return normalized_value / finite_positive(r_ww0, "R_ww(0)")
