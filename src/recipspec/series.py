"""Truncated power-series evaluation of the normalized autocorrelation and
autocovariance of the reciprocal process, plus the asymptotic floor.

The expansion variable is the mean-to-standard-deviation ratio of the
underlying Gaussian process; only even powers appear.  Every truncated sum is
one :func:`partial_sum` over arrays.  The autocovariance is the autocorrelation
minus :func:`floor_partial`, the same sum over the coefficients' large-lag
limits, so this holds exactly:

    autocovariance(r, w, N) == autocorrelation(r, w, N) - floor_partial(w, N)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import omega_bound, omega_limit, omega_n_over_grid
from .errors import DomainError, even_at_least, finite_nonnegative

#: relative tail-bound level above which a SeriesEvaluation is flagged
TAIL_FLAG_RELATIVE = 1e-3


@dataclass(frozen=True)
class SeriesEvaluation:
    """A partial sum, or an array of them, with its truncation diagnostics.

    ``tail_bound`` is the magnitude-majorant estimate of everything beyond the
    truncation order; it is often astronomically loose near |r| = 1 (the
    majorant grows like (1-|r|)^(-1-n/2)), in which case ``flagged`` is set
    and the caller decides whether that matters.
    """

    value: complex
    tail_bound: float

    @property
    def flagged(self):
        return np.logical_not(self.tail_bound <= TAIL_FLAG_RELATIVE * np.abs(self.value))


def asymptotic_floor(omega) -> float:
    """Large-lag limit of the normalized autocorrelation: ((1-e^{-w^2})/w)^2.

    Coincides with the squared magnitude of the process mean; the limit at
    w = 0 is 0.
    """
    w = finite_nonnegative(omega, "omega")
    if w == 0.0:
        return 0.0
    return ((1.0 - math.exp(-w * w)) / w) ** 2


def partial_sum(rows, orders, omega):
    """sum_i rows[i] w^orders[i]/orders[i]!, lane by lane over the shape of one row.

    The orders are added one at a time, so a lane is summed in the same order
    whatever the shape of the rows (numpy sums a single lane pairwise).
    """
    w = finite_nonnegative(omega, "omega")
    terms = (w ** n / math.factorial(n) * row for row, n in zip(rows, orders))
    total = next(terms)
    for term in terms:
        total = total + term
    return total


def floor_partial(omega, order: int) -> float:
    """Partial sum of the limit coefficients: sum_{n<=order} lim Omega_n w^n/n!.

    ``order`` must be even and nonnegative, as for :func:`autocorrelation`.
    """
    even_at_least(order, "truncation order")
    orders = range(0, order + 1, 2)
    return float(partial_sum([omega_limit(n) for n in orders], orders, omega))


def tail_bound(abs_r, omega, order: int):
    """Geometric-type majorant of the dropped terms, from the magnitude bound.

    Term majorants t_n = bound(n,|r|) w^n/n! obey t_{n+2}/t_n =
    4 w^2 / ((n+1)(1-|r|)); the tail from order+2 is summed stepwise until the
    ratio drops below 1/2 and geometrically after that.  Lanes of ``abs_r``
    whose majorant is still growing past the step budget get inf.
    """
    w = finite_nonnegative(omega, "omega")
    abs_r = np.asarray(abs_r, dtype=float)
    if w == 0.0:
        return np.zeros(abs_r.shape)[()]
    out = np.full(abs_r.shape, np.inf)  # inf marks a lane still being summed
    n = order + 2
    with np.errstate(all="ignore"):  # unfinished lanes may overflow; only finished ones are read
        t = omega_bound(n, abs_r) * w ** n / math.factorial(n)
        total = 0.0
        for _ in range(400):
            total = total + t
            ratio = 4.0 * w * w / ((n + 1.0) * (1.0 - abs_r))
            done = np.isinf(out) & (ratio < 0.5)
            out[done] = (total + t * ratio / (1.0 - ratio))[done]
            if not np.isinf(out).any():
                break
            t = t * ratio
            n += 2
    return out[()]


def autocorrelation(r, omega, order: int = 20) -> SeriesEvaluation:
    """Normalized autocorrelation partial sum sum_{even n<=order} Omega_n w^n/n!,
    over one complex r or an array of them (the result has the shape of r)."""
    w = finite_nonnegative(omega, "omega")
    r = np.asarray(r, dtype=complex)
    abs_r = np.abs(r)
    if not np.all(abs_r < 1.0):
        raise DomainError(f"series requires |r| < 1, got {abs_r[~(abs_r < 1.0)][0]}")
    even_at_least(order, "truncation order")
    orders = range(0, order + 1, 2)
    rows = [omega_n_over_grid(n, r) for n in orders]
    return SeriesEvaluation(value=partial_sum(rows, orders, w),
                            tail_bound=tail_bound(abs_r, w, order))


def autocovariance(r, omega, order: int = 20) -> SeriesEvaluation:
    """Normalized autocovariance partial sum, over one r or an array.

    Implemented literally as autocorrelation minus the partial floor, so
    ``autocovariance(...).value == autocorrelation(...).value - floor_partial(...)``
    holds bitwise.
    """
    ac = autocorrelation(r, omega, order)
    return SeriesEvaluation(value=ac.value - floor_partial(omega, order),
                            tail_bound=ac.tail_bound)

