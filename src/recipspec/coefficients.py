"""Series coefficients of the reciprocal-process autocorrelation expansion.

The autocorrelation of s(t) = 1/(w(t)+w0) expands in even powers of the
mean-to-sigma ratio with lag-dependent coefficients.  Each even-order
coefficient is a finite double sum over regularized Gauss hypergeometric
values,

    Omega_n = (-1)^(n/2) * sum_{k=0..n} sum_{j=0..min(k,n/2)}
              (-1)^k n! / ((n/2-j)! (k-j)!)
              * 2F1reg(1+j, 1+j-k+n/2; 2+2j-k; |r|^2) * conj(r)^(2j-k+1),

with terms j > n/2 dropped because the (n/2-j)! factor sits on a negative
integer factorial pole.  Odd orders vanish identically.  Low even orders have
elementary closed forms for real r which this module also provides as an
independent cross-check path.

Numerical notes: the double sum cancels increasingly violently as |r| -> 1
and n grows; in double precision the relative accuracy of Omega_n degrades
past roughly n = 14 for |r| > 0.95.  Dividing by n! in the series does not
hide this at larger omega (README, "High orders"); the tests pin accuracy
exactly where the acceptance tolerances demand it.  As r -> 0 the sum's terms
cancel to the limit omega_limit(n), so below SMALL_R_THRESHOLD Omega_n is
evaluated from its Taylor polynomial in (r, conj(r)), whose coefficients are
summed in exact rationals and rounded once.

Every Omega_n value comes from one path, omega_n_over_grid over an array of
r; omega_n_general is its one-lane case.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, UnsupportedOrderError
from .kernels import CorrelationKernel
from .specfun import gauss_2f1_regularized_grid

#: below this |r| the double sum is replaced by its exact Taylor polynomial
SMALL_R_THRESHOLD = 1e-4
#: total degree in (r, conj(r)) of that polynomial
SMALL_R_DEGREE = 4


def omega_limit(n: int) -> float:
    """Large-lag limit of Omega_n: 2 (-1)^(n/2+1) (2^(n/2)-1) n! / (n/2+1)!.

    Evaluated in exact integer arithmetic before the final float conversion.
    Zero for n = 0 and for all odd n.
    """
    if n < 0:
        raise DomainError("order must be nonnegative")
    if n % 2 == 1:
        return 0.0
    m = n // 2
    num = 2 * (2 ** m - 1) * math.factorial(n)
    return float((-1) ** (m + 1) * num // math.factorial(m + 1))


def omega_bound(n: int, abs_r):
    """Magnitude majorant for Omega_n: 2^(3n/2-1) n pi Gamma(n/2) (1-|r|)^(-1-n/2).

    Valid for even n >= 2 and |r| < 1 (one value or an array).  Loose by design;
    used as an inequality gate and as the term majorant behind series tail estimates.
    """
    if n < 2 or n % 2 == 1:
        raise DomainError("bound defined for even n >= 2")
    abs_r = np.asarray(abs_r, dtype=float)
    bad = ~((0.0 <= abs_r) & (abs_r < 1.0))
    if bad.any():
        raise DomainError(f"bound requires |r| < 1, got {abs_r[bad][0]}")
    # vector pow even for one |r| (numpy's scalar pow rounds differently); overflow gives inf
    with np.errstate(over="ignore", divide="ignore"):
        return (2.0 ** (1.5 * n - 1) * n * math.pi * math.factorial(n // 2 - 1)
                / (1.0 - abs_r.reshape(-1)) ** (1.0 + n / 2.0)).reshape(abs_r.shape)[()]


def _double_sum(n: int, r: np.ndarray) -> np.ndarray:
    """The literal double sum over an array r with every |r| in [SMALL_R_THRESHOLD, 1).

    Each 2F1 is one :func:`gauss_2f1_regularized_grid` call over all of r.
    """
    z = abs(r) ** 2
    rs = r.conjugate()
    total = 0
    for k in range(n + 1):
        for j in range(min(k, n // 2) + 1):
            comb = ((-1) ** k * math.factorial(n)
                    / (math.factorial(n // 2 - j) * math.factorial(k - j)))
            f = gauss_2f1_regularized_grid(1 + j, 1 + j - k + n // 2, 2 + 2 * j - k, z)
            total += comb * f * rs ** (2 * j - k + 1)
    return (-1) ** (n // 2) * total


def _rising(x: int, m: int) -> int:
    """Pochhammer symbol (x)_m."""
    return math.prod(range(x, x + m))


def _taylor_terms(n: int) -> list:
    """Taylor polynomial of Omega_n in (r, conj(r)) to total degree SMALL_R_DEGREE.

    Term m of 2F1reg(a, b; c; |r|^2) * conj(r)^p is the monomial
    r^m conj(r)^(m+p), with coefficient (a)_m (b)_m / (m! Gamma(c+m)).  The
    coefficients of each monomial are summed exactly and rounded once.  As
    c = p + 1, the poles of 1/Gamma leave no negative power of conj(r).
    Returns (coefficient, power of r, power of conj(r)) from the highest
    degree down, so the constant term omega_limit(n) is added last.
    """
    h = n // 2
    coef = defaultdict(Fraction)
    for k in range(n + 1):
        for j in range(min(k, h) + 1):
            a, b, c, p = 1 + j, 1 + j - k + h, 2 + 2 * j - k, 2 * j - k + 1
            # 1/Gamma(c+m) vanishes for m < 1 - c
            for m in range(max(0, 1 - c), (SMALL_R_DEGREE - p) // 2 + 1):
                num = (-1) ** (k + h) * math.factorial(n) * _rising(a, m) * _rising(b, m)
                den = (math.factorial(h - j) * math.factorial(k - j) * math.factorial(m)
                       * math.factorial(c + m - 1))
                coef[m, m + p] += Fraction(num, den)
    assert not any(v for (_, e), v in coef.items() if e < 0), "negative powers of conj(r) remain"
    return [(float(v), i, e) for (i, e), v in sorted(coef.items(), key=lambda t: -sum(t[0])) if v]


def _taylor(n: int, r):
    """Omega_n at r, a complex or an array, from :func:`_taylor_terms`; exact at r = 0."""
    rs = r.conjugate()
    return sum(v * r ** i * rs ** e for v, i, e in _taylor_terms(n))


def omega_n_general(n: int, r: complex) -> complex:
    """Omega_n for arbitrary complex r with |r| < 1.

    The one-lane case of :func:`omega_n_over_grid`, so it is bit for bit
    that function's value on a one-element grid.  Odd n returns exactly 0
    without evaluating anything.
    """
    if n < 0:
        raise DomainError("order must be nonnegative")
    if n % 2 == 1:
        return 0.0 + 0.0j
    return complex(omega_n_over_grid(n, complex(r)))


def omega_n_closed_real(n: int, r: float) -> float:
    """Closed forms of Omega_n for real r, orders 0, 2, 4, 6 only.

    These are rational-plus-logarithm expressions; they cancel catastrophically
    as r -> 0, so the same small-|r| guard applies as for the general path.
    """
    if n not in (0, 2, 4, 6):
        raise UnsupportedOrderError(
            f"no closed form for order {n}; use omega_n_general")
    if not abs(r) < 1.0:
        raise DomainError(f"closed forms require |r| < 1, got {r}")
    if abs(r) < SMALL_R_THRESHOLD:
        return complex(omega_n_general(n, complex(r))).real
    ln = math.log(1.0 - r * r)
    if n == 0:
        return -ln / r
    if n == 2:
        return 4.0 / (1.0 + r) + 2.0 * ln / r ** 2
    if n == 4:
        return -12.0 / r - 24.0 / (1.0 + r) ** 2 - 12.0 * ln / r ** 3
    return (120.0 / r ** 2 + 320.0 / (1.0 + r) ** 3 + 80.0 / (1.0 + r) ** 2
            + 80.0 / (1.0 + r) + 120.0 * ln / r ** 4)


def omega0_closed(r: complex) -> complex:
    """Omega_0 = -ln(1-|r|^2)/r for complex r (cross-check helper)."""
    r = complex(r)
    if not 0 < abs(r) < 1:
        raise DomainError("omega0_closed requires 0 < |r| < 1")
    return -math.log(1.0 - abs(r) ** 2) / r


def omega2_closed(r: complex) -> complex:
    """Omega_2 closed form for complex r (cross-check helper)."""
    r = complex(r)
    if not 0 < abs(r) < 1:
        raise DomainError("omega2_closed requires 0 < |r| < 1")
    z = abs(r) ** 2
    rs = r.conjugate()
    return 2.0 * (1.0 - 2.0 * rs + rs / r) / (1.0 - z) + 2.0 * math.log(1.0 - z) / r ** 2


def omega_prime(n: int, r: complex) -> complex:
    """Centered coefficient Omega'_n = Omega_n - lim_{tau->inf} Omega_n."""
    return omega_n_general(n, r) - omega_limit(n)


# ---------------------------------------------------------------------------
# batch evaluation over a lag grid
# ---------------------------------------------------------------------------

def omega_n_over_grid(n: int, r: np.ndarray) -> np.ndarray:
    """Omega_n evaluated over an array of correlation values, the one Omega_n path.

    Lanes with |r| >= SMALL_R_THRESHOLD take the double sum.  Its grid 2F1
    stops at the whole grid's term count rather than each lane's, so such a
    lane agrees with the same r evaluated alone (as :func:`omega_n_general`
    does) to about 1e-8 relative, not bitwise.  Lanes below the threshold,
    where the sum's terms cancel to the limit, take the exact Taylor
    polynomial in (r, conj(r)) of degree SMALL_R_DEGREE, which does not
    depend on the other lanes; r = 0 gives omega_limit(n).  Odd n gives
    zeros.
    """
    if n < 0:
        raise DomainError("order must be nonnegative")
    r = np.asarray(r, dtype=complex)
    mag = np.abs(r)
    if mag.size and not mag.max() < 1.0:
        raise DomainError("omega_n_over_grid requires |r| < 1 everywhere")
    if n % 2 == 1:
        return np.zeros(r.shape, dtype=complex)
    out = np.empty(r.shape, dtype=complex)
    small = mag < SMALL_R_THRESHOLD
    if np.any(~small):
        out[~small] = _double_sum(n, r[~small])
    if np.any(small):
        out[small] = _taylor(n, r[small])
    return out


@dataclass
class CoefficientTable:
    """Omega_n and centered Omega'_n over a lag grid.

    values[i, k] holds order ``orders[i]`` at lag ``lags[k]``; ``centered`` is
    values minus the per-order limit.
    """

    orders: list
    lags: np.ndarray
    values: np.ndarray
    centered: np.ndarray

    #: column names of :meth:`rows`
    COLUMNS = ("tau", "n", "re_omega", "im_omega", "re_omega_prime", "im_omega_prime")

    def rows(self) -> list:
        """One row per (lag, order), floats as round-trip ``repr`` strings."""
        out = []
        for k, tau in enumerate(self.lags):
            for i, n in enumerate(self.orders):
                v, c = self.values[i, k], self.centered[i, k]
                out.append([repr(float(tau)), n,
                            repr(float(v.real)), repr(float(v.imag)),
                            repr(float(c.real)), repr(float(c.imag))])
        return out

    def to_csv(self, path) -> None:
        """Write :attr:`COLUMNS` as a header, then :meth:`rows`."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.COLUMNS)
            w.writerows(self.rows())


def build_table(kernel: CorrelationKernel, lags, max_order: int) -> CoefficientTable:
    """Evaluate all even orders up to max_order over a lag grid.

    The grid must not contain tau = 0, where |r| = 1 and every coefficient
    diverges; midpoint grids (tau = (k+1/2) dtau) are the intended callers.
    """
    if max_order % 2 == 1 or max_order < 0:
        raise DomainError("max_order must be even and nonnegative")
    lags = np.asarray(lags, dtype=float)
    if np.any(lags == 0.0):
        raise DomainError(
            "lag grid contains tau = 0 (|r| = 1 singularity); "
            "use a midpoint grid that excludes the origin")
    r = np.asarray(kernel.eval(lags), dtype=complex)
    if not np.abs(r).max() < 1.0:
        raise DomainError("kernel reaches |r| = 1 on this grid")
    orders = list(range(0, max_order + 1, 2))
    values = np.empty((len(orders), len(lags)), dtype=complex)
    for i, n in enumerate(orders):
        values[i] = omega_n_over_grid(n, r)
    limits = np.array([omega_limit(n) for n in orders])
    centered = values - limits[:, None]
    _check_bounds(orders, np.abs(r), values)
    return CoefficientTable(orders=orders, lags=lags, values=values,
                            centered=centered)


def _check_bounds(orders, mag, values) -> None:
    for i, n in enumerate(orders):
        if n < 2:
            continue
        bnd = omega_bound(n, mag)
        if np.any(np.abs(values[i]) >= bnd):
            k = int(np.argmax(np.abs(values[i]) / bnd))
            raise DomainError(
                f"coefficient magnitude bound violated at n={n}, "
                f"|r|={mag[k]:.6f}: {abs(values[i][k]):.3e} >= {bnd[k]:.3e}")
