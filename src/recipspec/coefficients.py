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
hand-written closed forms for real r which this module also provides as an
independent cross-check path.

Every Omega_n value comes from omega_n_over_grid over an array of r, which
sends each lane down exactly one of three paths:

* |r| < SMALL_R_THRESHOLD: the sum's terms cancel to the limit omega_limit(n),
  so Omega_n is the Taylor polynomial in (r, conj(r)) of degree
  SMALL_R_DEGREE, each coefficient rounded once;
* real r with |r| >= CLOSED_FORM_THRESHOLD: the closed form
  Omega_n = sum_i beta_i (1+r)^-i + b r^-(n/2+1) [ln(1-r^2) + polynomial]
  (see _closed_form_terms); it costs a fixed number of flops whatever r is,
  and each lane's value depends on that lane alone;
* every other lane, complex r included: the double sum, whose grid 2F1
  stops each lane on its own.  It cancels increasingly violently as
  |r| -> 1 and n grows, so complex r near |r| = 1 at high orders is not
  accurate (README, "High orders").

Both exact paths take their coefficients from one exact Taylor expansion of
the double sum at r = 0 (_expansion), in integers over one common
denominator, derived on each call.  All three paths work lane by lane, so a
lane's value does not depend on the grid it is computed in, and
omega_n_general is the one-lane case of omega_n_over_grid.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedOrderError, even_at_least, integer_at_least
from .kernels import CorrelationKernel
from .specfun import gauss_2f1_regularized_grid

#: below this |r| the double sum is replaced by its exact Taylor polynomial
SMALL_R_THRESHOLD = 1e-4
#: total degree in (r, conj(r)) of that polynomial
SMALL_R_DEGREE = 4
#: real lanes with |r| at or above this take the closed form instead of the
#: double sum.  Against a 60-digit mpmath double sum (even n <= 30, real r on
#: +-[0.2, 0.999]) the closed form is within 5e-14 on |r| >= 0.3; the double
#: sum is within 1.5e-13 below 0.3 but already 1.4 off at n = 10, r = 0.9
#: (README, "High orders").  The one value serves every order up to 30.
CLOSED_FORM_THRESHOLD = 0.3
#: in the closed form, ln(1-x) + sum_{k<=K} x^k/k (x = r^2) is summed as its
#: Taylor tail below this x, with this many terms (x^54 / (1-x) < 2^-53), and
#: from the logarithm at and above it, where the two parts cancel less: that
#: costs Omega_n under 1e-14 relative just above r = 0.7071 (n <= 30)
_LOG_TAIL_MAX_X = 0.5
_LOG_TAIL_TERMS = 54


def omega_limit(n: int) -> float:
    """Large-lag limit of Omega_n: 2 (-1)^(n/2+1) (2^(n/2)-1) n! / (n/2+1)!.

    Evaluated in exact integer arithmetic before the final float conversion.
    Zero for n = 0 and for all odd n.
    """
    if integer_at_least(n, "order", 0) % 2 == 1:
        return 0.0
    m = n // 2
    num = 2 * (2 ** m - 1) * math.factorial(n)
    return float((-1) ** (m + 1) * num // math.factorial(m + 1))


def omega_bound(n: int, abs_r):
    """Magnitude majorant for Omega_n: 2^(3n/2-1) n pi Gamma(n/2) (1-|r|)^(-1-n/2).

    Valid for even n >= 2 and |r| < 1 (one value or an array).  Loose by design;
    used as an inequality gate and as the term majorant behind series tail estimates.
    """
    even_at_least(n, "order", 2)
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


def _expansion(n: int, degree: int):
    """Taylor expansion of Omega_n in (r, conj(r)) to total degree ``degree``, exactly.

    Term m of 2F1reg(a, b; c; |r|^2) * conj(r)^p is the monomial
    r^m conj(r)^(m+p), with coefficient (a)_m (b)_m / (m! Gamma(c+m)).  As
    c = p + 1, the poles of 1/Gamma leave no negative power of conj(r).
    Returns (coef, den): coef[i, e] / den is the coefficient of r^i conj(r)^e,
    with coef a dict of Python integers in order of first appearance.  Each
    term's factorials have arguments summing to h+2m+1 <= n+h+degree, so their
    product divides den = (n+h+degree)!.
    """
    h = n // 2
    den = math.factorial(n + h + degree)
    coef = defaultdict(int)
    for k in range(n + 1):
        for j in range(min(k, h) + 1):
            a, b, c, p = 1 + j, 1 + j - k + h, 2 + 2 * j - k, 2 * j - k + 1
            # 1/Gamma(c+m) vanishes for m < 1 - c; each later term is the last
            # times (a+m)(b+m) / ((m+1)(c+m))
            m = max(0, 1 - c)
            t = (den * (-1) ** (k + h) * math.factorial(n) * _rising(a, m) * _rising(b, m)
                 // (math.factorial(h - j) * math.factorial(k - j) * math.factorial(m)
                     * math.factorial(c + m - 1)))
            for m in range(m, (degree - p) // 2 + 1):
                coef[m, m + p] += t
                t = t * (a + m) * (b + m) // ((m + 1) * (c + m))
    return coef, den


def _taylor_terms(n: int) -> list:
    """Taylor polynomial of Omega_n in (r, conj(r)) to total degree SMALL_R_DEGREE.

    Each coefficient of :func:`_expansion` is rounded once.  Returns
    (coefficient, power of r, power of conj(r)) from the highest degree down,
    so the constant term omega_limit(n) is added last.
    """
    coef, den = _expansion(n, SMALL_R_DEGREE)
    return [(v / den, i, e) for (i, e), v in sorted(coef.items(), key=lambda t: -sum(t[0])) if v]


def _taylor(n: int, r):
    """Omega_n at r, a complex or an array, from :func:`_taylor_terms`; exact at r = 0."""
    rs = r.conjugate()
    return sum(v * r ** i * rs ** e for v, i, e in _taylor_terms(n))


def _closed_form_terms(n: int):
    """Exact coefficients of Omega_n for real r, as (beta, b) with h = n/2:

        Omega_n = sum_{i=1..h} beta[i-1] / (1+r)^i
                  + b r^-(h+1) [ln(1-r^2) + sum_{k=1..h//2} r^(2k)/k],

    with b = -(-1)^h n!/h!.  The bracket is -sum_{m>h//2} r^(2m)/m, so the
    form says that f = Omega_n + b sum_{m>h//2} r^(2m-h-1)/m is a rational
    function whose only pole is one of order at most h at r = -1.  (For real r
    Euler's transformation turns every 2F1 term of the double sum into a
    polynomial over (1-r^2)^h, except 2F1reg(1,1;h+2;r^2), which is that
    logarithm plus a rational part; Omega_n has no pole at r = 1 or r = 0.)
    So f (1+r)^h is a polynomial P of degree below h, and:

    * P is f (1+r)^h's Taylor series at r = 0 cut below degree h; f's
      coefficient of r^d is the sum of :func:`_expansion`'s coefficients of
      degree d, plus the sum's;
    * the degrees h, h+1 and h+2 of f (1+r)^h are asserted to vanish;
    * beta[i-1] is the coefficient of s^(h-i) in P(s-1), s = 1+r.

    Each beta is rounded once from its exact value (int / int true division
    rounds correctly).
    """
    h = n // 2
    b = -(-1) ** h * math.factorial(n) // math.factorial(h)
    coef, den = _expansion(n, h + 2)
    f = [0] * (h + 3)  # real-r Taylor coefficients of f, times den
    for (i, e), v in coef.items():
        f[i + e] += v
    for m in range(h // 2 + 1, h + 2):
        f[2 * m - h - 1] += b * den // m
    g = [sum(math.comb(h, l) * f[d - l] for l in range(min(d, h) + 1)) for d in range(h + 3)]
    assert not any(g[h:]), f"Omega_{n} is not of the closed form's shape"
    beta = [sum((-1) ** (d - t) * math.comb(d, t) * g[d] for d in range(t, h)) / den
            for t in reversed(range(h))]
    return beta, b


def _closed_form(n: int, r: np.ndarray) -> np.ndarray:
    """Omega_n over a float array r with every |r| in (0, 1), from :func:`_closed_form_terms`.

    Every step is elementwise, so a lane's value does not depend on the other lanes.
    The bracket ln(1-x) + sum_{k<=K} x^k/k (x = r^2, K = h//2) equals
    -x^(K+1) sum_{m>=0} x^m/(K+1+m); below _LOG_TAIL_MAX_X that tail is summed
    directly, because the logarithm and the polynomial cancel there.
    """
    h, kmax = n // 2, n // 4  # K of the bracket: its polynomial ends at x^kmax
    beta, b = _closed_form_terms(n)
    y = 1.0 / (1.0 + r)
    out = np.zeros_like(r)
    for c in reversed(beta):
        out = (out + c) * y
    x = r * r
    tail = x < _LOG_TAIL_MAX_X
    xs = x[tail]
    g = np.zeros_like(xs)
    for m in reversed(range(_LOG_TAIL_TERMS)):
        g = g * xs + 1.0 / (kmax + 1 + m)
    # b r^-(h+1) x^(K+1) = b r^(2K+1-h): r for even h, 1 for odd h
    out[tail] -= b * (r[tail] if h % 2 == 0 else 1.0) * g
    rl, xl = r[~tail], x[~tail]
    poly = np.zeros_like(xl)
    for k in reversed(range(1, kmax + 1)):
        poly = (poly + 1.0 / k) * xl
    out[~tail] += b * (np.log((1.0 - rl) * (1.0 + rl)) + poly) / rl ** (h + 1)
    return out


def omega_n_general(n: int, r: complex) -> complex:
    """Omega_n for arbitrary complex r with |r| < 1.

    The one-lane case of :func:`omega_n_over_grid`, so it is bit for bit
    that function's value at r on any grid.  Odd n returns exactly 0 without
    evaluating anything.
    """
    if integer_at_least(n, "order", 0) % 2 == 1:
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

    Each lane takes exactly one of three paths (module docstring):

    * |r| < SMALL_R_THRESHOLD: the exact Taylor polynomial in (r, conj(r)) of
      degree SMALL_R_DEGREE; r = 0 gives omega_limit(n);
    * real r (zero imaginary part) with |r| >= CLOSED_FORM_THRESHOLD: the
      closed form of :func:`_closed_form`;
    * the rest, complex r included: the double sum, whose grid 2F1 stops
      each lane on its own.

    All three paths work lane by lane, so a lane's value is bitwise the same
    alone (as :func:`omega_n_general` computes it) as inside any grid.  Odd n
    gives zeros.
    """
    integer_at_least(n, "order", 0)
    r = np.asarray(r, dtype=complex)
    mag = np.abs(r)
    if mag.size and not mag.max() < 1.0:
        raise DomainError("omega_n_over_grid requires |r| < 1 everywhere")
    if n % 2 == 1:
        return np.zeros(r.shape, dtype=complex)
    out = np.empty(r.shape, dtype=complex)
    small = mag < SMALL_R_THRESHOLD
    closed = (mag >= CLOSED_FORM_THRESHOLD) & (r.imag == 0.0)
    rest = ~(small | closed)
    if np.any(rest):
        out[rest] = _double_sum(n, r[rest])
    if np.any(closed):
        out[closed] = _closed_form(n, r.real[closed])
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
    An empty grid gives an empty table.
    """
    even_at_least(max_order, "max_order")
    lags = np.asarray(lags, dtype=float)
    if np.any(lags == 0.0):
        raise DomainError(
            "lag grid contains tau = 0 (|r| = 1 singularity); "
            "use a midpoint grid that excludes the origin")
    r = np.asarray(kernel.eval(lags), dtype=complex)
    if not np.all(np.abs(r) < 1.0):  # a NaN fails too
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
