"""Special functions needed by the coefficient and bound formulas.

Everything here is evaluated from scratch in double precision; no external
special-function library is used.  The menu is deliberately small because
the callers only ever need:

* the regularized Gauss hypergeometric function 2F1(a,b;c;z)/Gamma(c) with
  integer parameters and z = |r|^2 in [0, 1), summed by one evaluator over
  an array of z; the scalar function is its one-lane case,
* the zero-balanced 3F2(1,1,1; 3/2,3/2; z) over an array of z, by a fixed
  64-node rule on an integral representation (no series, no term budget),
  whose nodes are computed at each call rather than at import, so paths
  that never need the 3F2 never pay for them,
* the modified Struve function L0,
* the classical constants of the integrability bounds.

Gamma factors only ever occur at integer and half-integer arguments, where the
recurrence from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) is exact; for
nonpositive integer c the reciprocal 1/Gamma(c) vanishes, which is what makes
the regularized 2F1 finite there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError, finite_nonnegative


#: accuracy budget of the 2F1 and L0 series: relative tail tolerance and
#: term count, read at each call (tests lower MAX_TERMS to reach AccuracyError)
REL_TOL = 1e-12
MAX_TERMS = 10 ** 6

#: nodes of the 3F2's Gauss-Legendre rule on [-1, 1]
_HYP3F2_NODES = 64

#: terms per block of the grid 2F1 series: the first block and the terms
#: past m_safe that a block reaching m_safe ends with, and the cap on every
#: block.  Each block costs a fixed number of numpy calls, and lanes retire
#: only at block ends, so the terms a block computes past a lane's final sum
#: are wasted.
_GRID_BLOCK_FIRST = 8
_GRID_BLOCK_MAX = 64


#: Apery's constant zeta(3) and Catalan's constant C (published values)
ZETA3 = 1.2020569031595942854
CATALAN = 0.9159655941772190151
#: 28 zeta(3)/pi - 8 C, the closed constant of the exponential-kernel L1 bound
LORENTZIAN_L1_CONSTANT = 28.0 * ZETA3 / math.pi - 8.0 * CATALAN


def _int_gamma(c: int) -> float:
    """Gamma(c) for integer c >= 1 via the factorial recurrence."""
    return float(math.factorial(c - 1))


def gauss_2f1_regularized(a: int, b: int, c: int, z: float) -> float:
    """Regularized Gauss hypergeometric function 2F1(a,b;c;z)/Gamma(c) at one z.

    The one-lane case of :func:`gauss_2f1_regularized_grid`, which holds the
    series, its domain checks and its AccuracyError.
    """
    return float(gauss_2f1_regularized_grid(a, b, c, z))


def gauss_2f1_regularized_grid(a: int, b: int, c: int, z: np.ndarray) -> np.ndarray:
    """Regularized 2F1(a,b;c;z)/Gamma(c) over an array of z values, of any shape.

    Series: sum_m (a)_m (b)_m z^m / (m! Gamma(c+m)).  For b <= 0 it
    terminates at m = -b and is summed term by term, t *= ratio*z, s += t.
    For c <= 0 the first 1-c terms vanish because 1/Gamma hits a pole, so the
    sum starts at m0 = 1-c and stays finite.  Parameters are integers by
    construction of the callers.

    Otherwise each lane's value is that recurrence run on the lane alone
    until a term past m_safe = 2(|a|+|b|+|c|)+8 meets three tests: the lane's
    own q = max(|ratio| z, z) is below 1, the term left the sum unchanged
    (s + t == s), and the tail bound |t| q/(1-q) is at most REL_TOL |s|.
    Past m_safe every later term is zero or of one sign and, with q < 1, no
    larger than that term; rounding is monotone, so no later term changes the
    sum, which is the fixed point of the lane's own recurrence.  No lane
    therefore depends on the other lanes of its call or on where blocks end,
    and a one-lane call is bit for bit any lane of a grid call.

    The series is summed in blocks of terms.  A block that starts short of
    m_safe ends ``_GRID_BLOCK_FIRST`` terms past it; other blocks run
    ``_GRID_BLOCK_FIRST`` terms, doubling per block.  No block exceeds
    ``_GRID_BLOCK_MAX`` terms, so a family with m_safe - m0 > 56 takes a
    capped block before the one that reaches m_safe.  A block is one
    cumulative product of ratio*z along each lane, seeded with the lane's
    running term, and one cumulative sum seeded with its running sum: the same
    multiplications and the same left-to-right additions as the recurrence,
    so every partial sum is bit for bit the recurrence's.  At the end of each
    block whose last term is past m_safe, every lane whose last term passes
    the three tests is written out and no longer summed; the call returns
    when no lane is left.

    Raises DomainError outside z in [0,1) and AccuracyError, carrying the
    partial sums of every lane (retired ones included) after ``MAX_TERMS``
    terms and a tail estimate, if the budget is exhausted.
    """
    z = np.asarray(z, dtype=float)
    if z.size and not (z.min() >= 0.0 and z.max() < 1.0):
        raise DomainError("gauss_2f1_regularized_grid requires z in [0,1)")

    m0 = 1 - c if c <= 0 else 0
    out_zero = b <= 0 and -b < m0
    if out_zero:
        return np.zeros_like(z)

    t = np.ones_like(z)
    lead = 1.0
    for i in range(m0):
        lead *= (a + i) * (b + i) / (1.0 + i)
    t *= lead * z ** m0
    if m0 == 0:
        t /= _int_gamma(c)
    s = t.copy()

    if b <= 0:
        for m in range(m0, -b):
            t = t * ((a + m) * (b + m) * z / ((m + 1.0) * (c + m)))
            s += t
        return s

    m = m0
    m_safe = 2 * (abs(a) + abs(b) + abs(c)) + 8
    done = s.reshape(-1)  # a view: retired lanes are written through it
    lane = np.arange(done.size)
    zl, tl, sl = z.reshape(-1), t.reshape(-1), done.copy()
    block = _GRID_BLOCK_FIRST
    while m - m0 < MAX_TERMS:
        k = min(max(block, m_safe - m + _GRID_BLOCK_FIRST), _GRID_BLOCK_MAX,
                MAX_TERMS - (m - m0))
        block = min(2 * block, _GRID_BLOCK_MAX)
        # integer-valued floats, so products and ratios round as in the term-by-term recurrence
        ms = np.arange(m, m + k, dtype=float)
        ratio = (a + ms) * (b + ms) / ((ms + 1.0) * (c + ms))
        terms = np.multiply.outer(zl, ratio)
        terms[:, 0] *= tl
        np.cumprod(terms, axis=1, out=terms)
        sums = terms.copy()
        sums[:, 0] += sl
        np.cumsum(sums, axis=1, out=sums)
        m += k
        prev = sums[:, -2] if k > 1 else sl
        tl, sl = terms[:, -1], sums[:, -1]
        if m > m_safe:
            q = np.maximum(abs(ratio[-1]) * zl, zl)
            with np.errstate(divide="ignore", invalid="ignore"):  # q = 1 fails q < 1 anyway
                fin = ((q < 1.0) & (sl == prev)
                       & (np.abs(tl) * q / (1.0 - q) <= REL_TOL * np.abs(sl) + 1e-300))
            done[lane[fin]] = sl[fin]
            keep = ~fin
            lane, zl, tl, sl = lane[keep], zl[keep], tl[keep], sl[keep]
            if not lane.size:
                return s
    done[lane] = sl
    zmax = float(z.max())
    raise AccuracyError(
        f"2F1reg grid ({a},{b};{c}) did not converge in {MAX_TERMS} terms",
        partial_value=s, tail_estimate=float(np.max(np.abs(tl))) * zmax / max(1 - zmax, 1e-300))


def hyp3f2_zero_balanced(z):
    """3F2(1,1,1; 3/2,3/2; z) = sum_k (k!)^2 z^k / ((3/2)_k)^2 at a float or array.

    DomainError unless every lane is in [0,1); the series diverges like a log
    at z = 1.  Its coefficients are squared Wallis integrals, (k!)^2/((3/2)_k)^2
    = (int_0^{pi/2} sin^{2k+1} t dt)^2, so with x = sqrt(z)
        3F2 = (1/x) int_0^{pi/2} arcsin(x sin t) / sqrt(1 - z sin^2 t) dt,
    and cos t = sqrt((1-z)/z) sinh v removes its log peak at t = pi/2:
        3F2 = (1/x) int_0^V arctan2(y, sqrt(1-z) cosh v) / y dv,
    y = x sin t, V = asinh(sqrt(z/(1-z))) < 20; arctan2 is arcsin(y) without
    cancellation.  The integrand is analytic in y^2, singular nearest at
    v = +-i pi/2, so one fixed 64-node Gauss-Legendre rule is good to 1e-15
    relative on all of [0,1) and needs no term budget.  z = 0 gives 1.  Each
    lane sums its own row of nodes, so an array's values equal one-lane calls.
    """
    z = np.asarray(z, dtype=float)
    if z.size and not (z.min() >= 0.0 and z.max() < 1.0):
        raise DomainError(f"hyp3f2_zero_balanced requires z in [0,1), got {z}")
    nodes, weights = np.polynomial.legendre.leggauss(_HYP3F2_NODES)
    pos = z > 0.0
    zp = np.where(pos, z, 0.5)[..., None]
    rz, rq = np.sqrt(zp), np.sqrt(1.0 - zp)
    half = 0.5 * np.arcsinh(rz / rq)
    v = half * (nodes + 1.0)
    cos_t = rq / rz * np.sinh(v)
    y = rz * np.sqrt((1.0 - cos_t) * (1.0 + cos_t))
    f = np.arctan2(y, rq * np.cosh(v)) / y
    value = half[..., 0] * np.sum(f * weights, axis=-1) / rz[..., 0]
    out = np.where(pos, value, 1.0)
    return float(out) if out.ndim == 0 else out


def struve_l0(x: float) -> float:
    """Modified Struve function L0(x) = sum_k (x/2)^(2k+1) / Gamma(k+3/2)^2, x >= 0.

    All terms are positive; L0 is zero at the origin (odd series), increasing,
    with leading behaviour 2x/pi from the first term (Gamma(3/2)^2 = pi/4).
    """
    x = finite_nonnegative(x, "struve_l0 x")
    t = (x / 2.0) * 4.0 / math.pi  # (x/2) / Gamma(3/2)^2
    s = t
    k = 0
    while k < MAX_TERMS:
        ratio = (x / 2.0) ** 2 / (k + 1.5) ** 2
        t *= ratio
        s += t
        k += 1
        if ratio < 1.0 and t * ratio / (1.0 - ratio) <= REL_TOL * s:
            return s
    raise AccuracyError(
        f"struve_l0({x}) did not converge in {MAX_TERMS} terms",
        partial_value=s, tail_estimate=t)
