"""Special functions needed by the coefficient and bound formulas.

Everything here is evaluated from scratch with running-term recurrences in
double precision; no external special-function library is used.  The menu is
deliberately small because the callers only ever need:

* the regularized Gauss hypergeometric function 2F1(a,b;c;z)/Gamma(c) with
  integer parameters and z = |r|^2 in [0, 1), summed by one evaluator over
  an array of z; the scalar function is its one-lane case,
* the zero-balanced series 3F2(1,1,1; 3/2,3/2; z) = sum_k (k!)^2 z^k / ((3/2)_k)^2,
* the modified Struve function L0,
* a couple of classical constants.

Gamma factors only ever occur at integer and half-integer arguments, where the
recurrence from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) is exact; for
nonpositive integer c the reciprocal 1/Gamma(c) vanishes, which is what makes
the regularized 2F1 finite there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError


#: accuracy budget of the 2F1 and L0 series: relative tail tolerance and
#: term count, read at each call (tests lower MAX_TERMS to reach AccuracyError)
REL_TOL = 1e-12
MAX_TERMS = 10 ** 6
#: term budget of the 3F2 series.  Near z -> 1 it needs ~1/(1-z) terms; the
#: Gaussian kernel's L1 majorant reaches z = 1 - O(tau^2), so the budget is
#: far above MAX_TERMS
HYP3F2_MAX_TERMS = 10 ** 8

#: terms per block of the grid 2F1 series: the first block, and the cap on
#: the doubling after it.  Each block costs a fixed number of numpy calls, and
#: the terms a block computes past the returning term are wasted.
_GRID_BLOCK_FIRST = 8
_GRID_BLOCK_MAX = 64


@dataclass(frozen=True)
class MathConstants:
    """Classical constants used by the integrability bounds (published values)."""

    zeta3: float = 1.2020569031595942854
    catalan: float = 0.9159655941772190151

    @property
    def lorentzian_l1_constant(self) -> float:
        """28*zeta(3)/pi - 8*C, the closed constant of the exponential-kernel bound."""
        return 28.0 * self.zeta3 / math.pi - 8.0 * self.catalan


def math_constants() -> MathConstants:
    return MathConstants()


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

    The result of the non-terminating series equals that recurrence run on
    every lane until the tail test |t| q/(1-q) <= REL_TOL |s|, with
    q = max(|ratio| zmax, zmax) over the whole grid and applied past
    m_safe = 2(|a|+|b|+|c|)+8 terms, holds on all lanes at once.  A lane's
    value therefore depends on the other lanes of its call through zmax and
    the shared stopping term; a one-lane call is the per-point series.

    That series is summed in blocks of terms: ``_GRID_BLOCK_FIRST`` terms,
    then twice as many per block up to ``_GRID_BLOCK_MAX``.  A block is one
    cumulative product of ratio*z along each lane, seeded with the lane's
    running term, and one cumulative sum seeded with its running sum: the same
    multiplications and the same left-to-right additions as the recurrence,
    so every partial sum is bit for bit the recurrence's.  The tail test is
    applied at every term, and the result is returned at the first term where
    it holds on every lane still being summed.

    Retirement: at the end of a block a lane whose tail test holds and whose
    last term left its sum unchanged (s + t == s) is written out and no longer
    summed.  Its sum is then final provided the terms are nonnegative, which
    holds for a >= 1, b >= 1 and so for every triple the coefficient table
    passes: once q < 1 no later term exceeds the last one, and rounding is
    monotone, so no later term can change the sum, and the recurrence would
    have returned the same value.  Without that precondition each lane still
    stops only when its own tail bound clears REL_TOL.

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
    zmax = float(z.max()) if z.size else 0.0
    done = s.reshape(-1)  # a view: retired lanes are written through it
    lane = np.arange(done.size)
    zl, tl, sl = z.reshape(-1), t.reshape(-1), done.copy()
    block = _GRID_BLOCK_FIRST
    while m - m0 < MAX_TERMS:
        k = min(block, MAX_TERMS - (m - m0))
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
        # column i holds term m + 1 + i; the tail test applies past m_safe where q < 1
        q = np.maximum(np.abs(ratio) * zmax, zmax)
        tested = (ms >= m_safe) & (q < 1.0)
        m += k
        if tested.any():
            q = np.where(tested, q, 0.0)  # no division by 1 - q <= 0 on untested columns
            ok = np.abs(terms) * q / (1.0 - q) <= REL_TOL * np.abs(sums) + 1e-300
            ok &= tested
            hit = np.flatnonzero(ok.all(axis=0))
            if hit.size:
                done[lane] = sums[:, hit[0]]
                return s
            prev = sums[:, -2] if k > 1 else sl
            fin = ok[:, -1] & (sums[:, -1] == prev)
            if fin.any():
                done[lane[fin]] = sums[fin, -1]
                keep = ~fin
                lane, zl, terms, sums = lane[keep], zl[keep], terms[keep], sums[keep]
        tl, sl = terms[:, -1], sums[:, -1]
    done[lane] = sl
    raise AccuracyError(
        f"2F1reg grid ({a},{b};{c}) did not converge in {MAX_TERMS} terms",
        partial_value=s, tail_estimate=float(np.max(np.abs(tl))) * zmax / max(1 - zmax, 1e-300))


def hyp3f2_zero_balanced(z: float) -> float:
    """3F2(1,1,1; 3/2,3/2; z) = sum_k (k!)^2 z^k / ((3/2)_k)^2 for z in [0,1).

    The series is zero-balanced: it diverges logarithmically as z -> 1, so the
    domain boundary is excluded.  Successive term ratios ((k+1)/(k+3/2))^2 z
    increase toward z from below, which gives a clean geometric tail majorant
    |t| z/(1-z).
    """
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp3f2_zero_balanced requires z in [0,1), got {z}")
    geo = z / (1.0 - z)
    s = 1.0
    t = 1.0
    k = 0
    chunk = 1 << 16
    while k < HYP3F2_MAX_TERMS:
        n = min(chunk, HYP3F2_MAX_TERMS - k)
        idx = np.arange(k, k + n, dtype=float)
        terms = t * np.cumprod(((idx + 1.0) / (idx + 1.5)) ** 2 * z)
        s += float(np.sum(terms))
        t = float(terms[-1])
        k += n
        if t * geo <= REL_TOL * s:
            return s
    raise AccuracyError(
        f"hyp3f2_zero_balanced({z}) did not converge in {HYP3F2_MAX_TERMS} terms",
        partial_value=s, tail_estimate=t * geo)


def struve_l0(x: float) -> float:
    """Modified Struve function L0(x) = sum_k (x/2)^(2k+1) / Gamma(k+3/2)^2, x >= 0.

    All terms are positive; L0 is zero at the origin (odd series), increasing,
    with leading behaviour 2x/pi from the first term (Gamma(3/2)^2 = pi/4).
    """
    if x < 0:
        raise DomainError(f"struve_l0 requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
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
