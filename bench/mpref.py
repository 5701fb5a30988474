"""High-precision reference for the order-N autocovariance series.

This module deliberately imports nothing from ``recipspec``: it re-derives the
coefficients Omega_n(r) from the paper's double sum over regularized Gauss
hypergeometric values, evaluated in mpmath at ``DPS`` decimal digits, so the
fast path is checked against code it shares nothing with.  It also holds the
exact inverse of the uniform half-sample DFT that turns a written covariance
spectrum back into lag values.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

#: working precision of the reference; the double sum cancels about 15 digits
#: at order 20 next to |r| = 1, so 40 digits leave ~25 correct ones.
DPS = 40


def _reg_2f1(a: int, b: int, c: int, z):
    """2F1(a, b; c; z) / Gamma(c) for integers a >= 1, any b, c and 0 <= z < 1.

    For c <= 0 the first 1-c terms sit on Gamma poles; DLMF 15.2.3_5 shifts
    the series so it starts at m = 1-c.  The Taylor sum runs in mpmath's
    fixed-point hypergeometric summator, which adds guard digits itself.
    """
    if c >= 1:
        return mp.mp.hypsum(2, 1, ("Z", "Z", "Z"), [a, b, c], z,
                            maxterms=10 ** 6) / mp.factorial(c - 1)
    shift = 1 - c
    lead = mp.rf(a, shift) * mp.rf(b, shift) / mp.factorial(shift) * z ** shift
    if lead == 0:
        return mp.mpf(0)
    return lead * mp.mp.hypsum(2, 1, ("Z", "Z", "Z"), [a + shift, b + shift, 1 + shift],
                               z, maxterms=10 ** 6)


def omega_n(n: int, r) -> mp.mpf:
    """Omega_n(r) for real r with 0 < |r| < 1 and even n, from the double sum."""
    h = n // 2
    z = r * r
    total = mp.mpf(0)
    for k in range(n + 1):
        for j in range(min(k, h) + 1):
            comb = mp.mpf((-1) ** k * math.factorial(n)) / (
                math.factorial(h - j) * math.factorial(k - j))
            total += comb * _reg_2f1(1 + j, 1 + j - k + h, 2 + 2 * j - k, z) * r ** (2 * j - k + 1)
    return (-1) ** h * total


def omega_limit(n: int) -> int:
    """Large-lag limit of Omega_n: 2 (-1)^(n/2+1) (2^(n/2)-1) n! / (n/2+1)!, exactly."""
    h = n // 2
    return (-1) ** (h + 1) * 2 * (2 ** h - 1) * math.factorial(n) // math.factorial(h + 1)


def omega_n_real(n: int, r: float) -> float:
    """Omega_n at the binary value of r, rounded once."""
    with mp.workdps(DPS):
        return float(omega_n(n, mp.mpf(r)))


def centered_coefficients(r: float, order: int) -> list:
    """Omega_n(r) - lim Omega_n for n = 0, 2, ..., order, at the binary value of r."""
    with mp.workdps(DPS):
        rr = mp.mpf(r)
        return [omega_n(n, rr) - omega_limit(n) for n in range(0, order + 1, 2)]


def autocovariance(coeffs: list, omega: float) -> float:
    """sum_n omega^n / n! * (Omega_n - lim Omega_n) from centered coefficients."""
    with mp.workdps(DPS):
        w = mp.mpf(omega)
        return float(mp.fsum(w ** (2 * i) / mp.factorial(2 * i) * c
                             for i, c in enumerate(coeffs)))


def lorentzian_r(a: float, tau: float) -> float:
    """exp(-a |tau|) at the binary values of a and tau, rounded once."""
    with mp.workdps(DPS):
        return float(mp.exp(-mp.mpf(a) * abs(mp.mpf(tau))))


def flatband_r(tau: float) -> float:
    """sin(tau)/tau at the binary value of tau, rounded once."""
    with mp.workdps(DPS):
        t = mp.mpf(tau)
        return float(mp.sin(t) / t)


def midpoint_lags(dtau: float, half_points: int) -> np.ndarray:
    """(k + 1/2) dtau for k = 0..half_points-1, rounded as the spectrum grid rounds them."""
    return (np.arange(half_points) + 0.5) * dtau


def invert_half_sample_dft(psd: np.ndarray, dtau: float, ks) -> np.ndarray:
    """Lag values c(tau_k), tau_k = (k + 1/2) dtau, from a spectrum on the uniform grid.

    The spectrum must sit on f_j = (j - m) / (2 m dtau), j = 0..2m-1, and be
    psd(f) = dtau * sum over tau = +/-(k + 1/2) dtau of c(tau) exp(-2 pi i f tau).
    Those 2m frequencies and 2m lags make the transform square and
    orthogonal, so c(tau_k) = 1/(2 m dtau) * sum_j psd_j exp(2 pi i f_j tau_k)
    holds exactly.  Phases are reduced in integers, f_j tau_k = p / (4m) with
    p = (j - m)(2k + 1), before any rounding.
    """
    psd = np.asarray(psd, dtype=float)
    two_m = len(psd)
    if two_m % 2:
        raise ValueError("half-sample grid needs an even number of frequencies")
    m = two_m // 2
    j = np.arange(two_m, dtype=np.int64) - m
    out = np.empty(len(ks), dtype=complex)
    for i, k in enumerate(ks):
        p = (j * (2 * int(k) + 1)) % (4 * m)
        angle = 2.0 * np.pi * (p / (4.0 * m))
        out[i] = complex(math.fsum(psd * np.cos(angle)), math.fsum(psd * np.sin(angle)))
    return out / (two_m * dtau)


def half_sample_dft(values: np.ndarray, dtau: float) -> np.ndarray:
    """Forward transform of the Hermitian extension of one-sided midpoint-lag values.

    Literal sum, used by the self-tests to check the inversion; f_j and tau_k
    follow :func:`invert_half_sample_dft`.
    """
    values = np.asarray(values, dtype=complex)
    m = len(values)
    j = np.arange(2 * m, dtype=np.int64) - m
    psd = np.zeros(2 * m)
    for k in range(m):
        p = (j * (2 * k + 1)) % (4 * m)
        phase = np.exp(-2j * np.pi * (p / (4.0 * m)))
        psd += (values[k] * phase + np.conj(values[k]) * np.conj(phase)).real
    return dtau * psd


def rel_digits(rel: float) -> float:
    """-log10 of a relative error, capped at 17 (exact agreement in double)."""
    return 17.0 if rel == 0 else min(17.0, -math.log10(rel))


def digits(value: float, reference: float) -> float:
    """Correct decimal digits of ``value`` against ``reference``."""
    return rel_digits(abs(value - reference) / abs(reference))
