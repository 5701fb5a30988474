"""Absolute-integrability diagnostics for the autocovariance.

The lag integral of |autocovariance| is majorized by the integral of
(4/pi)|r| 3F2(1,1,1;3/2,3/2;|r|^2).  For the exponential kernel that majorant
integrates in closed form to (28 zeta(3)/pi - 8 C)/a; for the Gaussian kernel
it is evaluated numerically (about 4.53/sqrt(a)).  The integrand diverges
logarithmically where |r| -> 1 (tau -> 0), which stays integrable; the sinc
kernel decays only like 1/|tau| so the majorant test is inconclusive there,
and the report says so - the condition is sufficient, not necessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, finite_positive
from .kernels import (CorrelationKernel, DopplerLorentzian, FlatBand,
                      GaussianKernel, Lorentzian)
from .specfun import hyp3f2_zero_balanced, math_constants

#: the integrand is fitted to c1 + c2*ln(tau) on [SPLIT, 10*SPLIT] and that
#: local model is integrated analytically over [0, SPLIT]
LOG_SPLIT = 1e-3


def l1_integrand(abs_r: float) -> float:
    """(4/pi) |r| 3F2(1,1,1;3/2,3/2;|r|^2): the pointwise L1 majorant."""
    if not 0.0 <= abs_r < 1.0:
        raise DomainError(f"l1_integrand requires |r| < 1, got {abs_r}")
    if abs_r == 0.0:
        return 0.0
    return (4.0 / math.pi) * abs_r * hyp3f2_zero_balanced(abs_r * abs_r)


def _gauss_legendre_panel(f, a: float, b: float, n: int = 200) -> float:
    x, w = np.polynomial.legendre.leggauss(n)
    xs = 0.5 * (b - a) * x + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.sum(w * np.array([f(t) for t in xs])))


def _integrate_with_log_head(f, panels) -> float:
    """One-sided integral of f over [0, panels[-1]] with a log-aware head.

    ``f`` must behave like c1 + c2 ln(tau) as tau -> 0; the head [0, LOG_SPLIT]
    uses that model fitted on [LOG_SPLIT, 10*LOG_SPLIT], the rest is plain
    Gauss-Legendre per panel.
    """
    ts = np.geomspace(LOG_SPLIT, 10 * LOG_SPLIT, 40)
    ys = np.array([f(t) for t in ts])
    design = np.column_stack([np.ones_like(ts), np.log(ts)])
    (c1, c2), *_ = np.linalg.lstsq(design, ys, rcond=None)
    eps = LOG_SPLIT
    head = c1 * eps + c2 * (eps * math.log(eps) - eps)
    total = head
    lo = LOG_SPLIT
    for hi in panels:
        total += _gauss_legendre_panel(f, lo, hi)
        lo = hi
    return total


def lorentzian_l1_bound(a: float) -> float:
    """Closed-form L1 majorant for r = exp(-a|tau|): (28 zeta(3)/pi - 8 C)/a."""
    a = finite_positive(a, "decay rate")
    return math_constants().lorentzian_l1_constant / a


def lorentzian_l1_numeric(a: float) -> float:
    """Numeric two-sided integral of the majorant for r = exp(-a|tau|)."""
    a = finite_positive(a, "decay rate")

    def f(tau):
        return l1_integrand(math.exp(-a * tau))

    return 2.0 * _integrate_with_log_head(
        f, panels=[0.05 / a, 1.0 / a, 5.0 / a, 45.0 / a])


def gaussian_l1_bound(a: float) -> float:
    """Numeric two-sided integral of the majorant for r = exp(-a tau^2).

    There is no closed form here; the value scales as 1/sqrt(a) and sits near
    4.53 for a = 1.
    """
    a = finite_positive(a, "decay rate")
    s = math.sqrt(a)

    def f(tau):
        return l1_integrand(math.exp(-a * tau * tau))

    return 2.0 * _integrate_with_log_head(
        f, panels=[0.05 / s, 1.0 / s, 7.0 / s])


def covariance_l1_numeric(kernel: CorrelationKernel, tau_max: float) -> float:
    """Two-sided integral of |Omega'_0(r(tau))| (the omega -> 0 autocovariance).

    |Omega_0| = -log(1-|r|^2)/|r| is evaluated in closed form here: the
    integration probes |r| -> 1 where the series route would need ~1/(1-|r|^2)
    terms, and the general-vs-closed agreement is certified elsewhere.
    """

    def f(tau):
        z = abs(complex(kernel.eval(tau))) ** 2
        if z == 0.0:
            return 0.0
        return -math.log1p(-z) / math.sqrt(z)

    scale = tau_max / 45.0
    return 2.0 * _integrate_with_log_head(
        f, panels=[0.05 * scale, 1.0 * scale, 5.0 * scale, 45.0 * scale])


@dataclass(frozen=True)
class IntegrabilityReport:
    kernel: dict
    l1_bound: Optional[float]
    l1_numeric: Optional[float]
    satisfied: bool
    note: str

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "l1_bound": self.l1_bound,
            "l1_numeric": self.l1_numeric,
            "satisfied": self.satisfied,
            "note": self.note,
        }


def integrability_report(kernel: CorrelationKernel) -> IntegrabilityReport:
    """Certify (or decline to certify) absolute integrability for a kernel.

    Exponential-decay kernels get the closed constant, the Gaussian kernel the
    numeric one; the flat band decays like 1/|tau| (exponent exactly 1), so the
    sufficient condition fails and the report is not-certified, while spectra
    remain computable.
    """
    if isinstance(kernel, (Lorentzian, DopplerLorentzian)):
        # the majorant depends on |r| only, so the frequency shift is immaterial
        bound = lorentzian_l1_bound(kernel.a)
        numeric = covariance_l1_numeric(kernel, tau_max=45.0 / kernel.a)
        return IntegrabilityReport(
            kernel=kernel.describe(), l1_bound=bound, l1_numeric=numeric,
            satisfied=bool(numeric < bound),
            note="exponential decay: closed-form majorant applies")
    if isinstance(kernel, GaussianKernel):
        bound = gaussian_l1_bound(kernel.a)
        numeric = covariance_l1_numeric(kernel, tau_max=7.0 / math.sqrt(kernel.a))
        return IntegrabilityReport(
            kernel=kernel.describe(), l1_bound=bound, l1_numeric=numeric,
            satisfied=bool(numeric < bound),
            note="Gaussian decay: numeric majorant applies")
    if isinstance(kernel, FlatBand):
        return IntegrabilityReport(
            kernel=kernel.describe(), l1_bound=None, l1_numeric=None,
            satisfied=False,
            note=("sinc kernel decays like 1/|tau| (needs faster than "
                  "1/|tau|^alpha, alpha > 1); the criterion is sufficient, "
                  "not necessary - the spectrum is still computed"))
    raise DomainError(
        f"integrability report supports analytic kernels only, got {kernel.name}")
