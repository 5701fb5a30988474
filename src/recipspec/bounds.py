"""Absolute-integrability diagnostics for the autocovariance.

The lag integral of |autocovariance| is majorized by the integral of
(4/pi)|r| 3F2(1,1,1;3/2,3/2;|r|^2).  For the exponential kernel that majorant
integrates in closed form to (28 zeta(3)/pi - 8 C)/a; for the Gaussian kernel
it is evaluated numerically (about 4.53/sqrt(a)), one 3F2 call per integral.
The integrand diverges logarithmically where |r| -> 1 (tau -> 0),
which stays integrable; the sinc kernel decays only like 1/|tau| so the
majorant test is inconclusive there, and the report says so - the condition is
sufficient, not necessary.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, finite_positive
from .kernels import (CorrelationKernel, DopplerLorentzian, FlatBand,
                      GaussianKernel, Lorentzian)
from .specfun import LORENTZIAN_L1_CONSTANT, hyp3f2_zero_balanced

#: panels, and Gauss-Legendre nodes per panel, of :func:`_graded_integral`
_PANELS = 22
_NODES = 16


def l1_integrand(abs_r):
    """(4/pi) |r| 3F2(1,1,1;3/2,3/2;|r|^2): the pointwise L1 majorant, float or array."""
    r = np.asarray(abs_r, dtype=float)
    if r.size and not (r.min() >= 0.0 and r.max() < 1.0):
        raise DomainError(f"l1_integrand requires 0 <= |r| < 1, got {abs_r}")
    out = (4.0 / math.pi) * r * hyp3f2_zero_balanced(r * r)
    return float(out) if out.ndim == 0 else out


def _graded_integral(f, tau_max: float) -> float:
    """One-sided integral of f over [0, tau_max] on panels that halve toward 0.

    ``f`` maps a tau array to an array, is called once, and must behave like
    c1 + c2 ln(tau) as tau -> 0.  The head [0, eps], eps = tau_max 2^-_PANELS,
    is integrated exactly for that model from f(eps) and f(2 eps):
    eps (f(eps) - c2), with c2 = (f(2 eps) - f(eps)) / ln 2.
    """
    x, w = np.polynomial.legendre.leggauss(_NODES)
    lo = tau_max * 0.5 ** np.arange(1, _PANELS + 1)
    eps = lo[-1]
    # panel [lo, 2 lo] has midpoint 1.5 lo and half-width 0.5 lo
    nodes = np.outer(lo, 1.5 + 0.5 * x)
    values = f(np.append(nodes.ravel(), [eps, 2.0 * eps]))
    body = 0.5 * float(lo @ (values[:-2].reshape(nodes.shape) @ w))
    f_eps, f_2eps = values[-2:]
    return body + eps * (f_eps - (f_2eps - f_eps) / math.log(2.0))


def lorentzian_l1_bound(a: float) -> float:
    """Closed-form L1 majorant for r = exp(-a|tau|): (28 zeta(3)/pi - 8 C)/a."""
    a = finite_positive(a, "decay rate")
    return LORENTZIAN_L1_CONSTANT / a


def lorentzian_l1_numeric(a: float) -> float:
    """Numeric two-sided integral of the majorant for r = exp(-a|tau|)."""
    a = finite_positive(a, "decay rate")
    return 2.0 * _graded_integral(lambda tau: l1_integrand(np.exp(-a * tau)), 45.0 / a)


def gaussian_l1_bound(a: float) -> float:
    """Numeric two-sided integral of the majorant for r = exp(-a tau^2).

    There is no closed form here; the value scales as 1/sqrt(a) and sits near
    4.53 for a = 1.
    """
    a = finite_positive(a, "decay rate")
    return 2.0 * _graded_integral(lambda tau: l1_integrand(np.exp(-a * tau * tau)),
                                  7.0 / math.sqrt(a))


def covariance_l1_numeric(kernel: CorrelationKernel, tau_max: float) -> float:
    """Two-sided integral of |Omega'_0(r(tau))| (the omega -> 0 autocovariance).

    |Omega_0| = -log(1-|r|^2)/|r| is evaluated in closed form here: the
    integration probes |r| -> 1 where the series route would need ~1/(1-|r|^2)
    terms, and the general-vs-closed agreement is certified elsewhere.

    For r = exp(-a|tau|) the value is exact: with u = exp(-a tau) the integral
    is (2/a) int_0^1 -ln(1-u^2)/u^2 du, and -ln(1-u^2)/u^2 is the derivative of
    ln(1-u^2)/u + ln((1+u)/(1-u)), which runs from 0 at u = 0 to 2 ln 2 at
    u -> 1; so the integral is 4 ln 2 / a.
    """
    tau_max = finite_positive(tau_max, "tau_max")

    def f(tau):
        z = np.abs(kernel.eval(tau)) ** 2
        out = np.zeros_like(z)
        return np.divide(-np.log1p(-z), np.sqrt(z), out=out, where=z > 0.0)

    return 2.0 * _graded_integral(f, tau_max)


@dataclass(frozen=True)
class IntegrabilityReport:
    kernel: dict
    l1_bound: Optional[float]
    l1_numeric: Optional[float]
    satisfied: bool
    note: str

    def to_dict(self) -> dict:
        return asdict(self)


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
