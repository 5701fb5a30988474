"""Independent numerical ground truth for the series machinery.

Two routes evaluate the same object:

* a deterministic 4-d quadrature of the reduced integral representation
  (Gauss-Legendre radially against the exp(-v^2/4) decay, periodic trapezoid
  in both angles, which is spectrally accurate for smooth periodic factors),
* direct Monte-Carlo sampling of the defining expectation over the joint
  Gaussian of the two time points.

The quadrature exploits the fact that on equal angular grids the coupling
factor depends only on q1 - q2, which turns the double angular sum into a
cyclic correlation; the result is numerically identical to the plain tensor
rule (asserted in tests) at a fraction of the cost.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, finite_nonnegative


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and radial truncation for the 4-d quadrature."""

    angular_nodes: int = 96
    radial_nodes: int = 64
    v_max: float = 12.0
    target_abs_tol: float = 1e-6

    def __post_init__(self):
        if self.angular_nodes < 8 or self.radial_nodes < 8:
            raise DomainError("node counts must be >= 8")
        if self.v_max < 8.0:
            raise DomainError("v_max must be >= 8")

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(2 * self.angular_nodes, 2 * self.radial_nodes,
                              self.v_max, self.target_abs_tol)


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float


@dataclass(frozen=True)
class McResult:
    estimate: complex
    stderr: float
    n_samples: int
    n_batches: int


class JointCovariance:
    """4x4 real covariance of (a(t), b(t), a(t+tau), b(t+tau)), scaled by R_ww(0)/2."""

    def __init__(self, r: complex, r_ww0: float = 1.0):
        r = complex(r)
        if abs(r) > 1.0:
            raise DomainError("|r| must be <= 1")
        rho, mu = r.real, -r.imag
        half = r_ww0 / 2.0
        self.matrix = half * np.array([
            [1.0, 0.0, rho, -mu],
            [0.0, 1.0, mu, rho],
            [rho, mu, 1.0, 0.0],
            [-mu, rho, 0.0, 1.0],
        ])
        eigmin = float(np.linalg.eigvalsh(self.matrix).min())
        if eigmin < -1e-12 * r_ww0:
            raise DomainError(f"covariance not PSD (min eigenvalue {eigmin})")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n joint samples (rows) via Cholesky with eigenvalue flooring."""
        vals, vecs = np.linalg.eigh(self.matrix)
        vals = np.clip(vals, 0.0, None)
        root = vecs @ np.diag(np.sqrt(vals))
        return rng.standard_normal((n, 4)) @ root.T


def _radial_rule(spec: QuadratureSpec):
    x, w = np.polynomial.legendre.leggauss(spec.radial_nodes)
    v = 0.5 * spec.v_max * (x + 1.0)
    wv = 0.5 * spec.v_max * w
    return v, wv


def _angular_correlation_sum(r: complex, spec: QuadratureSpec, phase_arrays):
    """Core cyclic-correlation reduction shared by the integral evaluators.

    ``phase_arrays`` is a list of (coeff, A[q,v], B[q,v]) triples; for each
    angular difference d the inner angular sum is sum_q A[q,:] B[q-d,:],
    evaluated as a matrix product, then reduced over the radial plane with
    the Gaussian weight and the q1-q2 coupling factor.
    """
    absr = abs(r)
    phi = cmath.phase(r) if r != 0 else 0.0
    nang = spec.angular_nodes
    v, wv = _radial_rule(spec)
    dq = 2.0 * math.pi / nang
    gauss = np.exp(-0.25 * (v[:, None] ** 2 + v[None, :] ** 2)) * (wv[:, None] * wv[None, :])
    coupling_scale = 0.5 * absr * v[:, None] * v[None, :]
    total = 0.0 + 0.0j
    for d in range(nang):
        theta = d * dq
        plane = np.zeros_like(gauss, dtype=complex)
        for coeff, a_arr, b_arr in phase_arrays:
            plane += coeff * (a_arr.T @ np.roll(b_arr, d, axis=0))
        coupling = np.exp(-coupling_scale * math.cos(theta + phi))
        total += cmath.exp(1j * theta) * np.sum(gauss * coupling * plane)
    return -total * dq * dq / (4.0 * math.pi ** 2)


def _rss_single(r: complex, omega: float, spec: QuadratureSpec) -> complex:
    nang = spec.angular_nodes
    v, _ = _radial_rule(spec)
    q = 2.0 * math.pi * np.arange(nang) / nang
    e = np.exp(1j * omega * v[None, :] * np.cos(q)[:, None])  # [q, v]
    return _angular_correlation_sum(r, spec, [(1.0, e, e)])


def _omega_n_single(n: int, r: complex, spec: QuadratureSpec) -> complex:
    nang = spec.angular_nodes
    v, _ = _radial_rule(spec)
    q = 2.0 * math.pi * np.arange(nang) / nang
    vcos = v[None, :] * np.cos(q)[:, None]  # [q, v]
    powers = [vcos ** p for p in range(n + 1)]
    triples = [(math.comb(n, p), powers[p], powers[n - p]) for p in range(n + 1)]
    return (1j) ** n * _angular_correlation_sum(r, spec, triples)


def rss_quadrature(r: complex, omega, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> QuadratureResult:
    """Normalized autocorrelation by direct quadrature of the reduced integral.

    Runs the rule at ``spec`` and at doubled node counts; the difference is
    the reported error estimate and the doubled value is returned.  Raises
    AccuracyError (carrying the best value) if the estimate misses
    ``spec.target_abs_tol``.
    """
    r = complex(r)
    if not abs(r) < 1.0:
        raise DomainError(f"quadrature requires |r| < 1, got {abs(r)}")
    w = float(omega)
    coarse = _rss_single(r, w, spec)
    fine = _rss_single(r, w, spec.doubled())
    err = abs(fine - coarse)
    if err > spec.target_abs_tol:
        raise AccuracyError(
            f"rss_quadrature error estimate {err:.2e} exceeds "
            f"target {spec.target_abs_tol:.2e}",
            partial_value=fine, tail_estimate=err)
    return QuadratureResult(value=fine, error_estimate=err)


def omega_n_quadrature(n: int, r: complex,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> QuadratureResult:
    """Coefficient Omega_n by quadrature of the differentiated integrand.

    Limited to n <= 8: the polynomial factor (v1 cos q1 + v2 cos q2)^n raises
    the radial node demand with n.
    """
    if n < 0 or n > 8:
        raise DomainError("omega_n_quadrature supports 0 <= n <= 8")
    r = complex(r)
    if not abs(r) < 1.0:
        raise DomainError(f"quadrature requires |r| < 1, got {abs(r)}")
    coarse = _omega_n_single(n, r, spec)
    fine = _omega_n_single(n, r, spec.doubled())
    err = abs(fine - coarse)
    if err > spec.target_abs_tol:
        raise AccuracyError(
            f"omega_n_quadrature error estimate {err:.2e} exceeds "
            f"target {spec.target_abs_tol:.2e}",
            partial_value=fine, tail_estimate=err)
    return QuadratureResult(value=fine, error_estimate=err)


def rss_montecarlo(r: complex, omega, n_samples: int, seed: int,
                   n_batches: int = 200) -> McResult:
    """Monte-Carlo estimate of the defining expectation.

    Samples the second time point as a unit circular complex Gaussian and the
    first as r * w2 + sqrt(1-|r|^2) * z, which realizes E[w1 conj(w2)] = r,
    then averages 1/((w + w1)(w + conj(w2))).  The integrand has infinite
    second moment near the pole, so the standard error comes from batch means
    (>= 100 batches), never from the naive single-pass variance.
    """
    r = complex(r)
    if not abs(r) < 1.0:
        raise DomainError(f"Monte Carlo requires |r| < 1, got {abs(r)}")
    if n_batches < 100:
        raise DomainError("need at least 100 batches for the stderr estimate")
    w = finite_nonnegative(omega, "omega")
    JointCovariance(r)  # structural validation of the implied joint law
    rng = np.random.default_rng(seed)
    batch = n_samples // n_batches
    if batch < 2:
        raise DomainError("n_samples too small for the batch layout")
    cross = math.sqrt(1.0 - abs(r) ** 2)
    means = np.empty(n_batches, dtype=complex)
    for b in range(n_batches):
        w2 = (rng.standard_normal(batch) + 1j * rng.standard_normal(batch)) / math.sqrt(2)
        z = (rng.standard_normal(batch) + 1j * rng.standard_normal(batch)) / math.sqrt(2)
        w1 = r * w2 + cross * z
        means[b] = np.mean(1.0 / ((w + w1) * (w + np.conj(w2))))
    est = means.mean()
    stderr = math.sqrt((means.real.var(ddof=1) + means.imag.var(ddof=1)) / n_batches)
    return McResult(estimate=complex(est), stderr=stderr,
                    n_samples=batch * n_batches, n_batches=n_batches)


def angular_struve_check(x: float, n_nodes: int = 1 << 20) -> float:
    """Periodic-trapezoid value of the angular absolute integral over 4 pi^2.

    The double angular integral of |exp(-x cos(q1-q2)) - 1| collapses to a
    single difference variable on equal grids; the result should equal the
    modified Struve function L0(x).
    """
    x = finite_nonnegative(x, "angular_struve_check x")
    u = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    total = 0.0
    chunk = 1 << 20
    for lo in range(0, n_nodes, chunk):
        uu = u[lo:lo + chunk]
        total += float(np.sum(np.abs(np.exp(-x * np.cos(uu)) - 1.0)))
    return total / n_nodes


def abs_convergence_check(abs_r: float,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Numeric absolute-value integral versus its closed-form majorant.

    Returns (lhs, rhs); absolute convergence of the reduced integral requires
    lhs < rhs = 4 pi^2 (1-|r|^2)^(-1/2) (pi + 2 atan(|r|/sqrt(1-|r|^2))).
    The radial truncation adapts to the (1-|r|) decay of the diagonal ridge,
    and the exponent is assembled before exponentiation to avoid overflow.
    """
    if not 0.0 <= abs_r < 1.0:
        raise DomainError(f"requires |r| < 1, got {abs_r}")
    v_max = max(spec.v_max, 6.0 / math.sqrt(1.0 - abs_r))
    nrad = max(spec.radial_nodes, int(spec.radial_nodes * v_max / spec.v_max) + 1)
    wide = QuadratureSpec(spec.angular_nodes, nrad, v_max, spec.target_abs_tol)
    v, wv = _radial_rule(wide)
    log_gauss = -0.25 * (v[:, None] ** 2 + v[None, :] ** 2)
    logw = np.log(wv[:, None]) + np.log(wv[None, :])
    scale = 0.5 * abs_r * v[:, None] * v[None, :]
    nang = wide.angular_nodes
    total = 0.0
    for d in range(nang):
        theta = 2.0 * math.pi * d / nang
        total += float(np.sum(np.exp(log_gauss + logw - scale * math.cos(theta))))
    lhs = total * (2.0 * math.pi / nang) * 2.0 * math.pi
    rhs = (4.0 * math.pi ** 2 / math.sqrt(1.0 - abs_r ** 2)
           * (math.pi + 2.0 * math.atan(abs_r / math.sqrt(1.0 - abs_r ** 2)))
           ) if abs_r > 0 else 4.0 * math.pi ** 3
    return lhs, rhs
