"""Independent numerical ground truth for the series machinery.

Two routes evaluate the same object:

* a deterministic 4-d quadrature of the reduced integral representation
  (Gauss-Legendre radially against the exp(-v^2/4) decay, periodic trapezoid
  in both angles, which is spectrally accurate for smooth periodic factors),
* direct Monte-Carlo sampling of the defining expectation over the joint
  Gaussian of the two time points.

On equal angular grids the coupling factor depends only on the difference
theta = q1 - q2, so each rule is a sum over theta of a radial weight plane M
against an angular sum.  For Omega_n the polynomial factor separates:
(v1 cos q1 + v2 cos q2)^n expands binomially, its angular sums are scalars
kappa_p(theta), and each angle costs one exponential plane and one small
matrix product instead of n + 1 dense correlations.  The absolute-value and
Struve checks sum half the circle twice (cos theta is even about pi), and
the former sums one triangle of its symmetric radial plane.  Tests hold every
rule to its literal tensor loop; the two orders agree to rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, DomainError, finite_nonnegative, finite_positive,
                     integer_at_least)


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and radial truncation for the 4-d quadrature."""

    angular_nodes: int = 96
    radial_nodes: int = 64
    v_max: float = 12.0
    target_abs_tol: float = 1e-6

    def __post_init__(self):
        for name in ("angular_nodes", "radial_nodes"):
            integer_at_least(getattr(self, name), name, 8)
        if finite_positive(self.v_max, "v_max") < 8.0:
            raise DomainError(f"v_max must be >= 8, got {self.v_max!r}")
        finite_positive(self.target_abs_tol, "target_abs_tol")

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


#: batches whose means give the Monte-Carlo standard error
MC_BATCHES = 200
#: nodes per angle of the Struve check's equal angular grids (even)
STRUVE_NODES = 1 << 20


def _radial_rule(spec: QuadratureSpec):
    x, w = np.polynomial.legendre.leggauss(spec.radial_nodes)
    v = 0.5 * spec.v_max * (x + 1.0)
    wv = 0.5 * spec.v_max * w
    return v, wv


def radial_rules(spec: QuadratureSpec) -> dict:
    """The radial rules of ``spec`` and of ``spec.doubled()``, keyed by spec.

    A caller that runs several quadratures at one spec builds them once and
    passes them to each as ``rules``; the values are those of separate calls.
    """
    return {s: _radial_rule(s) for s in (spec, spec.doubled())}


#: bytes of radial-plane data one block of angles may hold
_BLOCK_BYTES = 1 << 21


def _weight_planes(r: complex, spec: QuadratureSpec, v, wv):
    """Yield (d, M) per block of angular differences theta_d = d * 2 pi / N.

    M[b] = G * exp(-|r|/2 v1 v2 cos(theta_d[b] + arg r)) is the real radial
    weight plane of one angle: G holds the exp(-(v1^2 + v2^2)/4) decay and
    the Gauss-Legendre weights.  Blocks hold at most ``_BLOCK_BYTES``.
    """
    phi = cmath.phase(r) if r != 0 else 0.0
    nang = spec.angular_nodes
    dq = 2.0 * math.pi / nang
    gauss = np.exp(-0.25 * (v[:, None] ** 2 + v[None, :] ** 2)) * (wv[:, None] * wv[None, :])
    coupling_scale = 0.5 * abs(r) * v[:, None] * v[None, :]
    step = max(1, _BLOCK_BYTES // gauss.nbytes)
    for lo in range(0, nang, step):
        d = np.arange(lo, min(lo + step, nang))
        cos_t = np.array([math.cos(k * dq + phi) for k in d])
        yield d, gauss * np.exp(-coupling_scale * cos_t[:, None, None])


def _rss_single(r: complex, omega: float, spec: QuadratureSpec, rule) -> complex:
    """The rule's sum: for each angle, sum_q e[q, v1] e[q - d, v2] against M_d.

    ``rule`` is ``spec``'s radial rule (nodes, weights).
    """
    nang = spec.angular_nodes
    v, wv = rule
    dq = 2.0 * math.pi / nang
    q = 2.0 * math.pi * np.arange(nang) / nang
    e = np.exp(1j * omega * v[None, :] * np.cos(q)[:, None])  # [q, v]
    total = 0.0 + 0.0j
    for d, planes in _weight_planes(r, spec, v, wv):
        for k, plane in zip(d, planes):
            total += cmath.exp(1j * (k * dq)) * np.sum(plane * (e.T @ np.roll(e, k, axis=0)))
    return -total * dq * dq / (4.0 * math.pi ** 2)


def _omega_n_single(n: int, r: complex, spec: QuadratureSpec, rule) -> complex:
    """The rule's sum with the polynomial factor separated in v and in angle.

    v1 c1 + v2 c2 = ((v1 + v2)(c1 + c2) + (v1 - v2)(c1 - c2)) / 2 with
    c1 = cos q, c2 = cos(q - theta_d), so the binomial expansion of its n-th
    power leaves, per angle, the scalars kappa[d, p] = sum_q (c1 + c2)^p
    (c1 - c2)^(n-p) against fixed planes (v1 + v2)^p (v1 - v2)^(n-p).  The
    sum and difference basis keeps the terms from cancelling: c1 + c2 and
    c1 - c2 are 2 cos(q - theta_d/2) cos(theta_d/2) and -2 sin(q - theta_d/2)
    sin(theta_d/2), so for even n the odd-p sums over q vanish and every other
    term is nonnegative.  ``rule`` is ``spec``'s radial rule (nodes, weights).
    """
    nang = spec.angular_nodes
    v, wv = rule
    dq = 2.0 * math.pi / nang
    idx = np.arange(nang)
    c1 = np.cos(2.0 * math.pi * idx / nang)
    c2 = c1[(idx[None, :] - idx[:, None]) % nang]  # [d, q]: cos(q - theta_d)
    csum, cdiff = c1 + c2, c1 - c2
    p = np.arange(n + 1)
    coef = np.stack([math.comb(n, k) * (csum ** k * cdiff ** (n - k)).sum(axis=1) for k in p],
                    axis=1) * 0.5 ** n  # [d, p]
    vsum = (v[:, None] + v[None, :]).ravel()
    vdiff = (v[:, None] - v[None, :]).ravel()
    planes_p = vsum ** p[:, None] * vdiff ** (n - p)[:, None]  # [p, v1 v2]
    total = 0.0 + 0.0j
    for d, planes in _weight_planes(r, spec, v, wv):
        poly = coef[d] @ planes_p
        total += np.exp(1j * (d * dq)) @ (planes.reshape(d.size, -1) * poly).sum(axis=1)
    return (1j) ** n * (-total * dq * dq / (4.0 * math.pi ** 2))


def _coarse_and_doubled(name: str, rule_sum, spec: QuadratureSpec,
                        rules) -> QuadratureResult:
    """``rule_sum(spec, radial rule)`` at ``spec`` and at doubled node counts:
    the doubled value, and their difference as its error estimate.

    ``rules`` is ``radial_rules(spec)``, or None to build it here.  Raises
    AccuracyError (carrying the doubled value) when the estimate misses
    ``spec.target_abs_tol``.
    """
    rules = radial_rules(spec) if rules is None else rules
    fine_spec = spec.doubled()
    coarse = rule_sum(spec, rules[spec])
    fine = rule_sum(fine_spec, rules[fine_spec])
    err = abs(fine - coarse)
    if not err <= spec.target_abs_tol:
        raise AccuracyError(
            f"{name} error estimate {err:.2e} exceeds target {spec.target_abs_tol:.2e}",
            partial_value=fine, tail_estimate=err)
    return QuadratureResult(value=fine, error_estimate=err)


def rss_quadrature(r: complex, omega, spec: QuadratureSpec = DEFAULT_QUADRATURE, *,
                   rules=None) -> QuadratureResult:
    """Normalized autocorrelation by direct quadrature of the reduced integral.

    Runs the rule at ``spec`` and at doubled node counts; the difference is
    the reported error estimate and the doubled value is returned.  Raises
    AccuracyError (carrying the best value) if the estimate misses
    ``spec.target_abs_tol``.  ``rules``, when given, is ``radial_rules(spec)``.
    """
    r = complex(r)
    if not abs(r) < 1.0:
        raise DomainError(f"quadrature requires |r| < 1, got {abs(r)}")
    w = finite_nonnegative(omega, "omega")
    return _coarse_and_doubled("rss_quadrature",
                               lambda s, rule: _rss_single(r, w, s, rule), spec, rules)


def omega_n_quadrature(n: int, r: complex, spec: QuadratureSpec = DEFAULT_QUADRATURE, *,
                       rules=None) -> QuadratureResult:
    """Coefficient Omega_n by quadrature of the differentiated integrand.

    Limited to n <= 8: the polynomial factor (v1 cos q1 + v2 cos q2)^n raises
    the radial node demand with n.  ``rules``, when given, is
    ``radial_rules(spec)``.
    """
    if integer_at_least(n, "order", 0) > 8:
        raise DomainError(f"omega_n_quadrature supports orders up to 8, got {n!r}")
    r = complex(r)
    if not abs(r) < 1.0:
        raise DomainError(f"quadrature requires |r| < 1, got {abs(r)}")
    return _coarse_and_doubled("omega_n_quadrature",
                               lambda s, rule: _omega_n_single(n, r, s, rule), spec, rules)


def rss_montecarlo(r: complex, omega, n_samples: int, seed: int) -> McResult:
    """Monte-Carlo estimate of the defining expectation.

    Samples the second time point as a unit circular complex Gaussian and the
    first as r * w2 + sqrt(1-|r|^2) * z, which realizes E[w1 conj(w2)] = r,
    then averages 1/((w + w1)(w + conj(w2))).  The integrand has infinite
    second moment near the pole, so the standard error comes from the means
    of ``MC_BATCHES`` batches, never from the naive single-pass variance.
    """
    r = complex(r)
    if not abs(r) < 1.0:
        raise DomainError(f"Monte Carlo requires |r| < 1, got {abs(r)}")
    integer_at_least(n_samples, "n_samples", 2 * MC_BATCHES)  # at least 2 per batch
    w = finite_nonnegative(omega, "omega")
    rng = np.random.default_rng(integer_at_least(seed, "seed", 0))
    batch = n_samples // MC_BATCHES
    cross = math.sqrt(1.0 - abs(r) ** 2)
    means = np.empty(MC_BATCHES, dtype=complex)
    for b in range(MC_BATCHES):
        w2 = (rng.standard_normal(batch) + 1j * rng.standard_normal(batch)) / math.sqrt(2)
        z = (rng.standard_normal(batch) + 1j * rng.standard_normal(batch)) / math.sqrt(2)
        w1 = r * w2 + cross * z
        means[b] = np.mean(1.0 / ((w + w1) * (w + np.conj(w2))))
    est = means.mean()
    stderr = math.sqrt((means.real.var(ddof=1) + means.imag.var(ddof=1)) / MC_BATCHES)
    return McResult(estimate=complex(est), stderr=stderr, n_samples=batch * MC_BATCHES)


def angular_struve_check(x: float) -> float:
    """Periodic-trapezoid value of the angular absolute integral over 4 pi^2.

    The double angular integral of |exp(-x cos(q1-q2)) - 1| collapses to a
    single difference variable on equal grids of ``STRUVE_NODES`` nodes; the
    result should equal the modified Struve function L0(x).
    """
    x = finite_nonnegative(x, "angular_struve_check x")
    # node j and node N - j share a cosine: sum the open half circle twice,
    # then add u = 0 and u = pi once
    u = 2.0 * math.pi * np.arange(1, STRUVE_NODES // 2) / STRUVE_NODES
    total = 2.0 * float(np.sum(np.abs(np.exp(-x * np.cos(u)) - 1.0))) + abs(math.exp(-x) - 1.0)
    total += abs(math.exp(x) - 1.0)
    return total / STRUVE_NODES


def abs_convergence_check(abs_r: float):
    """Numeric absolute-value integral versus its closed-form majorant.

    Returns (lhs, rhs); absolute convergence of the reduced integral requires
    lhs < rhs = 4 pi^2 (1-|r|^2)^(-1/2) (pi + 2 atan(|r|/sqrt(1-|r|^2))).
    The rule is ``DEFAULT_QUADRATURE``'s, with the radial truncation widened
    to the (1-|r|) decay of the diagonal ridge; the exponent is assembled
    before exponentiation to avoid overflow.
    """
    if not 0.0 <= abs_r < 1.0:
        raise DomainError(f"requires |r| < 1, got {abs_r}")
    spec = DEFAULT_QUADRATURE
    v_max = max(spec.v_max, 6.0 / math.sqrt(1.0 - abs_r))
    nrad = max(spec.radial_nodes, int(spec.radial_nodes * v_max / spec.v_max) + 1)
    wide = QuadratureSpec(spec.angular_nodes, nrad, v_max, spec.target_abs_tol)
    v, wv = _radial_rule(wide)
    # the plane is symmetric in (v1, v2): the upper triangle, off-diagonal counted twice
    i, j = np.triu_indices(v.size)
    log_weight = -0.25 * (v[i] ** 2 + v[j] ** 2) + (np.log(wv[i]) + np.log(wv[j]))
    scale = 0.5 * abs_r * v[i] * v[j]
    fold = np.where(i == j, 1.0, 2.0)
    # cos(theta_d) = cos(theta_(N-d)): d = 0 (and N/2 for even N) once, the rest twice
    nang = wide.angular_nodes
    d = np.arange(nang // 2 + 1)
    mult = np.where((d == 0) | (2 * d == nang), 1.0, 2.0)
    cos_t = np.cos(2.0 * math.pi * d / nang)
    step = max(1, _BLOCK_BYTES // scale.nbytes)
    total = 0.0
    for lo in range(0, d.size, step):
        e = np.exp(log_weight - scale * cos_t[lo:lo + step, None])
        total += float(mult[lo:lo + step] @ (e @ fold))
    lhs = total * (2.0 * math.pi / nang) * 2.0 * math.pi
    rhs = (4.0 * math.pi ** 2 / math.sqrt(1.0 - abs_r ** 2)
           * (math.pi + 2.0 * math.atan(abs_r / math.sqrt(1.0 - abs_r ** 2)))
           ) if abs_r > 0 else 4.0 * math.pi ** 3
    return lhs, rhs
