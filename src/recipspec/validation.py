"""The acceptance checks, shared by the test suite and the `validate` CLI flow.

Each check returns a CheckResult with the measured numbers, so failures are
diagnosable from the JSON verdict alone.  The `quick` profile covers every
closed-form, oracle and bound check; `full` adds the Monte-Carlo cross-check,
the end-to-end simulation comparisons and the byte-determinism check.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds, coefficients, oracle, series, spectrum
from .kernels import FlatBand, Lorentzian
from .oracle import QuadratureSpec
from .simulator import SimulationConfig, run_experiment
from .specfun import math_constants, struve_l0

#: tightened quadrature for oracle-grade reference values (the default spec's
#: radial truncation is not enough at |r| = 0.9 for 1e-4 absolute targets)
TIGHT_QUAD = QuadratureSpec(angular_nodes=128, radial_nodes=96, v_max=16.0,
                            target_abs_tol=1e-5)


@dataclass
class CheckResult:
    name: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "runtime_s": self.runtime_s, "details": self.details}


def _check(name):
    def wrap(fn):
        def run() -> CheckResult:
            t0 = time.monotonic()
            passed, details = fn()
            return CheckResult(name=name, passed=bool(passed),
                               runtime_s=time.monotonic() - t0, details=details)
        run.check_name = name
        return run
    return wrap


@_check("closed_form_cross_check")
def check_closed_forms():
    """General double sum vs the real-r closed forms, rel < 1e-9."""
    worst = 0.0
    for n in (0, 2, 4, 6):
        for r in (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9):
            g = coefficients.omega_n_general(n, r)
            c = coefficients.omega_n_closed_real(n, r)
            worst = max(worst, abs(g - c) / abs(c))
    return worst < 1e-9, {"worst_rel": worst, "tolerance": 1e-9}


@_check("complex_r_cross_check")
def check_complex_r():
    """General sum vs complex closed forms for orders 0 and 2, rel < 1e-9."""
    points = [0.5 * complex(math.cos(-0.7), math.sin(-0.7)),
              math.exp(-1) * complex(math.cos(-2.0), math.sin(-2.0))]
    worst = 0.0
    for r in points:
        worst = max(worst, abs(coefficients.omega_n_general(0, r)
                               - coefficients.omega0_closed(r)) / abs(coefficients.omega0_closed(r)))
        worst = max(worst, abs(coefficients.omega_n_general(2, r)
                               - coefficients.omega2_closed(r)) / abs(coefficients.omega2_closed(r)))
    return worst < 1e-9, {"worst_rel": worst, "tolerance": 1e-9}


@_check("odd_order_vanishing")
def check_odd_orders():
    """Quadrature of odd-order coefficients returns 0 within 1e-6."""
    worst = 0.0
    for n in (1, 3):
        for r in (0.3, 0.7):
            v = oracle.omega_n_quadrature(n, r).value
            worst = max(worst, abs(v))
    return worst < 1e-6, {"worst_abs": worst, "tolerance": 1e-6}


@_check("oracle_equivalence")
def check_oracle_equivalence():
    """Series (order 20) vs quadrature < 1e-4 absolute; MC within 3 stderr."""
    worst = 0.0
    for absr in (0.3, 0.6, 0.9):
        for w in (0.0, 0.5, 1.0, 1.2):
            s = series.autocorrelation(absr, w, order=20).value
            q = oracle.rss_quadrature(absr, w, TIGHT_QUAD).value
            worst = max(worst, abs(s - q))
    mc_ok = True
    mc_rows = []
    for i, (absr, w) in enumerate([(0.5, 0.5), (0.3, 1.0), (0.9, 1.2)]):
        q = oracle.rss_quadrature(absr, w, TIGHT_QUAD).value
        mc = oracle.rss_montecarlo(absr, w, 10 ** 7, seed=900 + i)
        pull = abs(mc.estimate - q) / mc.stderr
        mc_rows.append({"abs_r": absr, "omega": w, "pull": pull,
                        "stderr": mc.stderr})
        mc_ok = mc_ok and pull < 3.0
    return worst < 1e-4 and mc_ok, {
        "worst_series_vs_quadrature": worst, "tolerance": 1e-4,
        "monte_carlo": mc_rows}


@_check("limit_identity")
def check_limit_identity():
    """Partial limit sums (order 40) vs the closed floor, rel < 1e-8."""
    worst = 0.0
    for w in (0.25, 0.5, 1.0, 1.2):
        partial = series.floor_partial(w, 40)
        closed = series.asymptotic_floor(w)
        worst = max(worst, abs(partial - closed) / closed)
    spot0 = series.asymptotic_floor(0.0)
    spot1 = series.asymptotic_floor(1.0)
    ok = (worst < 1e-8 and spot0 == 0.0 and abs(spot1 - 0.3995764) < 5e-8)
    return ok, {"worst_rel": worst, "floor_at_0": spot0, "floor_at_1": spot1}


@_check("bound_inequalities")
def check_bounds():
    """|Omega_n| under the magnitude bound; absolute integral under its majorant."""
    ok = True
    absrs = [x / 10 for x in range(1, 10)]
    for n in range(2, 21, 2):
        values = np.abs(coefficients.omega_n_over_grid(n, np.array(absrs)))
        for v, absr in zip(values, absrs):
            if v >= coefficients.omega_bound(n, absr):
                ok = False
    margins = {}
    for absr in (0.3, 0.9, 0.99):
        lhs, rhs = oracle.abs_convergence_check(absr)
        margins[str(absr)] = {"lhs": lhs, "rhs": rhs}
        ok = ok and lhs < rhs
    return ok, {"abs_convergence": margins}


@_check("integrability_constants")
def check_integrability():
    """Numeric majorant integrals vs the closed Apery/Catalan constant and 4.53."""
    const = math_constants().lorentzian_l1_constant
    lor = bounds.lorentzian_l1_numeric(1.0)
    gau = bounds.gaussian_l1_bound(1.0)
    ok = abs(lor - const) < 1e-3 and abs(gau - 4.53) < 0.01
    return ok, {"lorentzian_numeric": lor, "lorentzian_closed": const,
                "gaussian_numeric": gau, "gaussian_reference": 4.53}


@_check("struve_identity")
def check_struve():
    """Angular absolute integral over 4 pi^2 equals L0, rel < 1e-8."""
    worst = 0.0
    for x in (0.1, 1.0, 5.0):
        q = oracle.angular_struve_check(x)
        s = struve_l0(x)
        worst = max(worst, abs(q - s) / s)
    return worst < 1e-8, {"worst_rel": worst, "tolerance": 1e-8}


#: pinned seeds for the simulation comparisons (fixed-seed runs are the
#: determinism contract; these were not tuned beyond being distinct)
_SIM_SEEDS = {
    ("lorentzian", 0.0): 101, ("lorentzian", 0.4): 102,
    ("lorentzian", 0.8): 103, ("lorentzian", 1.2): 104,
    ("flatband", 0.0): 201, ("flatband", 0.5): 202, ("flatband", 1.0): 203,
}


def _one_experiment(kernel_name: str, omega: float):
    if kernel_name == "lorentzian":
        config = SimulationConfig(kernel=Lorentzian(a=1.0), omega=omega,
                                  dt=0.1, n_samples=2 ** 23,
                                  seed=_SIM_SEEDS[(kernel_name, omega)])
        order = 20
    else:
        config = SimulationConfig(kernel=FlatBand(), omega=omega,
                                  dt=0.5, n_samples=2 ** 23,
                                  seed=_SIM_SEEDS[(kernel_name, omega)],
                                  fir_taps=16385)
        order = 10
    return run_experiment(config, order=order)


@_check("figure_reproduction")
def check_figure_reproduction():
    """Welch spectra vs the discrete Welch expectation: median < 0.5 dB, p95 < 1.5 dB."""
    rows = []
    ok = True
    for kernel_name, omegas in (("lorentzian", (0.0, 0.4, 0.8, 1.2)),
                                ("flatband", (0.0, 0.5, 1.0))):
        for w in omegas:
            res = _one_experiment(kernel_name, w)
            m = res.metrics
            good = m["median_db"] < 0.5 and m["p95_db"] < 1.5
            ok = ok and good
            rows.append({"kernel": kernel_name, "omega": w,
                         "median_db": m["median_db"], "p95_db": m["p95_db"],
                         "direct_median_db": m["direct_median_db"],
                         "passed": good})
    return ok, {"cases": rows, "thresholds": {"median_db": 0.5, "p95_db": 1.5}}


@_check("one_over_f_tail")
def check_tail_slope():
    """Log-log slope of the covariance spectrum tail = -1 +/- 0.1.

    Measured at omega = 0 on a fine midpoint grid, where the covariance
    reduces to the exactly-stable order-zero closed form; the tail is driven
    by the logarithmic origin singularity, which is present at every omega.
    """
    grid = spectrum.TauGrid(dtau=0.002, half_points=40000)
    freqs = np.geomspace(1.5, 16.0, 160)
    spec = spectrum.theoretical_spectrum(Lorentzian(a=1.0), 0.0, 0, grid,
                                         freqs=freqs)
    slope = spectrum.tail_slope(spec, 1.6, 16.0)
    return abs(slope + 1.0) < 0.1, {"slope": slope, "window": [1.6, 16.0]}


@_check("determinism")
def check_determinism():
    """cmd_simulate byte-identical across reruns and thread settings."""
    from .cli import main as cli_main
    digests = []
    for threads in (1, 4):
        with tempfile.TemporaryDirectory() as tmp:
            rc = cli_main(["simulate", "--kernel", "lorentzian", "--a", "1.0",
                           "--omega", "0.8", "--dt", "0.1",
                           "--samples", str(2 ** 18), "--seed", "7",
                           "--segment-len", "1024", "--threads", str(threads),
                           "--out-dir", tmp])
            if rc != 0:
                return False, {"error": f"cmd_simulate exited {rc}"}
            from .manifest import sha256_of
            names = sorted(f for f in os.listdir(tmp) if f.endswith(".csv"))
            digests.append([sha256_of(os.path.join(tmp, f)) for f in names])
    same = digests[0] == digests[1]
    return same, {"digests": digests[0], "runs_match": same}


QUICK_CHECKS = [
    check_closed_forms,
    check_complex_r,
    check_odd_orders,
    check_limit_identity,
    check_bounds,
    check_integrability,
    check_struve,
    check_tail_slope,
]

FULL_CHECKS = QUICK_CHECKS + [
    check_oracle_equivalence,
    check_figure_reproduction,
    check_determinism,
]


def run_checks(profile: str = "quick") -> dict:
    """Run a validation profile and return the JSON-ready verdict."""
    if profile == "quick":
        checks = QUICK_CHECKS
    elif profile == "full":
        checks = FULL_CHECKS
    else:
        raise ValueError(f"unknown profile {profile!r}")
    results = [c() for c in checks]
    return {
        "profile": profile,
        "passed": all(r.passed for r in results),
        "checks": [r.to_dict() for r in results],
    }
