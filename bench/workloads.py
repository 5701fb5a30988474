"""The benchmark's workloads: per-op CLI arguments drawn from the seed, and output checks.

Each op is one ``recipspec.cli.main`` call writing into its own directory.  Its
check runs after the timed region and reads only the files the op wrote.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import random
import statistics

import numpy as np

import mpref

#: lags (indices k of tau_k = (k + 1/2) dtau) where written spectra are inverted
#: and compared with the reference; k = 0 is the smallest lag, where |r| is
#: closest to 1 and the double sum cancels hardest.  On sweep, k = 2 is the
#: smallest lag inside the accuracy domain.
SWEEP_CHECK_KS = (0, 1, 2, 4, 10, 20)
SIM_CHECK_KS = (0, 1, 2, 4)

#: the program's stated accuracy domain (README, "Tail flags"): values with
#: |r| <= 0.9 and omega <= 1.2 are vouched for
DOMAIN_ABS_R = 0.9
DOMAIN_OMEGA = 1.2

#: a vouched value must agree with the 40-digit evaluation of the same
#: order-N series to this relative error.
SERIES_REL_TOL = 1e-6

#: (orders, r values) of validate's closed-form cross-check; the program's
#: omega_n_general is compared with the reference there
VALIDATE_PROBE_ORDERS = (0, 2, 4, 6)
VALIDATE_PROBE_R = (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9)

#: acceptance thresholds of the Welch comparison (README, criterion 09)
WELCH_MEDIAN_DB = 0.5
WELCH_P95_DB = 1.5

SWEEP_OMEGAS = (0.0, 0.4, 0.8, 1.2)
SWEEP_DTAU = 0.05
SWEEP_HALF_POINTS = 1024
SWEEP_ORDER = 20

SIM_SAMPLES = 2 ** 23
SIM_CONFIGS = {
    "lorentzian": {"kernel": "lorentzian", "a": 1.0, "dt": 0.1, "omega": 1.2,
                   "order": 20, "fir_taps": None,
                   "r": functools.partial(mpref.lorentzian_r, 1.0)},
    "flatband": {"kernel": "flatband", "a": None, "dt": 0.5, "omega": 1.0,
                 "order": 10, "fir_taps": 16385, "r": mpref.flatband_r},
}


class CheckFailed(Exception):
    """An op's output is wrong: inconsistent, or off the reference beyond tolerance."""


class StatisticalCheckFailed(Exception):
    """A simulation missed an acceptance threshold that a fair seed can miss.

    The program's deterministic outputs passed their checks; ``details``
    carries them.
    """

    def __init__(self, message: str, details: dict):
        super().__init__(message)
        self.details = details


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"recipspec-bench:{workload}:{seed}")


def sweep_ops(seed: int):
    """Omega sweeps of the README example, each with its own decay rate a."""
    rng = _rng("sweep", seed)
    while True:
        a = round(1.0 + rng.uniform(-0.01, 0.01), 6)
        yield {"kind": "sweep", "a": a,
               "args": ["spectrum", "--kernel", "lorentzian", "--a", repr(a),
                        "--omega", ",".join(f"{w:g}" for w in SWEEP_OMEGAS),
                        "--order", str(SWEEP_ORDER), "--dtau", repr(SWEEP_DTAU),
                        "--half-points", str(SWEEP_HALF_POINTS)]}


def simulate_ops(seed: int):
    """Alternating Lorentzian and flat-band acceptance runs, seeds from the workload seed."""
    rng = _rng("simulate", seed)
    while True:
        for name, cfg in SIM_CONFIGS.items():
            sim_seed = rng.randrange(1, 2 ** 31)
            args = ["simulate", "--kernel", cfg["kernel"], "--omega", repr(cfg["omega"]),
                    "--dt", repr(cfg["dt"]), "--order", str(cfg["order"]),
                    "--samples", str(SIM_SAMPLES), "--seed", str(sim_seed)]
            if cfg["a"] is not None:
                args += ["--a", repr(cfg["a"])]
            if cfg["fir_taps"] is not None:
                args += ["--fir-taps", str(cfg["fir_taps"])]
            yield {"kind": "simulate", "config": name, "seed": sim_seed, "args": args}


def validate_ops(seed: int):
    """The quick validation profile; it takes no seed."""
    while True:
        yield {"kind": "validate", "args": ["validate", "--profile", "quick"]}


#: name -> (op generator, ops per full pass, fewest ops per run).  simulate
#: runs two passes so a refused or out-of-tolerance op leaves both configs measured.
WORKLOADS = {
    "sweep": (sweep_ops, 1, 1),
    "simulate": (simulate_ops, 2, 4),
    "validate_quick": (validate_ops, 1, 1),
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_manifest(out_dir: str) -> int:
    """Every output the manifest lists exists with its recorded SHA-256.

    Returns the bytes of all files the op wrote, manifest included.
    """
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if not manifest["outputs"]:
        raise CheckFailed("manifest lists no outputs")
    for entry in manifest["outputs"]:
        with open(entry["path"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest != entry["sha256"]:
            raise CheckFailed(f"sha256 mismatch for {entry['path']}")
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def read_spectrum_csv(path):
    freqs, psd = [], []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows)[:2] != ["freq", "psd"]:
            raise CheckFailed(f"{path}: unexpected header")
        for row in rows:
            freqs.append(float(row[0]))
            psd.append(float(row[1]))
    return np.array(freqs), np.array(psd)


def spectrum_digits(path, dtau: float, ks, reference: dict, omega: float) -> list:
    """Correct digits of each checked lag value recovered from a written spectrum.

    ``reference`` maps k to the centered coefficients at tau_k.
    """
    freqs, psd = read_spectrum_csv(path)
    m = len(freqs) // 2
    grid = (np.arange(2 * m) - m) / (2.0 * m * dtau)
    if len(freqs) != 2 * m or not np.allclose(freqs, grid, rtol=1e-12, atol=0.0):
        raise CheckFailed(f"{path}: frequencies are not the uniform half-sample grid")
    out = []
    for k, value in zip(ks, mpref.invert_half_sample_dft(psd, dtau, ks)):
        ref = mpref.autocovariance(reference[k], omega)
        if abs(value.imag) > 1e-9 * abs(ref):
            raise CheckFailed(f"{path}: recovered lag {k} has imaginary part {value.imag:.3e}")
        out.append(mpref.digits(value.real, ref))
    return out


def vouched(r: float, omega: float) -> bool:
    """Whether the program claims accuracy for a series value at this r and omega."""
    return abs(r) <= DOMAIN_ABS_R and omega <= DOMAIN_OMEGA


def score(points) -> dict:
    """Gate and summarize (digits, vouched) pairs of one op.

    A vouched value must match the reference to SERIES_REL_TOL.
    ``accuracy_digits`` is the mean digits of the vouched values, i.e. the
    geometric mean of their relative errors: their minimum is set by
    rounding in the cancelling double sum and swings by a digit as the sweep's
    ``a`` moves by 1 %.  ``vouched_min_digits`` is that minimum;
    ``worst_digits`` covers every checked value, including those next to
    |r| = 1 where high orders are known to lose digits.
    """
    claimed = [d for d, v in points if v]
    if not claimed:
        raise CheckFailed("no checked value is vouched for")
    if min(claimed) < -math.log10(SERIES_REL_TOL):
        raise CheckFailed(f"only {min(claimed):.2f} correct digits against the reference")
    return {"accuracy_digits": statistics.fmean(claimed), "vouched_min_digits": min(claimed),
            "worst_digits": min(d for d, _ in points),
            "digits": [round(d, 3) for d, _ in points]}


class Checker:
    """Per-run output checks; reference coefficients are computed once per distinct input."""

    def __init__(self):
        self._refs = {}
        self._probe = None

    def _reference(self, key, r_of_tau, dtau, ks, order):
        if key not in self._refs:
            lags = mpref.midpoint_lags(dtau, max(ks) + 1)
            self._refs[key] = {k: mpref.centered_coefficients(r_of_tau(float(lags[k])), order)
                               for k in ks}
        return self._refs[key]

    def check(self, op: dict, out_dir: str) -> dict:
        """Check one op's outputs; returns the details, or raises with them filled in."""
        details = {"bytes_written": check_manifest(out_dir)}
        getattr(self, "_check_" + op["kind"])(op, out_dir, details)
        return details

    def _check_sweep(self, op, out_dir, details):
        """Every omega's spectrum against the reference, lag by lag."""
        a = float(op["a"])
        ref = self._reference(("lorentzian", a, SWEEP_DTAU), lambda t: mpref.lorentzian_r(a, t),
                              SWEEP_DTAU, SWEEP_CHECK_KS, SWEEP_ORDER)
        lags = mpref.midpoint_lags(SWEEP_DTAU, max(SWEEP_CHECK_KS) + 1)
        r = [mpref.lorentzian_r(a, float(lags[k])) for k in SWEEP_CHECK_KS]
        points = []
        for w in SWEEP_OMEGAS:
            digits = spectrum_digits(os.path.join(out_dir, f"spectrum_omega{w:g}.csv"),
                                     SWEEP_DTAU, SWEEP_CHECK_KS, ref, w)
            points += [(d, vouched(rk, w)) for rk, d in zip(r, digits)]
        details.update(score(points))

    def _check_simulate(self, op, out_dir, details):
        cfg = SIM_CONFIGS[op["config"]]
        ref = self._reference((op["config"], cfg["dt"]), cfg["r"], cfg["dt"],
                              SIM_CHECK_KS, cfg["order"])
        digits = spectrum_digits(os.path.join(out_dir, "theoretical.csv"), cfg["dt"],
                                 SIM_CHECK_KS, ref, cfg["omega"])
        lags = mpref.midpoint_lags(cfg["dt"], max(SIM_CHECK_KS) + 1)
        details.update(score([(d, vouched(cfg["r"](float(lags[k])), cfg["omega"]))
                              for k, d in zip(SIM_CHECK_KS, digits)]))
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        sigma = report["fidelity"]["worst_sigma"]
        med, p95 = report["metrics"]["median_db"], report["metrics"]["p95_db"]
        details.update(welch_median_db=med, welch_p95_db=p95, gate_worst_sigma=sigma)
        if not sigma <= 3.0:
            raise StatisticalCheckFailed(f"generator gate at {sigma:.2f} sigma", details)
        if not (med < WELCH_MEDIAN_DB and p95 < WELCH_P95_DB):
            raise StatisticalCheckFailed(
                f"Welch deviation median {med:.3f} dB, p95 {p95:.3f} dB", details)

    def _check_validate(self, op, out_dir, details):
        """Every check passed, and the coefficients validate relies on match the reference.

        ``validation.json`` carries only the program's relative errors between
        two of its own evaluations, which a shared error leaves unchanged.  So
        the check also evaluates ``omega_n_general`` at the closed-form
        cross-check's points and compares it with the reference; that is
        deterministic, so it runs once per checker.
        """
        with open(os.path.join(out_dir, "validation.json")) as fh:
            verdict = json.load(fh)
        failed = [c["name"] for c in verdict["checks"] if not c["passed"]]
        if failed or not verdict["passed"]:
            raise CheckFailed(f"validation checks failed: {failed}")
        if self._probe is None:
            self._probe = score(validate_probe())
        details.update(self._probe,
                       check_runtime_s={c["name"]: c["runtime_s"] for c in verdict["checks"]})


def validate_probe() -> list:
    """(digits, vouched) of the program's Omega_n at validate's closed-form points."""
    from recipspec import coefficients
    points = []
    for n in VALIDATE_PROBE_ORDERS:
        for r in VALIDATE_PROBE_R:
            value = complex(coefficients.omega_n_general(n, r))
            ref = mpref.omega_n_real(n, r)
            if abs(value.imag) > 1e-12 * abs(ref):
                raise CheckFailed(f"Omega_{n}({r}) has imaginary part {value.imag:.3e}")
            points.append((mpref.digits(value.real, ref), True))
    return points
