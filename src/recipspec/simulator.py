"""Discrete-time process generation, inversion, and end-to-end validation runs.

The exponential-kernel process is generated by the exact first-order
recursion (the kernel is exactly representable in discrete time, so the
empirical autocorrelation has no discretization bias at integer lags).  The
flat-band process is complex white noise through a Kaiser-windowed sinc FIR
with the cutoff at the kernel's band edge, renormalized to unit variance.

Generation is chunked, with one counter-based RNG stream per chunk keyed on
(seed, chunk index); the sample stream is bitwise reproducible and does not
depend on how chunks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter, oaconvolve

from .errors import (ConfigError, DomainError, StatisticalQualityError,
                     finite_nonnegative, finite_positive)
from .kernels import CorrelationKernel, FlatBand, Lorentzian
from .manifest import atomic_write_text, atomic_write_via, dump_json
from .spectrum import (SpectrumResult, theoretical_spectrum, TauGrid, make_window,
                       welch_covariance_spectrum, welch_expected_spectrum, welch_layout)

_CHUNK = 1 << 18
#: Kaiser beta of the flat-band FIR window
FIR_KAISER_BETA = 8.0
#: the fidelity gate compares the ACF at lags 1..GATE_LAGS with the kernel and
#: fails beyond GATE_SIGMAS estimator standard deviations
GATE_LAGS = 20
GATE_SIGMAS = 3.0
#: kernel lags summed into the Bartlett estimate of the ACF noise
ACF_SIGMA_LAGS = 200
#: Welch metrics score the bins within this many dB of the reference peak
BAND_DROP_DB = 40.0


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run."""

    kernel: CorrelationKernel
    omega: float
    dt: float
    n_samples: int
    seed: int
    fir_taps: int = 1025

    def __post_init__(self):
        if not isinstance(self.kernel, (Lorentzian, FlatBand)):
            raise ConfigError("simulation supports Lorentzian and FlatBand kernels")
        finite_nonnegative(self.omega, "omega", ConfigError)
        finite_positive(self.dt, "dt", ConfigError)
        if self.n_samples < 2 ** 16:
            raise ConfigError("need at least 2^16 samples")
        if isinstance(self.kernel, Lorentzian) and self.kernel.a * self.dt >= 0.5:
            raise ConfigError(
                f"a*dt = {self.kernel.a * self.dt} too coarse to resolve the "
                "correlation (need a*dt < 0.5)")
        if isinstance(self.kernel, FlatBand) and self.dt > math.pi / 2:
            raise ConfigError("FlatBand requires dt <= pi/2 (band inside Nyquist)")
        if self.fir_taps < 3 or self.fir_taps % 2 == 0:
            raise ConfigError("fir_taps must be an odd integer >= 3")


def _chunk_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _circular_normal(rng, n: int) -> np.ndarray:
    z = rng.standard_normal(2 * n)
    return (z[0::2] + 1j * z[1::2]) / math.sqrt(2.0)


def _generate_ar1(config: SimulationConfig) -> np.ndarray:
    a = config.kernel.a
    phi = math.exp(-a * config.dt)
    drive = math.sqrt(1.0 - phi * phi)
    out = np.empty(config.n_samples, dtype=complex)
    state = complex(_circular_normal(_chunk_rng(config.seed, 0), 1)[0])  # stationary start
    pos = 0
    stream = 1
    while pos < config.n_samples:
        n = min(_CHUNK, config.n_samples - pos)
        xi = _circular_normal(_chunk_rng(config.seed, stream), n)
        chunk, _ = lfilter([drive], [1.0, -phi], xi, zi=np.array([phi * state]))
        out[pos:pos + n] = chunk
        state = complex(chunk[-1])
        pos += n
        stream += 1
    return out


def design_flat_fir(taps: int, dt: float) -> np.ndarray:
    """Kaiser-windowed sinc lowpass with cutoff at the flat-band edge.

    The band edge sits at absolute frequency 1/(2 pi), i.e. dt/(2 pi) cycles
    per sample.
    """
    nu_c = dt / (2.0 * math.pi)
    n = np.arange(taps) - (taps - 1) / 2.0
    h = 2.0 * nu_c * np.sinc(2.0 * nu_c * n)
    return h * np.kaiser(taps, FIR_KAISER_BETA)


def _generate_flat(config: SimulationConfig) -> np.ndarray:
    h = design_flat_fir(config.fir_taps, config.dt)
    total = config.n_samples + config.fir_taps  # head discarded as warm-up
    noise = np.empty(total, dtype=complex)
    pos = 0
    stream = 1
    while pos < total:
        n = min(_CHUNK, total - pos)
        noise[pos:pos + n] = _circular_normal(_chunk_rng(config.seed, stream), n)
        pos += n
        stream += 1
    w = oaconvolve(noise, h, mode="full")[config.fir_taps:config.fir_taps + config.n_samples]
    return w / math.sqrt(float(np.mean(np.abs(w) ** 2)))


def generate_gaussian(config: SimulationConfig) -> np.ndarray:
    """Zero-mean, unit-variance circular complex sequence with the target kernel."""
    if isinstance(config.kernel, Lorentzian):
        return _generate_ar1(config)
    return _generate_flat(config)


def dump_samples(samples: np.ndarray, path) -> None:
    """Write a raw stream as little-endian interleaved float64 (re, im) pairs.

    A JSON sidecar ``<path>.json`` records the layout so the file is
    self-describing.  Both files are written atomically, creating the
    directory if needed.
    """
    samples = np.ascontiguousarray(samples, dtype=np.complex128)
    inter = np.empty(2 * len(samples), dtype="<f8")
    inter[0::2] = samples.real
    inter[1::2] = samples.imag
    atomic_write_via(path, inter.tofile)
    header = {
        "format": "interleaved-float64-le",
        "layout": ["re", "im"],
        "n_samples": int(len(samples)),
        "byte_order": "little",
    }
    atomic_write_text(str(path) + ".json", dump_json(header))


def load_samples(path) -> np.ndarray:
    """Inverse of :func:`dump_samples`."""
    inter = np.fromfile(path, dtype="<f8")
    return inter[0::2] + 1j * inter[1::2]


@dataclass(frozen=True)
class InversionDiagnostics:
    n_zero_denominators: int


def invert(samples: np.ndarray, omega, r_ww0: float = 1.0):
    """Apply s = 1/(omega*sqrt(R_ww0) + w), taking the mean real without loss.

    The statistics of the result depend on the mean only through its
    magnitude, so the offset is placed on the real axis.  Exact zero
    denominators are left as the IEEE division produces them (infinities) and
    only counted, never dropped.
    """
    w = finite_nonnegative(omega, "omega")
    denom = w * math.sqrt(finite_positive(r_ww0, "process power")) + samples
    n_zero = int(np.count_nonzero(denom == 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 1.0 / denom
    return s, InversionDiagnostics(n_zero_denominators=n_zero)


def empirical_acf(samples: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased (1/n) empirical autocorrelation after mean removal, lags 0..max_lag.

    Convention: acf[m] = (1/n) sum_k x[k+m] conj(x[k]), one dot product per lag.
    """
    x = np.asarray(samples)
    n = len(x)
    if max_lag >= n // 10:
        raise DomainError("max_lag must be below n_samples/10")
    x = x - x.mean()
    return np.array([np.vdot(x[:n - m], x[m:]) for m in range(max_lag + 1)]) / n


def acf_sigma(kernel: CorrelationKernel, dt: float, n_samples: int) -> float:
    """Bartlett-style scale of the ACF estimator noise for a unit-power process."""
    m = np.arange(1, ACF_SIGMA_LAGS + 1)
    r = np.abs(np.asarray(kernel.eval(m * dt), dtype=complex))
    return math.sqrt((1.0 + 2.0 * float(np.sum(r ** 2))) / n_samples)


def generator_fidelity_check(config: SimulationConfig, w: np.ndarray) -> dict:
    """Gate: empirical ACF must match the kernel at the first lags within 3 sigma.

    Raises StatisticalQualityError when any of lags 1..GATE_LAGS deviates by
    more than GATE_SIGMAS estimator standard deviations.
    """
    acf = empirical_acf(w, GATE_LAGS)
    target = np.asarray(config.kernel.eval(np.arange(GATE_LAGS + 1) * config.dt),
                        dtype=complex)
    sigma = acf_sigma(config.kernel, config.dt, config.n_samples)
    dev = np.abs(acf - target) / sigma
    worst = float(dev[1:].max())  # lag 0 is pinned by normalization
    if worst > GATE_SIGMAS:
        raise StatisticalQualityError(
            f"generator ACF deviates {worst:.2f} sigma from the kernel "
            f"(gate {GATE_SIGMAS} sigma)")
    return {"worst_sigma": worst, "sigma": sigma, "n_lags": GATE_LAGS}


@dataclass
class ExperimentResult:
    empirical: SpectrumResult
    theoretical: SpectrumResult
    expected: SpectrumResult
    metrics: dict
    fidelity: dict
    diagnostics: InversionDiagnostics


def _band_metrics(empirical: np.ndarray, reference: np.ndarray) -> dict:
    peak = float(np.max(reference))
    band = reference >= peak * 10.0 ** (-BAND_DROP_DB / 10.0)
    ratio = np.maximum(empirical[band], 1e-300) / np.maximum(reference[band], 1e-300)
    dev = np.abs(10.0 * np.log10(ratio))
    return {
        "band_bins": int(band.sum()),
        "median_db": float(np.median(dev)),
        "p95_db": float(np.percentile(dev, 95)),
        "max_db": float(dev.max()),
    }


def run_experiment(config: SimulationConfig, order: Optional[int] = None,
                   segment_len: int = 4096, overlap_fraction: float = 0.5,
                   window_kind: str = "hann", robust: bool = False,
                   dump_path=None) -> ExperimentResult:
    """Generate, gate, invert, estimate, and compare against the series theory.

    The headline metrics compare the Welch estimate against the Welch
    *expectation* for the sampled process (integer-lag series covariance
    under the window lag-taper plus the realized zero-lag variance); the
    sampled reciprocal has no finite variance, so the zero-lag term is the
    one measured input.  A direct comparison against the midpoint-grid
    theoretical spectrum is also reported (``direct_*``) for reference; it is
    dominated near Nyquist by the sampling floor and lag-parity folding and
    is not the acceptance metric.
    """
    if order is None:
        order = 10 if isinstance(config.kernel, FlatBand) else 20
    make_window(window_kind, segment_len)  # a bad Welch setting fails before any sample
    welch_layout(config.n_samples, segment_len, overlap_fraction)
    w_seq = generate_gaussian(config)
    if dump_path is not None:
        dump_samples(w_seq, dump_path)
    fidelity = generator_fidelity_check(config, w_seq)
    s, diag = invert(w_seq, config.omega)
    empirical = welch_covariance_spectrum(
        s, config.dt, segment_len=segment_len,
        overlap_fraction=overlap_fraction, window_kind=window_kind,
        robust=robust)

    centered = s - s.mean()
    r0 = float(np.mean(np.abs(centered) ** 2))
    expected = welch_expected_spectrum(
        config.kernel, config.omega, order, config.dt, segment_len,
        window_kind, zero_lag_value=r0)

    grid = TauGrid(dtau=config.dt, half_points=segment_len // 2)
    theoretical = theoretical_spectrum(
        config.kernel, config.omega, order, grid,
        freqs=empirical.frequencies)

    metrics = _band_metrics(empirical.psd, expected.psd)
    direct = _band_metrics(empirical.psd, theoretical.psd)
    metrics.update({f"direct_{k}": v for k, v in direct.items()})
    metrics["zero_lag_variance"] = r0
    metrics["n_segments"] = empirical.metadata["n_segments"]
    metrics["order"] = order
    return ExperimentResult(empirical=empirical, theoretical=theoretical,
                            expected=expected, metrics=metrics,
                            fidelity=fidelity, diagnostics=diag)
