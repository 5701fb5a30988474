"""Discrete-time process generation, inversion, and end-to-end validation runs.

The exponential-kernel process is generated by the exact first-order
recursion (the kernel is exactly representable in discrete time, so the
empirical autocorrelation has no discretization bias at integer lags), run
as a blocked numpy scan.  The flat-band process is complex white noise
through a Kaiser-windowed sinc FIR with the cutoff at the kernel's band
edge, renormalized to unit variance; the FIR is applied one noise chunk at a
time by FFT overlap-add into one output buffer.

Generation is chunked, with one counter-based RNG stream per chunk keyed on
(seed, chunk index), and both generators split their work one way.  Pool
threads (``spectrum.in_order``, one per CPU the process may use, at most
``POOL_MAX_WORKERS``) draw each chunk's noise and filter it from a zero
state: the AR(1) recursion as a scan, the flat band's FFT pair in place.
The calling thread adds the carries between chunks (the AR(1) start state's
decay, the FIR's overlap) and every sum, in chunk order; the Welch blocks
split the same way.  So the samples and spectra are bitwise the same on one
core as on several.  The ACF gate and ``invert`` stay on the calling thread:
each takes about 0.1 s at 2^23 samples, and ``invert``'s ``np.errstate``
would not reach a worker thread.

Memory: every full-length stage works in place or in cache-sized blocks, so
a run holds one sample-length array and no stage makes a full-length copy:
the AR(1) noise is drawn into the output and scanned there, the flat-band
noise into a ring of ``workers + 1`` zero-padded chunk buffers that the
worker which drew each chunk transforms in place, ``invert`` overwrites the
samples with their reciprocal, the ACF gate centers one block at a time and
Welch forms its segments as a strided view, copying one block of them at a
time.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConfigError, DomainError, StatisticalQualityError,
                     even_at_least, finite_nonnegative, finite_positive, integer_at_least)
from .kernels import CorrelationKernel, FlatBand, Lorentzian
from .manifest import atomic_write_text, atomic_write_via, dump_json
from .spectrum import (SpectrumResult, theoretical_spectrum, TauGrid, hann_window, in_order,
                       pool_workers, welch_covariance_spectrum, welch_expected_spectrum,
                       welch_layout)

_CHUNK = 1 << 18
#: samples per row of the AR(1) scan; _CHUNK is a multiple of it
_SCAN_ROW = 64
#: values of k whose lag products the ACF gate adds per block: one centered
#: block (1 MB) stays in cache across all lags; 2^15 and 2^16 ran fastest,
#: 2^18 and above 1.5x slower (2^23 samples, one BLAS thread; table in CHANGES.md)
_ACF_BLOCK_SAMPLES = 1 << 16
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
    fir_taps: int = 16385

    def __post_init__(self):
        if not isinstance(self.kernel, (Lorentzian, FlatBand)):
            raise ConfigError("simulation supports Lorentzian and FlatBand kernels")
        finite_nonnegative(self.omega, "omega", ConfigError)
        finite_positive(self.dt, "dt", ConfigError)
        integer_at_least(self.n_samples, "n_samples", 2 ** 16, ConfigError)
        # the rule also keeps the AR(1) scan's largest row factor,
        # phi^-(_SCAN_ROW - 1) = exp(63 a dt), below e^31.5
        if isinstance(self.kernel, Lorentzian) and self.kernel.a * self.dt >= 0.5:
            raise ConfigError(
                f"a*dt = {self.kernel.a * self.dt} too coarse to resolve the "
                "correlation (need a*dt < 0.5)")
        if isinstance(self.kernel, FlatBand) and self.dt > math.pi / 2:
            raise ConfigError("FlatBand requires dt <= pi/2 (band inside Nyquist)")
        if integer_at_least(self.fir_taps, "fir_taps", 3, ConfigError) % 2 == 0:
            raise ConfigError(f"fir_taps must be odd, got {self.fir_taps!r}")
        # the seed is the first word of the 128-bit Philox key
        if integer_at_least(self.seed, "seed", 0, ConfigError) >= 2 ** 64:
            raise ConfigError(f"seed must be below 2^64, got {self.seed!r}")


def _chunk_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _circular_normal(rng, z: np.ndarray) -> np.ndarray:
    """Fill the complex array ``z`` with circular unit-variance normals; return it."""
    rng.standard_normal(out=z.view(float))  # consecutive (re, im) pairs
    z /= math.sqrt(2.0)
    return z


def _ar1_scan(u: np.ndarray, phi: float) -> np.ndarray:
    """Run y[n] = phi y[n-1] + u[n] from y[-1] = 0 in place on the complex
    array ``u``, whose length is a multiple of ``_SCAN_ROW``; return it.

    A first-order linear recurrence is a scan (Blelloch, "Prefix Sums and
    Their Applications", 1990).  In each row of ``_SCAN_ROW`` samples,
    y[k] = phi^k sum_{j<=k} phi^-j u[j]: the row is scaled by phi^-k and
    summed in place.  Before it is scaled back by phi^k, each row gets the
    previous row's last output times phi, which carries the rows' joint
    state.  Those end values come from a doubling pass over the rows,
    e[s:] += phi^(ROW s) e[:-s] for s = 1, 2, 4, ..., which stops once the
    multiplier is below 2^-60, far below a double's rounding.  Every
    temporary holds one value per row.
    """
    k = np.arange(_SCAN_ROW)
    rows = u.reshape(-1, _SCAN_ROW)
    pairs = rows.view(float)  # (re, im) pairs: a real factor scales both
    pairs *= np.repeat(phi ** -k, 2)
    np.cumsum(rows, axis=1, out=rows)
    ends = rows[:, -1] * phi ** (_SCAN_ROW - 1)  # each row's last output from a zero start
    step = 1
    while step < len(ends) and phi ** (_SCAN_ROW * step) >= 2.0 ** -60:
        ends[step:] += phi ** (_SCAN_ROW * step) * ends[:-step]
        step *= 2
    rows[1:] += phi * ends[:-1, None]
    pairs *= np.repeat(phi ** k, 2)
    return u


def _generate_ar1(config: SimulationConfig) -> np.ndarray:
    """The AR(1) process, drawn and scanned in place in the output.

    Workers draw each chunk's noise into its slice of the output, zero-pad it
    to whole scan rows, scale it by ``drive`` and scan it from a zero state.
    The calling thread adds the previous chunk's last sample times
    phi^(1..) in chunk order, which is the rest of the exact recursion.
    """
    a = config.kernel.a
    phi = math.exp(-a * config.dt)
    drive = math.sqrt(1.0 - phi * phi)
    n = config.n_samples
    # padded to whole scan rows: padding at the end of a causal scan changes
    # no earlier output
    out = np.empty(-(-n // _SCAN_ROW) * _SCAN_ROW, dtype=complex)
    start = _circular_normal(_chunk_rng(config.seed, 0), np.empty(1, dtype=complex))
    state = complex(start[0])  # stationary start
    # the previous chunk's last sample weighs phi^(k+1) on sample k; the
    # powers that underflow to zero would add nothing, so they are dropped
    decay = phi ** np.arange(1.0, _CHUNK + 1)
    decay = decay[decay > 0.0]
    carry = np.empty(len(decay), dtype=complex)

    def noise_scan(i, _):  # on a worker: chunk i's recursion from a zero state, in place
        xi = out[i * _CHUNK:(i + 1) * _CHUNK]
        m = min(_CHUNK, n - i * _CHUNK)
        _circular_normal(_chunk_rng(config.seed, i + 1), xi[:m])
        xi[m:] = 0.0
        xi *= drive
        return _ar1_scan(xi, phi)[:m]

    def add_state(i, xi):  # on the calling thread, in chunk order
        nonlocal state
        head = min(len(xi), len(decay))
        xi[:head] += np.multiply(decay[:head], state, out=carry[:head])
        state = complex(xi[-1])

    in_order(-(-n // _CHUNK), noise_scan, add_state)
    return out[:n]


def design_flat_fir(taps: int, dt: float) -> np.ndarray:
    """Kaiser-windowed sinc lowpass with cutoff at the flat-band edge.

    The band edge sits at absolute frequency 1/(2 pi), i.e. dt/(2 pi) cycles
    per sample.
    """
    nu_c = dt / (2.0 * math.pi)
    n = np.arange(taps) - (taps - 1) / 2.0
    h = 2.0 * nu_c * np.sinc(2.0 * nu_c * n)
    return h * np.kaiser(taps, FIR_KAISER_BETA)


def _fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n, the FFT length scipy's
    ``next_fast_len`` picks for complex data; the flat band's bytes depend
    on it."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _real_fft(h: np.ndarray, nfft: int) -> np.ndarray:
    """The length-``nfft`` FFT of the real array ``h``, as its real-input half
    and that half's conjugate mirror; ``np.fft.fft(h, nfft)`` rounds
    differently, in the last bits."""
    half = np.fft.rfft(h, nfft)
    spectrum = np.empty(nfft, dtype=complex)
    spectrum[:len(half)] = half
    np.conj(half[(nfft + 1) // 2 - 1:0:-1], out=spectrum[len(half):])
    return spectrum


def _generate_flat(config: SimulationConfig) -> np.ndarray:
    """White noise through the flat-band FIR, one FFT pair per noise chunk
    in its ring buffer, overlap-added in chunk order."""
    taps = config.fir_taps
    total = config.n_samples + taps  # head discarded as warm-up
    # the convolution's output past ``total`` is never kept, so it is not formed
    nfft = _fast_len(_CHUNK + taps - 1)
    h_hat = _real_fft(design_flat_fir(taps, config.dt), nfft)
    out = np.zeros(total, dtype=complex)

    def noise_filter(i, buf):  # on a worker: chunk i's noise through the FIR, in place
        n = min(_CHUNK, total - i * _CHUNK)
        buf[n:] = 0.0
        _circular_normal(_chunk_rng(config.seed, i + 1), buf[:n])
        np.fft.fft(buf, out=buf)
        buf *= h_hat
        return np.fft.ifft(buf, out=buf)

    def overlap_add(i, y):  # on the calling thread, in chunk order
        pos = i * _CHUNK
        end = min(pos + _CHUNK + taps - 1, total)
        out[pos:end] += y[:end - pos]

    in_order(-(-total // _CHUNK), noise_filter, overlap_add,
             lambda: np.empty(nfft, dtype=complex))
    w = out[taps:]
    w /= math.sqrt(float(np.vdot(w, w).real) / len(w))
    return w


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
    samples = np.ascontiguousarray(samples, dtype="<c16")  # a complex is its (re, im) pair
    atomic_write_via(path, samples.tofile)
    header = {
        "format": "interleaved-float64-le",
        "layout": ["re", "im"],
        "n_samples": int(len(samples)),
        "byte_order": "little",
    }
    atomic_write_text(str(path) + ".json", dump_json(header))


def load_samples(path) -> np.ndarray:
    """Inverse of :func:`dump_samples`."""
    return np.fromfile(path, dtype="<c16")


def invert(samples: np.ndarray, omega):
    """Apply s = 1/(omega + w) in place to unit-power samples w; return (s, n_zero).

    The statistics of the result depend on the mean only through its
    magnitude, so the offset is placed on the real axis.  ``samples`` (a
    complex array) is overwritten with the reciprocal, which is returned as
    ``s``.  Exact zero denominators are left as the IEEE division produces
    them (infinities) and only counted, as ``n_zero``, never dropped.
    """
    w = finite_nonnegative(omega, "omega")
    samples += w
    n_zero = int(np.count_nonzero(samples == 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.divide(1.0, samples, out=samples)
    return s, n_zero


def empirical_acf(samples: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased (1/n) empirical autocorrelation after mean removal, lags 0..max_lag.

    Convention: acf[m] = (1/n) sum_k x[k+m] conj(x[k]).  The mean is taken
    once; then each block of ``_ACF_BLOCK_SAMPLES`` values of k is centered
    with the ``max_lag`` samples after it into one small temporary, and every
    lag's products over the block are added, so no full-length centered copy
    is made.
    """
    x = np.asarray(samples)
    n = len(x)
    if integer_at_least(max_lag, "max_lag", 0) >= n // 10:
        raise DomainError("max_lag must be below n_samples/10")
    mean = x.mean()
    acf = np.zeros(max_lag + 1, dtype=np.result_type(x.dtype, float))
    for lo in range(0, n, _ACF_BLOCK_SAMPLES):
        c = x[lo:lo + _ACF_BLOCK_SAMPLES + max_lag] - mean
        for m in range(min(max_lag + 1, len(c))):
            k = min(_ACF_BLOCK_SAMPLES, len(c) - m)  # pairs whose k + m is below n
            acf[m] += np.vdot(c[:k], c[m:m + k])
    return acf / n


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
    n_zero_denominators: int
    #: wall seconds of each stage: generate, gate, invert, welch,
    #: welch_expected and theory
    stage_s: dict
    #: threads of the pool that generate and welch ran on (``pool_workers``)
    workers: int


@contextmanager
def _timed(stage_s: dict, stage: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stage_s[stage] = time.perf_counter() - t0


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
                   segment_len: int = 4096, dump_path=None) -> ExperimentResult:
    """Generate, gate, invert, estimate, and compare against the series theory.

    The headline metrics compare the Welch estimate against the Welch
    *expectation* for the sampled process (integer-lag series covariance
    under the window lag-taper plus the realized Welch white floor); the
    sampled reciprocal has no finite variance, so the zero-lag term is the
    one measured input.  It is the floor the estimate itself contains,
    sum |windowed segment|^2 / (n_seg sum w^2), which weights each sample
    by its window weights; the plain variance, which weights every sample
    alike, is still reported as ``zero_lag_variance``.  A direct comparison
    against the midpoint-grid theoretical spectrum is also reported
    (``direct_*``) for reference; it is dominated near Nyquist by the
    sampling floor and lag-parity folding and is not the acceptance metric;
    it sits on the midpoint grid of segment_len / 2 lags, whose bins pair
    with the Welch bins by index.

    A segment_len that ``hann_window`` or ``welch_layout`` rejects, one that
    is odd or below 32, or an order that is not an even integer >= 0
    (DomainError), fails before any sample is drawn.
    """
    if order is None:
        order = 10 if isinstance(config.kernel, FlatBand) else 20
    # a bad order or segment length fails before any sample is drawn
    even_at_least(order, "order")
    hann_window(segment_len)
    welch_layout(config.n_samples, segment_len)
    if segment_len % 2:
        raise DomainError(f"segment_len must be even for the midpoint lag grid, "
                          f"got {segment_len}")
    grid = TauGrid(dtau=config.dt, half_points=segment_len // 2)
    stage_s = {}
    with _timed(stage_s, "generate"):
        w_seq = generate_gaussian(config)
    if dump_path is not None:
        dump_samples(w_seq, dump_path)
    with _timed(stage_s, "gate"):
        fidelity = generator_fidelity_check(config, w_seq)
    with _timed(stage_s, "invert"):
        s, n_zero = invert(w_seq, config.omega)
    with _timed(stage_s, "welch"):
        empirical = welch_covariance_spectrum(s, config.dt, segment_len=segment_len)
        # mean |s - mean|^2, without a centered copy of s
        r0 = float(np.vdot(s, s).real) / len(s) - empirical.dc_line_power
    with _timed(stage_s, "welch_expected"):
        expected = welch_expected_spectrum(
            config.kernel, config.omega, order, config.dt, segment_len,
            zero_lag_value=empirical.metadata["white_floor"])
    with _timed(stage_s, "theory"):
        theoretical = theoretical_spectrum(config.kernel, config.omega, order, grid)

    metrics = _band_metrics(empirical.psd, expected.psd)
    direct = _band_metrics(empirical.psd, theoretical.psd)
    metrics.update({f"direct_{k}": v for k, v in direct.items()})
    metrics["zero_lag_variance"] = r0
    metrics["n_segments"] = empirical.metadata["n_segments"]
    metrics["order"] = order
    return ExperimentResult(empirical=empirical, theoretical=theoretical,
                            expected=expected, metrics=metrics,
                            fidelity=fidelity, n_zero_denominators=n_zero,
                            stage_s=stage_s, workers=pool_workers())
