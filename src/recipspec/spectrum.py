"""Covariance power spectra: series-to-spectrum transform and Welch estimation.

The theoretical route samples the autocovariance series on a midpoint lag grid
(tau = +/-(k+1/2) dtau, excluding the logarithmically divergent origin),
extends it Hermitianly and applies the literal discrete Fourier sum with the
half-sample phase.  The empirical route is Welch averaging of mean-removed,
windowed segment periodograms.  A third object, the Welch *expectation*,
evaluates what the Welch estimator converges to for the discrete-time process
(integer-lag covariance weighted by the window's lag taper, plus the measured
zero-lag term); it is the apples-to-apples reference for simulations, since
the sampled process has a realization-dependent variance with no finite
expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import build_table
from .errors import (ConsistencyError, DomainError, StatisticalQualityError,
                     finite_nonnegative, finite_positive)
from .kernels import CorrelationKernel, FlatBand
from .series import SeriesEvaluation, asymptotic_floor, partial_sum, tail_bound

_FREQ_CHUNK = 256
#: share of the outermost flat-band lags under the raised-cosine taper
_TAPER_FRACTION = 0.1


@dataclass(frozen=True)
class TauGrid:
    """Midpoint one-sided lag grid tau_k = (k + 1/2) * dtau, k = 0..half_points-1.

    The origin, where the autocovariance diverges, is excluded by half a step.
    """

    dtau: float
    half_points: int

    def __post_init__(self):
        finite_positive(self.dtau, "dtau")
        if self.half_points < 16:
            raise DomainError("need at least 16 lag points")

    def positive_lags(self) -> np.ndarray:
        return (np.arange(self.half_points) + 0.5) * self.dtau

    def default_frequencies(self) -> np.ndarray:
        m = self.half_points
        return (np.arange(2 * m) - m) / (2.0 * m * self.dtau)


@dataclass
class SpectrumResult:
    """A covariance power spectrum on a frequency grid.

    ``dc_line_power`` carries the discrete mean-squared line at f = 0
    separately; it is never mixed into ``psd``.
    """

    frequencies: np.ndarray
    psd: np.ndarray
    dc_line_power: float
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["freq", "psd", "psd_db"])
            for f, p in zip(self.frequencies, self.psd):
                db = 10.0 * math.log10(p) if p > 0 else float("nan")
                w.writerow([repr(float(f)), repr(float(p)), repr(db)])


def _hermitian_transform(lags: np.ndarray, values: np.ndarray,
                         freqs: np.ndarray, dtau: float):
    """Literal DFT of the Hermitian two-sided extension, chunked over frequency.

    Returns (real_psd, worst_imag_residue); the imaginary part must cancel by
    symmetry and is only measured, never silently discarded.
    """
    tau_full = np.concatenate([-lags[::-1], lags])
    c_full = np.concatenate([np.conj(values[::-1]), values])
    out = np.empty(len(freqs))
    worst_imag = 0.0
    for lo in range(0, len(freqs), _FREQ_CHUNK):
        fch = freqs[lo:lo + _FREQ_CHUNK]
        phases = np.exp(-2j * np.pi * fch[:, None] * tau_full[None, :])
        vals = dtau * (phases @ c_full)
        out[lo:lo + _FREQ_CHUNK] = vals.real
        worst_imag = max(worst_imag, float(np.max(np.abs(vals.imag))))
    return out, worst_imag


def _raised_cosine_taper(n: int) -> np.ndarray:
    taper = np.ones(n)
    k0 = int(math.floor((1.0 - _TAPER_FRACTION) * n))
    if k0 < n - 1:
        x = np.arange(k0, n) - k0
        taper[k0:] = 0.5 * (1.0 + np.cos(np.pi * x / (n - 1 - k0)))
    return taper


def theoretical_spectrum(kernel: CorrelationKernel, omega, order: int,
                         grid: TauGrid, freqs: np.ndarray | None = None) -> SpectrumResult:
    """Transform the autocovariance series into a covariance power spectrum.

    The series is evaluated once per lag through a coefficient table.  Lags
    whose tail bound exceeds the flag level are counted in the metadata.
    (Near tau -> 0 the magnitude-majorant tail bound is enormously
    pessimistic, so flags there are expected; the spectra remain accurate
    because the dropped orders are suppressed by n!.)

    For the flat-band kernel the outer 10% of lags get a raised-cosine taper
    before transforming; the sinc covariance decays only like 1/tau and plain
    truncation would ring.  This is a documented leakage-control bias.
    """
    w = finite_nonnegative(omega, "omega")
    lags = grid.positive_lags()
    table = build_table(kernel, lags, order)
    chat = partial_sum(table.centered, table.orders, w)
    tb = tail_bound(np.abs(kernel.eval(lags)), w, order)
    flagged = np.count_nonzero(SeriesEvaluation(chat, tb).flagged)

    tapered = False
    if isinstance(kernel, FlatBand):
        chat = chat * _raised_cosine_taper(len(chat))
        tapered = True

    if freqs is None:
        freqs = grid.default_frequencies()
    freqs = np.asarray(freqs, dtype=float)
    psd, worst_imag = _hermitian_transform(lags, chat, freqs, grid.dtau)
    peak = float(np.max(np.abs(psd))) if psd.size else 0.0
    if peak > 0 and worst_imag > 1e-10 * peak:
        raise ConsistencyError(
            f"Hermitian transform left imaginary residue {worst_imag:.3e} "
            f"(peak {peak:.3e})")

    meta = {
        "method": "series-midpoint-dft",
        "kernel": kernel.describe(),
        "omega": w,
        "order": order,
        "dtau": grid.dtau,
        "half_points": grid.half_points,
        "flagged_lags": flagged,
        "taper": "raised-cosine outer 10%" if tapered else "none",
    }
    return SpectrumResult(frequencies=freqs, psd=psd,
                          dc_line_power=asymptotic_floor(w), metadata=meta)


# ---------------------------------------------------------------------------
# Welch estimation
# ---------------------------------------------------------------------------

def make_window(kind: str, n: int) -> np.ndarray:
    """Periodic analysis windows for segment periodograms of n >= 2 samples.

    ``kind`` is ``hann``, ``boxcar`` or ``kaiser<beta>`` (beta defaults to 8).
    Raises DomainError for any other kind, a beta that is not a finite
    number >= 0, or n < 2.
    """
    if n < 2:
        raise DomainError(f"segment_len must be >= 2, got {n}")
    kind = kind.lower()
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    if kind == "boxcar":
        return np.ones(n)
    if kind.startswith("kaiser"):
        return np.kaiser(n, finite_nonnegative(kind[6:] or 8.0, "kaiser beta"))
    raise DomainError(f"unknown window kind {kind!r}")


def window_lag_taper(win: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation of the analysis window (lag taper rho[m])."""
    rho = np.correlate(win, win, mode="full")[len(win) - 1:]
    return rho / rho[0]


def welch_layout(n_samples: int, segment_len: int, overlap_fraction: float):
    """Step and count of the Welch segments over n_samples, as (step, n_seg).

    Raises DomainError for a segment longer than the record or an overlap
    outside [0, 0.9], and StatisticalQualityError for fewer than 16 segments.
    """
    if segment_len > n_samples:
        raise DomainError("segment_len exceeds the sample count")
    if not 0.0 <= overlap_fraction <= 0.9:
        raise DomainError("overlap_fraction must lie in [0, 0.9]")
    step = max(1, int(round(segment_len * (1.0 - overlap_fraction))))
    n_seg = (n_samples - segment_len) // step + 1
    if n_seg < 16:
        raise StatisticalQualityError(
            f"only {n_seg} segments; need at least 16 for a usable average")
    return step, n_seg


def welch_covariance_spectrum(samples: np.ndarray, dt: float,
                              segment_len: int = 4096,
                              overlap_fraction: float = 0.5,
                              window_kind: str = "hann",
                              robust: bool = False) -> SpectrumResult:
    """Welch estimate of the covariance power spectrum of a complex sequence.

    The global sample mean is removed first (taking out the discrete line at
    the origin), segments are windowed and their periodograms averaged, and
    the result is scaled to power per unit frequency.  ``robust`` switches
    the across-segment average to a median (rescaled by ln 2 for the
    chi-squared bias); the default is the plain mean.
    """
    x = np.asarray(samples)
    win = make_window(window_kind, segment_len)
    step, n_seg = welch_layout(len(x), segment_len, overlap_fraction)
    mean = complex(x.mean())
    x = x - mean
    idx = np.arange(segment_len)
    starts = np.arange(n_seg) * step
    block = 512  # bounded memory; block boundaries do not affect the result
    # the median needs every periodogram; the mean keeps only their running sum
    rows = np.empty((n_seg, segment_len)) if robust else None
    total = np.zeros(segment_len)
    for lo in range(0, n_seg, block):
        sub = x[starts[lo:lo + block, None] + idx[None, :]] * win[None, :]
        power = np.abs(np.fft.fft(sub, axis=1)) ** 2
        if robust:
            rows[lo:lo + block] = power
        else:
            total += power.sum(axis=0)
    avg = np.median(rows, axis=0) / math.log(2.0) if robust else total / n_seg
    psd = np.fft.fftshift(avg) * dt / float(np.sum(win ** 2))
    freqs = np.fft.fftshift(np.fft.fftfreq(segment_len, dt))
    meta = {
        "method": "welch",
        "dt": dt,
        "segment_len": segment_len,
        "overlap_fraction": overlap_fraction,
        "window": window_kind,
        "n_segments": int(n_seg),
        "robust": bool(robust),
        "removed_mean": [mean.real, mean.imag],
    }
    return SpectrumResult(frequencies=freqs, psd=psd,
                          dc_line_power=abs(mean) ** 2, metadata=meta)


def welch_expected_spectrum(kernel: CorrelationKernel, omega, order: int,
                            dt: float, segment_len: int,
                            window_kind: str, zero_lag_value: float) -> SpectrumResult:
    """Expected value of the Welch estimator for the discrete-time process.

    For a stationary sequence the Welch average converges to
    dt * sum_m R[m] rho_win[m] exp(-2 pi i f m dt) over |m| < segment_len.
    All integer-lag covariances come from the series; the zero-lag term has
    no finite theoretical value for this process class (the variance of the
    sampled reciprocal diverges logarithmically), so the caller supplies the
    realized one, which is the single measured number in this object.
    """
    w = finite_nonnegative(omega, "omega")
    win = make_window(window_kind, segment_len)
    lags = np.arange(1, segment_len) * finite_positive(dt, "dt")
    table = build_table(kernel, lags, order)
    chat = partial_sum(table.centered, table.orders, w)

    rho = window_lag_taper(win)
    g = chat * rho[1:segment_len]
    circ = np.zeros(segment_len, dtype=complex)
    circ[0] = zero_lag_value
    circ[1:] = g + np.conj(g[::-1])
    psd = dt * np.fft.fftshift(np.fft.fft(circ)).real
    freqs = np.fft.fftshift(np.fft.fftfreq(segment_len, dt))
    meta = {
        "method": "welch-expectation",
        "kernel": kernel.describe(),
        "omega": w,
        "order": order,
        "dt": dt,
        "segment_len": segment_len,
        "window": window_kind,
        "zero_lag_value": float(zero_lag_value),
    }
    return SpectrumResult(frequencies=freqs, psd=psd,
                          dc_line_power=asymptotic_floor(w), metadata=meta)


def tail_slope(spec: SpectrumResult, f_lo: float, f_hi: float) -> float:
    """Least-squares slope of log10(psd) against log10(f) over [f_lo, f_hi].

    The span must cover at least one decade; only strictly positive
    frequencies and psd values participate.
    """
    if f_lo <= 0 or f_hi <= f_lo:
        raise DomainError("need 0 < f_lo < f_hi")
    if f_hi / f_lo < 10.0 * (1.0 - 1e-12):
        raise DomainError("slope window must span at least one decade")
    m = (spec.frequencies >= f_lo) & (spec.frequencies <= f_hi) & (spec.psd > 0)
    if int(m.sum()) < 8:
        raise DomainError("too few positive-psd bins in the slope window")
    return float(np.polyfit(np.log10(spec.frequencies[m]),
                            np.log10(spec.psd[m]), 1)[0])
