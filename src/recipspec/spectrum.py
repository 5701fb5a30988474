"""Covariance power spectra: series-to-spectrum transform and Welch estimation.

The theoretical route samples the autocovariance series on a midpoint lag grid
(tau = +/-(k+1/2) dtau, excluding the logarithmically divergent origin),
extends it Hermitianly and takes its discrete Fourier sum with the half-sample
phase at the grid's own 2m frequencies (j - m) / (2 m dtau): one FFT and a
phase twist.  The imaginary part, which cancels by Hermitian symmetry, is
measured, and a residue above 1e-10 of the peak (or a NaN) raises
ConsistencyError.  The empirical route is one Welch estimate: the mean of
the periodograms of mean-removed, Hann-windowed segments that overlap by
half.  A third object, the Welch *expectation*, evaluates what that estimator
converges to for the discrete-time process (integer-lag covariance weighted
by the window's lag taper, plus the measured zero-lag term, which a
simulation takes from the realized white floor the estimate reports); it is
the apples-to-apples reference for simulations, since the sampled process has
a realization-dependent variance with no finite expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import build_table
from .errors import (ConsistencyError, DomainError, StatisticalQualityError,
                     even_at_least, finite_nonnegative, finite_positive, integer_at_least)
from .kernels import CorrelationKernel, FlatBand
from .series import SeriesEvaluation, asymptotic_floor, partial_sum, tail_bound

#: share of the outermost flat-band lags under the raised-cosine taper
_TAPER_FRACTION = 0.1
#: share of each Welch segment that overlaps the next
WELCH_OVERLAP = 0.5
#: samples of the segments one Welch block forms at once (32 segments of 4096,
#: or one longer segment): a block's subtract, window, FFT and power steps
#: stay within a 2 MB cache; 2^15..2^18 ran alike, 2^21 1.6-1.9x slower
#: (2^23 samples, one BLAS thread; table in CHANGES.md)
_WELCH_BLOCK_SAMPLES = 1 << 17


@dataclass(frozen=True)
class TauGrid:
    """Midpoint one-sided lag grid tau_k = (k + 1/2) * dtau, k = 0..half_points-1.

    The origin, where the autocovariance diverges, is excluded by half a step.
    """

    dtau: float
    half_points: int

    def __post_init__(self):
        finite_positive(self.dtau, "dtau")
        integer_at_least(self.half_points, "half_points", 16)

    def positive_lags(self) -> np.ndarray:
        return (np.arange(self.half_points) + 0.5) * self.dtau

    def default_frequencies(self) -> np.ndarray:
        """The 2m frequencies (j - m) / (2 m dtau), j = 0..2m-1, of the grid."""
        m = self.half_points
        return (np.arange(2 * m) - m) / (2.0 * m * self.dtau)

    def nearest_bins(self, freqs) -> np.ndarray:
        """Indices into ``default_frequencies`` of the bins nearest ``freqs``.

        Raises DomainError for a frequency whose nearest bin is off the grid.
        """
        m = self.half_points
        j = m + np.rint(np.asarray(freqs, dtype=float) * (2.0 * m * self.dtau))
        if not np.all((j >= 0) & (j < 2 * m)):  # a NaN fails too
            raise DomainError("frequency outside the grid's band")
        return j.astype(int)


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


def _hermitian_transform(lags: np.ndarray, values: np.ndarray, dtau: float):
    """Discrete Fourier sum of the Hermitian two-sided extension of ``values``.

    S(f_j) = dtau * sum_l c_l exp(-2 pi i f_j tau_l) over the 2m lags
    tau_l = (l - m + 1/2) dtau, l = 0..2m-1, with c = conj(values) reversed at
    the negative lags and ``values`` at the positive ones, at the grid's own
    frequencies f_j = (j - m) / (2 m dtau) (``TauGrid.default_frequencies``).
    The phase factors as (-1)^l (-1)^(j+m) exp(-i pi (j - m) / (2m))
    exp(-2 pi i j l / (2m)), so S is one length-2m FFT of (-1)^l c_l times
    that twist.

    Returns (real_psd, worst_imag_residue); the imaginary part must cancel by
    symmetry and is only measured, never silently discarded.
    """
    m = len(lags)
    c_full = np.concatenate([np.conj(values[::-1]), values])
    j = np.arange(2 * m)
    parity = 1 - 2 * (j % 2)  # (-1)^j
    twist = parity * (-1) ** m * np.exp(-1j * np.pi * (j - m) / (2 * m))
    vals = dtau * twist * np.fft.fft(parity * c_full)
    return vals.real.copy(), float(np.max(np.abs(vals.imag), initial=0.0))


def _raised_cosine_taper(n: int) -> np.ndarray:
    taper = np.ones(n)
    k0 = int(math.floor((1.0 - _TAPER_FRACTION) * n))
    if k0 < n - 1:
        x = np.arange(k0, n) - k0
        taper[k0:] = 0.5 * (1.0 + np.cos(np.pi * x / (n - 1 - k0)))
    return taper


def theoretical_spectrum(kernel: CorrelationKernel, omega, order: int,
                         grid: TauGrid) -> SpectrumResult:
    """Transform the autocovariance series into a covariance power spectrum.

    The spectrum is given on the grid's own 2m frequencies
    (``grid.default_frequencies()``), where the transform is one FFT
    (``_hermitian_transform``).

    The series is evaluated once per lag through a coefficient table.  Lags
    whose tail bound exceeds the flag level are counted in the metadata.
    (Near tau -> 0 the magnitude-majorant tail bound is enormously
    pessimistic, so flags there are expected; the spectra remain accurate
    because the dropped orders are suppressed by n!.)

    For the flat-band kernel the outer 10% of lags get a raised-cosine taper
    before transforming; the sinc covariance decays only like 1/tau and plain
    truncation would ring.  This is a documented leakage-control bias.

    Raises DomainError for a non-finite or negative omega or an order that
    is not an even integer >= 0, before any table is built, and
    ConsistencyError when the transform's imaginary residue is above 1e-10
    of the peak or not a number.
    """
    w = finite_nonnegative(omega, "omega")
    # build_table checks max_order too; this check names the CLI's option and
    # fails before the table is built
    even_at_least(order, "order")
    lags = grid.positive_lags()
    table = build_table(kernel, lags, order)
    chat = partial_sum(table.centered, table.orders, w)
    tb = tail_bound(np.abs(kernel.eval(lags)), w, order)
    flagged = np.count_nonzero(SeriesEvaluation(chat, tb).flagged)

    tapered = False
    if isinstance(kernel, FlatBand):
        chat = chat * _raised_cosine_taper(len(chat))
        tapered = True

    psd, worst_imag = _hermitian_transform(lags, chat, grid.dtau)
    peak = float(np.max(np.abs(psd), initial=0.0))
    if not worst_imag <= 1e-10 * peak:  # a NaN fails too
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
    return SpectrumResult(frequencies=grid.default_frequencies(), psd=psd,
                          dc_line_power=asymptotic_floor(w), metadata=meta)


# ---------------------------------------------------------------------------
# Welch estimation
# ---------------------------------------------------------------------------

def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window for segment periodograms of n >= 2 samples.

    Raises DomainError for an n that is not an integer >= 2.
    """
    n = integer_at_least(n, "segment_len", 2)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def window_lag_taper(win: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation of the analysis window (lag taper rho[m])."""
    rho = np.correlate(win, win, mode="full")[len(win) - 1:]
    return rho / rho[0]


def welch_layout(n_samples: int, segment_len: int):
    """Step and count of the Welch segments over n_samples, as (step, n_seg).

    Segments overlap by ``WELCH_OVERLAP``.  Raises DomainError for a length
    that is not an integer >= 2 or a segment longer than the record, and
    StatisticalQualityError for fewer than 16 segments.
    """
    integer_at_least(segment_len, "segment_len", 2)
    if segment_len > integer_at_least(n_samples, "n_samples", 2):
        raise DomainError("segment_len exceeds the sample count")
    step = max(1, int(round(segment_len * (1.0 - WELCH_OVERLAP))))
    n_seg = (n_samples - segment_len) // step + 1
    if n_seg < 16:
        raise StatisticalQualityError(
            f"only {n_seg} segments; need at least 16 for a usable average")
    return step, n_seg


def welch_covariance_spectrum(samples: np.ndarray, dt: float,
                              segment_len: int = 4096) -> SpectrumResult:
    """Welch estimate of the covariance power spectrum of a complex sequence.

    The global sample mean is removed (taking out the discrete line at the
    origin), Hann-windowed segments overlapping by ``WELCH_OVERLAP`` are
    transformed and the mean of their periodograms is scaled to power per
    unit frequency.  The segments are a strided view of ``samples``; they are
    copied only as each block of at most ``_WELCH_BLOCK_SAMPLES`` samples (one
    segment, when a segment is longer) has the mean subtracted, so no
    full-length copy is made and a block's temporaries do not grow with the
    record or with ``segment_len``.

    ``metadata["white_floor"]`` is the realized white floor
    sum |windowed segment|^2 / (n_seg sum w^2): the frequency-independent
    diagonal part of the averaged periodograms, a window-weighted variance.
    It is taken from the periodograms by Parseval's identity, so it equals
    the mean of ``psd`` divided by dt.
    """
    x = np.asarray(samples, dtype=complex)
    win = hann_window(segment_len)
    step, n_seg = welch_layout(len(x), segment_len)
    mean = complex(x.mean())
    segments = sliding_window_view(x, segment_len)[::step]  # a view: nothing is copied
    block = max(1, _WELCH_BLOCK_SAMPLES // segment_len)  # segments per block
    squares = np.zeros(2 * segment_len)  # each bin's re^2 and im^2, summed over segments
    for lo in range(0, n_seg, block):
        sub = segments[lo:lo + block] - mean
        sub *= win
        spectra = np.fft.fft(sub, axis=1).view(float)  # (re, im) pairs
        spectra *= spectra
        squares += spectra.sum(axis=0)
    power = squares[0::2] + squares[1::2]
    win_power = float(np.sum(win ** 2))
    psd = np.fft.fftshift(power / n_seg) * dt / win_power
    freqs = np.fft.fftshift(np.fft.fftfreq(segment_len, dt))
    meta = {
        "method": "welch",
        "dt": dt,
        "segment_len": segment_len,
        "n_segments": int(n_seg),
        "removed_mean": [mean.real, mean.imag],
        # Parseval: the windowed segments' summed squares are power.sum() / segment_len
        "white_floor": float(power.sum()) / (segment_len * n_seg * win_power),
    }
    return SpectrumResult(frequencies=freqs, psd=psd,
                          dc_line_power=abs(mean) ** 2, metadata=meta)


def welch_expected_spectrum(kernel: CorrelationKernel, omega, order: int,
                            dt: float, segment_len: int,
                            zero_lag_value: float) -> SpectrumResult:
    """Expected value of the Welch estimator for the discrete-time process.

    For a stationary sequence the Welch average converges to
    dt * sum_m R[m] rho_win[m] exp(-2 pi i f m dt) over |m| < segment_len.
    All integer-lag covariances come from the series; the zero-lag term has
    no finite theoretical value for this process class (the variance of the
    sampled reciprocal diverges logarithmically), so the caller supplies a
    realized one (for a simulation, the estimate's own ``white_floor``),
    which is the single measured number in this object; it must be a finite
    number >= 0 (DomainError, before any table is built).
    """
    w = finite_nonnegative(omega, "omega")
    r0 = finite_nonnegative(zero_lag_value, "zero_lag_value")
    win = hann_window(segment_len)
    lags = np.arange(1, segment_len) * finite_positive(dt, "dt")
    table = build_table(kernel, lags, order)
    chat = partial_sum(table.centered, table.orders, w)

    rho = window_lag_taper(win)
    g = chat * rho[1:segment_len]
    circ = np.zeros(segment_len, dtype=complex)
    circ[0] = r0
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
        "zero_lag_value": r0,
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
