"""Spectrum layer: transform correctness, Welch scaling, slope fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recipspec import spectrum
from recipspec.coefficients import build_table
from recipspec.errors import ConsistencyError, DomainError, StatisticalQualityError
from recipspec.kernels import DopplerLorentzian, FlatBand, Lorentzian
from recipspec.series import asymptotic_floor, partial_sum
from recipspec.spectrum import (SpectrumResult, TauGrid, _hermitian_transform,
                                hann_window, tail_slope,
                                theoretical_spectrum, welch_covariance_spectrum,
                                welch_expected_spectrum, window_lag_taper)


class TestTauGrid:
    def test_invariants(self):
        with pytest.raises(DomainError):
            TauGrid(dtau=0.0, half_points=64)
        with pytest.raises(DomainError):
            TauGrid(dtau=0.1, half_points=8)

    def test_midpoint_lags_exclude_origin(self):
        g = TauGrid(dtau=0.1, half_points=32)
        lags = g.positive_lags()
        assert lags[0] == pytest.approx(0.05)
        assert np.all(lags > 0)

    def test_default_frequencies_cover_two_sided_band(self):
        g = TauGrid(dtau=0.1, half_points=32)
        f = g.default_frequencies()
        assert len(f) == 64
        assert f[0] == pytest.approx(-5.0)
        assert f[-1] < 5.0

    def test_nearest_bins_invert_the_frequencies(self):
        g = TauGrid(dtau=0.1, half_points=32)
        f = g.default_frequencies()
        np.testing.assert_array_equal(g.nearest_bins(f), np.arange(64))
        np.testing.assert_array_equal(g.nearest_bins(f[:-1] + 0.49 * (f[1] - f[0])),
                                      np.arange(63))
        for off_band in (-5.1, 5.0):
            with pytest.raises(DomainError):
                g.nearest_bins([0.0, off_band])


class TestTheoreticalSpectrum:
    def test_omega_zero_symmetric_peak_at_origin(self):
        grid = TauGrid(dtau=0.1, half_points=128)
        spec = theoretical_spectrum(Lorentzian(1.0), 0.0, 0, grid)
        assert spec.dc_line_power == 0.0
        mid = len(spec.psd) // 2
        assert spec.frequencies[mid] == pytest.approx(0.0)
        assert np.argmax(spec.psd) == mid
        np.testing.assert_allclose(spec.psd[mid + 1:], spec.psd[1:mid][::-1],
                                   rtol=1e-9)

    def test_dc_line_reported_separately(self):
        grid = TauGrid(dtau=0.1, half_points=64)
        spec = theoretical_spectrum(Lorentzian(1.0), 1.2, 8, grid)
        assert spec.dc_line_power == pytest.approx(asymptotic_floor(1.2), rel=1e-15)

    def test_matches_direct_transform_oracle(self):
        # independent oracle: plain loop over lags and frequencies
        from recipspec.series import autocovariance
        grid = TauGrid(dtau=0.2, half_points=24)
        order, w = 6, 0.8
        spec = theoretical_spectrum(Lorentzian(1.0), w, order, grid)
        lags = grid.positive_lags()
        cov = np.array([autocovariance(math.exp(-t), w, order).value for t in lags])
        for j in (0, 5, 17, 31):
            f = spec.frequencies[j]
            acc = 0.0
            for tau, c in zip(lags, cov):
                acc += 2.0 * (c * np.exp(-2j * np.pi * f * tau)).real
            assert spec.psd[j] == pytest.approx(grid.dtau * acc, abs=1e-12)

    def test_complex_kernel_real_asymmetric_psd(self):
        grid = TauGrid(dtau=0.1, half_points=128)
        spec = theoretical_spectrum(DopplerLorentzian(a=1.0, beta=2.0), 0.0, 0, grid)
        assert np.isrealobj(spec.psd)
        mid = len(spec.psd) // 2
        asym = np.max(np.abs(spec.psd[mid + 1:] - spec.psd[1:mid][::-1]))
        assert asym > 0.01 * spec.psd.max()
        # the reciprocal counter-rotates relative to the underlying process
        # (the covariance is built on conj(r)), so the peak sits at +beta/2pi
        assert abs(spec.frequencies[int(np.argmax(spec.psd))]
                   - 2.0 / (2 * math.pi)) < 0.2

    @given(a=st.floats(0.2, 5.0), beta=st.floats(-10.0, 10.0),
           omega=st.floats(0.0, 1.2), order=st.sampled_from([0, 2, 4, 6, 8]))
    @settings(max_examples=25, deadline=None)
    def test_complex_kernel_psd_real_with_small_hermitian_residue(self, a, beta, omega, order):
        kernel = DopplerLorentzian(a=a, beta=beta)
        grid = TauGrid(dtau=0.2, half_points=16)
        spec = theoretical_spectrum(kernel, omega, order, grid)
        assert spec.psd.dtype == np.float64 and np.all(np.isfinite(spec.psd))
        lags = grid.positive_lags()
        table = build_table(kernel, lags, order)
        chat = partial_sum(table.centered, table.orders, omega)
        psd, worst_imag = _hermitian_transform(lags, chat, grid.dtau)
        assert np.array_equal(psd, spec.psd)
        assert worst_imag <= 1e-10 * np.max(np.abs(psd))

    def test_residue_check_fails_closed(self, monkeypatch):
        def nan_transform(lags, values, dtau):
            return np.full(2 * len(values), np.nan), math.nan
        monkeypatch.setattr(spectrum, "_hermitian_transform", nan_transform)
        with pytest.raises(ConsistencyError):
            theoretical_spectrum(Lorentzian(1.0), 0.5, 4, TauGrid(dtau=0.2, half_points=16))

    def test_flagged_lags_counted(self):
        grid = TauGrid(dtau=0.05, half_points=64)
        spec = theoretical_spectrum(Lorentzian(1.0), 1.2, 8, grid)
        assert spec.metadata["flagged_lags"] > 0

    def test_flatband_taper_recorded(self):
        grid = TauGrid(dtau=0.5, half_points=64)
        spec = theoretical_spectrum(FlatBand(), 0.5, 4, grid)
        assert "raised-cosine" in spec.metadata["taper"]
        assert np.min(spec.psd) > -1e-3 * np.max(spec.psd)

    def test_variance_grows_logarithmically_with_lag_refinement(self):
        # integrated psd tracks the covariance near the smallest kept lag,
        # which diverges like ln(1/dtau): successive halvings of dtau add
        # nearly equal increments (ratio within 30% of 1)
        def integrated(dtau):
            grid = TauGrid(dtau=dtau, half_points=int(round(25.6 / dtau)))
            spec = theoretical_spectrum(Lorentzian(1.0), 0.0, 0, grid)
            df = spec.frequencies[1] - spec.frequencies[0]
            return float(np.sum(spec.psd) * df)

        i1, i2, i3 = integrated(0.2), integrated(0.1), integrated(0.05)
        ratio = (i3 - i2) / (i2 - i1)
        assert i1 < i2 < i3
        assert 0.7 < ratio < 1.3


class TestTransformRoutes:
    @given(m=st.integers(16, 300), dtau=st.floats(0.01, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fft_route_matches_literal_sum(self, m, dtau, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        grid = TauGrid(dtau=dtau, half_points=m)
        lags, freqs = grid.positive_lags(), grid.default_frequencies()
        fast, _ = _hermitian_transform(lags, values, dtau)
        tau = np.concatenate([-lags[::-1], lags])
        c = np.concatenate([np.conj(values[::-1]), values])
        slow = np.array([dtau * np.sum(c * np.exp(-2j * np.pi * f * tau)) for f in freqs])
        # the literal sum's own phase error grows with m
        bound = dtau * 2.0 * np.sum(np.abs(values)) * 1e-13 * m
        assert np.max(np.abs(fast - slow.real)) <= bound


class TestWelch:
    def test_constant_input_nearly_zero(self):
        x = np.full(1 << 16, 2.0 + 1.0j)
        spec = welch_covariance_spectrum(x, dt=0.5, segment_len=1024)
        assert np.max(np.abs(spec.psd)) < 1e-20
        assert spec.dc_line_power == pytest.approx(5.0)

    def test_white_noise_level(self):
        rng = np.random.default_rng(31)
        n = 1 << 20
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        dt = 0.25
        spec = welch_covariance_spectrum(x, dt=dt, segment_len=1024)
        level = float(np.mean(spec.psd))
        nseg = spec.metadata["n_segments"]
        assert level == pytest.approx(dt * 1.0, rel=5.0 / math.sqrt(nseg * 1024))
        assert np.max(np.abs(spec.psd / level - 1.0)) < 0.3

    def test_ar1_matches_discrete_spectrum(self):
        from scipy.signal import lfilter
        rng = np.random.default_rng(77)
        n = 1 << 21
        dt = 0.1
        phi = math.exp(-dt)
        xi = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        w = lfilter([math.sqrt(1 - phi ** 2)], [1.0, -phi], xi)
        spec = welch_covariance_spectrum(w, dt=dt)
        truth = dt * (1 - phi ** 2) / np.abs(
            1 - phi * np.exp(-2j * np.pi * spec.frequencies * dt)) ** 2
        dev_db = 10 * np.log10(spec.psd / truth)
        assert np.median(np.abs(dev_db)) < 0.25

    def test_white_floor_is_the_window_weighted_variance(self):
        rng = np.random.default_rng(12)
        n, seglen, dt = 1 << 16, 1024, 0.3
        w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        x = 1.0 / (0.5 + w)  # heavy-tailed, as simulate's reciprocal is
        spec = welch_covariance_spectrum(x, dt=dt, segment_len=seglen)
        floor = spec.metadata["white_floor"]
        # Parseval: the periodograms' mean over frequency is their diagonal part
        assert np.mean(spec.psd) == pytest.approx(dt * floor, rel=1e-12)
        # sum_k W_k |x_k - mean|^2, W_k the segments' squared window weights at k
        win = hann_window(seglen)
        n_seg = spec.metadata["n_segments"]
        weight = np.zeros(n)
        for start in range(0, n_seg * seglen // 2, seglen // 2):
            weight[start:start + seglen] += win ** 2
        weight /= n_seg * np.sum(win ** 2)
        direct = float(np.sum(weight * np.abs(x - x.mean()) ** 2))
        assert floor == pytest.approx(direct, rel=1e-12)

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16))
        a = welch_covariance_spectrum(x, dt=1.0, segment_len=1024)
        b = welch_covariance_spectrum(x * np.exp(1j * 0.9), dt=1.0, segment_len=1024)
        np.testing.assert_allclose(a.psd, b.psd, rtol=1e-12)

    @pytest.mark.parametrize("segment_len", [128, 256, 512], ids=["below", "equal", "above"])
    def test_blocks_match_literal_segment_loop(self, monkeypatch, segment_len):
        # 256-sample blocks: two segments per block, one, and one longer segment
        monkeypatch.setattr(spectrum, "_WELCH_BLOCK_SAMPLES", 256)
        rng = np.random.default_rng(segment_len)
        n, dt = 40 * segment_len + 37, 0.2
        x = 1.0 / (0.5 + rng.standard_normal(n) + 1j * rng.standard_normal(n))
        spec = welch_covariance_spectrum(x, dt=dt, segment_len=segment_len)
        win = hann_window(segment_len)
        step = segment_len // 2
        total, power, n_seg = np.zeros(segment_len), 0.0, 0
        for start in range(0, n - segment_len + 1, step):
            seg = (x[start:start + segment_len] - x.mean()) * win
            total += np.abs(np.fft.fft(seg)) ** 2
            power += float(np.sum(np.abs(seg) ** 2))
            n_seg += 1
        assert spec.metadata["n_segments"] == n_seg
        win_power = float(np.sum(win ** 2))
        direct = np.fft.fftshift(total / n_seg) * dt / win_power
        np.testing.assert_allclose(spec.psd, direct, rtol=1e-12)
        assert spec.metadata["white_floor"] == pytest.approx(power / (n_seg * win_power),
                                                             rel=1e-12)

    def test_block_memory_does_not_grow_with_segment_len(self):
        # segments are a strided view, copied one block of at most 2^17
        # samples at a time: 0.12 sample arrays here (1.52 with the segments
        # gathered 2^21 samples at a time)
        import tracemalloc
        n = 1 << 22
        x = np.random.default_rng(3).standard_normal(2 * n).view(complex)
        tracemalloc.start()
        try:
            welch_covariance_spectrum(x, dt=0.1, segment_len=1 << 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * x.nbytes

    def test_quality_gates(self):
        x = np.zeros(1 << 12, dtype=complex)
        with pytest.raises(StatisticalQualityError):
            welch_covariance_spectrum(x, dt=1.0, segment_len=2048)
        with pytest.raises(DomainError):
            welch_covariance_spectrum(x, dt=1.0, segment_len=1 << 13)


class TestWelchExpectation:
    def test_matches_direct_lag_sum(self):
        # independent oracle: literal lag sum at a handful of bins
        from recipspec.series import autocovariance
        kernel, w, order, dt, seglen = Lorentzian(1.0), 0.8, 6, 0.2, 64
        spec = welch_expected_spectrum(kernel, w, order, dt, seglen, zero_lag_value=3.0)
        win = hann_window(seglen)
        rho = window_lag_taper(win)
        for j in (0, 13, 40, 63):
            f = spec.frequencies[j]
            acc = 3.0
            for m in range(1, seglen):
                c = autocovariance(math.exp(-m * dt), w, order).value * rho[m]
                acc += 2.0 * (c * np.exp(-2j * np.pi * f * m * dt)).real
            assert spec.psd[j] == pytest.approx(dt * acc, rel=1e-9)


class TestTailSlope:
    def _make(self, alpha):
        f = np.geomspace(0.5, 100, 400)
        return SpectrumResult(frequencies=f, psd=f ** alpha, dc_line_power=0.0)

    def test_exact_power_laws(self):
        assert tail_slope(self._make(-1.0), 1.0, 50.0) == pytest.approx(-1.0, abs=1e-12)
        assert tail_slope(self._make(-2.0), 1.0, 50.0) == pytest.approx(-2.0, abs=1e-12)

    def test_requires_a_decade(self):
        with pytest.raises(DomainError):
            tail_slope(self._make(-1.0), 2.0, 15.0)

    def test_theoretical_tail_is_one_over_f(self):
        grid = TauGrid(dtau=0.005, half_points=8192)
        spec = theoretical_spectrum(Lorentzian(1.0), 0.0, 0, grid)
        near = grid.nearest_bins(np.geomspace(1.6, 16.0, 120))
        tail = SpectrumResult(spec.frequencies[near], spec.psd[near], spec.dc_line_power)
        slope = tail_slope(tail, 1.6, 16.0)
        assert slope == pytest.approx(-1.0, abs=0.1)


def test_spectrum_csv(tmp_path):
    grid = TauGrid(dtau=0.2, half_points=16)
    spec = theoretical_spectrum(Lorentzian(1.0), 0.5, 4, grid)
    path = tmp_path / "spec.csv"
    spec.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "freq,psd,psd_db"
    assert len(lines) == 1 + len(spec.frequencies)
    f0, p0, db0 = lines[1].split(",")
    assert float(f0) == spec.frequencies[0]
    assert float(p0) == pytest.approx(spec.psd[0])
