"""Generator fidelity, inversion statistics, experiment plumbing."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from recipspec import simulator, spectrum
from recipspec.errors import ConfigError, DomainError, StatisticalQualityError
from recipspec.kernels import FlatBand, GaussianKernel, Lorentzian
from recipspec.simulator import (_CHUNK, _SCAN_ROW, SimulationConfig, _ar1_scan,
                                 _fast_len, design_flat_fir, empirical_acf,
                                 generate_gaussian, generator_fidelity_check, invert,
                                 run_experiment)
from recipspec.spectrum import TauGrid, hann_window, welch_covariance_spectrum


def cfg_lorentzian(**kw):
    base = dict(kernel=Lorentzian(1.0), omega=0.0, dt=0.1,
                n_samples=1 << 20, seed=321)
    base.update(kw)
    return SimulationConfig(**base)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            cfg_lorentzian(n_samples=1 << 10)
        with pytest.raises(ConfigError):
            cfg_lorentzian(dt=0.6)  # a*dt >= 0.5
        with pytest.raises(ConfigError):
            SimulationConfig(kernel=FlatBand(), omega=0.0, dt=2.0,
                             n_samples=1 << 16, seed=1)
        with pytest.raises(ConfigError):
            SimulationConfig(kernel=GaussianKernel(1.0), omega=0.0, dt=0.1,
                             n_samples=1 << 16, seed=1)
        with pytest.raises(ConfigError):
            cfg_lorentzian(fir_taps=1024)
        with pytest.raises(ConfigError):
            cfg_lorentzian(omega=-0.5)


class TestAr1Generator:
    def test_seed_determinism(self):
        a = generate_gaussian(cfg_lorentzian())
        b = generate_gaussian(cfg_lorentzian())
        assert np.array_equal(a, b)

    def test_moments(self):
        w = generate_gaussian(cfg_lorentzian(seed=11))
        n = len(w)
        assert abs(w.mean()) < 3.0 * math.sqrt(2.0 / (1.0 - math.exp(-0.1)) / n)
        assert np.mean(np.abs(w) ** 2) == pytest.approx(1.0, abs=0.02)
        re = w.real / math.sqrt(0.5)
        kurt = float(np.mean(re ** 4))
        assert kurt == pytest.approx(3.0, abs=3.0 * math.sqrt(24.0 / n) * 3)

    def test_acf_matches_kernel(self):
        config = cfg_lorentzian(seed=22)
        w = generate_gaussian(config)
        acf = empirical_acf(w, 10)
        assert acf[0].real == pytest.approx(1.0, abs=0.01)
        # lag 10 at dt = 0.1 probes exp(-1)
        sigma = math.sqrt((1 + 2 / (1 - math.exp(-0.2))) / len(w))
        assert abs(acf[10] - math.exp(-1)) < 3 * sigma

    def test_fidelity_gate_passes_on_matched_kernel(self):
        config = cfg_lorentzian(seed=33)
        w = generate_gaussian(config)
        out = generator_fidelity_check(config, w)
        assert out["worst_sigma"] <= 3.0

    def test_fidelity_gate_rejects_wrong_kernel(self):
        w = generate_gaussian(cfg_lorentzian(seed=44))
        wrong = cfg_lorentzian(kernel=Lorentzian(2.0), seed=44)
        with pytest.raises(StatisticalQualityError):
            generator_fidelity_check(wrong, w)


class TestFlatGenerator:
    def make(self, **kw):
        base = dict(kernel=FlatBand(), omega=0.0, dt=0.5,
                    n_samples=1 << 20, seed=55, fir_taps=16385)
        base.update(kw)
        return SimulationConfig(**base)

    def test_fir_design_acf_close_to_sinc(self):
        h = design_flat_fir(16385, 0.5)
        acf = np.correlate(h, h, "full")[16384:]
        acf = acf / acf[0]
        m = np.arange(1, 41)
        ideal = np.sin(m * 0.5) / (m * 0.5)
        assert np.max(np.abs(acf[1:41] - ideal)) < 5e-4

    def test_unit_variance_and_gate(self):
        config = self.make()
        w = generate_gaussian(config)
        assert np.mean(np.abs(w) ** 2) == pytest.approx(1.0, rel=1e-12)
        out = generator_fidelity_check(config, w)
        assert out["worst_sigma"] <= 3.0

    def test_seed_determinism(self):
        assert np.array_equal(generate_gaussian(self.make()),
                              generate_gaussian(self.make()))

    def test_chunked_overlap_add_matches_one_convolution(self):
        # reference: the whole record's Philox noise through one oaconvolve
        from scipy.signal import oaconvolve
        config = self.make(n_samples=3 * _CHUNK + 1000, fir_taps=1025, seed=56)
        total = config.n_samples + config.fir_taps
        noise = []
        for stream, pos in enumerate(range(0, total, _CHUNK), start=1):
            rng = np.random.Generator(np.random.Philox(key=[config.seed, stream]))
            z = rng.standard_normal(2 * min(_CHUNK, total - pos))
            noise.append((z[0::2] + 1j * z[1::2]) / math.sqrt(2.0))
        h = design_flat_fir(config.fir_taps, config.dt)
        ref = oaconvolve(np.concatenate(noise), h, mode="full")[config.fir_taps:total]
        ref = ref / math.sqrt(float(np.mean(np.abs(ref) ** 2)))
        got = generate_gaussian(config)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_fft_length_is_scipys_for_complex_data(self):
        from scipy.fft import next_fast_len
        chunk_lens = [_CHUNK + taps - 1 for taps in (1025, 4097, 16385)]
        assert _fast_len(chunk_lens[1]) % 2 == 1  # 4097 taps: an odd length
        ns = [*range(1, 5000), *range(262100, 300000, 7), *chunk_lens]
        assert [_fast_len(n) for n in ns] == [next_fast_len(n) for n in ns]


#: the AR(1) scan against lfilter's loop: max |w - ref| <= AR1_TOL max |ref|.
#: The two sum in different orders; both are exact recursions, so they agree
#: to rounding, which read at most 3e-15 at a dt = 1e-3.
AR1_TOL = 1e-14


class TestAr1Scan:
    # a*dt = 0.49 is the edge of SimulationConfig's a*dt < 0.5, the rule that
    # also bounds the scan's largest row factor phi^-63 by e^31.5
    @pytest.mark.parametrize("a_dt", [1e-3, 0.1, 0.49])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 3 * _CHUNK + 1000])
    def test_matches_lfilter_from_a_nonzero_state(self, a_dt, n):
        from scipy.signal import lfilter
        rng = np.random.default_rng(n)
        x = rng.standard_normal(2 * n).view(complex)
        state = 0.8 - 0.6j
        phi = math.exp(-a_dt)
        ref, _ = lfilter([1.0], [1.0, -phi], x, zi=np.array([phi * state]))
        u = np.zeros(-(-n // _SCAN_ROW) * _SCAN_ROW, dtype=complex)
        u[:n] = x
        # a zero-state scan plus the start state's decay, as generation adds them
        y = _ar1_scan(u, phi)[:n] + state * phi ** np.arange(1.0, n + 1)
        assert np.max(np.abs(y - ref)) <= AR1_TOL * np.max(np.abs(ref))


class TestWorkerPool:
    """Generation and Welch give the same bits on any number of pool threads."""

    # 4097 taps make the flat band's FFT length odd (266805), the other half
    # of the FIR transform's conjugate mirror
    POOL_CASES = pytest.mark.parametrize("kernel, dt, fir_taps", [
        (Lorentzian(1.0), 0.1, 1025), (FlatBand(), 0.5, 1025), (FlatBand(), 0.5, 4097)],
        ids=["lorentzian", "flatband", "flatband-odd-fft"])

    @staticmethod
    def config(kernel, dt, fir_taps):
        # a partial last chunk; the flat band's taps span a chunk boundary
        return SimulationConfig(kernel=kernel, omega=1.0, dt=dt, seed=21,
                                n_samples=3 * _CHUNK + 1000, fir_taps=fir_taps)

    @staticmethod
    def serial_samples(config):
        """The generators as one loop on one thread: a chunk's noise, then its
        recursion or FFT pair, chunk after chunk."""
        from scipy.fft import fft, ifft, next_fast_len
        from scipy.signal import lfilter

        def noise(stream, n):
            rng = np.random.Generator(np.random.Philox(key=[config.seed, stream]))
            z = rng.standard_normal(2 * n).view(complex)
            z /= math.sqrt(2.0)
            return z

        if isinstance(config.kernel, Lorentzian):
            phi = math.exp(-config.kernel.a * config.dt)
            state, out = complex(noise(0, 1)[0]), []
            for stream, pos in enumerate(range(0, config.n_samples, _CHUNK), start=1):
                xi = noise(stream, min(_CHUNK, config.n_samples - pos))
                chunk, _ = lfilter([math.sqrt(1.0 - phi * phi)], [1.0, -phi], xi,
                                   zi=np.array([phi * state]))
                out.append(chunk)
                state = complex(chunk[-1])
            return np.concatenate(out)
        taps = config.fir_taps
        total = config.n_samples + taps
        nfft = next_fast_len(_CHUNK + taps - 1)
        h_hat = fft(design_flat_fir(taps, config.dt), nfft)
        out = np.zeros(total, dtype=complex)
        for stream, pos in enumerate(range(0, total, _CHUNK), start=1):
            xi = noise(stream, min(_CHUNK, total - pos))
            end = min(pos + len(xi) + taps - 1, total)
            out[pos:end] += ifft(fft(xi, nfft) * h_hat)[:end - pos]
        w = out[taps:]
        w /= math.sqrt(float(np.vdot(w, w).real) / len(w))
        return w

    @staticmethod
    def serial_squares(x, segment_len=4096):
        """Welch's summed (re^2, im^2) pairs as one block loop on one thread."""
        win = hann_window(segment_len)
        mean = complex(x.mean())
        segments = np.lib.stride_tricks.sliding_window_view(x, segment_len)[::segment_len // 2]
        block = max(1, spectrum._WELCH_BLOCK_SAMPLES // segment_len)
        squares = np.zeros(2 * segment_len)
        for lo in range(0, len(segments), block):
            spectra = np.fft.fft((segments[lo:lo + block] - mean) * win, axis=1).view(float)
            squares += (spectra * spectra).sum(axis=0)
        return squares, len(segments), float(np.sum(win ** 2))

    @POOL_CASES
    def test_same_bits_on_any_worker_count(self, set_workers, kernel, dt, fir_taps):
        config = self.config(kernel, dt, fir_taps)
        ref = self.serial_samples(config)
        samples = []
        for n in (1, 2, 3):
            set_workers(n)
            samples.append(generate_gaussian(config))
        if isinstance(kernel, Lorentzian):
            # the scan adds in another order than lfilter's loop
            assert np.max(np.abs(samples[0] - ref)) <= AR1_TOL * np.max(np.abs(ref))
        else:
            assert np.array_equal(samples[0], ref)
        assert all(np.array_equal(w, samples[0]) for w in samples[1:])
        squares, n_seg, win_power = self.serial_squares(1.0 / (1.0 + samples[0]))
        power = squares[0::2] + squares[1::2]
        ref_psd = np.fft.fftshift(power / n_seg) * dt / win_power
        ref_floor = float(power.sum()) / (4096 * n_seg * win_power)
        for n, w in zip((1, 2, 3), samples):
            set_workers(n)
            spec = welch_covariance_spectrum(1.0 / (1.0 + w), dt)
            assert np.array_equal(spec.psd, ref_psd)
            assert spec.metadata["white_floor"] == ref_floor

    @POOL_CASES
    def test_worker_error_propagates_and_no_thread_outlives_the_stage(
            self, monkeypatch, set_workers, kernel, dt, fir_taps):
        set_workers(3)
        config = self.config(kernel, dt, fir_taps)
        before = threading.active_count()
        generate_gaussian(config)
        assert threading.active_count() == before
        error = RuntimeError("no noise for chunk 2")
        chunk_rng = simulator._chunk_rng

        def failing(seed, stream):
            if stream == 3:  # chunk 2: stream 0 is the AR(1) start
                raise error
            return chunk_rng(seed, stream)

        monkeypatch.setattr(simulator, "_chunk_rng", failing)
        with pytest.raises(RuntimeError) as exc:
            generate_gaussian(config)
        assert exc.value is error
        assert threading.active_count() == before


class TestInvert:
    def test_constant_input(self):
        w = np.full(100, 1.0 - 0.3 + 0.0j)
        s, n_zero = invert(w, 0.3)
        np.testing.assert_allclose(s, 1.0)
        assert n_zero == 0

    def test_omega_zero_pure_inversion(self):
        w = np.array([2.0 + 0.0j, 0.5j])
        before = w.copy()
        s, _ = invert(w, 0.0)
        np.testing.assert_allclose(s, 1.0 / before)

    def test_result_overwrites_input(self):
        w = np.array([2.0 + 0.0j, 0.5j, -1.0 + 3.0j])
        expected = 1.0 / (0.4 + w)
        s, _ = invert(w, 0.4)
        assert np.shares_memory(s, w)
        assert np.array_equal(w, expected)

    def test_zero_denominators_counted_not_dropped(self):
        w = np.array([1.0 + 0j, -0.7 + 0j, 2.0 + 0j])
        s, n_zero = invert(w, 0.7)
        assert n_zero == 1
        assert len(s) == 3 and np.isinf(np.abs(s[1]))

    def test_mean_magnitude_at_omega_one(self):
        w = generate_gaussian(cfg_lorentzian(seed=66))
        s, _ = invert(w, 1.0)
        expected = (1.0 - math.exp(-1.0))  # (1-e^{-w^2})/w at w = 1
        sigma = math.sqrt(3.0 / len(s))
        assert abs(np.mean(s)) == pytest.approx(expected, abs=4 * sigma)

    def test_negative_omega_rejected(self):
        with pytest.raises(DomainError):
            invert(np.ones(4, dtype=complex), -1.0)


class TestEmpiricalAcf:
    def test_matches_direct_loop(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        got = empirical_acf(x, 8)
        xc = x - x.mean()
        for m in range(9):
            direct = np.sum(xc[m:] * np.conj(xc[:len(xc) - m])) / len(xc)
            assert got[m] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("extra", [-1, 0, 7],
                             ids=["k_block_minus_1", "k_block", "k_block_plus_7"])
    @pytest.mark.parametrize("max_lag", [20, 63, 64, 100])
    def test_blocks_match_literal_loop(self, monkeypatch, complex_input, extra, max_lag):
        # 64-sample blocks, so lags up to and past a whole block cross block edges
        monkeypatch.setattr(simulator, "_ACF_BLOCK_SAMPLES", 64)
        rng = np.random.default_rng(max_lag + extra)
        n = 20 * 64 + extra
        x = rng.standard_normal(n) + 0.3
        if complex_input:
            x = x + 1j * rng.standard_normal(n)
        got = empirical_acf(x, max_lag)
        xc = x - x.mean()
        for m in range(max_lag + 1):
            direct = np.sum(xc[m:] * np.conj(xc[:n - m])) / n
            assert got[m] == pytest.approx(direct, rel=1e-12, abs=1e-12 * abs(got[0]))
        assert np.iscomplexobj(got) == complex_input

    def test_default_blocks_match_literal_loop(self):
        n = 2 * simulator._ACF_BLOCK_SAMPLES + 7
        rng = np.random.default_rng(4)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = empirical_acf(x, 20)
        xc = x - x.mean()
        for m in range(21):
            direct = np.sum(xc[m:] * np.conj(xc[:n - m])) / n
            assert got[m] == pytest.approx(direct, rel=1e-12, abs=1e-12 * abs(got[0]))

    def test_white_noise_lags_vanish(self):
        rng = np.random.default_rng(8)
        n = 1 << 18
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        acf = empirical_acf(x, 20)
        assert acf[0].real == pytest.approx(1.0, abs=0.01)
        assert np.max(np.abs(acf[1:])) < 3.5 / math.sqrt(n)

    def test_lag_budget(self):
        with pytest.raises(DomainError):
            empirical_acf(np.zeros(100, dtype=complex), 10)


class TestRunExperiment:
    def test_phase_invariance_of_covariance_spectrum(self):
        config = cfg_lorentzian(omega=0.8, n_samples=1 << 19, seed=77)
        w = generate_gaussian(config)
        from recipspec.spectrum import welch_covariance_spectrum
        # invert overwrites its input: rotate a copy before the first call
        sb, _ = invert(w * np.exp(1j * 1.1), 0.8)
        sa, _ = invert(w, 0.8)
        a = welch_covariance_spectrum(sa, config.dt, segment_len=2048)
        b = welch_covariance_spectrum(sb, config.dt, segment_len=2048)
        # the peak is broad, so locate it loosely; band power is the signal
        fa = a.frequencies[int(np.argmax(a.psd))]
        fb = b.frequencies[int(np.argmax(b.psd))]
        assert abs(fa) < 0.4 and abs(fb) < 0.4
        pa, pb = float(np.sum(a.psd)), float(np.sum(b.psd))
        assert pb == pytest.approx(pa, rel=0.25)

    def test_small_run_structure(self):
        config = cfg_lorentzian(omega=0.4, n_samples=1 << 18, seed=88)
        res = run_experiment(config, segment_len=1024)
        assert res.metrics["order"] == 20
        assert res.metrics["n_segments"] >= 16
        assert res.metrics["band_bins"] > 0
        assert res.metrics["median_db"] < 1.0
        assert (res.expected.metadata["zero_lag_value"]
                == res.empirical.metadata["white_floor"])
        assert res.empirical.psd.shape == res.expected.psd.shape
        assert res.theoretical.psd.shape == res.expected.psd.shape
        assert res.fidelity["worst_sigma"] <= 3.0

    def test_theory_on_the_grid_frequencies_off_the_fft_dts(self):
        # at dt 0.7 the Welch bins fftshift(fftfreq(n, dt)) sit one ulp off
        # the grid's (j - m) / (2 m dt); the theory stays on the grid
        config = cfg_lorentzian(kernel=Lorentzian(0.5), omega=0.4, dt=0.7,
                                n_samples=1 << 16, seed=5)
        res = run_experiment(config, segment_len=1024)
        grid_f = TauGrid(0.7, 512).default_frequencies()
        assert np.array_equal(res.theoretical.frequencies, grid_f)
        welch_f = res.empirical.frequencies
        assert np.all(np.abs(welch_f - grid_f) <= np.spacing(np.abs(grid_f)))
        for key in ("direct_median_db", "direct_p95_db", "direct_max_db"):
            assert math.isfinite(res.metrics[key])


class TestMemory:
    @pytest.mark.parametrize("kernel, dt, fir_taps", [
        (Lorentzian(1.0), 0.1, 1025), (FlatBand(), 0.5, 16385)], ids=["lorentzian", "flatband"])
    def test_run_holds_few_sample_arrays(self, kernel, dt, fir_taps):
        config = SimulationConfig(kernel=kernel, omega=1.0, dt=dt, n_samples=1 << 22,
                                  seed=5, fir_taps=fir_taps)
        tracemalloc.start()
        try:
            run_experiment(config, order=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sample_array = 16 * config.n_samples
        # invert overwrites the samples with their reciprocal: 1.10 (Lorentzian)
        # and 1.27 (flat band) arrays once the pool's modules are loaded
        assert peak <= 1.5 * sample_array

    def test_gate_holds_no_sample_array(self):
        # the ACF gate centers one block at a time: 0.03 arrays (1.00 with a
        # full-length centered copy)
        config = cfg_lorentzian(n_samples=1 << 22, seed=5)
        w = generate_gaussian(config)
        tracemalloc.start()
        try:
            generator_fidelity_check(config, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * w.nbytes


class TestSampleDump:
    def test_roundtrip(self, tmp_path):
        import numpy as np
        from recipspec.simulator import dump_samples, load_samples
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        path = tmp_path / "stream.bin"
        dump_samples(x, path)
        back = load_samples(path)
        assert np.array_equal(back, x)
        raw = np.fromfile(path, dtype="<f8")  # interleaved (re, im) pairs
        assert np.array_equal(raw[0::2], x.real) and np.array_equal(raw[1::2], x.imag)
        import json
        header = json.loads((tmp_path / "stream.bin.json").read_text())
        assert header["n_samples"] == 64
        assert header["format"] == "interleaved-float64-le"

    def test_cli_dump_flag(self, tmp_path):
        from recipspec.cli import main
        rc = main(["simulate", "--kernel", "lorentzian", "--omega", "0.2",
                   "--dt", "0.1", "--samples", str(1 << 16), "--seed", "4",
                   "--segment-len", "512", "--dump-samples", "w.bin",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "w.bin").exists()
        assert (tmp_path / "w.bin.json").exists()
        import json
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        paths = [o["path"] for o in manifest["outputs"]]
        assert str(tmp_path / "w.bin") in paths
