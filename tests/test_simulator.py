"""Generator fidelity, inversion statistics, experiment plumbing."""

import math
import tracemalloc

import numpy as np
import pytest

from recipspec import simulator
from recipspec.errors import ConfigError, DomainError, StatisticalQualityError
from recipspec.kernels import FlatBand, GaussianKernel, Lorentzian
from recipspec.simulator import (_CHUNK, SimulationConfig, design_flat_fir,
                                 empirical_acf, generate_gaussian,
                                 generator_fidelity_check, invert,
                                 run_experiment)
from recipspec.spectrum import TauGrid


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
        # the generators' imports allocate module objects, not run memory
        import scipy.fft
        import scipy.signal  # noqa: F401
        config = SimulationConfig(kernel=kernel, omega=1.0, dt=dt, n_samples=1 << 22,
                                  seed=5, fir_taps=fir_taps)
        tracemalloc.start()
        try:
            run_experiment(config, order=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sample_array = 16 * config.n_samples
        # invert overwrites the samples with their reciprocal: 1.19 (Lorentzian)
        # and 1.27 (flat band) arrays
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
