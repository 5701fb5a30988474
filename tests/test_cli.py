"""CLI behavior: file emission, manifests, exit codes, determinism."""

import json
import os

import pytest

from recipspec.cli import main


def run(tmp, *args):
    return main(list(args) + ["--out-dir", str(tmp)])


class TestCoeffs:
    def test_writes_table_and_manifest(self, tmp_path):
        rc = run(tmp_path, "coeffs", "--kernel", "lorentzian", "--a", "1.0",
                 "--tau-start", "0.5", "--tau-stop", "2.0", "--tau-step", "0.5",
                 "--max-order", "4")
        assert rc == 0
        lines = (tmp_path / "coeffs.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 3  # 4 lags x orders {0,2,4}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "coeffs"
        assert manifest["schema"] == "recipspec.manifest/1"
        paths = [o["path"] for o in manifest["outputs"]]
        assert str(tmp_path / "coeffs.csv") in paths
        assert all(len(o["sha256"]) == 64 for o in manifest["outputs"])
        assert manifest["wall_time_s"] >= 0

    def test_order_zero_only(self, tmp_path):
        rc = run(tmp_path, "coeffs", "--tau-start", "1.0", "--tau-stop", "2.0",
                 "--tau-step", "1.0", "--max-order", "0")
        assert rc == 0
        lines = (tmp_path / "coeffs.csv").read_text().strip().splitlines()
        assert all(row.split(",")[1] == "0" for row in lines[1:])

    def test_zero_lag_grid_exits_2(self, tmp_path):
        rc = run(tmp_path, "coeffs", "--tau-start", "0.0", "--tau-stop", "1.0",
                 "--tau-step", "0.5")
        assert rc == 2

    @pytest.mark.parametrize("start, stop, step", [
        ("0.5", "2.0", "0"), ("0.5", "2.0", "-0.5"), ("0.5", "2.0", "nan"),
        ("0.5", "2.0", "inf"), ("2.0", "0.5", "0.5")])
    def test_bad_lag_grid_exits_2(self, tmp_path, capsys, start, stop, step):
        rc = run(tmp_path, "coeffs", "--tau-start", start, "--tau-stop", stop,
                 "--tau-step", step)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "coeffs.csv").exists()

    def test_json_format(self, tmp_path):
        rc = run(tmp_path, "coeffs", "--tau-start", "1.0", "--tau-stop", "1.0",
                 "--tau-step", "1.0", "--max-order", "2", "--format", "json")
        assert rc == 0
        rows = json.loads((tmp_path / "coeffs.json").read_text())
        assert rows[0]["n"] == 0 and "re_omega" in rows[0]


class TestSpectrum:
    def test_sweep_writes_one_file_per_omega(self, tmp_path):
        rc = run(tmp_path, "spectrum", "--kernel", "lorentzian",
                 "--omega", "0.0,0.4", "--order", "6", "--dtau", "0.2",
                 "--half-points", "32")
        assert rc == 0
        names = sorted(os.listdir(tmp_path))
        assert "spectrum_omega0.csv" in names
        assert "spectrum_omega0.4.csv" in names
        meta0 = json.loads((tmp_path / "spectrum_omega0_meta.json").read_text())
        assert meta0["dc_line_power"] == 0.0
        manifests = [n for n in names if n == "manifest.json"]
        assert len(manifests) == 1

    @pytest.mark.parametrize("flag, value", [("--omega", "nan"), ("--a", "inf"),
                                             ("--omega", "0.4,abc")])
    def test_bad_number_exits_2(self, tmp_path, capsys, flag, value):
        rc = run(tmp_path, "spectrum", flag, value, "--order", "4",
                 "--dtau", "0.2", "--half-points", "32")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("spectrum_*.csv"))

    def test_unknown_kernel_exits_2(self, tmp_path):
        assert run(tmp_path, "spectrum", "--kernel", "tabulated") == 2

    def test_non_numeric_table_cell_exits_2(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_text("tau,re\n0.0,1.0\n0.5,abc\n1.0,0.25\n")
        rc = run(tmp_path, "spectrum", "--kernel", "tabulated", "--table", str(table),
                 "--omega", "0.4", "--order", "4", "--dtau", "0.2", "--half-points", "4")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.csv" in err and "row 3" in err
        assert not list(tmp_path.glob("spectrum_*.csv"))


class TestSimulate:
    ARGS = ("simulate", "--kernel", "lorentzian", "--omega", "0.6",
            "--dt", "0.1", "--samples", str(1 << 17), "--seed", "9",
            "--segment-len", "512")

    def test_outputs_and_report(self, tmp_path):
        rc = run(tmp_path, *self.ARGS)
        assert rc == 0
        for name in ("empirical.csv", "expected.csv", "theoretical.csv",
                     "report.json", "manifest.json"):
            assert (tmp_path / name).exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["metrics"]["n_segments"] >= 16
        assert report["fidelity"]["worst_sigma"] <= 3.0

    def test_byte_determinism_across_threads(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(list(self.ARGS) + ["--threads", "1", "--out-dir", str(d1)]) == 0
        assert main(list(self.ARGS) + ["--threads", "8", "--out-dir", str(d2)]) == 0
        for name in ("empirical.csv", "expected.csv", "theoretical.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_invalid_dt_exits_2(self, tmp_path):
        rc = run(tmp_path, "simulate", "--kernel", "lorentzian", "--a", "2.0",
                 "--dt", "0.3", "--samples", str(1 << 17))
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [
        ("--segment-len", "0"), ("--segment-len", "1"), ("--segment-len", "-4"),
        ("--window", "kaiserabc"), ("--window", "kaisernan"),
        ("--segment-len", "16384"), ("--segment-len", "131072"), ("--overlap", "0.95")])
    def test_bad_welch_setting_exits_2_before_sampling(self, tmp_path, capsys, flag, value):
        rc = run(tmp_path, "simulate", "--kernel", "lorentzian", "--samples", str(1 << 16),
                 "--dump-samples", "samples.bin", flag, value)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())  # neither the sample dump nor a CSV


    def test_dump_samples_into_a_new_directory(self, tmp_path):
        import numpy as np
        from recipspec.kernels import Lorentzian
        from recipspec.simulator import SimulationConfig, generate_gaussian, load_samples
        out = tmp_path / "new" / "nested"
        assert run(out, *self.ARGS, "--dump-samples", "w.bin") == 0
        config = SimulationConfig(kernel=Lorentzian(a=1.0), omega=0.6, dt=0.1,
                                  n_samples=1 << 17, seed=9)
        assert np.array_equal(load_samples(out / "w.bin"), generate_gaussian(config))
        listed = [o["path"] for o in json.loads((out / "manifest.json").read_text())["outputs"]]
        assert str(out / "w.bin") in listed and str(out / "w.bin.json") in listed


class TestBounds:
    def test_lorentzian_value(self, tmp_path, capsys):
        rc = run(tmp_path, "bounds", "--kernel", "lorentzian", "--a", "1.0")
        assert rc == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["satisfied"] is True
        assert abs(report["l1_bound"] - 3.3858) < 1e-3

    def test_flatband_not_certified(self, tmp_path):
        rc = run(tmp_path, "bounds", "--kernel", "flatband")
        assert rc == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["satisfied"] is False


class TestValidateWiring:
    def test_exit_codes_follow_verdict(self, tmp_path, monkeypatch):
        import recipspec.validation as validation

        def fake_pass(profile):
            return {"profile": profile, "passed": True,
                    "checks": [{"name": "x", "passed": True,
                                "runtime_s": 0.0, "details": {}}]}

        monkeypatch.setattr(validation, "run_checks", fake_pass)
        assert run(tmp_path, "validate", "--profile", "quick") == 0
        assert json.loads((tmp_path / "validation.json").read_text())["passed"]

        def fake_fail(profile):
            return {"profile": profile, "passed": False,
                    "checks": [{"name": "x", "passed": False,
                                "runtime_s": 0.0, "details": {}}]}

        monkeypatch.setattr(validation, "run_checks", fake_fail)
        assert run(tmp_path, "validate", "--profile", "quick") == 1


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel=lorentzian\na=2.0\ntau-start=1.0\n"
                       "tau-stop=2.0\ntau-step=1.0\nmax-order=4\n")
        rc = main(["coeffs", "--config", str(cfg), "--max-order", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["a"] == 2.0          # from config
        assert manifest["parameters"]["max_order"] == 2    # flag wins

    def test_boolean_false_stays_false(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("robust=false\n")
        out = tmp_path / "out"
        assert run(out, *TestSimulate.ARGS, "--config", str(cfg)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["robust"] is False

    @pytest.mark.parametrize("command, line", [
        ("spectrum", "omgea=3"), ("coeffs", "omega=1.0"), ("validate", "kernel=gaussian"),
        ("simulate", "robust=yes"), ("simulate", "robust=False"), ("coeffs", "a=abc"),
        ("simulate", "format=json"), ("bounds", "format=json"), ("validate", "format=json")])
    def test_bad_config_exits_2_before_writing(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert run(out, command, "--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "bounds", "validate"])
def test_format_flag_only_on_coeffs_and_spectrum(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "--format", "json")
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_tabulated_kernel_via_cli(tmp_path):
    table = tmp_path / "kernel.csv"
    table.write_text("tau,re\n0.0,1.0\n5.0,0.6\n10.0,0.2\n20.0,0.0\n")
    rc = main(["coeffs", "--kernel", "tabulated", "--table", str(table),
               "--tau-start", "2.0", "--tau-stop", "8.0", "--tau-step", "2.0",
               "--max-order", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
