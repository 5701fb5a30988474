"""CLI behavior: file emission, manifests, exit codes, determinism."""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from recipspec import cli
from recipspec.cli import main
from recipspec.simulator import SimulationConfig


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
        assert manifest["seed"] is None and "seed" not in manifest["parameters"]

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

    def test_does_not_import_scipy_signal(self, tmp_path):
        # only the simulators use scipy.signal, and importing it costs most of
        # `import recipspec.cli`; a fresh interpreter shows what coeffs loads
        code = ("import sys; from recipspec.cli import main; "
                f"rc = main(['coeffs', '--max-order', '4', '--out-dir', {str(tmp_path)!r}]); "
                "print(rc, 'scipy.signal' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120, check=True).stdout
        assert out.split() == ["0", "False"]

    def test_cli_and_validation_leave_scipy_submodules_out(self):
        # set-up cost: the package imports no scipy submodule until a run needs one
        code = ("import sys, recipspec.cli, recipspec.validation; "
                "print([m for m in ('scipy.signal', 'scipy.special', 'scipy.stats') "
                "if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120, check=True).stdout
        assert out.strip() == "[]"

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

    def test_omegas_with_one_file_name_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(out, "spectrum", "--omega", "0.5,0.5000001", "--order", "4",
                 "--dtau", "0.2", "--half-points", "32")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "spectrum_omega0.5.csv" in err
        assert not out.exists()

    def test_negative_zero_omega_is_zero(self, tmp_path, capsys):
        # -0 and 0 are one omega: they collide on one file name, and -0 alone
        # is written under the name of 0
        both = tmp_path / "both"
        assert run(both, "spectrum", "--omega=-0,0", "--order", "4",
                   "--dtau", "0.2", "--half-points", "32") == 2
        assert "spectrum_omega0.csv" in capsys.readouterr().err
        assert not both.exists()
        alone = tmp_path / "alone"
        assert run(alone, "spectrum", "--omega=-0", "--order", "4",
                   "--dtau", "0.2", "--half-points", "32") == 0
        assert sorted(p.name for p in alone.glob("spectrum_*.csv")) == ["spectrum_omega0.csv"]

    def test_odd_order_exits_2_naming_the_order(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(out, "spectrum", "--omega", "0,0.4", "--order", "3", "--dtau", "0.2",
                 "--half-points", "32")
        assert rc == 2
        assert capsys.readouterr().err == "error: order must be even, got 3\n"
        assert not out.exists()

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
        assert sorted(report["stage_s"]) == sorted(
            ["generate", "gate", "invert", "welch", "welch_expected", "theory"])
        assert all(t >= 0.0 for t in report["stage_s"].values())

    def test_byte_determinism_across_threads(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run(d1, *self.ARGS, "--dump-samples", "w.bin") == 0
        assert run(d2, *self.ARGS, "--dump-samples", "w.bin") == 0
        for name in ("w.bin", "empirical.csv", "expected.csv", "theoretical.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_seed_outside_the_philox_key_exits_2(self, tmp_path, capsys):
        rc = run(tmp_path, "simulate", "--kernel", "lorentzian", "--samples", str(1 << 16),
                 "--seed", str(2 ** 70), "--dump-samples", "w.bin")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())

    def test_invalid_dt_exits_2(self, tmp_path):
        rc = run(tmp_path, "simulate", "--kernel", "lorentzian", "--a", "2.0",
                 "--dt", "0.3", "--samples", str(1 << 17))
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [
        ("--segment-len", "0"), ("--segment-len", "1"), ("--segment-len", "-4"),
        ("--segment-len", "16384"), ("--segment-len", "131072"),
        ("--segment-len", "16"), ("--segment-len", "1025"), ("--order", "3"),
        ("--order", "-2")])
    def test_bad_welch_setting_exits_2_before_sampling(self, tmp_path, capsys, flag, value):
        rc = run(tmp_path, "simulate", "--kernel", "lorentzian", "--samples", str(1 << 16),
                 "--dump-samples", "samples.bin", flag, value)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())  # neither the sample dump nor a CSV

    @pytest.mark.parametrize("flags", [
        ["--robust"], ["--window", "hann"], ["--overlap", "0.5"], ["--threads", "1"]])
    def test_removed_welch_and_thread_flags_exit_2(self, tmp_path, flags):
        # simulate runs one Welch estimator (Hann, half overlap, mean) on one thread
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *self.ARGS, *flags)
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

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
        assert run(tmp_path / "fail", "validate", "--profile", "quick") == 1
        assert (tmp_path / "fail" / "manifest.json").exists()


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

    @pytest.mark.parametrize("command, line", [
        ("spectrum", "omgea=3"), ("coeffs", "omega=1.0"), ("validate", "kernel=gaussian"),
        ("simulate", "robust=yes"), ("simulate", "robust=False"), ("coeffs", "a=abc"),
        ("simulate", "robust=true"), ("simulate", "window=hann"), ("simulate", "overlap=0.5"),
        ("simulate", "threads=1"),
        ("simulate", "format=json"), ("bounds", "format=json"), ("validate", "format=json"),
        ("coeffs", "format=xml"), ("validate", "profile=fast"), ("coeffs", "kernel=LORENTZIAN"),
        ("coeffs", "seed=1"), ("spectrum", "seed=1"), ("bounds", "seed=1"),
        ("validate", "seed=1"),
        # simulate runs the Lorentzian and flat-band kernels; bounds certifies analytic ones
        ("simulate", "beta=3"), ("simulate", "table=t.csv"), ("simulate", "kernel=gaussian"),
        ("simulate", "kernel=doppler_lorentzian"), ("simulate", "kernel=tabulated"),
        ("bounds", "table=t.csv"), ("bounds", "kernel=tabulated")])
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


@pytest.mark.parametrize("command, args", [
    ("simulate", ["--beta", "3"]), ("simulate", ["--table", "t.csv"]),
    ("simulate", ["--kernel", "gaussian"]), ("simulate", ["--kernel", "doppler_lorentzian"]),
    ("simulate", ["--kernel", "tabulated"]), ("bounds", ["--table", "/nonexistent.csv"]),
    ("bounds", ["--kernel", "tabulated"])])
def test_kernel_options_a_subcommand_cannot_use_exit_2(tmp_path, command, args):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, *args)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, args, config", [
    ("spectrum", ["--kernel", "flatband", "--a", "5", "--beta", "3", "--table",
                  "/nonexistent.csv", "--half-points", "16", "--omega", "0.5"], None),
    ("bounds", ["--kernel", "lorentzian", "--beta", "9"], None),
    ("coeffs", ["--kernel", "gaussian", "--beta", "1"], None),
    ("simulate", ["--kernel", "flatband", "--a", "2"], None),
    ("simulate", ["--kernel", "lorentzian", "--fir-taps", "1025"], None),
    ("simulate", [], "fir_taps=1025"),
    ("spectrum", ["--kernel", "flatband"], "a=2"),
    ("bounds", [], "kernel=gaussian\nbeta=9"),
    ("coeffs", ["--kernel", "lorentzian"], "table=t.csv")])
def test_kernel_option_the_kernel_does_not_take_exits_2(tmp_path, capsys, command, args,
                                                        config):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        args = args + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert run(out, command, *args) == 2
    assert capsys.readouterr().err.startswith("error: kernel ")
    assert not out.exists()


def test_fir_taps_default_is_the_simulation_config_default():
    args = cli.build_parser().parse_args(["simulate"])
    assert cli._resolve(args)["fir_taps"] == SimulationConfig.fir_taps == 16385


def test_kernel_options_the_kernel_takes_are_accepted(tmp_path):
    assert run(tmp_path, "bounds", "--kernel", "doppler_lorentzian", "--a", "2",
               "--beta", "3") == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (manifest["parameters"]["a"], manifest["parameters"]["beta"]) == (2.0, 3.0)


@pytest.mark.parametrize("command", ["coeffs", "spectrum", "bounds", "validate"])
def test_seed_flag_only_on_simulate(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "--seed", "1")
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def _sample(opt):
    """A valid value other than the default: (flag arguments, config line, value)."""
    flag = "--" + opt.name.replace("_", "-")
    text = opt.choices[-1] if opt.choices else {float: "0.25", int: "3"}.get(opt.type, "x")
    return [flag, text], f"{opt.name}={text}", opt.type(text)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_flags_and_config_keys_resolve_alike(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out

    def resolve(argv):
        return cli._resolve(cli.build_parser().parse_args([command] + argv))

    for opt in cli.COMMANDS[command][1]:
        flag_args, line, value = _sample(opt)
        cfg = tmp_path / f"{opt.name}.cfg"
        cfg.write_text(line + "\n")
        # a kernel option is given with a kernel that takes it
        kernel = ["--kernel", opt.kernels[0]] if opt.kernels else []
        from_flag = resolve(kernel + flag_args)[opt.name]
        from_config = resolve(kernel + ["--config", str(cfg)])[opt.name]
        assert from_flag == from_config == value != opt.default, opt.name
        assert resolve([])[opt.name] == opt.default


def test_tabulated_kernel_via_cli(tmp_path):
    table = tmp_path / "kernel.csv"
    table.write_text("tau,re\n0.0,1.0\n5.0,0.6\n10.0,0.2\n20.0,0.0\n")
    rc = main(["coeffs", "--kernel", "tabulated", "--table", str(table),
               "--tau-start", "2.0", "--tau-stop", "8.0", "--tau-step", "2.0",
               "--max-order", "2", "--out-dir", str(tmp_path)])
    assert rc == 0


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_flags(text):
    """(subcommand, flag) for each ``--flag`` the text names for a subcommand.

    Command lines ``recipspec <cmd> ... --flag`` (continuation lines joined,
    ``#`` comments dropped) and prose spans `` `<cmd> --flag` ``.
    """
    text = text.replace("\\\n", " ")
    named = set()
    for m in re.finditer(r"^\s*recipspec (\w+)([^#\n]*)", text, re.M):
        named.update((m[1], flag) for flag in re.findall(r"--[\w-]+", m[2]))
    for m in re.finditer(r"`(?:recipspec )?(\w+) (--[\w-]+)", text):
        if m[1] in cli.COMMANDS:
            named.add((m[1], m[2]))
    return named


def test_readme_names_only_real_flags():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    named = _readme_flags(README.read_text())
    assert named
    unknown = sorted((cmd, flag) for cmd, flag in named
                     if cmd not in sub.choices
                     or flag not in sub.choices[cmd]._option_string_actions)
    assert unknown == []
