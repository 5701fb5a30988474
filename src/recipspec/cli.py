"""Command-line interface: parameter sweeps, validation runs, file emission.

Subcommands: coeffs, spectrum, simulate, bounds, validate.  Every run writes a
manifest listing resolved parameters and the SHA-256 of each emitted file.
Exit codes: 0 ok, 1 validation failure, 2 usage/domain error, 3 accuracy error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .bounds import integrability_report
from .coefficients import build_table
from .errors import (AccuracyError, ConfigError, ConsistencyError, DomainError,
                     StatisticalQualityError, finite_nonnegative, finite_positive)
from .kernels import make_kernel
from .manifest import RunManifest, atomic_write_text, atomic_write_via, dump_json
from .simulator import SimulationConfig, run_experiment
from .spectrum import TauGrid, theoretical_spectrum

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_ACCURACY = 3


def _load_config_file(path) -> dict:
    """KEY=VALUE lines; '#' comments and blank lines ignored."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _config_bool(value: str) -> bool:
    if value not in ("true", "false"):
        raise ConfigError(f"expected true or false, got {value!r}")
    return value == "true"


def _resolve(args: argparse.Namespace, converters: dict) -> dict:
    """Fill parse results from the optional config file; flags win.

    A config key that is not an option of the subcommand, or a value its
    converter rejects, raises ConfigError.
    """
    config = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(config) - set(converters))
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    resolved = {}
    for key, (conv, default) in converters.items():
        val = getattr(args, key, None)
        if val is None:
            raw = config.get(key)
            try:
                val = conv(raw) if raw is not None else default
            except ValueError as exc:
                raise ConfigError(f"config {key}: {exc}") from None
        resolved[key] = val
    return resolved


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.add_argument("--out-dir", default=None, help="output directory")
    p.add_argument("--config", default=None, help="KEY=VALUE defaults file")


def _add_kernel_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", default=None,
                   choices=("lorentzian", "gaussian", "flatband",
                            "doppler_lorentzian", "tabulated"))
    p.add_argument("--a", type=float, default=None, help="decay rate")
    p.add_argument("--beta", type=float, default=None, help="frequency offset")
    p.add_argument("--table", default=None, help="CSV path for tabulated kernels")


def _kernel_from(resolved: dict):
    return make_kernel(resolved["kernel"], a=resolved["a"],
                       beta=resolved["beta"], table_path=resolved["table"])


_KERNEL_CONV = {
    "kernel": (str, "lorentzian"),
    "a": (float, 1.0),
    "beta": (float, 0.0),
    "table": (str, None),
}


def _out(resolved, name):
    import os
    return os.path.join(resolved["out_dir"], name)


def cmd_coeffs(args) -> int:
    conv = dict(_KERNEL_CONV)
    conv.update({
        "tau_start": (float, 0.05), "tau_stop": (float, 20.0),
        "tau_step": (float, 0.05), "max_order": (int, 20),
        "out_dir": (str, "."), "format": (str, "csv"), "seed": (int, None),
    })
    resolved = _resolve(args, conv)
    kernel = _kernel_from(resolved)
    start = finite_nonnegative(resolved["tau_start"], "--tau-start")
    stop = finite_nonnegative(resolved["tau_stop"], "--tau-stop")
    step = finite_positive(resolved["tau_step"], "--tau-step")
    if stop < start:
        raise DomainError(f"--tau-stop {stop!r} is below --tau-start {start!r}")
    lags = np.arange(start, stop + 1e-12, step)
    table = build_table(kernel, lags, resolved["max_order"])
    manifest = RunManifest("coeffs", {k: v for k, v in resolved.items()},
                           seed=resolved["seed"], package_version=__version__)
    if resolved["format"] == "csv":
        path = _out(resolved, "coeffs.csv")
        atomic_write_via(path, table.to_csv)
    else:
        path = _out(resolved, "coeffs.json")
        payload = [dict(zip(table.COLUMNS, row)) for row in table.rows()]
        atomic_write_text(path, dump_json(payload, indent=1))
    manifest.add_output(path)
    manifest.write(_out(resolved, "manifest.json"))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    conv = dict(_KERNEL_CONV)
    conv.update({
        "omega": (str, "0.0"), "order": (int, 20),
        "dtau": (float, 0.05), "half_points": (int, 512),
        "out_dir": (str, "."), "format": (str, "csv"), "seed": (int, None),
    })
    resolved = _resolve(args, conv)
    kernel = _kernel_from(resolved)
    omegas = [finite_nonnegative(tok, "omega") for tok in str(resolved["omega"]).split(",")]
    grid = TauGrid(dtau=resolved["dtau"], half_points=resolved["half_points"])
    manifest = RunManifest("spectrum", resolved, seed=resolved["seed"],
                           package_version=__version__)
    for w in omegas:
        result = theoretical_spectrum(kernel, w, resolved["order"], grid)
        stem = f"spectrum_omega{w:g}"
        if resolved["format"] == "csv":
            path = _out(resolved, stem + ".csv")
            atomic_write_via(path, result.to_csv)
        else:
            path = _out(resolved, stem + ".json")
            payload = {"freq": result.frequencies.tolist(),
                       "psd": result.psd.tolist()}
            atomic_write_text(path, dump_json(payload, indent=None))
        manifest.add_output(path)
        side = dict(result.metadata)
        side["dc_line_power"] = result.dc_line_power
        side_path = _out(resolved, stem + "_meta.json")
        atomic_write_text(side_path, dump_json(side))
        manifest.add_output(side_path)
    manifest.write(_out(resolved, "manifest.json"))
    return EXIT_OK


def cmd_simulate(args) -> int:
    conv = dict(_KERNEL_CONV)
    conv.update({
        "omega": (float, 0.0), "order": (int, None), "dt": (float, 0.1),
        "samples": (int, 2 ** 22), "fir_taps": (int, 1025),
        "segment_len": (int, 4096), "overlap": (float, 0.5),
        "window": (str, "hann"), "robust": (_config_bool, False),
        "threads": (int, 1), "dump_samples": (str, None),
        "out_dir": (str, "."), "seed": (int, 12345),
    })
    resolved = _resolve(args, conv)
    if resolved["threads"] < 1:
        raise ConfigError("--threads must be >= 1")
    kernel = _kernel_from(resolved)
    config = SimulationConfig(kernel=kernel, omega=resolved["omega"],
                              dt=resolved["dt"], n_samples=resolved["samples"],
                              seed=resolved["seed"],
                              fir_taps=resolved["fir_taps"])
    dump_path = (_out(resolved, resolved["dump_samples"])
                 if resolved["dump_samples"] else None)
    result = run_experiment(config, order=resolved["order"],
                            segment_len=resolved["segment_len"],
                            overlap_fraction=resolved["overlap"],
                            window_kind=resolved["window"],
                            robust=resolved["robust"],
                            dump_path=dump_path)
    manifest = RunManifest("simulate", resolved, seed=resolved["seed"],
                           package_version=__version__)
    if dump_path is not None:
        manifest.add_output(dump_path)
        manifest.add_output(str(dump_path) + ".json")
    for stem, spec_obj in (("empirical", result.empirical),
                           ("expected", result.expected),
                           ("theoretical", result.theoretical)):
        path = _out(resolved, stem + ".csv")
        atomic_write_via(path, spec_obj.to_csv)
        manifest.add_output(path)
    report = {
        "metrics": result.metrics,
        "fidelity": result.fidelity,
        "n_zero_denominators": result.diagnostics.n_zero_denominators,
        "dc_line_power_theory": result.theoretical.dc_line_power,
        "dc_line_power_empirical": result.empirical.dc_line_power,
    }
    report_path = _out(resolved, "report.json")
    atomic_write_text(report_path, dump_json(report))
    manifest.add_output(report_path)
    manifest.write(_out(resolved, "manifest.json"))
    return EXIT_OK


def cmd_bounds(args) -> int:
    conv = dict(_KERNEL_CONV)
    conv.update({"out_dir": (str, "."), "seed": (int, None)})
    resolved = _resolve(args, conv)
    kernel = _kernel_from(resolved)
    report = integrability_report(kernel)
    path = _out(resolved, "bounds.json")
    atomic_write_text(path, dump_json(report.to_dict()))
    manifest = RunManifest("bounds", resolved, seed=resolved["seed"],
                           package_version=__version__)
    manifest.add_output(path)
    manifest.write(_out(resolved, "manifest.json"))
    print(dump_json(report.to_dict()), end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validation import run_checks
    conv = {"profile": (str, "quick"), "out_dir": (str, "."), "seed": (int, None)}
    resolved = _resolve(args, conv)
    verdict = run_checks(resolved["profile"])
    path = _out(resolved, "validation.json")
    atomic_write_text(path, dump_json(verdict))
    manifest = RunManifest("validate", resolved, seed=resolved["seed"],
                           package_version=__version__)
    manifest.add_output(path)
    manifest.write(_out(resolved, "manifest.json"))
    for check in verdict["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']} ({check['runtime_s']:.1f}s)")
    if not verdict["passed"]:
        failed = [c["name"] for c in verdict["checks"] if not c["passed"]]
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recipspec",
        description="Spectral statistics of the reciprocal of a noncentered "
                    "complex Gaussian process")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="coefficient table over a lag grid")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    _add_kernel_opts(p)
    p.add_argument("--tau-start", type=float, default=None)
    p.add_argument("--tau-stop", type=float, default=None)
    p.add_argument("--tau-step", type=float, default=None)
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("spectrum", help="theoretical covariance spectrum")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    _add_kernel_opts(p)
    p.add_argument("--omega", default=None, help="value or comma list")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--dtau", type=float, default=None)
    p.add_argument("--half-points", type=int, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="simulate, invert, and compare spectra")
    _add_common(p)
    _add_kernel_opts(p)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--fir-taps", type=int, default=None)
    p.add_argument("--segment-len", type=int, default=None)
    p.add_argument("--overlap", type=float, default=None)
    p.add_argument("--window", default=None)
    p.add_argument("--robust", action="store_const", const=True, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker count (results are independent of it)")
    p.add_argument("--dump-samples", default=None,
                   help="also dump the raw generated stream to this file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="integrability report for a kernel")
    _add_common(p)
    _add_kernel_opts(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("validate", help="run the acceptance checks")
    _add_common(p)
    p.add_argument("--profile", choices=("quick", "full"), default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ConfigError, StatisticalQualityError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AccuracyError, ConsistencyError) as exc:
        print(f"accuracy: {exc}", file=sys.stderr)
        return EXIT_ACCURACY


if __name__ == "__main__":
    sys.exit(main())
