"""Command-line interface: parameter sweeps, validation runs, file emission.

Subcommands: coeffs, spectrum, simulate, bounds, validate.  Each declares its
options once, in its table below; the table makes both the ``--flag`` and the
``--config`` key, with the same converter, choices and default.  Every run
writes a manifest listing resolved parameters and the SHA-256 of each emitted
file.  Exit codes: 0 ok, 1 validation failure, 2 usage/domain error,
3 accuracy error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class Option:
    """One option of a subcommand: the flag ``--name`` (dashes for
    underscores) and the config key ``name``.

    ``type`` converts the text of either.  The default applies when neither
    the flag nor the config file gives a value.  An option with ``kernels``
    parameterizes only those kernels; giving it for another one is an error.
    """

    name: str
    type: Callable = str
    default: object = None
    help: str = ""
    choices: tuple = ()
    kernels: tuple = ()


_COMMON = (Option("out_dir", default=".", help="output directory"),)


def _kernel(*choices: str) -> Option:
    return Option("kernel", default="lorentzian", help="correlation kernel", choices=choices)


_ANALYTIC = ("lorentzian", "gaussian", "flatband", "doppler_lorentzian")
_A = Option("a", float, 1.0, "decay rate",
            kernels=("lorentzian", "gaussian", "doppler_lorentzian"))
_BETA = Option("beta", float, 0.0, "frequency offset", kernels=("doppler_lorentzian",))
_KERNEL = (_kernel(*_ANALYTIC, "tabulated"), _A, _BETA,
           Option("table", help="CSV path for tabulated kernels", kernels=("tabulated",)))

_FORMAT = (Option("format", default="csv", help="output file format",
                  choices=("csv", "json")),)


def _convert(opt: Option, text: str):
    """A config value through the option's converter and choices."""
    value = opt.type(text)
    if opt.choices and value not in opt.choices:
        raise ValueError(f"invalid choice {value!r} (choose from {', '.join(opt.choices)})")
    return value


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


def _resolve(args: argparse.Namespace) -> dict:
    """Each option of the subcommand from its flag, else the config file, else its default.

    A config key that is not an option of the subcommand, a value its
    converter or choices reject, or a kernel option given for a kernel that
    takes no such parameter raises ConfigError.
    """
    options = COMMANDS[args.command][1]
    config = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(config) - {opt.name for opt in options})
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    resolved = {}
    for opt in options:
        value = getattr(args, opt.name)
        if value is None:
            raw = config.get(opt.name)
            try:
                value = opt.default if raw is None else _convert(opt, raw)
            except ValueError as exc:
                raise ConfigError(f"config {opt.name}: {exc}") from None
        resolved[opt.name] = value
    unused = [opt.name for opt in options
              if opt.kernels and resolved["kernel"] not in opt.kernels
              and (getattr(args, opt.name) is not None or opt.name in config)]
    if unused:
        raise ConfigError(f"kernel {resolved['kernel']} takes no {', '.join(unused)}")
    return resolved


def _emit(manifest: RunManifest, name: str, content) -> None:
    """Write ``content`` (text, or a function that writes a path) atomically
    into the output directory and record the file in the manifest."""
    path = os.path.join(manifest.parameters["out_dir"], name)
    if callable(content):
        atomic_write_via(path, content)
    else:
        atomic_write_text(path, content)
    manifest.add_output(path)


def _kernel_from(p: dict):
    return make_kernel(p["kernel"], a=p["a"], beta=p.get("beta", 0.0),
                       table_path=p.get("table"))


def cmd_coeffs(p: dict, manifest: RunManifest) -> int:
    kernel = _kernel_from(p)
    start = finite_nonnegative(p["tau_start"], "--tau-start")
    stop = finite_nonnegative(p["tau_stop"], "--tau-stop")
    step = finite_positive(p["tau_step"], "--tau-step")
    if stop < start:
        raise DomainError(f"--tau-stop {stop!r} is below --tau-start {start!r}")
    lags = np.arange(start, stop + 1e-12, step)
    table = build_table(kernel, lags, p["max_order"])
    if p["format"] == "csv":
        _emit(manifest, "coeffs.csv", table.to_csv)
    else:
        payload = [dict(zip(table.COLUMNS, row)) for row in table.rows()]
        _emit(manifest, "coeffs.json", dump_json(payload, indent=1))
    return EXIT_OK


def cmd_spectrum(p: dict, manifest: RunManifest) -> int:
    kernel = _kernel_from(p)
    omegas = [finite_nonnegative(tok, "omega") for tok in str(p["omega"]).split(",")]
    stems = [f"spectrum_omega{w:g}" for w in omegas]
    for i, stem in enumerate(stems):
        if stem in stems[:i]:
            raise DomainError(f"omegas {omegas[stems.index(stem)]!r} and {omegas[i]!r} "
                              f"would both write {stem}.{p['format']}")
    grid = TauGrid(dtau=p["dtau"], half_points=p["half_points"])
    for w, stem in zip(omegas, stems):
        result = theoretical_spectrum(kernel, w, p["order"], grid)
        if p["format"] == "csv":
            _emit(manifest, stem + ".csv", result.to_csv)
        else:
            payload = {"freq": result.frequencies.tolist(), "psd": result.psd.tolist()}
            _emit(manifest, stem + ".json", dump_json(payload, indent=None))
        side = dict(result.metadata)
        side["dc_line_power"] = result.dc_line_power
        _emit(manifest, stem + "_meta.json", dump_json(side))
    return EXIT_OK


def cmd_simulate(p: dict, manifest: RunManifest) -> int:
    config = SimulationConfig(kernel=_kernel_from(p), omega=p["omega"], dt=p["dt"],
                              n_samples=p["samples"], seed=p["seed"],
                              fir_taps=p["fir_taps"])
    dump_path = (os.path.join(p["out_dir"], p["dump_samples"])
                 if p["dump_samples"] else None)
    result = run_experiment(config, order=p["order"], segment_len=p["segment_len"],
                            dump_path=dump_path)
    if dump_path is not None:
        manifest.add_output(dump_path)
        manifest.add_output(dump_path + ".json")
    for stem, spec_obj in (("empirical", result.empirical),
                           ("expected", result.expected),
                           ("theoretical", result.theoretical)):
        _emit(manifest, stem + ".csv", spec_obj.to_csv)
    report = {
        "metrics": result.metrics,
        "fidelity": result.fidelity,
        "n_zero_denominators": result.n_zero_denominators,
        "dc_line_power_theory": result.theoretical.dc_line_power,
        "dc_line_power_empirical": result.empirical.dc_line_power,
        "stage_s": result.stage_s,
        "workers": result.workers,
    }
    _emit(manifest, "report.json", dump_json(report))
    return EXIT_OK


def cmd_bounds(p: dict, manifest: RunManifest) -> int:
    text = dump_json(integrability_report(_kernel_from(p)).to_dict())
    _emit(manifest, "bounds.json", text)
    print(text, end="")
    return EXIT_OK


def cmd_validate(p: dict, manifest: RunManifest) -> int:
    from .validation import run_checks
    verdict = run_checks(p["profile"])
    _emit(manifest, "validation.json", dump_json(verdict))
    for check in verdict["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']} ({check['runtime_s']:.1f}s)")
    if not verdict["passed"]:
        failed = [c["name"] for c in verdict["checks"] if not c["passed"]]
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


#: subcommand -> (help, option table, command)
COMMANDS = {
    "coeffs": ("coefficient table over a lag grid", _COMMON + _FORMAT + _KERNEL + (
        Option("tau_start", float, 0.05, "first lag"),
        Option("tau_stop", float, 20.0, "last lag"),
        Option("tau_step", float, 0.05, "lag spacing"),
        Option("max_order", int, 20, "highest series order"),
    ), cmd_coeffs),
    "spectrum": ("theoretical covariance spectrum", _COMMON + _FORMAT + _KERNEL + (
        Option("omega", default="0.0", help="offset: a value or a comma list"),
        Option("order", int, 20, "series order"),
        Option("dtau", float, 0.05, "midpoint lag spacing"),
        Option("half_points", int, 512, "lags on each side of the origin"),
    ), cmd_spectrum),
    "simulate": ("simulate, invert, and compare spectra", _COMMON + (
        _kernel("lorentzian", "flatband"), _A,
        Option("seed", int, 12345, "RNG seed"),
        Option("omega", float, 0.0, "offset"),
        Option("order", int, None, "series order (default 10 for flatband, else 20)"),
        Option("dt", float, 0.1, "sample spacing"),
        Option("samples", int, 2 ** 22, "number of samples"),
        Option("fir_taps", int, SimulationConfig.fir_taps, "flat-band FIR length",
               kernels=("flatband",)),
        Option("segment_len", int, 4096, "Welch segment length"),
        Option("dump_samples", help="also dump the raw generated stream to this file"),
    ), cmd_simulate),
    "bounds": ("integrability report for a kernel", _COMMON + (
        _kernel(*_ANALYTIC), _A, _BETA), cmd_bounds),
    "validate": ("run the acceptance checks", _COMMON + (
        Option("profile", default="quick", help="check profile", choices=("quick", "full")),
    ), cmd_validate),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recipspec",
        description="Spectral statistics of the reciprocal of a noncentered "
                    "complex Gaussian process")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="KEY=VALUE defaults file; flags win")
        for opt in options:
            flag = "--" + opt.name.replace("_", "-")
            text = opt.help if opt.default is None else f"{opt.help} (default {opt.default})"
            p.add_argument(flag, type=opt.type, choices=opt.choices or None, help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _resolve(args)
        manifest = RunManifest(args.command, params, seed=params.get("seed"))
        code = COMMANDS[args.command][2](params, manifest)
        manifest.write(os.path.join(params["out_dir"], "manifest.json"))
        return code
    except (DomainError, ConfigError, StatisticalQualityError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AccuracyError, ConsistencyError) as exc:
        print(f"accuracy: {exc}", file=sys.stderr)
        return EXIT_ACCURACY


if __name__ == "__main__":
    sys.exit(main())
