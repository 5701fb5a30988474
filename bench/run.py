"""recipspec benchmark: time, memory and accuracy of the CLI on three workloads.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One process, one caller, one op at a time (a closed loop).  Each op is one
``recipspec.cli.main([...])`` call writing into its own directory, so an op
costs what a user's CLI run costs: computing, CSV writing and manifest
hashing.  Ops run until ``--seconds`` of op time have been measured, in whole
passes of the workload's op cycle.  Each op's output is checked after its
timed region.  ``--trace 1`` repeats the loop with spans recorded around the
package's layer functions and reports per-layer metrics instead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A per-run record (inputs
of every op, its status, check details and, when traced, every span) is
written to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: setup samples per run: this process plus SETUP_CHILDREN fresh interpreters
SETUP_CHILDREN = 4

#: the error the generator's 3-sigma fidelity gate raises; an op stopped by it
#: is a refusal (counted in ``failed``), not a wrong output
GATE_REFUSAL = "generator ACF deviates"

#: op statuses.  Every status but "ok" counts in ``failed``; "wrong" and
#: "error" also make the run incorrect.  Ops that ran to completion with
#: verified deterministic outputs ("ok", "out_of_tolerance") are timed.
COMPLETED = ("ok", "out_of_tolerance")
HARMLESS = ("ok", "out_of_tolerance", "refused")

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "wall_s": "s",
             "peak_rss_mb": "MB", "accuracy_digits": "digits"}

#: the workloads of ``workloads.WORKLOADS``, named here so that arguments are
#: parsed and set-up is measured before that module imports numpy
WORKLOAD_NAMES = ("simulate", "sweep", "validate_quick")

VALIDATE_CHECKS = ("closed_form_cross_check", "complex_r_cross_check",
                   "odd_order_vanishing", "limit_identity", "bound_inequalities",
                   "integrability_constants", "struve_identity", "one_over_f_tail")


def import_package():
    """Import recipspec from this checkout's ``src``, never from site-packages."""
    if not (SRC / "recipspec" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'recipspec'} not found; run from a recipspec checkout")
    sys.path.insert(0, str(SRC))
    import recipspec.cli
    import recipspec.validation  # imported lazily by `validate`; part of every set-up
    if Path(recipspec.__file__).resolve().parent != SRC / "recipspec":
        sys.exit(f"error: imported recipspec from {recipspec.__file__}, not {SRC}")
    return recipspec.cli


def quiet_main(cli, args):
    """cli.main with its printing captured; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(args)
    return rc, err.getvalue()


def setup_once() -> float:
    """Import plus first-call cost: a tiny spectrum and a tiny simulation."""
    t0 = time.perf_counter()
    cli = import_package()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as d:
        for args in (["spectrum", "--omega", "0.5", "--order", "2",
                      "--half-points", "16"],
                     ["simulate", "--omega", "0.5", "--order", "2", "--samples", "65536",
                      "--segment-len", "256", "--seed", "1"]):
            rc, err = quiet_main(cli, args + ["--out-dir", d])
            if rc != 0:
                sys.exit(f"error: set-up call {args[0]} exited {rc}: {err.strip()}")
    return time.perf_counter() - t0


def setup_samples() -> list:
    """Set-up seconds of this process, then of SETUP_CHILDREN fresh interpreters."""
    samples = [setup_once()]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def blas_threads():
    """Threads OpenBLAS reports, read from the loaded library; None if not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "blas_threads": blas_threads(),
            "machine": platform.machine()}


def reset_process_memo() -> None:
    """Empty the package's per-process memo so every op pays what a fresh CLI run pays.

    Real CLI runs are one command per process; without this, ops after the
    first would skip work a user never skips, and per-op call counts would
    depend on the op's position in the run.
    """
    from recipspec import coefficients
    memo = getattr(coefficients, "_RAY_CACHE", None)
    if memo is not None:
        memo.clear()


def run_op(cli, checker, op: dict, tracer=None) -> dict:
    """One timed CLI call, then its output check (untimed, and never traced)."""
    import workloads
    reset_process_memo()
    gc.collect()
    rec = {"index": op["index"], "inputs": {k: v for k, v in op.items() if k != "index"}}
    with tempfile.TemporaryDirectory(dir=OUT) as d:
        if tracer is not None:
            tracer.op = op["index"]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc, err = quiet_main(cli, op["args"] + ["--out-dir", d])
        except Exception:  # a crash of the program under test is a failed op
            rec.update(seconds=time.perf_counter() - t0, status="error",
                       error=traceback.format_exc())
            return rec
        finally:
            if tracer is not None:
                tracer.op = None
        rec["seconds"] = time.perf_counter() - t0
        rec["cpu_seconds"] = time.process_time() - c0
        rec["exit_code"] = rc
        if rc != 0:
            refused = rc == 2 and GATE_REFUSAL in err
            rec.update(status="refused" if refused else "error", error=err.strip())
            return rec
        try:
            rec["details"] = checker.check(op, d)
            rec["status"] = "ok"
        except workloads.StatisticalCheckFailed as exc:
            rec.update(details=exc.details, status="out_of_tolerance", error=str(exc))
        except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
            rec.update(status="wrong", error=f"{type(exc).__name__}: {exc}")
    return rec


def end_to_end(records, setup, per_pass) -> dict:
    done = [r for r in records if r["status"] in COMPLETED]
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(r["seconds"] for r in done),
        "wall_s": sum(r["seconds"] for r in records) / (len(records) // per_pass),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_digits": min(r["details"]["accuracy_digits"] for r in done),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_targets():
    """Traced functions: object -> (span name, tag).  Names follow the package modules."""
    import hashlib

    from recipspec import bounds, coefficients, manifest, oracle, simulator, specfun, spectrum

    def table_key(kernel, lags, max_order, *args, **kwargs):
        import numpy as np
        h = hashlib.sha1(json.dumps(kernel.describe(), sort_keys=True).encode())
        h.update(np.ascontiguousarray(lags, dtype=float).tobytes())
        h.update(str(max_order).encode())
        return h.hexdigest()

    targets = {
        specfun.gauss_2f1_regularized_grid: ("specfun.2f1_grid", None),
        specfun.gauss_2f1_regularized: ("specfun.2f1_scalar", None),
        coefficients.build_table: ("coefficients.build_table", table_key),
    }
    for mod, names in ((spectrum, ("theoretical_spectrum", "welch_covariance_spectrum",
                                   "welch_expected_spectrum")),
                       (simulator, ("generate_gaussian", "generator_fidelity_check", "invert")),
                       (oracle, ("omega_n_quadrature", "angular_struve_check",
                                 "abs_convergence_check")),
                       (bounds, ("lorentzian_l1_numeric", "gaussian_l1_bound")),
                       (manifest, ("atomic_write_text", "atomic_write_via", "sha256_of"))):
        short = mod.__name__.rsplit(".", 1)[-1]
        for name in names:
            targets[getattr(mod, name)] = (f"{short}.{name}", None)
    return targets


#: per-layer metrics: name -> unit; every one is reported on every workload
#: (0 where the workload does not reach the layer)
PER_LAYER_UNITS = {
    "specfun.2f1_grid.calls": "count", "specfun.2f1_grid.self_s": "s",
    "specfun.2f1_scalar.calls": "count", "specfun.2f1_scalar.self_s": "s",
    "coefficients.build_table.calls": "count", "coefficients.build_table.self_s": "s",
    "coefficients.2f1_per_table": "count", "coefficients.table_useful_ratio": "ratio",
    "spectrum.theoretical_spectrum.self_s": "s",
    "spectrum.welch_covariance_spectrum.s": "s",
    "spectrum.welch_expected_spectrum.self_s": "s",
    "simulator.generate_gaussian.s": "s", "simulator.generator_fidelity_check.s": "s",
    "simulator.invert.s": "s",
    "simulator.welch_p95_db": "dB", "simulator.gate_worst_sigma": "sigma",
    "oracle.omega_n_quadrature.s": "s", "oracle.angular_struve_check.s": "s",
    "oracle.abs_convergence_check.s": "s",
    "bounds.lorentzian_l1_numeric.s": "s", "bounds.gaussian_l1_bound.s": "s",
    **{f"validation.{c}.runtime_s": "s" for c in VALIDATE_CHECKS},
    "manifest.bytes_written": "B", "manifest.write_s": "s",
    "accuracy.vouched_min_digits": "digits", "accuracy.worst_digits": "digits",
    "trace.spans": "count", "trace.op_p50_s": "s",
}


def per_layer(records, tracer) -> dict:
    """Per-op means over the run's completed ops, from the spans and check details.

    A metric named ``<span>.calls``, ``<span>.self_s`` or ``<span>.s`` is the
    span's call count, self time or inclusive time.
    """
    import spans as sp
    done = [r for r in records if r["status"] in COMPLETED]
    done_ops = {r["index"] for r in done}
    n = len(done)
    spans = tracer.spans
    selfs = sp.self_times(spans)
    stats = {"calls": {}, "self_s": {}, "s": {}}
    grid_in_tables = 0
    table_keys = {}
    for i, s in enumerate(spans):
        if s[4] not in done_ops:
            continue
        name = s[0]
        for stat, value in (("calls", 1), ("self_s", selfs[i]), ("s", s[2] - s[1])):
            stats[stat][name] = stats[stat].get(name, 0) + value
        if name == "specfun.2f1_grid" and sp.has_ancestor(spans, i, "coefficients.build_table"):
            grid_in_tables += 1
        if name == "coefficients.build_table":
            table_keys.setdefault(s[4], set()).add(s[5])
    tables = stats["calls"].get("coefficients.build_table", 0)
    n_spans = sum(stats["calls"].values())

    def mean_detail(key):
        return sum(r["details"].get(key, 0.0) for r in done) / n

    values = {
        "coefficients.2f1_per_table": grid_in_tables / tables if tables else 0.0,
        "coefficients.table_useful_ratio":
            sum(len(k) for k in table_keys.values()) / tables if tables else 0.0,
        "simulator.welch_p95_db": mean_detail("welch_p95_db"),
        "simulator.gate_worst_sigma": mean_detail("gate_worst_sigma"),
        "manifest.bytes_written": mean_detail("bytes_written"),
        "manifest.write_s": sum(stats["s"].get(f"manifest.{f}", 0.0) for f in
                                ("atomic_write_text", "atomic_write_via", "sha256_of")) / n,
        "accuracy.vouched_min_digits": min(r["details"]["vouched_min_digits"] for r in done),
        "accuracy.worst_digits": min(r["details"]["worst_digits"] for r in done),
        "trace.spans": n_spans / n,
        "trace.op_p50_s": statistics.median(r["seconds"] for r in done),
    }
    for check in VALIDATE_CHECKS:
        values[f"validation.{check}.runtime_s"] = sum(
            r["details"].get("check_runtime_s", {}).get(check, 0.0) for r in done) / n
    for metric in PER_LAYER_UNITS:
        span, _, stat = metric.rpartition(".")
        if metric not in values:
            values[metric] = stats[stat].get(span, 0) / n
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    # One BLAS thread: with two cores and one op at a time, a second OpenBLAS
    # thread only spin-waits when another process holds the other core, which
    # made the same quadrature up to 30x slower.  Set before numpy is imported;
    # set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One fixed hash seed: str hashes order sets, and the sweep's peak memory
    # moved by 8 MB between hash seeds.  The interpreter reads the seed only
    # when it starts, so the script replaces itself with a fresh start.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *(sys.argv[1:] if argv is None else argv)])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_once()}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    # set-up first, so that its samples include importing numpy
    setup = setup_samples()
    cli = sys.modules["recipspec.cli"]
    import spans as sp
    import workloads
    make_ops, per_pass, min_ops = workloads.WORKLOADS[args.workload]
    checker = workloads.Checker()
    tracer = None
    if args.trace:
        tracer = sp.Tracer()
        tracer.install("recipspec", layer_targets())

    records = []
    measured = 0.0
    for index, op in enumerate(make_ops(args.seed)):
        op["index"] = index
        rec = run_op(cli, checker, op, tracer)
        records.append(rec)
        measured += rec["seconds"]
        print(f"op {index} {rec['status']} {rec['seconds']:.3f}s", file=sys.stderr)
        done = index + 1
        if done % per_pass == 0 and done >= min_ops and measured >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    n_ok = sum(r["status"] == "ok" for r in records)
    n_completed = sum(r["status"] in COMPLETED for r in records)
    correct = n_completed > 0 and all(r["status"] in HARMLESS for r in records)
    result = {"correct": correct, "attempted": len(records),
              "failed": len(records) - n_ok, "metrics": {}}
    if n_completed:
        result["metrics"] = (per_layer(records, tracer) if tracer is not None
                             else end_to_end(records, setup, per_pass))
    run_record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_info(), "setup_s": setup,
                  "ops": records, "result": result,
                  "spans": tracer.to_json() if tracer is not None else None}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(run_record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
