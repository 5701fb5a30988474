"""Self-tests of the benchmark: the reference, the PSD inversion, span arithmetic and counts."""

from __future__ import annotations

import collections
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import mpref
import run
import spans
import workloads


def test_reference_matches_closed_forms():
    """The mpmath double sum reproduces Omega_0 and Omega_2 in closed form."""
    with mp.workdps(mpref.DPS):
        for r in (mp.mpf("0.975"), mp.mpf("0.3"), mp.mpf("-0.5")):
            ln = mp.log(1 - r * r)
            closed0 = -ln / r
            closed2 = 4 / (1 + r) + 2 * ln / r ** 2
            assert abs(mpref.omega_n(0, r) / closed0 - 1) < mp.mpf("1e-30")
            assert abs(mpref.omega_n(2, r) / closed2 - 1) < mp.mpf("1e-30")


def test_reference_limit_is_small_r_value():
    """Omega_n(r) tends to the exact large-lag limit as r -> 0."""
    with mp.workdps(80):  # the negative powers of r cancel to r^(1-n) here
        for n in (2, 4, 6):
            lim = mpref.omega_limit(n)
            assert abs(mpref.omega_n(n, mp.mpf("1e-6")) - lim) < 1e-4 * abs(lim)


@pytest.mark.parametrize("complex_values", [False, True])
def test_inversion_recovers_known_lags(complex_values):
    rng = np.random.default_rng(5)
    m, dtau = 64, 0.05
    values = rng.standard_normal(m)
    if complex_values:
        values = values + 1j * rng.standard_normal(m)
    psd = mpref.half_sample_dft(values, dtau)
    recovered = mpref.invert_half_sample_dft(psd, dtau, range(m))
    assert np.max(np.abs(recovered - values)) < 1e-13 * np.max(np.abs(values))


def test_inversion_rejects_odd_grid():
    with pytest.raises(ValueError):
        mpref.invert_half_sample_dft(np.ones(5), 0.1, [0])


def _write_sweep_outputs(out_dir, a, omega20_factor):
    """Spectra of a sweep op as the program should write them, from the reference.

    Only the checked lags are nonzero: the inversion recovers each lag
    independently of the others.  ``omega20_factor`` scales Omega_20 - lim.
    """
    ks, dtau, m = workloads.SWEEP_CHECK_KS, workloads.SWEEP_DTAU, workloads.SWEEP_HALF_POINTS
    lags = mpref.midpoint_lags(dtau, max(ks) + 1)
    coeffs = {k: mpref.centered_coefficients(mpref.lorentzian_r(a, float(lags[k])),
                                             workloads.SWEEP_ORDER) for k in ks}
    for c in coeffs.values():
        c[-1] *= omega20_factor
    freqs = (np.arange(2 * m) - m) / (2.0 * m * dtau)
    out_dir.mkdir()
    outputs = []
    for w in workloads.SWEEP_OMEGAS:
        values = np.zeros(m)
        for k in ks:
            values[k] = mpref.autocovariance(coeffs[k], w)
        path = out_dir / f"spectrum_omega{w:g}.csv"
        rows = "".join(f"{float(f)!r},{float(p)!r}\n"
                       for f, p in zip(freqs, mpref.half_sample_dft(values, dtau)))
        path.write_text("freq,psd\n" + rows)
        outputs.append({"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()})
    (out_dir / "manifest.json").write_text(json.dumps({"outputs": outputs}))


def test_sweep_check_catches_a_wrong_high_order(tmp_path):
    """Omega_20 off by 0.1 % fails the sweep check; exact values pass it."""
    op = {"kind": "sweep", "a": 1.003}
    checker = workloads.Checker()
    _write_sweep_outputs(tmp_path / "exact", op["a"], 1.0)
    assert checker.check(op, str(tmp_path / "exact"))["accuracy_digits"] > 12
    _write_sweep_outputs(tmp_path / "perturbed", op["a"], 1.001)
    with pytest.raises(workloads.CheckFailed):
        checker.check(op, str(tmp_path / "perturbed"))


@pytest.mark.parametrize("a", [0.99, 1.01])
def test_sweep_vouches_for_lags_inside_the_accuracy_domain(a):
    lags = mpref.midpoint_lags(workloads.SWEEP_DTAU, max(workloads.SWEEP_CHECK_KS) + 1)
    vouched = [k for k in workloads.SWEEP_CHECK_KS
               if workloads.vouched(mpref.lorentzian_r(a, float(lags[k])), max(workloads.SWEEP_OMEGAS))]
    assert vouched == [2, 4, 10, 20]


def test_validate_probe_catches_a_shared_error(monkeypatch):
    """The probe compares Omega_n with the reference, so a change the closed forms share shows."""
    run.import_package()
    from recipspec import coefficients
    assert workloads.score(workloads.validate_probe())["accuracy_digits"] > 9
    original = coefficients.omega_n_general
    monkeypatch.setattr(coefficients, "omega_n_general",
                        lambda n, r, *a: original(n, r, *a) * (1 + 1e-5 * (n == 6)))
    with pytest.raises(workloads.CheckFailed):
        workloads.score(workloads.validate_probe())


def test_workload_names_match():
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


def test_self_time_subtracts_covered_child_time():
    # parent [0, 10]; children [1, 3] and [2, 4] overlap, [9, 12] overruns the
    # parent; the grandchild [1.5, 2.5] counts only against its own parent
    tree = [["p", 0.0, 10.0, -1, 0, None],
            ["c1", 1.0, 3.0, 0, 0, None],
            ["c2", 2.0, 4.0, 0, 0, None],
            ["g", 1.5, 2.5, 1, 0, None],
            ["c3", 9.0, 12.0, 0, 0, None]]
    assert spans.self_times(tree) == pytest.approx([6.0, 1.0, 2.0, 1.0, 3.0])
    assert spans.covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert spans.has_ancestor(tree, 3, "p") and not spans.has_ancestor(tree, 0, "p")


def _traced_sweep(cli, out_dir):
    """One small omega sweep under the tracer; returns span-name counts and table data."""
    tracer = spans.Tracer()
    tracer.install("recipspec", run.layer_targets())
    tracer.op = 0
    try:
        run.reset_process_memo()
        rc, err = run.quiet_main(cli, ["spectrum", "--kernel", "lorentzian", "--a", "1.0",
                                       "--omega", "0,0.4,0.8,1.2", "--order", "20",
                                       "--dtau", "1.0", "--half-points", "16",
                                       "--out-dir", str(out_dir)])
    finally:
        tracer.uninstall()
    assert rc == 0, err
    s = tracer.spans
    grid_in_tables = sum(1 for i, span in enumerate(s) if span[0] == "specfun.2f1_grid"
                         and spans.has_ancestor(s, i, "coefficients.build_table"))
    keys = {span[5] for span in s if span[0] == "coefficients.build_table"}
    return collections.Counter(span[0] for span in s), grid_in_tables, keys


def test_layer_counts_repeat_exactly(tmp_path):
    cli = run.import_package()
    from recipspec import spectrum
    original = spectrum.build_table
    first = _traced_sweep(cli, tmp_path / "a")
    second = _traced_sweep(cli, tmp_path / "b")
    assert spectrum.build_table is original  # every binding restored
    counts, grid_in_tables, keys = first
    assert counts["coefficients.build_table"] == 4  # one table per omega
    assert grid_in_tables == 4 * 726  # 2F1 families of an order-20 table
    assert len(keys) == 1  # the four tables are identical: useful ratio 1/4
    assert counts["spectrum.theoretical_spectrum"] == 4
    assert first == second


def test_tracer_wraps_the_callers_binding():
    run.import_package()
    from recipspec import coefficients, simulator, specfun, spectrum
    tracer = spans.Tracer()
    patched = tracer.install("recipspec", run.layer_targets())
    try:
        assert patched > 0
        assert spectrum.build_table.__wrapped__ is coefficients.build_table.__wrapped__
        assert simulator.theoretical_spectrum.__wrapped__ is not None
        assert coefficients.gauss_2f1_regularized_grid.__wrapped__ is \
            specfun.gauss_2f1_regularized_grid.__wrapped__
    finally:
        tracer.uninstall()
    assert not hasattr(spectrum.build_table, "__wrapped__")


def test_refuses_without_program_sources(tmp_path):
    """With only the benchmark's files present it exits nonzero and prints no result."""
    shutil.copytree(Path(__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
