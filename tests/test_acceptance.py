"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The checks themselves live in recipspec.validation so the `validate` CLI flow
runs exactly the same code.  Criteria and tolerances:

 1. closed-form cross-check, rel < 1e-9 (runtime < 1 s)
 2. complex-r cross-check, rel < 1e-9
 3. odd-order quadrature vanishing, < 1e-6
 4. series vs quadrature < 1e-4 absolute; MC within 3 batch stderr (< 5 min)
 5. limit identity, rel < 1e-8, spot values at omega = 0 and 1
 6. magnitude bound inequalities; absolute-integral majorant
 7. integrability constants: closed Apery/Catalan within 1e-8, 4.53 within 0.01
 8. angular/Struve identity, rel < 1e-8
 9. simulation vs theory: median < 0.5 dB, p95 < 1.5 dB in the -40 dB band
10. 1/f tail slope -1 +/- 0.1
11. byte determinism of cmd_simulate across reruns
"""

from recipspec import validation


def _report(result, budget_s=None):
    line = f"ACCEPTANCE {result.name}: {'PASS' if result.passed else 'FAIL'}"
    line += f" ({result.runtime_s:.1f}s)"
    print(line)
    print(f"  details: {result.details}")
    assert result.passed, result.details
    if budget_s is not None:
        assert result.runtime_s < budget_s, (
            f"runtime {result.runtime_s:.1f}s over budget {budget_s}s")


def test_criterion_01_closed_form_cross_check():
    _report(validation.check_closed_forms(), budget_s=1.0)


def test_criterion_02_complex_r_cross_check():
    _report(validation.check_complex_r())


def test_criterion_03_odd_order_vanishing():
    _report(validation.check_odd_orders())


def test_criterion_04_oracle_equivalence():
    _report(validation.check_oracle_equivalence(), budget_s=300.0)


def test_criterion_05_limit_identity():
    _report(validation.check_limit_identity())


def test_criterion_06_bound_inequalities():
    _report(validation.check_bounds())


def test_criterion_07_integrability_constants():
    _report(validation.check_integrability(), budget_s=60.0)


def test_criterion_08_struve_identity():
    _report(validation.check_struve())


def test_criterion_09_figure_reproduction():
    _report(validation.check_figure_reproduction(), budget_s=900.0)


def test_criterion_10_one_over_f_tail():
    _report(validation.check_tail_slope())


def test_criterion_11_determinism():
    _report(validation.check_determinism())
