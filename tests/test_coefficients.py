"""Coefficient machinery: closed-form cross-checks, limits, bounds, tables.

Expected values are written out from their defining formulas inside the
tests, so each assertion carries its own oracle.
"""

import cmath
import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recipspec.coefficients import (CLOSED_FORM_THRESHOLD, SMALL_R_THRESHOLD,
                                    _closed_form, _closed_form_terms, _double_sum,
                                    _taylor, _taylor_terms, build_table, omega0_closed,
                                    omega2_closed, omega_bound, omega_limit,
                                    omega_n_closed_real, omega_n_general, omega_n_over_grid,
                                    omega_prime)
from recipspec.errors import DomainError, UnsupportedOrderError
from recipspec.kernels import DopplerLorentzian, FlatBand, Lorentzian
from recipspec.specfun import REL_TOL, gauss_2f1_regularized, gauss_2f1_regularized_grid


class TestLimits:
    def test_small_orders(self):
        assert omega_limit(0) == 0.0
        assert omega_limit(2) == 2.0
        assert omega_limit(4) == -24.0
        assert omega_limit(6) == 420.0

    def test_odd_orders_zero(self):
        assert omega_limit(1) == 0.0 and omega_limit(7) == 0.0

    def test_formula_integer_exact(self):
        for n in range(0, 42, 2):
            m = n // 2
            expected = 2 * (-1) ** (m + 1) * (2 ** m - 1) * math.factorial(n) // math.factorial(m + 1)
            assert omega_limit(n) == float(expected)


class TestClosedForms:
    def test_frozen_values(self):
        ln34 = math.log(0.75)
        assert omega_n_closed_real(0, 0.5) == pytest.approx(-ln34 / 0.5, rel=1e-14)
        assert omega_n_closed_real(2, 0.5) == pytest.approx(
            4 / 1.5 + 2 * ln34 / 0.25, rel=1e-14)
        assert omega_n_closed_real(4, 0.5) == pytest.approx(
            -24 - 24 / 2.25 - 12 * ln34 / 0.125, rel=1e-14)
        assert omega_n_closed_real(2, -0.5) == pytest.approx(
            8.0 + 2 * ln34 / 0.25, rel=1e-14)
        # decimal spot values computed from the same expressions
        assert omega_n_closed_real(0, 0.5) == pytest.approx(0.575364144904, abs=1e-10)
        assert omega_n_closed_real(2, 0.5) == pytest.approx(0.365210087052, abs=1e-10)
        assert omega_n_closed_real(4, 0.5) == pytest.approx(-7.049187711290, abs=1e-9)
        assert omega_n_closed_real(2, -0.5) == pytest.approx(5.698543420387, abs=1e-9)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            omega_n_closed_real(8, 0.5)

    def test_order6_limit_extrapolation(self):
        assert omega_n_general(6, 1e-8).real == pytest.approx(420.0, rel=1e-5)

    def test_cross_check_against_general(self):
        for n in (0, 2, 4, 6):
            for r in (-0.9, -0.5, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9):
                closed = omega_n_closed_real(n, r)
                general = omega_n_general(n, r)
                assert abs(general - closed) / abs(closed) < 1e-9
                assert abs(general.imag) < 1e-9 * abs(closed)


class TestComplexR:
    POINTS = [0.5 * cmath.exp(-0.7j), math.exp(-1) * cmath.exp(-2j)]

    def test_order0(self):
        for r in self.POINTS:
            assert omega_n_general(0, r) == pytest.approx(omega0_closed(r), rel=1e-10)

    def test_order2(self):
        for r in self.POINTS:
            assert omega_n_general(2, r) == pytest.approx(omega2_closed(r), rel=1e-10)

    def test_odd_orders_vanish(self):
        assert omega_n_general(3, 0.4) == 0.0
        assert omega_n_general(1, 0.5 * cmath.exp(1j)) == 0.0


class TestOmegaPrime:
    def test_order0_unchanged(self):
        r = 0.37
        assert omega_prime(0, r) == pytest.approx(omega_n_general(0, r))

    def test_vanishes_at_large_lag(self):
        assert abs(omega_prime(2, 1e-9)) < 1e-7

    def test_order4_at_half(self):
        expected = omega_n_general(4, 0.5) + 24.0
        assert omega_prime(4, 0.5) == pytest.approx(expected, rel=1e-14)
        assert omega_prime(4, 0.5).real == pytest.approx(16.950812289, abs=1e-8)


class TestBound:
    def test_reference_points(self):
        assert omega_bound(2, 0.0) == pytest.approx(8 * math.pi, rel=1e-15)
        assert omega_bound(2, 0.5) == pytest.approx(32 * math.pi, rel=1e-15)
        assert omega_bound(4, 0.5) == pytest.approx(1024 * math.pi, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            omega_bound(2, 1.0)
        with pytest.raises(DomainError):
            omega_bound(0, 0.5)
        with pytest.raises(DomainError):
            omega_bound(3, 0.5)

    def test_inequality_holds(self):
        for n in range(2, 21, 2):
            for r in [x / 10 for x in range(1, 10)]:
                assert abs(omega_n_general(n, r)) < omega_bound(n, r)

    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8),
           st.sampled_from(range(2, 41, 2)))
    @settings(max_examples=60, deadline=None)
    def test_array_equals_per_element_calls(self, abs_r, n):
        got = omega_bound(n, np.array(abs_r))
        assert got.shape == (len(abs_r),)
        assert got.tolist() == [omega_bound(n, a) for a in abs_r]

    @pytest.mark.parametrize("bad", [1.0, -0.1, math.nan, math.inf])
    def test_one_bad_lane_raises(self, bad):
        with pytest.raises(DomainError):
            omega_bound(4, np.array([0.2, bad, 0.5]))


class TestSmallRPath:
    def test_zero_returns_limit(self):
        for n in (0, 2, 4, 6, 10):
            assert omega_n_general(n, 0.0) == complex(omega_limit(n))

    def test_expansion_matches_direct_in_overlap(self):
        # the Taylor polynomial must agree with the direct sum just above threshold
        for n in (0, 2, 4, 6, 10, 20):
            lim = omega_limit(n)
            for u in (1.0, -1.0, cmath.exp(0.8j)):
                r = u * 3e-4
                direct = omega_n_general(n, r)
                poly = _taylor(n, complex(r))
                assert abs(poly - direct) <= 1e-10 * abs(direct - lim) + 1e-15 * abs(lim)

    def test_continuity_across_threshold(self):
        # relative to the centered value: |Omega_n| ~ |lim| would hide a jump
        t = SMALL_R_THRESHOLD
        for n in (0, 2, 6, 20):
            lim = omega_limit(n)
            for u in (1.0, -1.0, cmath.exp(0.8j)):
                below = omega_n_general(n, u * t * (1 - 1e-9))
                above = omega_n_general(n, u * t)
                assert abs(below - above) <= 1e-8 * abs(above - lim) + 1e-15 * abs(lim)

    def test_grid_equals_scalar_below_threshold(self):
        r = np.array([0.0, 1e-7, -3e-5, 9.99e-5, 5e-5 * cmath.exp(2.1j)])
        for n in (0, 2, 8, 20):
            grid = omega_n_over_grid(n, r)
            assert list(grid) == [omega_n_general(n, x) for x in r]

    def test_limit_consistency(self):
        for n in (0, 2, 4, 6):
            diff = abs(omega_n_general(n, 1e-3) - omega_limit(n))
            assert diff < 0.01 * max(1.0, abs(omega_limit(n)))


class TestClosedFormPath:
    def test_exact_terms_for_every_even_order_to_40(self):
        # _closed_form_terms asserts that (1-r)^(n/2) divides its numerator and
        # that its 1/r^i part cancels the logarithm's
        for n in range(0, 41, 2):
            h = n // 2
            beta, b = _closed_form_terms(n)
            assert len(beta) == h
            assert b == -(-1) ** h * math.factorial(n) // math.factorial(h)

    def test_rounded_terms_are_pinned_for_every_even_order_to_40(self):
        # SHA-256 of the repr of both rounded expansions, from an independent
        # derivation: the closed form by Euler's transformation, a Beta integral
        # and partial fractions, the Taylor terms summed as Fractions
        text = repr([(_taylor_terms(n), _closed_form_terms(n)) for n in range(0, 41, 2)])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "430fbd56de444b2727e4cd166c0655708b7ba9e8ee101e9b667d812a2b980fd1")

    def test_terms_are_the_hand_written_forms(self):
        # omega_n_closed_real: 2 ln / r^2 + 4/(1+r), ..., 120 ln / r^4 + 320/(1+r)^3 + ...
        assert _closed_form_terms(0) == ([], -1)
        assert _closed_form_terms(2) == ([4.0], 2)
        assert _closed_form_terms(4) == ([0.0, -24.0], -12)
        assert _closed_form_terms(6) == ([80.0, 80.0, 320.0], 120)

    @pytest.mark.parametrize("n", range(0, 31, 2))
    def test_agrees_with_the_double_sum_across_the_crossover(self, n):
        t = CLOSED_FORM_THRESHOLD
        r = np.array([s * t * f for s in (1.0, -1.0) for f in (0.9, 0.97, 1.0, 1.03, 1.1)])
        closed, direct = _closed_form(n, r), _double_sum(n, r.astype(complex))
        # the double sum's 2F1 series stop at a relative tail of REL_TOL, and
        # above the threshold it loses digits: 2e-12 at n = 30 and 1.1 t
        np.testing.assert_allclose(closed, direct.real, rtol=5 * REL_TOL, atol=0)
        # and the one path picks each side of the threshold
        for x in r:
            want = _closed_form(n, np.array([x])) if abs(x) >= t else _double_sum(n, np.array([x + 0j]))
            assert omega_n_general(n, x) == complex(want[0])

    @given(st.lists(st.one_of(st.floats(-0.999, 0.999),
                              # complex lanes take the double sum: kept off |r| -> 1
                              st.builds(cmath.rect, st.floats(0.0, 0.9),
                                        st.floats(-math.pi, math.pi))),
                    min_size=1, max_size=40),
           st.sampled_from(range(0, 21, 2)))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_lane_is_independent_of_the_grid(self, lanes, n):
        r = np.array(lanes, dtype=complex)
        grid = omega_n_over_grid(n, r)
        for x, got in zip(r, grid):
            if x.imag == 0.0 and abs(x) >= CLOSED_FORM_THRESHOLD:
                assert got == omega_n_over_grid(n, np.array([x]))[0], x
                assert got.imag == 0.0


def _mp_reg2f1(a: int, b: int, c: int, z):
    """2F1(a, b; c; z) / Gamma(c) in mpmath for integers a >= 1, b, c and 0 <= z < 1."""
    if c < 1:  # the first 1-c terms sit on poles of 1/Gamma (DLMF 15.2.3_5)
        s = 1 - c
        return mp.rf(a, s) * mp.rf(b, s) * z ** s * _mp_reg2f1(a + s, b + s, 1 + s, z)
    if z < 0.96:  # mpmath's fixed-point Taylor summator
        return mp.mp.hypsum(2, 1, ("Z", "Z", "Z"), [a, b, c], z,
                            maxterms=10 ** 5) / mp.factorial(c - 1)
    return mp.hyp2f1(a, b, c, z) / mp.factorial(c - 1)  # mpmath's transformations at z -> 1


def _mp_omega(n: int, r: complex, dps: int = 100) -> complex:
    """Omega_n from the double sum at ``dps`` digits in mpmath, sharing no code with recipspec."""
    h = n // 2
    with mp.workdps(dps):
        r = mp.mpc(r.real, r.imag)
        z, rs = abs(r) ** 2, mp.conj(r)
        total = mp.mpc(0)
        for k in range(n + 1):
            for j in range(min(k, h) + 1):
                f = _mp_reg2f1(1 + j, 1 + j - k + h, 2 + 2 * j - k, z)
                comb = (-1) ** k * mp.factorial(n) / (mp.factorial(h - j) * mp.factorial(k - j))
                total += comb * f * rs ** (2 * j - k + 1)
        return complex((-1) ** h * total)


class TestMpmathReference:
    @pytest.mark.parametrize("n", [0, 2, 6, 10, 20])
    def test_small_and_threshold_r(self, n):
        m = n // 2
        lim = 2 * (-1) ** (m + 1) * (2 ** m - 1) * math.factorial(n) / math.factorial(m + 1)
        for mag in (1e-6, 3e-5, 9.99e-5, 1.001e-4, 1e-3):
            for phase in (0.0, math.pi, 0.8):
                r = cmath.rect(mag, phase)
                got, ref = omega_n_general(n, r), _mp_omega(n, r)
                # one rounding of Omega_n ~ lim limits the centered error near lim
                assert abs(got - ref) <= 1e-11 * abs(ref - lim) + 1e-15 * abs(lim), (mag, phase)

    @pytest.mark.parametrize("n", range(0, 21, 2))
    def test_real_r_near_one(self, n):
        # the closed-form path against a 50-digit double sum, both signs; each
        # |r| near 1 costs seconds of reference time, so the set stays small
        for r in (0.3, -0.3, 0.5, -0.5, -0.7, 0.9, -0.95, 0.975, -0.999, 0.999):
            got, ref = omega_n_general(n, r), _mp_omega(n, r, dps=50)
            assert got.imag == 0.0
            assert abs(got.real - ref.real) <= 3e-13 * abs(ref.real), r

    @pytest.mark.parametrize("n, errors", [
        (14, (8.4e-9, 6.5e-10, 2.2e-11, 1.3e-11, 2.0e-12)),
        (20, (2.7e-5, 5.6e-8, 1.0e-8, 1.1e-9, 1.3e-10))])
    def test_complex_r_near_one(self, n, errors):
        # the double sum at |r| 0.93..0.76 against a 50-digit one, relative to
        # |Omega_n - lim|, where its cancellation shows; ``errors`` are the
        # measured errors, and both the lone lane and the lane of a grid must
        # stay within ten times them
        r = np.asarray(DopplerLorentzian(1.0, 1.0).eval(0.05 * (np.arange(1024) + 0.5)),
                       dtype=complex)
        grid = omega_n_over_grid(n, r)
        for k, err in zip(range(1, 6), errors):
            ref = _mp_omega(n, complex(r[k]), dps=50)
            scale = abs(ref - omega_limit(n))
            assert abs(omega_n_general(n, r[k]) - ref) <= 10 * err * scale, (k, abs(r[k]))
            assert abs(grid[k] - ref) <= 10 * err * scale, (k, abs(r[k]))


class TestGridEvaluation:
    def test_matches_scalar_lorentzian(self):
        tau = np.linspace(0.05, 15.0, 40)  # spans the small-r threshold
        r = np.exp(-tau).astype(complex)
        for n in (0, 2, 8):
            grid = omega_n_over_grid(n, r)
            point = np.array([omega_n_general(n, complex(x)) for x in r])
            assert np.array_equal(grid, point), n

    def test_matches_scalar_flatband_signs(self):
        tau = np.linspace(0.3, 40.0, 57)
        r = np.asarray(FlatBand().eval(tau), dtype=complex)  # contains negative values
        for n in (0, 4):
            grid = omega_n_over_grid(n, r)
            point = np.array([omega_n_general(n, complex(x)) for x in r])
            assert np.array_equal(grid, point), n

    def test_doppler_lanes_are_independent_of_the_grid(self):
        # the README spectrum grid: its 184 complex lanes with |r| >= 1e-4 take the double sum
        r = np.asarray(DopplerLorentzian(1.0, 2.0).eval(0.05 * (np.arange(1024) + 0.5)),
                       dtype=complex)
        for n in (0, 8, 20):
            grid = omega_n_over_grid(n, r)
            point = np.array([omega_n_general(n, x) for x in r])
            assert np.array_equal(grid, point), n

    def test_general_is_the_one_lane_grid(self):
        # one path: the scalar functions are bit for bit a one-element grid call
        t = SMALL_R_THRESHOLD
        xs = [0.0, 0.5 * t, -0.9 * t, t, 2 * t, -3e-3, 0.5, -0.9, 0.93,
              0.3 * cmath.exp(0.8j), 0.8 * cmath.exp(-2.1j), 0.5 * t * cmath.exp(2.1j)]
        for n in (0, 2, 8, 20):
            for x in xs:
                assert omega_n_general(n, x) == omega_n_over_grid(n, np.array([x]))[0], (n, x)
        for a, b, c in [(1, 1, 2), (2, 3, -1), (4, -2, 3), (1, 1, 0), (5, 2, -4), (11, 1, 2)]:
            for z in (0.0, 1e-9, 0.25, 0.81, 0.97):
                assert gauss_2f1_regularized(a, b, c, z) == \
                    gauss_2f1_regularized_grid(a, b, c, np.array([z]))[0], (a, b, c, z)


class TestBuildTable:
    def test_composition(self):
        table = build_table(Lorentzian(1.0), [0.5, 1.0], max_order=4)
        assert table.orders == [0, 2, 4]
        for k, tau in enumerate([0.5, 1.0]):
            r = math.exp(-tau)
            for i, n in enumerate(table.orders):
                assert table.values[i, k] == omega_n_general(n, r)
                assert table.centered[i, k] == pytest.approx(
                    table.values[i, k] - omega_limit(n), rel=1e-12)

    def test_order_zero_only(self):
        table = build_table(Lorentzian(1.0), [0.5, 1.0, 2.0], max_order=0)
        assert table.orders == [0]
        assert table.values.shape == (1, 3)

    def test_empty_grid_gives_empty_table(self):
        table = build_table(Lorentzian(1.0), [], max_order=4)
        assert table.orders == [0, 2, 4]
        assert table.values.shape == table.centered.shape == (3, 0)
        assert table.rows() == []

    def test_zero_lag_rejected(self):
        with pytest.raises(DomainError, match="midpoint"):
            build_table(Lorentzian(1.0), [0.0, 0.5], max_order=2)

    def test_doppler_complex_entries(self):
        k = DopplerLorentzian(a=1.0, beta=2.0)
        table = build_table(k, [1.0], max_order=2)
        r = complex(k.eval(1.0))
        assert table.values[0, 0] == pytest.approx(omega0_closed(r), rel=1e-9)
        assert table.values[1, 0] == pytest.approx(omega2_closed(r), rel=1e-9)
        assert abs(table.values[0, 0].imag) > 0

    def test_csv_output(self, tmp_path):
        table = build_table(Lorentzian(1.0), [0.5, 1.0], max_order=4)
        path = tmp_path / "coeffs.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,n,re_omega,im_omega,re_omega_prime,im_omega_prime"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.5 and int(first[1]) == 0
        assert float(first[2]) == pytest.approx(omega_n_general(0, math.exp(-0.5)).real)
