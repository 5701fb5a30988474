"""Coefficient machinery: closed-form cross-checks, limits, bounds, tables.

Expected values are written out from their defining formulas inside the
tests, so each assertion carries its own oracle.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from recipspec.coefficients import (SMALL_R_THRESHOLD, _taylor, build_table,
                                    omega0_closed, omega2_closed, omega_bound,
                                    omega_limit, omega_n_closed_real,
                                    omega_n_general, omega_n_over_grid,
                                    omega_prime)
from recipspec.errors import DomainError, UnsupportedOrderError
from recipspec.kernels import DopplerLorentzian, FlatBand, Lorentzian
from recipspec.specfun import gauss_2f1_regularized, gauss_2f1_regularized_grid


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


def _mp_omega(n: int, r: complex) -> complex:
    """Omega_n from the double sum at 100 digits in mpmath, sharing no code with recipspec."""
    h = n // 2
    with mp.workdps(100):
        r = mp.mpc(r.real, r.imag)
        z, rs = abs(r) ** 2, mp.conj(r)
        total = mp.mpc(0)
        for k in range(n + 1):
            for j in range(min(k, h) + 1):
                a, b, c = 1 + j, 1 + j - k + h, 2 + 2 * j - k
                f, m = mp.mpf(0), 0
                while True:
                    t = mp.rf(a, m) * mp.rf(b, m) / mp.factorial(m) * mp.rgamma(c + m) * z ** m
                    f += t
                    # past the poles of 1/Gamma: stop once terminated or converged
                    if m >= 1 - c and (t == 0 if b <= 0 else abs(t) < mp.eps * abs(f)):
                        break
                    m += 1
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


class TestGridEvaluation:
    def test_matches_scalar_lorentzian(self):
        tau = np.linspace(0.05, 15.0, 40)  # spans the small-r threshold
        r = np.exp(-tau).astype(complex)
        for n in (0, 2, 8):
            grid = omega_n_over_grid(n, r)
            point = np.array([omega_n_general(n, complex(x)) for x in r])
            # stopping rules differ slightly (global vs per-point), and the
            # double sum amplifies that through cancellation
            np.testing.assert_allclose(grid, point, rtol=1e-8, atol=1e-12)

    def test_matches_scalar_flatband_signs(self):
        tau = np.linspace(0.3, 40.0, 57)
        r = np.asarray(FlatBand().eval(tau), dtype=complex)  # contains negative values
        for n in (0, 4):
            grid = omega_n_over_grid(n, r)
            point = np.array([omega_n_general(n, complex(x)) for x in r])
            np.testing.assert_allclose(grid, point, rtol=1e-10, atol=1e-12)

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
                assert table.values[i, k] == pytest.approx(
                    omega_n_general(n, r), rel=1e-12)
                assert table.centered[i, k] == pytest.approx(
                    table.values[i, k] - omega_limit(n), rel=1e-12)

    def test_order_zero_only(self):
        table = build_table(Lorentzian(1.0), [0.5, 1.0, 2.0], max_order=0)
        assert table.orders == [0]
        assert table.values.shape == (1, 3)

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
