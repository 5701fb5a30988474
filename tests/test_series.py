"""Series assembly: truncation behavior, floor identities, scaling."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recipspec.coefficients import omega_bound, omega_n_general
from recipspec.errors import DomainError
from recipspec.series import (asymptotic_floor, autocorrelation, autocovariance,
                              floor_partial, tail_bound)

#: real and complex r with |r| < 0.95, a few lanes at a time
_R = st.one_of(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True).map(complex),
               st.builds(cmath.rect, st.floats(0.0, 0.95, exclude_max=True),
                         st.floats(-math.pi, math.pi)))
R_ARRAYS = st.lists(_R, min_size=1, max_size=5).map(np.array)
OMEGAS = st.floats(0.0, 1.2)
ORDERS = st.sampled_from((0, 2, 10, 20))


def _scalar_tail_bound(abs_r: float, w: float, order: int) -> float:
    """Reference: the tail majorant's loop run for one |r| in Python floats."""
    if w == 0.0:
        return 0.0
    n = order + 2
    t = float(omega_bound(n, abs_r)) * w ** n / math.factorial(n)
    total = 0.0
    for _ in range(400):
        total += t
        ratio = 4.0 * w * w / ((n + 1.0) * (1.0 - abs_r))
        if ratio < 0.5:
            return total + t * ratio / (1.0 - ratio)
        t *= ratio
        n += 2
    return math.inf


class TestFloor:
    def test_spot_values(self):
        assert asymptotic_floor(0.0) == 0.0
        assert asymptotic_floor(1.0) == pytest.approx((1 - math.exp(-1)) ** 2, rel=1e-15)
        assert asymptotic_floor(1.0) == pytest.approx(0.3995764, abs=5e-8)
        assert asymptotic_floor(1.2) == pytest.approx(
            ((1 - math.exp(-1.44)) / 1.2) ** 2, rel=1e-15)
        assert asymptotic_floor(1.2) == pytest.approx(0.404360587132, abs=1e-11)

    def test_partial_sum_converges_to_floor(self):
        for w in (0.25, 0.5, 1.0, 1.2):
            assert floor_partial(w, 40) == pytest.approx(
                asymptotic_floor(w), rel=1e-8)


class TestAutocorrelation:
    def test_omega_zero_reduces_to_order_zero(self):
        for order in (0, 8, 20):
            ev = autocorrelation(0.5, 0.0, order)
            assert ev.value == pytest.approx(omega_n_general(0, 0.5), rel=1e-14)

    def test_vanishing_r_gives_floor(self):
        ev = autocorrelation(1e-9, 1.0, 40)
        assert ev.value.real == pytest.approx((1 - math.exp(-1)) ** 2, rel=1e-7)

    def test_against_quadrature_oracle_spot(self):
        # frozen from the node-doubling study of the integral representation
        ev = autocorrelation(0.5, 0.5, 20)
        assert ev.value.real == pytest.approx(0.6048799253456, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            autocorrelation(1.0, 0.5)
        with pytest.raises(DomainError):
            autocorrelation(0.5, -0.2)
        with pytest.raises(DomainError):
            autocorrelation(0.5, 0.5, order=7)

    def test_term_decay_after_peak(self):
        # absolute convergence: term magnitudes decrease monotonically past
        # the peak.  The check stops at n = 22 because beyond that, at
        # |r| = 0.9, the true terms (~3e-8 of the peak) sit below the
        # coefficient cancellation noise of double precision, which grows
        # with the order; the trustworthy range shows seven decades of decay.
        r, w = 0.9, 1.2
        orders = list(range(0, 41, 2))
        terms = [abs(omega_n_general(n, r)) * w ** n / math.factorial(n)
                 for n in orders]
        peak = max(range(len(terms)), key=terms.__getitem__)
        upto = orders.index(22)
        assert peak < upto
        for i in range(peak, upto):
            assert terms[i + 1] < terms[i]
        assert min(terms) < 1e-7 * max(terms)

    def test_tail_flags(self):
        assert not autocorrelation(0.5, 0.0, 20).flagged  # zero tail at omega 0
        assert autocorrelation(0.5, 1.0, 20).flagged      # loose majorant kicks in
        ev = autocorrelation(0.2, 0.3, 20)
        assert ev.tail_bound < 1e-3 * abs(ev.value)
        assert not ev.flagged


class TestAutocovariance:
    def test_bitwise_identity_with_autocorrelation(self):
        for r, w in [(0.5, 1.0), (0.3, 0.5), (0.9, 1.2)]:
            cov = autocovariance(r, w, 20).value
            cor = autocorrelation(r, w, 20).value
            assert cov == cor - floor_partial(w, 20)

    def test_vanishing_r_vanishing_covariance(self):
        ev = autocovariance(1e-9, 0.7, 20)
        assert abs(ev.value) < 1e-7

    def test_omega_zero(self):
        ev = autocovariance(0.5, 0.0, 12)
        assert ev.value == pytest.approx(omega_n_general(0, 0.5), rel=1e-14)

    def test_against_oracle_minus_floor(self):
        from recipspec.oracle import QuadratureSpec, rss_quadrature
        tight = QuadratureSpec(angular_nodes=128, radial_nodes=96, v_max=16.0,
                               target_abs_tol=1e-5)
        quad = rss_quadrature(0.5, 1.0, tight).value
        cov = autocovariance(0.5, 1.0, 20).value
        reference = quad - asymptotic_floor(1.0)
        assert abs(cov - reference) < 1e-4

    def test_complex_r(self):
        import cmath
        r = 0.6 * cmath.exp(-0.4j)
        cov = autocovariance(r, 0.8, 20).value
        cor = autocorrelation(r, 0.8, 20).value
        assert cov == cor - floor_partial(0.8, 20)
        assert abs(cov.imag) > 0


class TestArrays:
    @given(R_ARRAYS, OMEGAS, ORDERS)
    @settings(max_examples=30, deadline=None)
    def test_autocovariance_is_autocorrelation_minus_floor(self, r, w, order):
        cov = autocovariance(r, w, order).value
        cor = autocorrelation(r, w, order).value
        assert np.array_equal(cov, cor - floor_partial(w, order))

    @given(R_ARRAYS, OMEGAS, ORDERS)
    @settings(max_examples=20, deadline=None)
    def test_lanes_match_one_element_calls(self, r, w, order):
        ev = autocorrelation(r, w, order)
        assert ev.value.shape == ev.tail_bound.shape == r.shape
        for k, x in enumerate(r):
            one = autocorrelation(x, w, order)
            assert np.ndim(one.value) == 0 and np.ndim(one.tail_bound) == 0
            assert ev.value[k] == one.value
            assert ev.tail_bound[k] == one.tail_bound
            assert ev.flagged[k] == one.flagged

    @given(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
           st.floats(0.0, 5.0), st.sampled_from(range(0, 21, 2)))
    @settings(max_examples=80, deadline=None)
    def test_tail_bound_matches_the_scalar_loop(self, abs_r, w, order):
        got = tail_bound(np.array(abs_r), w, order)
        want = np.array([_scalar_tail_bound(a, w, order) for a in abs_r])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert np.all(np.abs(got[fin] - want[fin]) <= 1e-15 * want[fin])

    def test_tail_bound_reaches_inf(self):
        assert tail_bound(np.array([0.2, 0.999]), 5.0, 20)[1] == math.inf

    def test_shapes_and_domain(self):
        assert autocorrelation(np.array([]), 0.5).value.shape == (0,)
        assert autocovariance(np.array([]), 0.5).tail_bound.shape == (0,)
        grid = np.array([[0.1, 0.2j], [-0.3, 0.4 + 0.1j]])
        assert autocorrelation(grid, 0.5, 10).flagged.shape == (2, 2)
        for bad in (1.0, -1.2, math.nan, complex(math.inf, 0.0)):
            with pytest.raises(DomainError):
                autocorrelation(np.array([0.1, bad]), 0.5)
