"""Every public entry point rejects non-finite and out-of-range numbers.

Each call site raises its own exception class: ConfigError for
SimulationConfig, DomainError everywhere else.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recipspec import spectrum
from recipspec.bounds import (covariance_l1_numeric, gaussian_l1_bound, l1_integrand,
                              lorentzian_l1_bound, lorentzian_l1_numeric)
from recipspec.coefficients import (build_table, omega_bound, omega_limit, omega_n_general,
                                    omega_n_over_grid)
from recipspec.errors import ConfigError, DomainError
from recipspec.kernels import DopplerLorentzian, GaussianKernel, Lorentzian, Tabulated
from recipspec.oracle import (QuadratureSpec, angular_struve_check, omega_n_quadrature,
                              rss_montecarlo, rss_quadrature)
from recipspec.series import asymptotic_floor, autocorrelation, autocovariance, floor_partial
from recipspec.simulator import SimulationConfig, empirical_acf, invert
from recipspec.specfun import gauss_2f1_regularized_grid, hyp3f2_zero_balanced, struve_l0
from recipspec.spectrum import (TauGrid, hann_window, theoretical_spectrum,
                                welch_covariance_spectrum, welch_expected_spectrum,
                                welch_layout)

NONFINITE = [math.nan, math.inf, -math.inf]
BAD_OMEGA = NONFINITE + [-0.5]
BAD_SEGMENT_LEN = [0, 1, -4, 64.0, 64.5]
#: orders and counts must be integers (a numpy integer is one, a bool is not)
BAD_ORDER = [2.5, 4.0, True, math.nan, -2]
BAD_UNIT_INTERVAL = [math.nan, math.inf, -0.1, 1.0]
BAD_NODE_COUNT = [8.5, math.nan, 7]
GRID = TauGrid(dtau=0.1, half_points=16)
SAMPLES = np.ones(4, dtype=complex)
#: long enough for 64-sample Welch segments
WELCH_SAMPLES = np.ones(64 * 20, dtype=complex)


def _config(**kw):
    base = dict(kernel=Lorentzian(1.0), omega=0.5, dt=0.1, n_samples=1 << 16, seed=1)
    base.update(kw)
    return SimulationConfig(**base)


def _welch(omega=0.5, dt=0.1, segment_len=64, zero_lag_value=1.0, order=4):
    return welch_expected_spectrum(Lorentzian(1.0), omega, order, dt, segment_len,
                                   zero_lag_value)


#: name -> (call taking the bad number, expected exception, bad numbers)
ENTRY_POINTS = {
    "autocorrelation.omega": (lambda x: autocorrelation(0.5, x, 4), DomainError, BAD_OMEGA),
    "autocorrelation.r": (lambda x: autocorrelation(x, 0.5, 4), DomainError, NONFINITE),
    "autocorrelation.order": (lambda x: autocorrelation(0.5, 0.5, x), DomainError,
                              BAD_ORDER + [3]),
    "omega_n_general.n": (lambda x: omega_n_general(x, 0.5), DomainError, BAD_ORDER),
    "omega_limit.n": (omega_limit, DomainError, BAD_ORDER),
    "omega_bound.n": (lambda x: omega_bound(x, 0.5), DomainError, BAD_ORDER + [0, 3]),
    "build_table.max_order": (lambda x: build_table(Lorentzian(1.0), [0.5, 1.5], x),
                              DomainError, BAD_ORDER + [3]),
    "omega_n_general.r": (lambda x: omega_n_general(20, x), DomainError, NONFINITE),
    "omega_n_over_grid.r": (lambda x: omega_n_over_grid(20, np.array([0.5, x])),
                            DomainError, NONFINITE),
    "omega_n_over_grid.n": (lambda x: omega_n_over_grid(x, np.array([0.5, 1e-6])),
                            DomainError, BAD_ORDER + [-1]),
    "gauss_2f1_regularized_grid.z": (lambda x: gauss_2f1_regularized_grid(1, 1, 2, [0.5, x]),
                                     DomainError, NONFINITE),
    "rss_quadrature.r": (lambda x: rss_quadrature(x, 0.5), DomainError, NONFINITE),
    "rss_quadrature.omega": (lambda x: rss_quadrature(0.5, x), DomainError, BAD_OMEGA),
    "omega_n_quadrature.r": (lambda x: omega_n_quadrature(2, x), DomainError, NONFINITE),
    "omega_n_quadrature.n": (lambda x: omega_n_quadrature(x, 0.5), DomainError,
                             [2.5, 2.0, True, math.nan, -1, 9]),
    "QuadratureSpec.angular_nodes": (lambda x: QuadratureSpec(angular_nodes=x), DomainError,
                                     BAD_NODE_COUNT),
    "QuadratureSpec.radial_nodes": (lambda x: QuadratureSpec(radial_nodes=x), DomainError,
                                    BAD_NODE_COUNT),
    "QuadratureSpec.v_max": (lambda x: QuadratureSpec(v_max=x), DomainError, NONFINITE + [7.5]),
    "QuadratureSpec.target_abs_tol": (lambda x: QuadratureSpec(target_abs_tol=x), DomainError,
                                      NONFINITE + [0.0, -1.0]),
    "autocovariance.omega": (lambda x: autocovariance(0.5, x, 4), DomainError, BAD_OMEGA),
    "asymptotic_floor.omega": (asymptotic_floor, DomainError, BAD_OMEGA),
    "floor_partial.omega": (lambda x: floor_partial(x, 4), DomainError, BAD_OMEGA),
    "floor_partial.order": (lambda x: floor_partial(0.5, x), DomainError, BAD_ORDER + [3]),
    "theoretical_spectrum.omega": (lambda x: theoretical_spectrum(Lorentzian(1.0), x, 4, GRID),
                                   DomainError, BAD_OMEGA),
    "theoretical_spectrum.order": (lambda x: theoretical_spectrum(Lorentzian(1.0), 0.5, x, GRID),
                                   DomainError, BAD_ORDER + [3]),
    "welch_expected_spectrum.omega": (lambda x: _welch(omega=x), DomainError, BAD_OMEGA),
    "welch_expected_spectrum.zero_lag_value": (lambda x: _welch(zero_lag_value=x),
                                               DomainError, BAD_OMEGA),
    "welch_expected_spectrum.dt": (lambda x: _welch(dt=x), DomainError, NONFINITE),
    "welch_expected_spectrum.segment_len": (lambda x: _welch(segment_len=x),
                                            DomainError, BAD_SEGMENT_LEN),
    "welch_expected_spectrum.order": (lambda x: _welch(order=x), DomainError, BAD_ORDER),
    "welch_covariance_spectrum.segment_len": (
        lambda x: welch_covariance_spectrum(WELCH_SAMPLES, 0.1, segment_len=x),
        DomainError, BAD_SEGMENT_LEN),
    "hann_window.n": (hann_window, DomainError, BAD_SEGMENT_LEN + [True]),
    "welch_layout.segment_len": (lambda x: welch_layout(1000, x), DomainError,
                                 BAD_SEGMENT_LEN + [True]),
    "welch_layout.n_samples": (lambda x: welch_layout(x, 64), DomainError,
                               [1000.0, 1000.5, math.nan]),
    "empirical_acf.max_lag": (lambda x: empirical_acf(np.ones(1000), x), DomainError,
                              [5.0, 5.5, True, -1]),
    "TauGrid.dtau": (lambda x: TauGrid(dtau=x, half_points=16), DomainError, NONFINITE),
    "TauGrid.half_points": (lambda x: TauGrid(dtau=0.1, half_points=x), DomainError,
                            [16.5, 16.0, math.nan, 15]),
    "TauGrid.nearest_bins": (lambda x: GRID.nearest_bins([0.1, x]), DomainError, NONFINITE),
    "SimulationConfig.omega": (lambda x: _config(omega=x), ConfigError, BAD_OMEGA),
    "SimulationConfig.dt": (lambda x: _config(dt=x), ConfigError, NONFINITE),
    "SimulationConfig.n_samples": (lambda x: _config(n_samples=x), ConfigError,
                                   [65536.5, 65536.0, math.nan]),
    "SimulationConfig.fir_taps": (lambda x: _config(fir_taps=x), ConfigError,
                                  [1025.0, 1025.5, math.nan]),
    # the seed is the first 64-bit word of the Philox key
    "SimulationConfig.seed": (lambda x: _config(seed=x), ConfigError,
                              [1.5, 1.0, True, math.nan, -1, 2 ** 64, 2 ** 70]),
    "invert.omega": (lambda x: invert(SAMPLES, x), DomainError, BAD_OMEGA),
    "Lorentzian.a": (lambda x: Lorentzian(a=x), DomainError, NONFINITE),
    "GaussianKernel.a": (lambda x: GaussianKernel(a=x), DomainError, NONFINITE),
    "DopplerLorentzian.a": (lambda x: DopplerLorentzian(a=x), DomainError, NONFINITE),
    "DopplerLorentzian.beta": (lambda x: DopplerLorentzian(beta=x), DomainError, NONFINITE),
    "lorentzian_l1_bound.a": (lorentzian_l1_bound, DomainError, NONFINITE),
    "lorentzian_l1_numeric.a": (lorentzian_l1_numeric, DomainError, NONFINITE),
    "gaussian_l1_bound.a": (gaussian_l1_bound, DomainError, NONFINITE),
    "covariance_l1_numeric.tau_max": (lambda x: covariance_l1_numeric(Lorentzian(1.0), x),
                                      DomainError, NONFINITE + [0.0, -45.0]),
    "rss_montecarlo.omega": (lambda x: rss_montecarlo(0.5, x, 1000, seed=1),
                             DomainError, BAD_OMEGA),
    "rss_montecarlo.r": (lambda x: rss_montecarlo(x, 0.5, 1000, seed=1), DomainError, NONFINITE),
    "rss_montecarlo.seed": (lambda x: rss_montecarlo(0.5, 0.5, 1000, seed=x), DomainError,
                            [1.5, 1.0, True, math.nan, -1]),
    # at least 2 samples per batch of the 200
    "rss_montecarlo.n_samples": (lambda x: rss_montecarlo(0.5, 0.5, x, seed=1), DomainError,
                                 [1e4, 10000.5, 399]),
    "Tabulated.lag": (lambda x: Tabulated([0.0, x, 2.0], [1.0, 0.5, 0.2]),
                      DomainError, NONFINITE),
    "Tabulated.value": (lambda x: Tabulated([0.0, 1.0, 2.0], [1.0, x, 0.2]),
                        DomainError, NONFINITE),
    "struve_l0.x": (struve_l0, DomainError, BAD_OMEGA),
    "angular_struve_check.x": (angular_struve_check, DomainError, BAD_OMEGA),
    "hyp3f2_zero_balanced.z": (hyp3f2_zero_balanced, DomainError, BAD_UNIT_INTERVAL),
    "l1_integrand.abs_r": (l1_integrand, DomainError, BAD_UNIT_INTERVAL),
}

CASES = [pytest.param(call, error, x, id=f"{name}-{x}")
         for name, (call, error, bad) in ENTRY_POINTS.items() for x in bad]


@pytest.mark.parametrize("call, error, value", CASES)
def test_entry_point_rejects_bad_number(call, error, value):
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("call", [hyp3f2_zero_balanced, l1_integrand],
                         ids=["hyp3f2_zero_balanced", "l1_integrand"])
def test_array_entry_point_rejects_one_bad_lane(call):
    lanes = np.array([0.0, 0.3, 0.6, 0.9])
    call(lanes)
    for i in range(lanes.size):
        bad = lanes.copy()
        bad[i] = math.nan
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize("call", [
    lambda: _welch(zero_lag_value=math.nan),
    lambda: theoretical_spectrum(Lorentzian(1.0), 0.5, 3, GRID),
], ids=["welch_expected_spectrum.zero_lag_value", "theoretical_spectrum.order"])
def test_spectrum_checks_run_before_the_table(call, monkeypatch):
    def refuse(*args):
        raise AssertionError("coefficient table built for a bad input")
    monkeypatch.setattr(spectrum, "build_table", refuse)
    with pytest.raises(DomainError):
        call()


#: a finite lane: real, or complex with |r| < 1
_FINITE_LANE = st.one_of(st.floats(-0.99, 0.99),
                         st.builds(cmath.rect, st.floats(0.0, 0.99), st.floats(-math.pi, math.pi)))
#: a non-finite lane: NaN or +-inf, alone or as either part of a complex value
_NONFINITE_LANE = st.sampled_from(NONFINITE).flatmap(lambda bad: st.sampled_from(
    [bad, complex(bad, 0.0), complex(0.5, bad), complex(bad, 0.5), complex(bad, bad)]))


@given(st.lists(_FINITE_LANE, min_size=1, max_size=12), _NONFINITE_LANE, st.data())
@settings(max_examples=60, deadline=None)
def test_nonfinite_lane_anywhere_is_rejected(lanes, bad, data):
    """One non-finite lane among real and complex ones: no path computes with it."""
    pos = data.draw(st.integers(0, len(lanes)))
    lanes.insert(pos, bad)
    r = np.array(lanes, dtype=complex)
    with pytest.raises(DomainError):
        omega_n_over_grid(20, r)
    with pytest.raises(DomainError):
        autocorrelation(r, 0.5, 4)
    # as the values of a tabulated kernel (r(0) = 1 leads), then as one of the lags
    tau = np.arange(len(lanes) + 1, dtype=float)
    with pytest.raises(DomainError):
        build_table(Tabulated(tau, np.concatenate([[1.0], r])), tau[1:] - 0.5, 4)
    finite = Tabulated(tau, np.concatenate([[1.0], np.full(len(lanes), 0.5)]))
    lags = tau[1:] - 0.5
    lags[pos] = data.draw(st.sampled_from(NONFINITE))
    with pytest.raises(DomainError):
        build_table(finite, lags, 4)
