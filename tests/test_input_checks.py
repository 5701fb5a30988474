"""Every public entry point rejects non-finite and out-of-range numbers.

Each call site raises its own exception class: ConfigError for
SimulationConfig, DomainError everywhere else.
"""

import math

import numpy as np
import pytest

from recipspec.bounds import gaussian_l1_bound, lorentzian_l1_bound, lorentzian_l1_numeric
from recipspec.coefficients import omega_n_general, omega_n_over_grid
from recipspec.errors import ConfigError, DomainError
from recipspec.kernels import DopplerLorentzian, GaussianKernel, Lorentzian, Tabulated
from recipspec.oracle import omega_n_quadrature, rss_montecarlo, rss_quadrature
from recipspec.series import (OmegaRatio, asymptotic_floor, autocorrelation,
                              autocovariance, denormalize, floor_partial)
from recipspec.simulator import SimulationConfig, invert
from recipspec.specfun import gauss_2f1_regularized_grid
from recipspec.spectrum import (TauGrid, make_window, theoretical_spectrum,
                                welch_covariance_spectrum, welch_expected_spectrum)

NONFINITE = [math.nan, math.inf, -math.inf]
BAD_OMEGA = NONFINITE + [-0.5]
BAD_SEGMENT_LEN = [0, 1, -4]
GRID = TauGrid(dtau=0.1, half_points=16)
SAMPLES = np.ones(4, dtype=complex)


def _config(**kw):
    base = dict(kernel=Lorentzian(1.0), omega=0.5, dt=0.1, n_samples=1 << 16, seed=1)
    base.update(kw)
    return SimulationConfig(**base)


def _welch(omega=0.5, dt=0.1, segment_len=64):
    return welch_expected_spectrum(Lorentzian(1.0), omega, 4, dt, segment_len, "hann", 1.0)


#: name -> (call taking the bad number, expected exception, bad numbers)
ENTRY_POINTS = {
    "autocorrelation.omega": (lambda x: autocorrelation(0.5, x, 4), DomainError, BAD_OMEGA),
    "autocorrelation.r": (lambda x: autocorrelation(x, 0.5, 4), DomainError, NONFINITE),
    "omega_n_general.r": (lambda x: omega_n_general(20, x), DomainError, NONFINITE),
    "omega_n_over_grid.r": (lambda x: omega_n_over_grid(20, np.array([0.5, x])),
                            DomainError, NONFINITE),
    "omega_n_over_grid.n": (lambda x: omega_n_over_grid(x, np.array([0.5, 1e-6])),
                            DomainError, [-2, -1]),
    "gauss_2f1_regularized_grid.z": (lambda x: gauss_2f1_regularized_grid(1, 1, 2, [0.5, x]),
                                     DomainError, NONFINITE),
    "rss_quadrature.r": (lambda x: rss_quadrature(x, 0.5), DomainError, NONFINITE),
    "omega_n_quadrature.r": (lambda x: omega_n_quadrature(2, x), DomainError, NONFINITE),
    "autocovariance.omega": (lambda x: autocovariance(0.5, x, 4), DomainError, BAD_OMEGA),
    "asymptotic_floor.omega": (asymptotic_floor, DomainError, BAD_OMEGA),
    "floor_partial.omega": (lambda x: floor_partial(x, 4), DomainError, BAD_OMEGA),
    "OmegaRatio": (OmegaRatio, DomainError, BAD_OMEGA),
    "OmegaRatio.r_ww0": (lambda x: OmegaRatio.from_mean_and_power(1.0, x),
                         DomainError, NONFINITE),
    "denormalize.r_ww0": (lambda x: denormalize(1.0, x), DomainError, NONFINITE),
    "theoretical_spectrum.omega": (lambda x: theoretical_spectrum(Lorentzian(1.0), x, 4, GRID),
                                   DomainError, BAD_OMEGA),
    "welch_expected_spectrum.omega": (lambda x: _welch(omega=x), DomainError, BAD_OMEGA),
    "welch_expected_spectrum.dt": (lambda x: _welch(dt=x), DomainError, NONFINITE),
    "welch_expected_spectrum.segment_len": (lambda x: _welch(segment_len=x),
                                            DomainError, BAD_SEGMENT_LEN),
    "welch_covariance_spectrum.segment_len": (
        lambda x: welch_covariance_spectrum(SAMPLES, 0.1, segment_len=x),
        DomainError, BAD_SEGMENT_LEN),
    "make_window.kaiser_beta": (lambda x: make_window(f"kaiser{x}", 64), DomainError, BAD_OMEGA),
    "TauGrid.dtau": (lambda x: TauGrid(dtau=x, half_points=16), DomainError, NONFINITE),
    "SimulationConfig.omega": (lambda x: _config(omega=x), ConfigError, BAD_OMEGA),
    "SimulationConfig.dt": (lambda x: _config(dt=x), ConfigError, NONFINITE),
    "invert.omega": (lambda x: invert(SAMPLES, x), DomainError, BAD_OMEGA),
    "invert.r_ww0": (lambda x: invert(SAMPLES, 1.0, r_ww0=x), DomainError, NONFINITE),
    "Lorentzian.a": (lambda x: Lorentzian(a=x), DomainError, NONFINITE),
    "GaussianKernel.a": (lambda x: GaussianKernel(a=x), DomainError, NONFINITE),
    "DopplerLorentzian.a": (lambda x: DopplerLorentzian(a=x), DomainError, NONFINITE),
    "DopplerLorentzian.beta": (lambda x: DopplerLorentzian(beta=x), DomainError, NONFINITE),
    "lorentzian_l1_bound.a": (lorentzian_l1_bound, DomainError, NONFINITE),
    "lorentzian_l1_numeric.a": (lorentzian_l1_numeric, DomainError, NONFINITE),
    "gaussian_l1_bound.a": (gaussian_l1_bound, DomainError, NONFINITE),
    "rss_montecarlo.omega": (lambda x: rss_montecarlo(0.5, x, 1000, seed=1),
                             DomainError, BAD_OMEGA),
    "rss_montecarlo.r": (lambda x: rss_montecarlo(x, 0.5, 1000, seed=1), DomainError, NONFINITE),
    "Tabulated.lag": (lambda x: Tabulated([0.0, x, 2.0], [1.0, 0.5, 0.2]),
                      DomainError, NONFINITE),
    "Tabulated.value": (lambda x: Tabulated([0.0, 1.0, 2.0], [1.0, x, 0.2]),
                        DomainError, NONFINITE),
}

CASES = [pytest.param(call, error, x, id=f"{name}-{x}")
         for name, (call, error, bad) in ENTRY_POINTS.items() for x in bad]


@pytest.mark.parametrize("call, error, value", CASES)
def test_entry_point_rejects_bad_number(call, error, value):
    with pytest.raises(error):
        call(value)
