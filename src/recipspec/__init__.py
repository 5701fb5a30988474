"""Autocorrelation, autocovariance and covariance power spectrum of the
reciprocal of a noncentered complex Gaussian process.

The fast path is a power-series expansion in the mean-to-sigma ratio of the
underlying process, cross-checked by quadrature and Monte-Carlo oracles and
by a discrete-time simulator.
"""

__version__ = "0.1.0"

from .coefficients import (CoefficientTable, build_table, omega_bound,
                           omega_limit, omega_n_closed_real, omega_n_general,
                           omega_prime)
from .kernels import (CorrelationKernel, DopplerLorentzian, FlatBand,
                      GaussianKernel, Lorentzian, Tabulated, load_tabulated_csv,
                      make_kernel)
from .series import (SeriesEvaluation, asymptotic_floor, autocorrelation,
                     autocovariance, floor_partial)
from .specfun import (CATALAN, LORENTZIAN_L1_CONSTANT, ZETA3,
                      gauss_2f1_regularized, hyp3f2_zero_balanced, struve_l0)
from .spectrum import (SpectrumResult, TauGrid, tail_slope,
                       theoretical_spectrum, welch_covariance_spectrum,
                       welch_expected_spectrum)

__all__ = [
    "__version__",
    "CoefficientTable", "build_table", "omega_bound", "omega_limit",
    "omega_n_closed_real", "omega_n_general", "omega_prime",
    "CorrelationKernel", "DopplerLorentzian", "FlatBand", "GaussianKernel",
    "Lorentzian", "Tabulated", "load_tabulated_csv", "make_kernel",
    "SeriesEvaluation", "asymptotic_floor", "autocorrelation",
    "autocovariance", "floor_partial",
    "CATALAN", "LORENTZIAN_L1_CONSTANT", "ZETA3", "gauss_2f1_regularized",
    "hyp3f2_zero_balanced", "struve_l0",
    "SpectrumResult", "TauGrid", "tail_slope", "theoretical_spectrum",
    "welch_covariance_spectrum", "welch_expected_spectrum",
]
