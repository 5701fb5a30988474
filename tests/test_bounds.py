"""Integrability diagnostics: majorant integrand, closed constants, reports."""

import math

import numpy as np
import pytest

import recipspec.bounds as bounds
from recipspec.bounds import (covariance_l1_numeric, gaussian_l1_bound,
                              integrability_report, l1_integrand,
                              lorentzian_l1_bound, lorentzian_l1_numeric)
from recipspec.errors import DomainError
from recipspec.kernels import (DopplerLorentzian, FlatBand, GaussianKernel,
                               Lorentzian, Tabulated)
from recipspec.specfun import LORENTZIAN_L1_CONSTANT, hyp3f2_zero_balanced


class TestIntegrand:
    def test_zero(self):
        assert l1_integrand(0.0) == 0.0

    def test_small_r_value(self):
        got = l1_integrand(0.1)
        # leading factor times the slightly-above-one series value
        assert got == pytest.approx((4 / math.pi) * 0.1 * hyp3f2_zero_balanced(0.01),
                                    rel=1e-12)
        assert got == pytest.approx(0.12732 * 1.00446, rel=1e-4)

    def test_increasing(self):
        rs = np.linspace(0.0, 0.999, 80)
        vals = [l1_integrand(float(r)) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_logarithmic_divergence(self):
        # equal increments per decade of (1 - |r|^2) indicate log-type growth
        def at_gap(eps):
            return l1_integrand(math.sqrt(1.0 - eps))
        inc1 = at_gap(1e-5) - at_gap(1e-4)
        inc2 = at_gap(1e-6) - at_gap(1e-5)
        assert inc2 == pytest.approx(inc1, rel=0.25)

    def test_domain(self):
        with pytest.raises(DomainError):
            l1_integrand(1.0)


class TestLorentzianBound:
    def test_closed_constant(self):
        assert lorentzian_l1_bound(1.0) == pytest.approx(
            LORENTZIAN_L1_CONSTANT, rel=1e-15)
        assert lorentzian_l1_bound(1.0) == pytest.approx(3.3858, abs=1e-4)

    def test_scaling(self):
        assert lorentzian_l1_bound(2.0) == pytest.approx(
            lorentzian_l1_bound(1.0) / 2.0, rel=1e-15)

    def test_numeric_integral_matches_closed(self):
        for a in (0.5, 1.0, 4.0):
            assert lorentzian_l1_numeric(a) == pytest.approx(
                LORENTZIAN_L1_CONSTANT / a, rel=1e-9)

    @pytest.mark.parametrize("a", [0.5, 1.0, 4.0])
    def test_covariance_integral_is_4_ln2_over_a(self, a):
        # exact value derived in the covariance_l1_numeric docstring
        assert covariance_l1_numeric(Lorentzian(a), 45.0 / a) == pytest.approx(
            4.0 * math.log(2.0) / a, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            lorentzian_l1_bound(0.0)
        with pytest.raises(DomainError):
            lorentzian_l1_bound(-1.0)


class TestGaussianBound:
    def test_reference_value(self):
        assert gaussian_l1_bound(1.0) == pytest.approx(4.53, abs=0.01)

    def test_sqrt_scaling(self):
        assert gaussian_l1_bound(4.0) == pytest.approx(
            gaussian_l1_bound(1.0) / 2.0, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_l1_bound(0.0)


class TestArrayQuadrature:
    @pytest.mark.parametrize("integral", [lorentzian_l1_numeric, gaussian_l1_bound],
                             ids=["lorentzian_l1_numeric", "gaussian_l1_bound"])
    def test_one_3f2_call_per_integral(self, monkeypatch, integral):
        calls = []
        orig = bounds.hyp3f2_zero_balanced

        def counted(z):
            calls.append(np.shape(z))
            return orig(z)

        monkeypatch.setattr(bounds, "hyp3f2_zero_balanced", counted)
        integral(1.0)
        # every panel node and the two head points in one call
        assert calls == [(bounds._PANELS * bounds._NODES + 2,)]

    def test_array_integrand_matches_scalar(self):
        r = np.linspace(0.0, 0.999, 50)
        assert np.array_equal(l1_integrand(r), [l1_integrand(float(x)) for x in r])

    @pytest.mark.parametrize("call, value", [
        (lambda: lorentzian_l1_numeric(1.0), 3.385819934304092),
        (lambda: gaussian_l1_bound(1.0), 4.526713021982791),
        (lambda: covariance_l1_numeric(Lorentzian(1.0), 45.0), 2.772588720092707),
        (lambda: covariance_l1_numeric(GaussianKernel(1.0), 7.0), 3.918522675299814),
    ], ids=["lorentzian_l1_numeric", "gaussian_l1_bound", "covariance_lorentzian",
            "covariance_gaussian"])
    def test_values_of_the_scalar_series_quadrature(self, call, value):
        # the graded rule's values; the Lorentzian two are within 1e-9 of
        # their exact values (28 zeta(3)/pi - 8 C and 4 ln 2), the Gaussian two
        # move by under 1e-9 as the rule is refined (tests above and below)
        assert call() == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("call", [
        lambda: lorentzian_l1_numeric(1.0),
        lambda: gaussian_l1_bound(1.0),
        lambda: covariance_l1_numeric(Lorentzian(1.0), 45.0),
        lambda: covariance_l1_numeric(GaussianKernel(1.0), 7.0),
    ], ids=["lorentzian_l1_numeric", "gaussian_l1_bound", "covariance_lorentzian",
            "covariance_gaussian"])
    @pytest.mark.parametrize("setting, value", [("_NODES", 32), ("_PANELS", 24)],
                             ids=["nodes_doubled", "head_quartered"])
    def test_refinement_moves_each_integral_below_1e9(self, monkeypatch, call,
                                                      setting, value):
        # twice the nodes per panel, or two more panels (a head a quarter as
        # long), leaves every integral where it was to 1e-9 relative
        base = call()
        monkeypatch.setattr(bounds, setting, value)
        assert call() == pytest.approx(base, rel=1e-9)


class TestReports:
    def test_lorentzian_certified(self):
        rep = integrability_report(Lorentzian(1.0))
        assert rep.satisfied
        assert rep.l1_bound == pytest.approx(3.3858, abs=1e-4)
        assert rep.l1_numeric < rep.l1_bound

    def test_doppler_same_bound(self):
        rep = integrability_report(DopplerLorentzian(a=1.0, beta=5.0))
        assert rep.satisfied
        assert rep.l1_bound == pytest.approx(lorentzian_l1_bound(1.0), rel=1e-15)

    def test_gaussian_certified(self):
        rep = integrability_report(GaussianKernel(1.0))
        assert rep.satisfied
        assert rep.l1_bound == pytest.approx(4.53, abs=0.01)
        assert rep.l1_numeric < rep.l1_bound

    def test_flatband_not_certified_but_computable(self):
        rep = integrability_report(FlatBand())
        assert not rep.satisfied
        assert rep.l1_bound is None
        assert "sufficient" in rep.note
        # the spectrum is still computable despite the missing certificate
        from recipspec.spectrum import TauGrid, theoretical_spectrum
        spec = theoretical_spectrum(FlatBand(), 0.5, 4,
                                    TauGrid(dtau=0.5, half_points=64))
        assert np.isfinite(spec.psd).all()

    def test_tabulated_rejected(self):
        k = Tabulated([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(DomainError):
            integrability_report(k)

    def test_json_shape(self):
        d = integrability_report(Lorentzian(2.0)).to_dict()
        assert set(d) == {"kernel", "l1_bound", "l1_numeric", "satisfied", "note"}
