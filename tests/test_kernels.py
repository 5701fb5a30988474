"""Kernel invariants: normalization, Hermitian symmetry, magnitude bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recipspec.errors import DomainError
from recipspec.kernels import (DopplerLorentzian, FlatBand, GaussianKernel,
                               Lorentzian, Tabulated, load_tabulated_csv,
                               make_kernel)

ALL_KERNELS = [
    Lorentzian(a=1.0),
    Lorentzian(a=2.5),
    GaussianKernel(a=1.0),
    FlatBand(),
    DopplerLorentzian(a=1.0, beta=2.0),
]

taus = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_normalization_at_zero():
    for k in ALL_KERNELS:
        assert complex(k.eval(0.0)) == pytest.approx(1.0)


def test_lorentzian_half_decay():
    assert float(Lorentzian(1.0).eval(math.log(2.0))) == pytest.approx(0.5, rel=1e-12)


def test_flatband_zero_at_pi():
    assert abs(float(FlatBand().eval(math.pi))) < 1e-15


@given(taus)
@settings(max_examples=80, deadline=None)
def test_hermitian_symmetry(tau):
    for k in ALL_KERNELS:
        assert complex(k.eval(-tau)) == pytest.approx(
            complex(k.eval(tau)).conjugate(), abs=1e-14)


def test_magnitude_bounded_on_grid():
    tau = np.linspace(-80, 80, 4001)
    for k in ALL_KERNELS:
        assert np.max(np.abs(k.eval(tau))) <= 1.0 + 1e-14


def test_doppler_beta_zero_equals_lorentzian():
    tau = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(DopplerLorentzian(a=1.3, beta=0.0).eval(tau),
                               Lorentzian(a=1.3).eval(tau), rtol=1e-15)


def test_bad_rates_rejected():
    with pytest.raises(DomainError):
        Lorentzian(a=0.0)
    with pytest.raises(DomainError):
        GaussianKernel(a=-1.0)


class TestTabulated:
    def make(self):
        lags = np.array([0.0, 1.0, 2.0, 3.0])
        vals = np.array([1.0, 0.5 - 0.1j, 0.2 - 0.05j, 0.0])
        return Tabulated(lags, vals)

    def test_interpolation_and_reflection(self):
        k = self.make()
        assert complex(k.eval(0.5)) == pytest.approx(0.75 - 0.05j)
        assert complex(k.eval(-0.5)) == pytest.approx(0.75 + 0.05j)

    def test_out_of_span(self):
        with pytest.raises(DomainError):
            self.make().eval(3.5)

    def test_requires_unit_origin(self):
        with pytest.raises(DomainError):
            Tabulated([0.0, 1.0], [0.9, 0.5])
        with pytest.raises(DomainError):
            Tabulated([0.5, 1.0], [1.0, 0.5])

    def test_csv_loading(self, tmp_path):
        p2 = tmp_path / "two.csv"
        p2.write_text("tau,re\n0.0,1.0\n1.0,0.5\n2.0,0.25\n")
        k2 = load_tabulated_csv(p2)
        assert complex(k2.eval(1.5)) == pytest.approx(0.375)

        p3 = tmp_path / "three.csv"
        p3.write_text("tau,re,im\n0.0,1.0,0.0\n1.0,0.4,-0.2\n")
        k3 = load_tabulated_csv(p3)
        assert complex(k3.eval(1.0)) == pytest.approx(0.4 - 0.2j)
        assert complex(k3.eval(-1.0)) == pytest.approx(0.4 + 0.2j)

    def test_csv_header_required(self, tmp_path):
        p = tmp_path / "bare.csv"
        p.write_text("0.0,1.0\n1.0,0.5\n")
        with pytest.raises(DomainError):
            load_tabulated_csv(p)


def test_make_kernel_dispatch():
    assert make_kernel("lorentzian", a=2.0).a == 2.0
    assert make_kernel("flatband").name == "flatband"
    assert make_kernel("doppler_lorentzian", a=1.0, beta=3.0).beta == 3.0
    with pytest.raises(DomainError):
        make_kernel("nope")
    with pytest.raises(DomainError):
        make_kernel("tabulated")
