"""Normalized autocorrelation models r(tau) of the underlying Gaussian process.

Every kernel satisfies r(0) = 1, |r(tau)| <= 1 and Hermitian symmetry
r(-tau) = conj(r(tau)).  The analytic variants also decay to zero at large
lag; the tabulated variant is whatever the data says on its grid.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, finite_nonnegative, finite_positive

ArrayLike = Union[float, np.ndarray]


class CorrelationKernel:
    """Base class; subclasses implement ``eval`` and expose ``params``."""

    name = "base"

    def eval(self, tau: ArrayLike):
        raise NotImplementedError

    @property
    def params(self) -> dict:
        return {}

    def describe(self) -> dict:
        d = {"kernel": self.name}
        d.update(self.params)
        return d


@dataclass(frozen=True)
class Lorentzian(CorrelationKernel):
    """r(tau) = exp(-a|tau|): exponential decay, Lorentzian power spectrum."""

    a: float = 1.0
    name = "lorentzian"

    def __post_init__(self):
        finite_positive(self.a, "Lorentzian decay rate")

    def eval(self, tau: ArrayLike):
        return np.exp(-self.a * np.abs(tau))

    @property
    def params(self):
        return {"a": self.a}


@dataclass(frozen=True)
class GaussianKernel(CorrelationKernel):
    """r(tau) = exp(-a tau^2): Gaussian-shaped correlation and spectrum."""

    a: float = 1.0
    name = "gaussian"

    def __post_init__(self):
        finite_positive(self.a, "GaussianKernel decay rate")

    def eval(self, tau: ArrayLike):
        return np.exp(-self.a * np.asarray(tau, dtype=float) ** 2)

    @property
    def params(self):
        return {"a": self.a}


@dataclass(frozen=True)
class FlatBand(CorrelationKernel):
    """r(tau) = sin(tau)/tau: ideal flat power spectrum on |f| < 1/(2 pi).

    The unit-power rectangular spectral density has exactly this inverse
    transform, so the sinc is the canonical kernel for an ideal flat band.
    """

    name = "flatband"

    def eval(self, tau: ArrayLike):
        # np.sinc(x) = sin(pi x)/(pi x); rescale so zeros land at multiples of pi
        return np.sinc(np.asarray(tau, dtype=float) / np.pi)


@dataclass(frozen=True)
class DopplerLorentzian(CorrelationKernel):
    """r(tau) = exp(-a|tau|) exp(-i beta tau): frequency-shifted Lorentzian.

    A valid WSS autocorrelation (even real part, odd imaginary part); exists
    here to exercise the complex-r code paths.
    """

    a: float = 1.0
    beta: float = 0.0
    name = "doppler_lorentzian"

    def __post_init__(self):
        finite_positive(self.a, "DopplerLorentzian decay rate")
        finite_nonnegative(abs(self.beta), "DopplerLorentzian |beta|")

    def eval(self, tau: ArrayLike):
        tau = np.asarray(tau, dtype=float)
        return np.exp(-self.a * np.abs(tau)) * np.exp(-1j * self.beta * tau)

    @property
    def params(self):
        return {"a": self.a, "beta": self.beta}


class Tabulated(CorrelationKernel):
    """Kernel defined by linear interpolation of (tau, r) samples, tau >= 0.

    Negative lags are served by Hermitian reflection.  Queries outside the
    tabulated span raise DomainError.
    """

    name = "tabulated"

    def __init__(self, lags, values):
        lags = np.asarray(lags, dtype=float)
        values = np.asarray(values, dtype=complex)
        if lags.ndim != 1 or lags.shape != values.shape or lags.size == 0:
            raise DomainError("lags and values must be nonempty 1-d arrays of equal length")
        # max() propagates NaN, so one check covers every entry
        finite_nonnegative(lags.max(), "largest tabulated lag")
        peak = finite_nonnegative(np.abs(values).max(), "largest tabulated |r|")
        if lags[0] != 0.0:
            raise DomainError("tabulated kernel must start at tau = 0")
        if np.any(np.diff(lags) <= 0):
            raise DomainError("tabulated lags must be strictly ascending")
        if abs(values[0] - 1.0) > 1e-12:
            raise DomainError("tabulated kernel must have r(0) = 1")
        if peak > 1.0 + 1e-12:
            raise DomainError("tabulated kernel violates |r| <= 1")
        self.lags = lags
        self.values = values

    def eval(self, tau: ArrayLike):
        tau = np.asarray(tau, dtype=float)
        scalar = tau.ndim == 0
        tau = np.atleast_1d(tau)
        at = np.abs(tau)
        if np.any(at > self.lags[-1] * (1 + 1e-12)):
            raise DomainError("tau outside the tabulated span")
        re = np.interp(at, self.lags, self.values.real)
        im = np.interp(at, self.lags, self.values.imag)
        out = re + 1j * np.where(tau >= 0, im, -im)
        return out[0] if scalar else out

    @property
    def params(self):
        return {"n_points": int(len(self.lags)), "tau_max": float(self.lags[-1])}


def load_tabulated_csv(path) -> Tabulated:
    """Load a Tabulated kernel from CSV.

    Expected layout: a header row followed by two columns (tau, re_r) or three
    columns (tau, re_r, im_r), tau >= 0 ascending.
    """
    lags, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DomainError(f"{path}: empty CSV")
        try:
            [float(x) for x in header[:2]]
        except ValueError:
            pass  # header row as required
        else:
            raise DomainError(f"{path}: header row required")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise DomainError(f"{path}: rows must have 2 or 3 columns")
            try:
                cells = [float(x) for x in row[:3]]
            except ValueError:
                raise DomainError(
                    f"{path}: row {reader.line_num}: non-numeric cell in {row!r}") from None
            lags.append(cells[0])
            vals.append(complex(cells[1], cells[2] if len(cells) == 3 else 0.0))
    return Tabulated(lags, vals)


@dataclass(frozen=True)
class Decomposition:
    """r split into its real/imaginary and polar parts: r = rho - i*mu = |r| e^{i phi}."""

    rho: float
    mu: float
    magnitude: float
    phase: float


def decompose(r: complex) -> Decomposition:
    """Split a correlation value into (rho, mu, magnitude, phase).

    rho = Re r and mu = -Im r, following the sign convention of the Hermitian
    decomposition; raises DomainError when |r| exceeds 1 beyond roundoff.
    """
    r = complex(r)
    mag = abs(r)
    if mag > 1.0 + 1e-12:
        raise DomainError(f"|r| = {mag} exceeds 1")
    return Decomposition(rho=r.real, mu=-r.imag, magnitude=mag, phase=cmath.phase(r))


def make_kernel(kind: str, a: float = 1.0, beta: float = 0.0,
                table_path=None) -> CorrelationKernel:
    """Construct a kernel from CLI-style arguments."""
    kind = kind.lower()
    if kind == "lorentzian":
        return Lorentzian(a=a)
    if kind == "gaussian":
        return GaussianKernel(a=a)
    if kind == "flatband":
        return FlatBand()
    if kind == "doppler_lorentzian":
        return DopplerLorentzian(a=a, beta=beta)
    if kind == "tabulated":
        if table_path is None:
            raise DomainError("tabulated kernel needs a CSV path")
        return load_tabulated_csv(table_path)
    raise DomainError(f"unknown kernel kind {kind!r}")
