"""Oracle layer: the quadrature is checked against the plain tensor rule it
reorganizes, against closed forms, and against the Monte Carlo route."""

import cmath
import math

import numpy as np
import pytest

from recipspec import oracle
from recipspec.coefficients import omega0_closed, omega2_closed, omega_n_general
from recipspec.errors import AccuracyError, DomainError
from recipspec.oracle import (DEFAULT_QUADRATURE, QuadratureSpec, _omega_n_single,
                              _radial_rule, _rss_single, abs_convergence_check,
                              angular_struve_check, omega_n_quadrature, rss_montecarlo,
                              rss_quadrature)
from recipspec.series import asymptotic_floor
from recipspec.specfun import struve_l0


def plain_tensor(r, spec: QuadratureSpec, factor, magnitude=False):
    """The defining quadrature rule, written as the literal 4-fold loop
    (vectorized only over the radial plane), for the integrand factor
    ``factor(v1 cos q1 + v2 cos q2)``.  With ``magnitude`` it sums the terms'
    absolute values instead: the scale of the loop's own rounding."""
    r = complex(r)
    absr, phi = abs(r), cmath.phase(r) if r != 0 else 0.0
    x, wgt = np.polynomial.legendre.leggauss(spec.radial_nodes)
    v = 0.5 * spec.v_max * (x + 1.0)
    wv = 0.5 * spec.v_max * wgt
    q = 2 * np.pi * np.arange(spec.angular_nodes) / spec.angular_nodes
    dq = 2 * np.pi / spec.angular_nodes
    gauss = np.exp(-0.25 * (v[:, None] ** 2 + v[None, :] ** 2)) * (wv[:, None] * wv[None, :])
    total = 0.0 + 0.0j
    for q1 in q:
        for q2 in q:
            coupling = np.exp(-0.5 * absr * v[:, None] * v[None, :]
                              * math.cos(q1 - q2 + phi))
            proj = v[:, None] * math.cos(q1) + v[None, :] * math.cos(q2)
            if magnitude:
                total += np.sum(gauss * coupling * np.abs(factor(proj)))
            else:
                total += cmath.exp(1j * (q1 - q2)) * np.sum(gauss * coupling * factor(proj))
    return -total * dq * dq / (4 * np.pi ** 2)


def rss_plain_tensor(r, w, spec: QuadratureSpec):
    return plain_tensor(r, spec, lambda proj: np.exp(1j * w * proj))


def omega_n_plain_tensor(n, r, spec: QuadratureSpec, magnitude=False):
    """Omega_n's rule: the n-th omega-derivative of the integrand at omega = 0."""
    return (1j) ** n * plain_tensor(r, spec, lambda proj: proj ** n, magnitude)


def abs_convergence_full_sum(abs_r, spec: QuadratureSpec):
    """abs_convergence_check's lhs over the full circle of angles and the full
    radial square, with its widened radial rule."""
    v_max = max(spec.v_max, 6.0 / math.sqrt(1.0 - abs_r))
    nrad = max(spec.radial_nodes, int(spec.radial_nodes * v_max / spec.v_max) + 1)
    x, wgt = np.polynomial.legendre.leggauss(nrad)
    v = 0.5 * v_max * (x + 1.0)
    wv = 0.5 * v_max * wgt
    log_weight = (-0.25 * (v[:, None] ** 2 + v[None, :] ** 2)
                  + np.log(wv[:, None]) + np.log(wv[None, :]))
    scale = 0.5 * abs_r * v[:, None] * v[None, :]
    nang = spec.angular_nodes
    total = sum(np.sum(np.exp(log_weight - scale * math.cos(2 * np.pi * d / nang)))
                for d in range(nang))
    return total * (2 * np.pi / nang) * 2 * np.pi


def struve_full_sum(x, n_nodes):
    u = 2 * np.pi * np.arange(n_nodes) / n_nodes
    return float(np.mean(np.abs(np.exp(-x * np.cos(u)) - 1.0)))


def close_to(got, want, rel=1e-12):
    return abs(got - want) <= rel * max(1.0, abs(want))


SMALL = QuadratureSpec(angular_nodes=24, radial_nodes=24, v_max=12.0)


class TestQuadrature:
    def test_equals_plain_tensor_rule(self):
        for r, w in [(0.5, 0.0), (0.5, 0.7), (math.exp(-1) * cmath.exp(-2j), 0.7)]:
            fast = _rss_single(complex(r), w, SMALL, _radial_rule(SMALL))
            plain = rss_plain_tensor(r, w, SMALL)
            assert fast == pytest.approx(plain, abs=1e-12)

    def test_blocks_of_angles_change_nothing(self, monkeypatch):
        r = math.exp(-1) * cmath.exp(-2j)
        whole = _rss_single(r, 0.7, SMALL, _radial_rule(SMALL))
        # 24 angles in blocks of 5: four whole blocks and a short one
        monkeypatch.setattr(oracle, "_BLOCK_BYTES", 5 * 24 * 24 * 8)
        assert _rss_single(r, 0.7, SMALL, _radial_rule(SMALL)) == whole

    def test_matches_order_zero_closed_form(self):
        res = rss_quadrature(0.5, 0.0)
        assert res.value.real == pytest.approx(0.575364144904, abs=1e-6)
        assert abs(res.value.imag) < 1e-10
        assert res.error_estimate <= DEFAULT_QUADRATURE.target_abs_tol

    def test_frozen_reference_point(self):
        # node-convergence study value; doubling all counts moves it < 1e-14
        res = rss_quadrature(0.5, 0.5)
        assert res.value.real == pytest.approx(0.6048799253456, abs=1e-9)

    def test_matches_floor_at_vanishing_r(self):
        res = rss_quadrature(1e-9, 1.0)
        assert res.value.real == pytest.approx(asymptotic_floor(1.0), abs=1e-5)

    def test_hermitian_lag_symmetry(self):
        r = 0.6 * cmath.exp(-0.9j)
        a = rss_quadrature(r, 0.8).value
        b = rss_quadrature(r.conjugate(), 0.8).value
        assert a == pytest.approx(b.conjugate(), abs=1e-9)

    def test_nan_estimate_fails_closed(self, monkeypatch):
        monkeypatch.setattr(oracle, "_rss_single", lambda r, w, spec, rule: complex(math.nan))
        with pytest.raises(AccuracyError):
            rss_quadrature(0.5, 0.5)

    def test_accuracy_error_path(self):
        strict = QuadratureSpec(angular_nodes=16, radial_nodes=16, v_max=8.0,
                                target_abs_tol=1e-14)
        with pytest.raises(AccuracyError) as exc:
            rss_quadrature(0.7, 0.9, strict)
        assert exc.value.partial_value is not None

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rss_quadrature(1.0, 0.5)


class TestOmegaNQuadrature:
    @pytest.mark.parametrize("block_planes", [None, 5], ids=["one_block", "blocks_of_5"])
    @pytest.mark.parametrize("r", [0.5, math.exp(-1) * cmath.exp(-2j)], ids=["real", "complex"])
    def test_equals_plain_tensor_rule(self, r, block_planes, monkeypatch):
        # the separated sum reorders the literal loop; odd orders included
        if block_planes is not None:
            monkeypatch.setattr(oracle, "_BLOCK_BYTES", block_planes * 24 * 24 * 8)
        for n in range(9):
            fast = _omega_n_single(n, complex(r), SMALL, _radial_rule(SMALL))
            plain = omega_n_plain_tensor(n, r, SMALL)
            # odd orders are 0 up to rounding, which both sides resolve only to
            # a few machine epsilons of the sum of the terms' magnitudes
            rounding = 1e-15 * abs(omega_n_plain_tensor(n, r, SMALL, magnitude=True))
            assert abs(fast - plain) <= 1e-12 * max(1.0, abs(plain)) + rounding, (n, fast, plain)

    def test_nan_estimate_fails_closed(self, monkeypatch):
        monkeypatch.setattr(oracle, "_omega_n_single", lambda n, r, spec, rule: complex(math.nan))
        with pytest.raises(AccuracyError):
            omega_n_quadrature(2, 0.5)

    def test_order_zero(self):
        res = omega_n_quadrature(0, 0.5)
        assert res.value.real == pytest.approx(0.575364144904, abs=1e-6)

    def test_odd_orders_vanish(self):
        for n in (1, 3):
            for r in (0.3, 0.7):
                assert abs(omega_n_quadrature(n, r).value) < 1e-6

    def test_complex_order_two(self):
        r = math.exp(-1) * cmath.exp(-2j)
        res = omega_n_quadrature(2, r)
        assert res.value == pytest.approx(omega2_closed(r), abs=1e-6)

    def test_even_orders_match_series_formula(self):
        for n in (0, 2, 4, 6):
            for r in (0.3, 0.7, math.exp(-1) * cmath.exp(-2j)):
                got = omega_n_quadrature(n, r).value
                assert got == pytest.approx(omega_n_general(n, r), abs=1e-5)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            omega_n_quadrature(10, 0.3)

    def test_shared_rules_change_nothing(self):
        rules = oracle.radial_rules(DEFAULT_QUADRATURE)
        assert sorted(s.radial_nodes for s in rules) == [64, 128]
        r = math.exp(-1) * cmath.exp(-2j)
        assert omega_n_quadrature(2, r, rules=rules) == omega_n_quadrature(2, r)
        assert rss_quadrature(r, 0.7, rules=rules) == rss_quadrature(r, 0.7)

    def test_odd_order_check_builds_each_rule_once(self, monkeypatch):
        from recipspec import validation
        built = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: built.append(n) or leggauss(n))
        assert validation.check_odd_orders().passed
        assert sorted(built) == [64, 128]  # four quadratures at one spec


class TestMonteCarlo:
    def test_determinism(self):
        a = rss_montecarlo(0.5, 0.5, 10 ** 5, seed=11)
        b = rss_montecarlo(0.5, 0.5, 10 ** 5, seed=11)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_against_closed_form(self):
        res = rss_montecarlo(0.5, 0.0, 10 ** 6, seed=5)
        truth = omega0_closed(0.5)
        assert abs(res.estimate - truth) < 4 * res.stderr

    def test_independent_r(self):
        res = rss_montecarlo(1e-12, 1.0, 10 ** 6, seed=6)
        assert abs(res.estimate - asymptotic_floor(1.0)) < 4 * res.stderr

    def test_batch_layout(self):
        # whole batches of MC_BATCHES only: the remainder of n_samples is not drawn
        res = rss_montecarlo(0.3, 0.5, 10 ** 5 + 7, seed=1)
        assert res.n_samples == oracle.MC_BATCHES * (10 ** 5 // oracle.MC_BATCHES)

    def test_sampling_trick_matches_joint_law(self):
        # the two-variable circular construction used by the MC oracle must
        # realize the 4x4 covariance of (a(t), b(t), a(t+tau), b(t+tau)),
        # w = a + ib, with rho = Re r and mu = -Im r
        r = 0.6 * cmath.exp(0.5j)
        rho, mu = r.real, -r.imag
        joint = 0.5 * np.array([[1.0, 0.0, rho, -mu],
                                [0.0, 1.0, mu, rho],
                                [rho, mu, 1.0, 0.0],
                                [-mu, rho, 0.0, 1.0]])
        rng = np.random.default_rng(7)
        n = 200000
        w2 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        w1 = r * w2 + math.sqrt(1 - abs(r) ** 2) * z
        x = np.column_stack([w2.real, w2.imag, w1.real, w1.imag])
        emp = (x.T @ x) / n
        np.testing.assert_allclose(emp, joint, atol=0.01)


class TestStruveAndConvergence:
    def test_angular_struve_zero(self):
        assert angular_struve_check(0.0) == 0.0

    @pytest.mark.parametrize("n_nodes", [oracle.STRUVE_NODES])
    def test_angular_struve_equals_full_node_sum(self, n_nodes):
        for x in (0.1, 1.0, 5.0):
            assert close_to(angular_struve_check(x), struve_full_sum(x, n_nodes))

    def test_angular_struve_identity(self):
        for x in (0.1, 1.0, 5.0):
            q = angular_struve_check(x)
            s = struve_l0(x)
            assert abs(q - s) / s < 1e-8

    def test_angular_struve_log_spaced_sweep(self):
        for x in np.geomspace(0.01, 10.0, 10):
            q = angular_struve_check(float(x))
            s = struve_l0(float(x))
            assert abs(q - s) / s < 1e-8

    def test_abs_convergence_rhs_at_zero(self):
        lhs, rhs = abs_convergence_check(0.0)
        assert rhs == pytest.approx(4 * math.pi ** 3, rel=1e-15)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("spec", [DEFAULT_QUADRATURE], ids=["even_angles"])
    def test_abs_convergence_equals_full_sum(self, spec):
        for absr in (0.0, 0.3, 0.99):
            lhs, _ = abs_convergence_check(absr)
            assert close_to(lhs, abs_convergence_full_sum(absr, spec))

    def test_abs_convergence_margins(self):
        for absr in (0.3, 0.9, 0.99):
            lhs, rhs = abs_convergence_check(absr)
            assert lhs < rhs

    def test_rhs_diverges_toward_one(self):
        _, rhs1 = abs_convergence_check(0.9)
        _, rhs2 = abs_convergence_check(0.99)
        assert rhs2 > rhs1
