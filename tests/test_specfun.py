"""Special function tests against independent oracles (rational arithmetic,
brute-force summation, classical identities)."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from recipspec import specfun
from recipspec.errors import AccuracyError, DomainError
from recipspec.specfun import (CATALAN, LORENTZIAN_L1_CONSTANT, ZETA3,
                               gauss_2f1_regularized, gauss_2f1_regularized_grid,
                               hyp3f2_zero_balanced, struve_l0)


def f21reg_rational(a, b, c, z: Fraction) -> Fraction:
    """Exact rational evaluation for terminating series (b <= 0)."""
    assert b <= 0
    total = Fraction(0)
    for m in range(0, -b + 1):
        if c + m <= 0:
            continue
        poch_a = math.prod(a + i for i in range(m))
        poch_b = math.prod(b + i for i in range(m))
        total += (Fraction(poch_a * poch_b) * z ** m
                  / (math.factorial(m) * math.factorial(c + m - 1)))
    return total


def f21reg_grid_termwise(a, b, c, z, max_terms=10 ** 6):
    """Reference for the grid 2F1: the term-by-term loop on every lane.  A lane
    is done at its first term past m_safe where its own q < 1, the term left
    its sum unchanged and the tail test holds; its sum is kept from then on.
    Returns when every lane is done."""
    z = np.asarray(z, dtype=float)
    m0 = 1 - c if c <= 0 else 0
    if b <= 0 and -b < m0:
        return np.zeros_like(z)
    t = np.ones_like(z)
    lead = 1.0
    for i in range(m0):
        lead *= (a + i) * (b + i) / (1.0 + i)
    t *= lead * z ** m0
    if m0 == 0:
        t /= math.factorial(c - 1)
    s = t.copy()
    if b <= 0:
        for m in range(m0, -b):
            t = t * ((a + m) * (b + m) * z / ((m + 1.0) * (c + m)))
            s += t
        return s
    m = m0
    m_safe = 2 * (abs(a) + abs(b) + abs(c)) + 8
    done = np.zeros(z.shape, dtype=bool)
    while m - m0 < max_terms:
        ratio = (a + m) * (b + m) / ((m + 1.0) * (c + m))
        t = t * (ratio * z)
        m += 1
        step = s + t
        if m > m_safe:
            q = np.maximum(abs(ratio) * z, z)
            with np.errstate(divide="ignore", invalid="ignore"):
                done |= ((q < 1.0) & (step == s)
                         & (np.abs(t) * q / (1.0 - q) <= 1e-12 * np.abs(step) + 1e-300))
        s = np.where(done, s, step)
        if done.all():
            return s
    raise AccuracyError("no convergence", partial_value=s, tail_estimate=None)


def families(orders):
    """The (a, b, c) triples of the Omega_n double sum, over the given even
    orders, whose series does not terminate (b >= 1)."""
    return sorted({(1 + j, 1 + j - k + n // 2, 2 + 2 * j - k)
                   for n in orders for k in range(n + 1)
                   for j in range(min(k, n // 2) + 1)
                   if 1 + j - k + n // 2 >= 1})


def first_block_terms(a, b, c):
    """Terms the grid 2F1 needs to reach 8 tested terms: m_safe - m0 + 8."""
    return 2 * (abs(a) + abs(b) + abs(c)) + 8 - (1 - c if c <= 0 else 0) + 8


TABLE_FAMILIES = families(range(0, 21, 2))
#: the families of orders 22-30 whose first block, capped at 64 terms, ends
#: short of m_safe, so that a second block has to reach it
DEEP_FAMILIES = [f for f in families(range(22, 31, 2)) if first_block_terms(*f) >= 72]
#: hypothesis phases without shrinking, for the tests that draw up to
#: 3000-lane grids: shrinking a failing one took minutes
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@st.composite
def z_grids(draw, max_size=3000):
    """Up to max_size lanes mixing 0, values below 1e-8, middle values
    and values up to 0.998, so that lanes retire in different blocks."""
    size = draw(st.integers(1, max_size))
    top = draw(st.one_of(st.just(0.998), st.floats(1e-8, 0.998)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = rng.integers(0, 3, size)
    z = np.where(kind == 0, 0.0, np.where(kind == 1, rng.uniform(0.0, 1e-8, size),
                                          rng.uniform(1e-8, top, size)))
    z[rng.integers(size)] = top
    return z


class TestGauss2F1Regularized:
    def test_log_identity_spot(self):
        # 2F1(1,1;2;z) = -ln(1-z)/z, Gamma(2) = 1
        expected = -math.log(0.25) / 0.75
        assert gauss_2f1_regularized(1, 1, 2, 0.75) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=0.98))
    @settings(max_examples=60, deadline=None)
    def test_log_identity_property(self, z):
        got = gauss_2f1_regularized(1, 1, 2, z) * z
        assert got == pytest.approx(-math.log1p(-z), rel=1e-11)

    def test_nonpositive_c_identity(self):
        # regularized 2F1(1,1;0;z) = z/(1-z)^2
        assert gauss_2f1_regularized(1, 1, 0, 0.5) == pytest.approx(2.0, rel=1e-12)
        z = 0.3
        assert gauss_2f1_regularized(1, 1, 0, z) == pytest.approx(
            z / (1 - z) ** 2, rel=1e-12)

    def test_z_zero_gives_reciprocal_gamma(self):
        for a, b, c in [(3, 5, 1), (1, 1, 2), (7, 2, 5)]:
            assert gauss_2f1_regularized(a, b, c, 0.0) == pytest.approx(
                1.0 / math.factorial(c - 1), rel=1e-15)

    def test_terminating_against_rational_oracle(self):
        zq = Fraction(2, 7)
        z = float(zq)
        for b in range(-5, 1):
            for c in range(-3, 11):
                for a in (1, 2, 6):
                    exact = f21reg_rational(a, b, c, zq)
                    got = gauss_2f1_regularized(a, b, c, z)
                    if exact == 0:
                        assert abs(got) < 1e-12
                    else:
                        assert got == pytest.approx(float(exact), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gauss_2f1_regularized(1, 1, 2, 1.0)
        with pytest.raises(DomainError):
            gauss_2f1_regularized(1, 1, 2, -0.1)

    def test_accuracy_error_carries_partial(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 40)
        with pytest.raises(AccuracyError) as exc:
            gauss_2f1_regularized(3, 4, 2, 0.999)
        assert exc.value.partial_value is not None
        assert exc.value.tail_estimate > 0

    @given(st.sampled_from(TABLE_FAMILIES), z_grids())
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_grid_bit_exact_against_termwise_loop(self, abc, z):
        assert np.array_equal(gauss_2f1_regularized_grid(*abc, z),
                              f21reg_grid_termwise(*abc, z))

    @given(st.sampled_from(DEEP_FAMILIES), z_grids(300))
    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    def test_grid_bit_exact_past_the_first_block_cap(self, abc, z):
        assert np.array_equal(gauss_2f1_regularized_grid(*abc, z),
                              f21reg_grid_termwise(*abc, z))

    def test_grid_bit_exact_when_testing_starts_mid_block(self):
        # a + b - c - 1 = 14 > 0, so |ratio| zmax >= 1 at m_safe = 74 and
        # the first tested term lies past it, inside a block
        abc = (8, 16, 9)
        z = np.array([0.0, 1e-9, 0.05, 0.5, 0.9, 0.998])
        assert np.array_equal(gauss_2f1_regularized_grid(*abc, z),
                              f21reg_grid_termwise(*abc, z))

    def test_first_tested_terms_in_one_block(self, monkeypatch):
        # at the README sweep's z <= 0.09 every order <= 20 family whose
        # first 8 tested terms fit in one 64-term block returns from it
        blocks = []
        cumprod = np.cumprod

        def counting(*args, **kwargs):
            blocks.append(1)
            return cumprod(*args, **kwargs)
        monkeypatch.setattr(np, "cumprod", counting)
        z = np.random.default_rng(26).uniform(0.0, 0.09, 200)
        z[:2] = 0.0, 0.09
        fitting = [abc for abc in TABLE_FAMILIES if first_block_terms(*abc) <= 64]
        assert len(fitting) == 477
        for abc in fitting:
            blocks.clear()
            gauss_2f1_regularized_grid(*abc, z)
            assert len(blocks) == 1, abc

    def test_converged_lanes_leave_the_block(self, monkeypatch):
        # each lane stops on its own q: for (8, 16, 9) the second block ends 8
        # terms past m_safe = 74, where the small lanes have converged while
        # |ratio| 0.998 > 1, so the later blocks sum the 0.998 lane alone
        rows = []
        cumprod = np.cumprod

        def counting(terms, *args, **kwargs):
            rows.append(terms.shape[0])
            return cumprod(terms, *args, **kwargs)
        monkeypatch.setattr(np, "cumprod", counting)
        gauss_2f1_regularized_grid(8, 16, 9, np.array([0.0, 1e-9, 0.01, 0.998]))
        assert rows[:2] == [4, 4] and set(rows[2:]) == {1}

    @pytest.mark.parametrize("abc", [(1, 1, 2), (3, 4, 2)])
    def test_grid_accuracy_error_carries_partial(self, abc, monkeypatch):
        # 40 terms is no whole number of blocks.  Each lane retires on its
        # own q: the zero and tiny lanes after 24 terms for (1, 1, 2) and 34
        # for (3, 4, 2), the 0.3 lane after 40 for both; 0.5 and 0.999 do
        # not converge within 40 terms.
        monkeypatch.setattr(specfun, "MAX_TERMS", 40)
        z = np.array([[0.0, 1e-9, 0.3], [0.999, 0.5, 1e-12]])
        with pytest.raises(AccuracyError) as ref:
            f21reg_grid_termwise(*abc, z, max_terms=40)
        with pytest.raises(AccuracyError) as exc:
            gauss_2f1_regularized_grid(*abc, z)
        assert exc.value.partial_value.shape == z.shape
        assert np.array_equal(exc.value.partial_value, ref.value.partial_value)
        assert exc.value.tail_estimate > 0

    def test_grid_matches_scalar(self):
        z = np.array([0.0, 0.1, 0.5, 0.9, 0.97])
        for a, b, c in [(1, 1, 2), (2, 3, -1), (4, -2, 3), (1, 1, 0), (5, 2, -4)]:
            grid = gauss_2f1_regularized_grid(a, b, c, z)
            point = np.array([gauss_2f1_regularized(a, b, c, float(zz)) for zz in z])
            assert np.array_equal(grid, point), (a, b, c)


class TestHyp3F2:
    def test_at_zero(self):
        assert hyp3f2_zero_balanced(0.0) == 1.0

    def test_against_bruteforce(self):
        # independent oracle: direct 10^4-term summation of (k!)^2 z^k / ((3/2)_k)^2
        z = 0.5
        term, total = 1.0, 1.0
        for k in range(10 ** 4):
            term *= ((k + 1.0) / (k + 1.5)) ** 2 * z
            total += term
        assert hyp3f2_zero_balanced(z) == pytest.approx(total, rel=1e-12)

    def test_monotone_nondecreasing(self):
        zs = np.linspace(0.0, 0.99, 60)
        vals = [hyp3f2_zero_balanced(float(z)) for z in zs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0 and all(v >= 1.0 for v in vals)

    def test_near_one_converges(self):
        v = hyp3f2_zero_balanced(0.99)
        assert math.isfinite(v)
        assert v > hyp3f2_zero_balanced(0.9) > hyp3f2_zero_balanced(0.5)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hyp3f2_zero_balanced(1.0)

    @pytest.mark.parametrize("z", [1e-8, 0.1, 0.5, 0.9, 0.99, 0.999])
    def test_against_mpmath_series(self, z):
        # independent oracle: (k!)^2 z^k / ((3/2)_k)^2 summed term by term at
        # 22 digits until the geometric tail bound t z/(1-z) drops below 1e-20
        with mp.workdps(22):
            zz = mp.mpf(z)
            term = total = mp.mpf(1)
            k = 0
            while term * zz / (1 - zz) > total * mp.mpf(10) ** -20:
                term *= ((k + 1) / (k + mp.mpf(1.5))) ** 2 * zz
                total += term
                k += 1
            ref = float(total)
        assert hyp3f2_zero_balanced(z) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("gap", [2e-6, 1e-12])
    def test_near_one_against_mpmath(self, gap):
        # mpmath's own 3F2 at 20 digits, at the double z the program receives;
        # 2e-6 is the Gaussian head's smallest 1 - z
        z = 1.0 - gap
        with mp.workdps(20):
            ref = float(mp.hyp3f2(1, 1, 1, 1.5, 1.5, mp.mpf(z)))
        assert hyp3f2_zero_balanced(z) == pytest.approx(ref, rel=1e-14)

    def test_array_equals_one_lane_calls(self):
        z = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.01, 0.99, 37),
                            1.0 - np.geomspace(1e-2, 2e-6, 20)])
        got = hyp3f2_zero_balanced(z)
        assert isinstance(hyp3f2_zero_balanced(0.5), float)
        assert np.array_equal(got, [hyp3f2_zero_balanced(float(x)) for x in z])
        assert np.array_equal(hyp3f2_zero_balanced(z.reshape(6, 10)).ravel(), got)


class TestStruveL0:
    def test_at_zero(self):
        assert struve_l0(0.0) == 0.0

    def test_small_x_leading_term(self):
        x = 1e-8
        assert struve_l0(x) == pytest.approx(2.0 * x / math.pi, rel=1e-12)

    def test_nonnegative_increasing(self):
        xs = np.linspace(0.0, 10.0, 50)
        vals = [struve_l0(float(x)) for x in xs]
        assert all(v >= 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            struve_l0(-1.0)


class TestConstants:
    def test_zeta3_by_summation(self):
        # direct sum with an Euler-Maclaurin tail: sum 1/n^3 + 1/(2N^2) - 1/(2N^3) + 1/(4N^4)
        n = 20000
        k = np.arange(1, n + 1, dtype=float)
        s = float(np.sum(1.0 / k ** 3)) + 1 / (2 * n ** 2) - 1 / (2 * n ** 3) + 1 / (4 * n ** 4)
        assert ZETA3 == pytest.approx(s, abs=1e-15)

    def test_catalan_by_paired_summation(self):
        # pair consecutive alternating terms into a positive 1/k^3-type series,
        # compensated summation plus the integral tail correction 1/(32 K^2)
        big_k = 200000
        k = np.arange(big_k, dtype=float)
        pairs = 1.0 / (4.0 * k + 1.0) ** 2 - 1.0 / (4.0 * k + 3.0) ** 2
        s = math.fsum(pairs.tolist()) + 1.0 / (32.0 * big_k ** 2)
        assert CATALAN == pytest.approx(s, abs=2e-15)

    def test_lorentzian_constant(self):
        expected = 28 * ZETA3 / math.pi - 8 * CATALAN
        assert LORENTZIAN_L1_CONSTANT == pytest.approx(expected, rel=1e-15)
        assert LORENTZIAN_L1_CONSTANT == pytest.approx(3.38582, abs=1e-5)
