import numpy as np
import pytest
from scipy.special import zeta

from roughvolterra.sewing import (
    NotSewableError,
    SewingResult,
    c_mu,
    compensated_sum_tilde,
    lambda_tilde_dyadic,
    sewing_bound_check,
)


def additive(u, v):
    return np.sin(v) - np.sin(u)


def square_width(u, v):
    return (v - u) ** 2


class TestLambdaDyadic:
    def test_exact_increment_vanishes_at_every_level(self):
        for level in range(6):
            val = lambda_tilde_dyadic(additive, 0.0, 0.1, 0.9, level)
            assert val == pytest.approx(0.0, abs=1e-15)

    def test_level_zero_empty_intersection(self):
        # the level-0 partition has no interior points: correction is 0
        assert lambda_tilde_dyadic(square_width, 0.0, 0.0, 1.0, 0) == 0.0

    def test_square_width_level_three(self):
        # hand expansion: B_{ts} - 8 cells of (1/8)^2 = 1 - 8/64
        val = lambda_tilde_dyadic(square_width, 0.0, 0.0, 1.0, 3)
        assert val == pytest.approx(0.875, rel=1e-14)

    def test_tilde_reduces_to_plain_at_zero_frequency(self):
        # weights e^0 = 1: B_{ts} minus the unweighted sum over the level-n cells
        for level in (0, 2, 5):
            pts = np.linspace(0.2, 0.9, 2**level + 1)
            plain = square_width(0.2, 0.9) - np.sum(square_width(pts[:-1], pts[1:]))
            assert lambda_tilde_dyadic(square_width, 0.0, 0.2, 0.9, level) == plain

    def test_tilde_of_twisted_exact_vanishes(self):
        # B_{ts} = x1~ of a linear path: delta~ B = 0, so M~^n = 0
        xi = 1.7

        def b_pair(u, v):
            return (1.0 - np.exp(-xi * (v - u))) / xi

        for level in range(6):
            val = lambda_tilde_dyadic(b_pair, xi, 0.0, 1.0, level)
            assert val == pytest.approx(0.0, abs=1e-14)

    def test_uniqueness_surrogate(self):
        # adding an exact increment delta q to B leaves every M^n unchanged
        def q(v):
            return np.cos(3 * v)

        def b_plus_dq(u, v):
            return square_width(u, v) + q(v) - q(u)

        for level in (1, 3, 6):
            assert lambda_tilde_dyadic(square_width, 0.0, 0.1, 0.8, level) == pytest.approx(
                lambda_tilde_dyadic(b_plus_dq, 0.0, 0.1, 0.8, level), rel=1e-13
            )


class TestCompensatedSum:
    def test_telescoping_exact(self):
        res = compensated_sum_tilde(additive, 0.0, 0.0, 1.0, level=6)
        assert res.value == pytest.approx(np.sin(1.0) - np.sin(0.0), abs=1e-15)
        assert res.stopped_early  # differences vanish immediately

    def test_smooth_young_germ(self):
        # germ x_s (delta x)_{ts} for x = id converges to int_0^1 v dv
        res = compensated_sum_tilde(lambda u, v: u * (v - u), 0.0, 0.0, 1.0, level=14)
        assert res.extrapolated == pytest.approx(0.5, abs=1e-10)
        assert abs(res.value - 0.5) < 1e-3

    def test_vanishing_quadratic_germ(self):
        res = compensated_sum_tilde(square_width, 0.0, 0.0, 1.0, level=10)
        # value ~ 2^-L and halves per level
        assert res.value == pytest.approx(2.0**-10, rel=1e-10)
        ratios = [a / b for a, b in zip(res.diff_norms[:-1], res.diff_norms[1:])]
        assert np.allclose(ratios[3:], 2.0, atol=0.2)

    def test_tilde_zero_frequency_identical(self):
        germ = lambda u, v: u * (v - u)
        res = compensated_sum_tilde(germ, 0.0, 0.0, 1.0, level=8)
        pts = np.linspace(0.0, 1.0, 2**8 + 1)
        assert res.level == 8 and res.value == np.sum(germ(pts[:-1], pts[1:]))

    def test_tilde_constant_integrand_exact(self):
        # germ x1~(xi) c with exact x1~ of a linear path: twisted telescoping
        xi, c = 2.0, 1.3

        def germ(u, v):
            return c * (1.0 - np.exp(-xi * (v - u))) / xi

        res = compensated_sum_tilde(germ, xi, 0.0, 1.0, level=8)
        expect = c * (1.0 - np.exp(-xi)) / xi
        assert res.value == pytest.approx(expect, rel=1e-14)
        assert res.stopped_early

    def test_tilde_linear_integrand(self):
        # germ x1~_{ts}(1) z_s with z_v = v, x_v = v on [0,1] -> e^{-1}
        xi = 1.0

        def germ(u, v):
            return u * (1.0 - np.exp(-xi * (v - u))) / xi

        res = compensated_sum_tilde(germ, xi, 0.0, 1.0, level=13)
        assert res.extrapolated == pytest.approx(np.exp(-1.0), rel=1e-8)

    def test_not_sewable_detected(self):
        def rough_germ(u, v):
            return (v - u) ** 0.4 * np.cos(5 * u)

        with pytest.raises(NotSewableError) as info:
            compensated_sum_tilde(rough_germ, 0.0, 0.0, 1.0, level=14)
        assert isinstance(info.value.result, SewingResult)

    def test_level_difference_decay_rate(self):
        # |S_{L+1} - S_L| ~ 2^{-L(mu-1)}: fitted exponent within 20% of mu-1
        for mu in (1.4, 1.6, 2.0):

            def germ(u, v, mu=mu):
                return (v - u) ** mu * (1.0 + 0.2 * np.sin(4 * u))

            res = compensated_sum_tilde(germ, 0.0, 0.0, 1.0, level=12)
            diffs = np.asarray(res.diff_norms)
            lv = np.arange(diffs.size)
            slope = -np.polyfit(lv[3:], np.log2(diffs[3:]), 1)[0]
            assert slope == pytest.approx(mu - 1.0, rel=0.2)

    def test_tilde_decay_fit_for_weighted_quadratic(self):
        # B(u,v) = (v-u)^2 e^{-xi(v-u)}: differences decay like 2^{-n}
        xi = 1.0

        def germ(u, v):
            return (v - u) ** 2 * np.exp(-xi * (v - u))

        res = compensated_sum_tilde(germ, xi, 0.0, 1.0, level=10)
        diffs = np.asarray(res.diff_norms)
        slope = -np.polyfit(np.arange(diffs.size)[4:], np.log2(diffs[4:]), 1)[0]
        assert slope == pytest.approx(1.0, rel=0.2)


class TestDeltaOfLambda:
    def triple_residual(self, level, mode):
        def b_pair(u, v):
            return (v - u) ** 1.5 * (1.0 + 0.3 * np.cos(2 * u) + 0.2 * np.sin(3 * v))

        def h(s, u, t):
            one = lambda a, b: b_pair(np.array([a]), np.array([b]))[0]
            return one(s, t) - one(u, t) - one(s, u)

        def lam(s, t):
            res = compensated_sum_tilde(b_pair, 0.0, s, t, level)
            whole = b_pair(np.array([s]), np.array([t]))[0]
            return whole - (res.extrapolated if mode == "extr" else res.value)

        worst = 0.0
        for s, u, t in [(0.0, 0.3, 1.0), (0.1, 0.55, 0.9), (0.2, 0.6, 0.95)]:
            rel = abs(lam(s, t) - lam(u, t) - lam(s, u) - h(s, u, t)) / abs(h(s, u, t))
            worst = max(worst, rel)
        return worst

    def test_delta_lambda_recovers_germ_defect_rate(self):
        # raw residual decays like 2^{-L(mu-1)} = 2^{-L/2} for mu = 1.5
        r10 = self.triple_residual(10, "raw")
        r14 = self.triple_residual(14, "raw")
        assert r14 < r10
        assert np.log2(r10 / r14) / 4.0 == pytest.approx(0.5, abs=0.2)

    def test_delta_lambda_extrapolated_tightens(self):
        assert self.triple_residual(14, "extr") < 1e-5

    def test_delta_lambda_smooth_germ_level_14(self):
        # on smooth (order-2) germs the level-14 extrapolated residual
        # reaches the 1e-8 regime
        def b_pair(u, v):
            return (v - u) ** 2 * (1.0 + 0.5 * np.cos(u))

        def h(s, u, t):
            one = lambda a, b: b_pair(np.array([a]), np.array([b]))[0]
            return one(s, t) - one(u, t) - one(s, u)

        def lam(s, t):
            res = compensated_sum_tilde(b_pair, 0.0, s, t, 14)
            return b_pair(np.array([s]), np.array([t]))[0] - res.extrapolated

        s, u, t = 0.0, 0.4, 1.0
        rel = abs(lam(s, t) - lam(u, t) - lam(s, u) - h(s, u, t)) / abs(h(s, u, t))
        assert rel < 1e-8


class TestCMu:
    def test_value_at_three_halves(self):
        assert c_mu(1.5) == pytest.approx(2.0 + 2.0**1.5 * zeta(1.5), rel=1e-10)
        assert c_mu(1.5) == pytest.approx(9.389, abs=5e-4)

    def test_against_scipy_zeta(self):
        for mu in (1.1, 1.5, 2.0, 3.0):
            assert c_mu(mu) == pytest.approx(2.0 + 2.0**mu * zeta(mu), rel=1e-10)

    def test_requires_mu_above_one(self):
        with pytest.raises(ValueError):
            c_mu(1.0)


class TestSewingBoundCheck:
    def test_trivial_zero_germ(self):
        report = sewing_bound_check(lambda u, v: 0.0 * u, 1.5, 0.75, level=6)
        assert report.satisfied
        assert report.lhs_norm == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sewing_bound_check(square_width, 0.9, 0.4)
        with pytest.raises(ValueError):
            sewing_bound_check(square_width, 1.5, 1.6)

    def test_random_noisy_germs_never_violate(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            c0, c1 = rng.uniform(-1, 1, 2)
            om = rng.uniform(1, 6)

            def b_pair(u, v, c0=c0, c1=c1, om=om):
                return (v - u) ** 1.6 * (c0 + c1 * np.cos(om * u))

            report = sewing_bound_check(b_pair, 1.5, 0.75, level=8, n_probe=7)
            assert report.satisfied
