from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from roughvolterra.expkernels import e0, exp_int, phi1, phi2, phi3, phi4, ramp_int
from roughvolterra.laplace import kernel_from_spec


def exact_exp_int(lam, mu, dt):
    """exp_int in the current decimal context, from the exact binary values of its arguments."""
    lam, mu, dt = Decimal(lam), Decimal(mu), Decimal(dt)
    if lam == mu:
        return dt * (-lam * dt).exp()
    return ((-mu * dt).exp() - (-lam * dt).exp()) / (lam - mu)


def exact_ramp_int(xi, eta, dt):
    """ramp_int for eta > 0 in the current decimal context."""
    exact_e0 = Decimal(dt) if xi == 0 else (1 - (-Decimal(xi) * Decimal(dt)).exp()) / Decimal(xi)
    return (exact_e0 - exact_exp_int(xi, eta, dt)) / Decimal(eta)


class TestPhiFunctions:
    def test_values_at_zero(self):
        assert phi1(0.0) == 1.0
        assert phi2(0.0) == pytest.approx(0.5, rel=1e-15)
        assert phi3(0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert phi4(0.0) == pytest.approx(1.0 / 24.0, rel=1e-15)

    def test_recurrence_consistency(self):
        # phi_{k+1}(z) = (phi_k(z) - 1/k!)/z away from the origin
        for z in (-3.0, -0.7, -0.05, 0.5):
            assert phi2(z) == pytest.approx((phi1(z) - 1.0) / z, rel=1e-12)
            assert phi3(z) == pytest.approx((phi2(z) - 0.5) / z, rel=1e-11)
            assert phi4(z) == pytest.approx((phi3(z) - 1 / 6.0) / z, rel=1e-10)

    def test_taylor_branch_matches_closed_form(self):
        # same-argument comparison just inside the series region, where the
        # closed forms are still well conditioned
        for z in (-0.0999, -0.05, 0.03, 0.0999):
            assert phi2(z) == pytest.approx((np.expm1(z) - z) / z**2, rel=1e-12)
            assert phi3(z) == pytest.approx(
                (np.expm1(z) - z - z**2 / 2) / z**3, rel=1e-11
            )


class TestE0:
    def test_zero_rate(self):
        assert e0(0.0, 1.0) == 1.0

    def test_unit_rate(self):
        assert e0(1.0, 1.0) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-14)

    def test_vectorised(self):
        xis = np.array([0.0, 1.0, 10.0])
        vals = e0(xis, 0.5)
        for xi, v in zip(xis, vals):
            ref = quad(lambda r: np.exp(-xi * r), 0, 0.5)[0]
            assert v == pytest.approx(ref, rel=1e-10)


class TestExpInt:
    def test_degenerate_rates(self):
        assert exp_int(0.0, 0.0, 1.0) == 1.0
        assert exp_int(2.0, 2.0, 0.7) == pytest.approx(0.7 * np.exp(-1.4), rel=1e-13)

    def test_closed_form_case(self):
        val = exp_int(1.0, 2.0, 1.0)
        assert val == pytest.approx(np.exp(-1.0) - np.exp(-2.0), rel=1e-13)
        ref = quad(lambda r: np.exp(-1.0 * (1 - r)) * np.exp(-2.0 * r), 0, 1)[0]
        assert val == pytest.approx(ref, rel=1e-10)

    def test_series_matches_limit_near_switch(self):
        # lam ~ mu agrees with the lam = mu limit
        assert exp_int(1.0, 1.0 + 1e-9, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-8)

    def test_against_50_digit_reference(self):
        # |lam - mu| dt from 1e-9 to 50, lam above and below mu, dt from 1e-5 to 1
        z = np.logspace(-9, np.log10(50.0), 120)
        worst = 0.0
        with localcontext(prec=50):
            for dt in (1e-5, 1e-3, 0.1, 1.0):
                for mu in (0.0, 0.5, 3.0):
                    lam, mus = mu + z / dt, np.full_like(z, mu)
                    for a, b in ((lam, mus), (mus, lam)):
                        for x, y, v in zip(a, b, exp_int(a, b, dt)):
                            ref = exact_exp_int(x, y, dt)
                            worst = max(worst, abs(Decimal(v) - ref) / ref)
        assert worst < 1e-14

    def test_vectorised_mixed_branches(self):
        lam = np.array([1.0, 1.0, 3.0])
        mu = np.array([1.0 + 1e-9, 2.0, 0.0])
        vals = exp_int(lam, mu, 1.0)
        for la, m, v in zip(lam, mu, vals):
            ref = quad(lambda r: np.exp(-la * (1 - r)) * np.exp(-m * r), 0, 1)[0]
            assert v == pytest.approx(ref, rel=1e-8)


class TestRampInt:
    def test_eta_zero_limit(self):
        ref = quad(lambda r: np.exp(-1.5 * (1 - r)) * r, 0, 1)[0]
        assert ramp_int(1.5, 0.0, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_generic_case(self):
        ref = quad(lambda r: np.exp(-1.0 * (1 - r)) * (1 - np.exp(-2 * r)) / 2.0, 0, 1)[0]
        assert ramp_int(1.0, 2.0, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_both_rates_zero(self):
        # integrand degenerates to r
        assert ramp_int(0.0, 0.0, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_series_branch_continuity(self):
        dt = 1.0
        for xi in (0.0, 1.0, 4.0):
            inside = ramp_int(xi, 0.9e-4, dt)
            outside = ramp_int(xi, 1.1e-4, dt)
            ref_in = quad(
                lambda r: np.exp(-xi * (dt - r)) * (1 - np.exp(-0.9e-4 * r)) / 0.9e-4,
                0, dt,
            )[0]
            assert inside == pytest.approx(ref_in, rel=1e-10)
            assert abs(inside - outside) / abs(outside) < 1e-3

    def test_against_quadrature_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            xi, eta = rng.uniform(0, 10, 2)
            dt = rng.uniform(0.01, 2.0)
            ref = quad(
                lambda r: np.exp(-xi * (dt - r)) * (1 - np.exp(-eta * r)) / eta, 0, dt
            )[0]
            assert ramp_int(xi, eta, dt) == pytest.approx(ref, rel=1e-9)

    def test_exp_density_kernel_against_50_digit_reference(self):
        # every (xi, eta) pair of the 64-atom exp-density kernel at the sub-cell
        # width 1/8192 of a 512-cell grid at sewing level 4
        xis = kernel_from_spec({"density": {"name": "exp"}}).xis
        dt = 1.0 / 8192
        got = ramp_int(xis[:, None], xis[None, :], dt)
        worst = 0.0
        with localcontext(prec=50):
            for i, xi in enumerate(xis):
                for j, eta in enumerate(xis):
                    ref = exact_ramp_int(xi, eta, dt)
                    worst = max(worst, abs(Decimal(got[i, j]) - ref) / ref)
        assert worst < 1e-11
