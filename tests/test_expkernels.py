from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from roughvolterra.expkernels import RAMP_SERIES_CUT, e0, exp_int, ramp_int
from roughvolterra.laplace import kernel_from_spec


def exact_exp_int(lam, mu, dt):
    """exp_int in the current decimal context, from the exact binary values of its arguments."""
    lam, mu, dt = Decimal(lam), Decimal(mu), Decimal(dt)
    if lam == mu:
        return dt * (-lam * dt).exp()
    return ((-mu * dt).exp() - (-lam * dt).exp()) / (lam - mu)


def exact_e0(xi, dt):
    """e0 in the current decimal context."""
    return Decimal(dt) if xi == 0 else (1 - (-Decimal(xi) * Decimal(dt)).exp()) / Decimal(xi)


def exact_ramp_int(xi, eta, dt):
    """ramp_int in the current decimal context; it is symmetric in xi and eta."""
    xi, eta = min(xi, eta), max(xi, eta)
    if eta == 0:
        return Decimal(dt) ** 2 / 2
    return (exact_e0(xi, dt) - exact_exp_int(xi, eta, dt)) / Decimal(eta)


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
        # either side of the series cut max(xi, eta) dt = RAMP_SERIES_CUT, the larger
        # rate xi or eta, the other 0, half of it or equal to it
        for fast in (RAMP_SERIES_CUT * (1 - 1e-3), RAMP_SERIES_CUT * (1 + 1e-3)):
            for slow in (0.0, fast / 2, fast):
                for xi, eta in ((fast, slow), (slow, fast)):
                    ref = quad(lambda r: np.exp(-xi * (dt - r)) * (
                        (1 - np.exp(-eta * r)) / eta if eta else r), 0, dt)[0]
                    got = ramp_int(xi, eta, dt)
                    assert got == pytest.approx(ref, rel=1e-10)
                    other = ramp_int(xi * (1 + 2e-3), eta * (1 + 2e-3), dt)
                    assert abs(got - other) / abs(other) < 1e-3

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
        assert worst < 1e-14

    def test_against_50_digit_reference(self):
        # xi dt and eta dt over {0} and 1e-9 to 50, dt from 1e-5 to 1: 3,380 points on
        # both sides of the series cut and of xi = eta
        z = np.r_[0.0, np.logspace(-9, np.log10(50.0), 25)]
        worst = 0.0
        with localcontext(prec=50):
            for dt in np.logspace(-5, 0, 5):
                xi, eta = np.meshgrid(z / dt, z / dt, indexing="ij")
                for x, y, v in zip(xi.ravel(), eta.ravel(), ramp_int(xi, eta, dt).ravel()):
                    ref = exact_ramp_int(x, y, dt)
                    worst = max(worst, abs(Decimal(v) - ref) / ref)
        assert worst < 2e-14

    def test_drift_table_is_minus_eta_ramp(self):
        # exp_int(xi, eta) - e0(xi) = -eta ramp_int(xi, eta): the difference cancels
        # where eta dt is small, the product does not
        z = np.logspace(-9, np.log10(50.0), 25)
        worst = 0.0
        with localcontext(prec=50):
            for dt in (1e-5, 1.0 / 8192, 1.0):
                xi, eta = np.meshgrid(np.r_[0.0, z] / dt, z / dt, indexing="ij")
                got = -eta * ramp_int(xi, eta, dt)
                for x, y, v in zip(xi.ravel(), eta.ravel(), got.ravel()):
                    ref = exact_exp_int(x, y, dt) - exact_e0(x, dt)
                    worst = max(worst, abs(Decimal(v) - ref) / abs(ref))
        assert worst < 1e-14

    def test_no_floating_point_error_at_any_rate(self):
        # both branches are computed over every input and one is discarded; neither
        # overflows, divides by zero or makes a NaN for rates from 0 to 1e6/dt
        z = np.r_[0.0, np.logspace(-12, 6, 37)]
        with np.errstate(all="raise", under="ignore"):
            for dt in (1e-8, 1.0 / 8192, 1.0, 100.0):
                out = ramp_int(z[:, None] / dt, z[None, :] / dt, dt)
                assert np.all(np.isfinite(out)) and np.all(out > 0)
