import inspect
import tracemalloc

import numpy as np
import pytest

import roughvolterra as rv
from roughvolterra import checks, oracles
from roughvolterra import solver as solver_mod
from roughvolterra.algebra import TimeGrid, delta_tilde, lbeta_norm
from roughvolterra.oracles import rk4_augmented
from roughvolterra.laplace import KernelMeasure, kernel_from_spec
from roughvolterra.lift import DriverPath, RoughLift, deterministic_driver, sample_fbm
from roughvolterra.sigma import SigmaField, sigma_catalog
from roughvolterra.solver import (
    SolverConfig,
    SolverFailure,
    rough_integral,
    solve_rough,
    solve_rough_ode,
    solve_young,
    young_integral,
)


def identity_lift(cells=64, atoms=((1.0, 1.0),), gamma=1.0):
    grid = TimeGrid.uniform(cells, 1.0)
    driver = deterministic_driver(grid, lambda t: t)
    return RoughLift(driver, KernelMeasure.from_atoms(atoms), gamma=gamma)


def base_config(**kw):
    params = dict(gamma=1.0, kappa=0.45, sewing_level=4, picard_tol=1e-11,
                  interval_scheme="constant", n_start=2)
    params.update(kw)
    return SolverConfig(**params)


class TestConfig:
    def test_exponent_window_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=0.38, kappa=0.38)
        with pytest.raises(ValueError):
            SolverConfig(gamma=0.38, kappa=0.3)
        with pytest.raises(ValueError):
            SolverConfig(gamma=1.0, kappa=0.45, picard_tol=0.0)

    @pytest.mark.parametrize(
        "key, bad",
        [("n_start", 0)],
    )
    def test_counts_and_contraction_limit_validated(self, key, bad):
        with pytest.raises(ValueError, match=key):
            SolverConfig(gamma=0.38, kappa=0.35, **{key: bad})
        SolverConfig(gamma=0.38, kappa=0.35, **{key: 1})


class TestYoungIntegral:
    def test_constant_integrand_exact_at_every_level(self):
        lift = identity_lift(atoms=((2.0, 1.0),))
        c = 1.3
        for level in (0, 3, 8):
            res = young_integral(
                lift, lambda ts: np.full((len(np.atleast_1d(ts)), 1), c),
                0.0, 1.0, atom=0, level=level,
            )
            expect = c * lift.x1_tilde(0.0, 1.0)[0, 0]
            assert res.value == pytest.approx(expect, rel=1e-13)

    def test_linear_case_closed_form(self):
        lift = identity_lift(cells=4096)
        res = young_integral(
            lift, lambda ts: np.atleast_1d(ts)[:, None], 0.0, 1.0, atom=0, level=12
        )
        assert float(res.extrapolated) == pytest.approx(np.exp(-1.0), rel=1e-8)

    def test_scaling_linearity(self):
        grid = TimeGrid.uniform(128, 1.0)
        mea = KernelMeasure.from_atoms([(1.0, 1.0)])
        drv = deterministic_driver(grid, lambda t: t)
        scaled = DriverPath(grid, 3.0 * drv.values)
        z = lambda ts: np.sin(np.atleast_1d(ts))[:, None]
        a = young_integral(RoughLift(drv, mea, 1.0), z, 0.0, 1.0, 0, level=8)
        b = young_integral(RoughLift(scaled, mea, 1.0), z, 0.0, 1.0, 0, level=8)
        assert float(b.value) == pytest.approx(3.0 * float(a.value), rel=1e-13)

    def test_flag_checked(self):
        lift = identity_lift(gamma=0.4)
        with pytest.raises(ValueError):
            young_integral(lift, lambda ts: np.atleast_1d(ts)[:, None], 0.0, 1.0, 0)


class TestRoughIntegral:
    def test_zero_integrand(self):
        lift = identity_lift(atoms=((0.0, 1.0), (1.0, 0.0)))
        res = rough_integral(
            lift,
            lambda ts: np.zeros((len(np.atleast_1d(ts)), 1)),
            0.0, 1.0, atom=1, level=4,
            zeta=lambda ts: np.zeros((len(np.atleast_1d(ts)), 1, 1)),
        )
        assert float(res.value) == 0.0

    def test_zero_gubinelli_reduces_to_young(self):
        lift = identity_lift(cells=512)
        z = lambda ts: np.cos(np.atleast_1d(ts))[:, None]
        zeta0 = lambda ts: np.zeros((len(np.atleast_1d(ts)), 1, 1))
        a = rough_integral(lift, z, 0.0, 1.0, atom=0, level=9, zeta=zeta0)
        b = young_integral(lift, z, 0.0, 1.0, atom=0, level=9)
        assert float(a.value) == pytest.approx(float(b.value), rel=1e-12)

    def test_controlled_identity_closed_form(self):
        # z = x (controlled by itself, zeta = 1), measure {(0,1)}, xi = 1
        lift = identity_lift(cells=1024, atoms=((0.0, 1.0), (1.0, 0.0)))
        z = lambda ts: np.atleast_1d(ts)[:, None]
        zeta1 = lambda ts: np.ones((len(np.atleast_1d(ts)), 1, 1))
        res = rough_integral(lift, z, 0.0, 1.0, atom=1, level=10, zeta=zeta1)
        assert float(res.extrapolated) == pytest.approx(np.exp(-1.0), rel=1e-6)

    @pytest.mark.parametrize("hurst, xi, bound",
                             [(0.4, 0.0, 1.2e-4), (0.4, 1.0, 4.6e-5), (0.4, 8.0, 1.4e-5),
                              (0.7, 0.0, 8.1e-6), (0.7, 1.0, 4.0e-6), (0.7, 8.0, 6.0e-7)])
    def test_matches_riemann_stieltjes_on_fbm(self, hurst, xi, bound):
        # z = tanh(x), controlled by x with zeta = sech^2(x), against a Simpson sum of
        # e^{-xi (1 - v)} tanh(x_v) dx_v on the piecewise-linear path.  Each bound is
        # twice the level-10 error (5.6e-5, 2.3e-5, 6.9e-6 at H = 0.4; 4.0e-6, 2.0e-6,
        # 2.9e-7 at H = 0.7); levels 8 to 10 gain 12.6 to 17.3.  Without the x2~ term
        # (zeta = 0) the level-10 errors are 5.4e-2, 3.4e-2, 3.9e-3 at H = 0.4
        drv = sample_fbm(hurst, TimeGrid.uniform(64, 1.0), seed=1)
        lift = RoughLift(drv, KernelMeasure.from_atoms([(xi, 1.0)]), gamma=hurst - 0.02)
        ref = oracles.young_integral_simpson(
            drv, lambda v: np.tanh(drv.at(v)[..., 0]), xi, 0.0, 1.0, n_sub=2**16)

        def error(level):
            res = rough_integral(lift, lambda u: np.tanh(drv.at(u)), 0.0, 1.0, atom=0,
                                 level=level, zeta=lambda u: np.cosh(drv.at(u))[..., None]**-2)
            return abs(float(res.value) - ref)

        fine = error(10)
        assert fine < bound
        assert error(8) / fine >= 8.0


class TestSolveYoung:
    def test_zero_sigma(self):
        lift = identity_lift()
        sol = solve_young(lift, sigma_catalog("zero", n=1, d=1), np.array([0.4]),
                          base_config())
        assert np.max(np.abs(sol.ytilde)) == 0.0
        assert np.allclose(sol.y, 0.4)

    def test_constant_sigma_closed_form(self):
        lift = identity_lift(cells=256)
        sol = solve_young(
            lift, sigma_catalog("constant", n=1, d=1, params={"value": 0.7}),
            np.array([0.0]), base_config(),
        )
        x1t = lift.x1_tilde(0.0, lift.driver.grid.points)[:, 0, 0]
        assert np.max(np.abs(sol.ytilde[:, 0, 0] - 0.7 * x1t)) < 1e-10

    def test_linear_sigma_exact_solution(self):
        # measure {(1,1)}, x = id, sigma(y) = y, a = 1: y = 1 + t exactly
        lift = identity_lift(cells=1024)
        sol = solve_young(lift, sigma_catalog("linear", n=1, d=1), np.array([1.0]),
                          base_config())
        err = np.max(np.abs(sol.y[:, 0] - (1.0 + lift.driver.grid.points)))
        assert err < 1e-4

    def test_rk4_oracle_sin(self):
        lift = identity_lift(cells=1024)
        fld = sigma_catalog("sin", n=1, d=1)
        sol = solve_young(lift, fld, np.array([1.0]), base_config())
        y_ref, _ = rk4_augmented(lift.driver, lift.measure, fld, np.array([1.0]), 1e-4)
        assert np.max(np.abs(sol.y - y_ref)) < 1e-5

    def test_requires_young_regularity(self):
        lift = identity_lift(gamma=0.45)
        with pytest.raises(ValueError):
            solve_young(lift, sigma_catalog("zero", n=1, d=1), np.array([0.0]),
                        base_config(gamma=0.45, kappa=0.4))


class TestSolveRough:
    def test_zero_sigma(self):
        lift = identity_lift(gamma=0.45)
        cfg = base_config(gamma=0.45, kappa=0.4, interval_scheme="harmonic")
        sol = solve_rough(lift, sigma_catalog("zero", n=1, d=1), np.array([0.4]), cfg)
        assert np.max(np.abs(sol.ytilde)) == 0.0

    def test_constant_sigma_closed_form(self):
        lift = identity_lift(cells=256)
        sol = solve_rough(
            lift, sigma_catalog("constant", n=1, d=1, params={"value": -0.3}),
            np.array([0.5]), base_config(),
        )
        x1t = lift.x1_tilde(0.0, lift.driver.grid.points)[:, 0, 0]
        assert np.max(np.abs(sol.ytilde[:, 0, 0] + 0.3 * x1t)) < 1e-10

    def test_rk4_oracle_sin_millituned(self):
        # rough solve on a smooth driver against RK4 at dt = 1e-3
        lift = identity_lift(cells=512)
        fld = sigma_catalog("sin", n=1, d=1)
        sol = solve_rough(lift, fld, np.array([1.0]), base_config())
        y_ref, _ = rk4_augmented(lift.driver, lift.measure, fld, np.array([1.0]), 1e-3)
        assert np.max(np.abs(sol.y - y_ref)) < 1e-4

    def test_young_rough_consistency(self):
        lift = identity_lift(cells=512)
        fld = sigma_catalog("tanh", n=1, d=1)
        cfg = base_config(picard_tol=1e-12, sewing_level=5)
        a = solve_young(lift, fld, np.array([0.3]), cfg)
        b = solve_rough(lift, fld, np.array([0.3]), cfg)
        assert np.max(np.abs(a.y - b.y)) < 5e-5

    def test_picard_residual_within_tolerance(self):
        lift = identity_lift(cells=256)
        cfg = base_config(picard_tol=1e-10)
        sol = solve_rough(lift, sigma_catalog("sin", n=1, d=1), np.array([0.2]), cfg)
        for diag in sol.diagnostics:
            assert diag.picard_residual <= 2 * cfg.picard_tol * max(
                1.0, diag.q_norm
            )

    def test_lipschitz_in_initial_condition(self):
        mea = KernelMeasure.from_atoms([(1.0, 1.0)])
        grid = TimeGrid.uniform(256, 1.0)
        fld = sigma_catalog("tanh", n=1, d=1)
        cfg = SolverConfig(gamma=0.38, kappa=0.35, sewing_level=3,
                           picard_tol=1e-11, interval_scheme="harmonic", n_start=4)
        ratios = []
        for cells in (128, 256):
            sub = TimeGrid.uniform(cells, 1.0)
            drv = sample_fbm(0.4, sub, seed=6)
            lift = RoughLift(drv, mea, gamma=0.38)
            ya = solve_rough(lift, fld, np.array([0.1]), cfg).y
            yb = solve_rough(lift, fld, np.array([0.15]), cfg).y
            ratios.append(np.max(np.abs(ya - yb)) / 0.05)
        assert ratios[0] < 10.0
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.2

    def test_flow_patching_two_pass(self):
        # one pass over [0, T] vs two patched passes [0, T/2], [T/2, T]:
        # agreement within 10x the Picard tolerance
        lift = identity_lift(cells=512)
        fld = sigma_catalog("sin", n=1, d=1)
        one = solve_rough(lift, fld, np.array([0.5]), base_config(n_start=1))
        two = solve_rough(lift, fld, np.array([0.5]), base_config(n_start=2))
        assert (len(one.diagnostics), len(two.diagnostics)) == (1, 2)
        assert np.max(np.abs(one.y - two.y)) < 10 * 1e-11

    def test_degeneration_bit_identity(self):
        grid = TimeGrid.uniform(128, 1.0)
        drv = sample_fbm(0.4, grid, seed=11)
        fld = sigma_catalog("tanh", n=1, d=1)
        cfg = SolverConfig(gamma=0.38, kappa=0.35, sewing_level=2,
                           picard_tol=1e-11, interval_scheme="harmonic", n_start=4)
        mea = KernelMeasure.from_atoms([(0.0, 1.0)])
        lift = RoughLift(drv, mea, gamma=0.38)
        a = solve_rough(lift, fld, np.array([0.1]), cfg)
        b = solve_rough_ode(drv, fld, np.array([0.1]), cfg)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.ytilde, b.ytilde)

    def test_solver_failure_carries_diagnostics(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "MAX_PICARD", 3)
        lift = identity_lift(cells=64)
        fld = sigma_catalog("linear", n=1, d=1, params={"scale": 40.0})
        cfg = base_config(interval_scheme="harmonic", n_start=1, picard_tol=1e-14)
        with pytest.raises(SolverFailure) as info:
            solve_rough(lift, fld, np.array([1.0]), cfg)
        assert info.value.diagnostics

    def test_interval_diagnostics_reported(self):
        lift = identity_lift(cells=256)
        sol = solve_rough(lift, sigma_catalog("sin", n=1, d=1), np.array([0.2]),
                          base_config(n_start=4))
        assert len(sol.diagnostics) >= 2
        for d in sol.diagnostics:
            assert d.iterations >= 1
            assert 0.0 <= d.contraction < 1.0
            assert d.q_norm > 0.0


A3_ATOMS = inspect.signature(checks.a3_chen_relation).parameters["atoms"].default


class TestWongZakai:
    """Rough solves on fBm against RK4 on the same piecewise-linear driver.

    The driver's slope is constant on each cell, so RK4 integrates the
    equation in Laplace coordinates with its full order, and the lift is
    the exact geometric lift of that path: the two routes differ by the
    scheme's sewing-level error, RK4's own at dt 1e-4 being near 1e-11.
    Each bound is twice the sup-error
    measured at sewing level 5 (128 cells, seed 1, a = 0.1): for sigma
    tanh, 1.56e-5 and 2.99e-7 at xi = 0, 3.29e-5 and 2.37e-5 at xi = 1, for
    H = 0.4 and 0.7; at H = 0.4, 4.16e-5 on A3's three atoms (xi 0.5, 2,
    8) and 2.01e-5 for sigma sin at xi = 0.  At xi = 0 the germ is second
    order, and levels 3 to 5 gain about 16x (15.5 for sin); at xi > 0 it is
    not yet (levels 3 to 5 read 3.55e-5 to 4.16e-5 on A3's atoms), so only
    the bound is asserted.
    """

    @staticmethod
    def sup_error(hurst, atoms, sigma):
        """level -> sup |y - y_RK4| of the rough solve, after one RK4 run."""
        driver = sample_fbm(hurst, TimeGrid.uniform(128, 1.0), seed=1)
        measure = KernelMeasure.from_atoms(atoms)
        fld, a, gamma = sigma_catalog(sigma), np.array([0.1]), hurst - 0.02
        y_ref, _ = rk4_augmented(driver, measure, fld, a, dt_max=1e-4)
        lift = RoughLift(driver, measure, gamma=gamma)

        def error(level):
            cfg = SolverConfig(gamma=gamma, kappa=gamma - 0.03, sewing_level=level,
                               picard_tol=1e-11, n_start=4)
            return float(np.max(np.abs(solve_rough(lift, fld, a, cfg).y - y_ref)))

        return error

    @pytest.mark.parametrize("hurst, xi, bound",
                             [(0.4, 0.0, 3.2e-5), (0.7, 0.0, 6.0e-7),
                              (0.4, 1.0, 6.6e-5), (0.7, 1.0, 4.8e-5)])
    def test_matches_rk4_on_fbm(self, hurst, xi, bound):
        error = self.sup_error(hurst, [(xi, 1.0)], "tanh")
        fine = error(5)
        assert fine < bound
        if xi == 0.0:
            assert error(3) / fine >= 8.0

    @pytest.mark.parametrize("atoms, sigma, bound",
                             [(A3_ATOMS, "tanh", 8.3e-5), ([(0.0, 1.0)], "sin", 4.0e-5)])
    def test_a3_atoms_and_sin_field(self, atoms, sigma, bound):
        error = self.sup_error(0.4, atoms, sigma)
        fine = error(5)
        assert fine < bound
        if len(atoms) == 1:
            assert error(3) / fine >= 8.0


def non_commuting_tanh_field():
    """V_i(y) = A_i tanh(y) for n = d = 2 with A_1 = E_12, A_2 = E_21: the commutator
    [A_1, A_2] = diag(1, -1), so the vector fields do not commute.

    sigma[i, j] = (A_i tanh(y))_j and Dsigma[i, j, q] = A_i[j, q] sech^2(y_q), the
    last axis the direction; no separable catalog field reaches this convention."""
    fields = np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])

    def batch(ys):
        return np.einsum("ijq,pq->pij", fields, np.tanh(ys))

    def dsigma_batch(ys):
        return np.einsum("ijq,pq->pijq", fields, np.cosh(ys) ** -2)

    return SigmaField(n=2, d=2, batch=batch, dsigma_batch=dsigma_batch)


class TestNonCommutingWongZakai:
    """A 2-d solve with non-commuting vector fields against RK4 on the same driver.

    fBm H = 0.4 in two dimensions, 128 cells, seed 1, a = (0.1, -0.2).  The
    sup-errors at sewing levels 3, 4, 5 read 4.26e-5, 1.02e-5, 2.51e-6 at
    xi = 0 (a gain of 17 from level 3 to 5) and 1.32e-4, 6.15e-5, 2.97e-5 at
    xi = 1; each bound is twice the level-5 error.  With Dsigma's last two
    axes swapped they read 5.37e-2 to 1.30e-2 and 2.74e-2 to 6.63e-3.
    """

    @pytest.mark.parametrize("xi, bound", [(0.0, 5.0e-6), (1.0, 6.0e-5)])
    def test_matches_rk4_on_2d_fbm(self, xi, bound, fd_consistency):
        driver = sample_fbm(0.4, TimeGrid.uniform(128, 1.0), n_dims=2, seed=1)
        measure = KernelMeasure.from_atoms([(xi, 1.0)])
        fld, a = non_commuting_tanh_field(), np.array([0.1, -0.2])
        assert fd_consistency(fld) < 1e-8
        y_ref, _ = rk4_augmented(driver, measure, fld, a, dt_max=1e-4)
        lift = RoughLift(driver, measure, gamma=0.38)

        def error(level):
            cfg = SolverConfig(gamma=0.38, kappa=0.35, sewing_level=level,
                               picard_tol=1e-11, n_start=4)
            return float(np.max(np.abs(solve_rough(lift, fld, a, cfg).y - y_ref)))

        fine = error(5)
        assert fine < bound
        if xi == 0.0:
            assert error(3) / fine >= 8.0


class TestControlledPathDiagnostics:
    def test_twisted_remainder(self):
        # ytilde = x1~(0, .) with zeta = 1: the twisted remainder
        # delta~ ytilde - x1~ zeta vanishes, so the solver's q_norm is its
        # ytilde terms plus sup|zeta| = 1 (zeta is constant)
        lift = identity_lift(cells=32)
        pts = lift.driver.grid.points
        yt = lift.x1_tilde(0.0, pts)
        q = solver_mod._interval_q_norm(
            lift, yt, np.ones((len(pts), 1, 1)), pts, lift.measure, 1.0, 0.45
        )
        dyt = delta_tilde(pts, lift.xis, yt, np.s_[:-1], np.s_[1:])
        sup_y = np.max(lbeta_norm(yt, lift.measure, 1.0))
        hold_y = np.max(lbeta_norm(dyt, lift.measure, 1.0) / np.diff(pts) ** 0.45)
        assert q == pytest.approx(sup_y + hold_y + 1.0, abs=1e-13)


def count_attempts(monkeypatch, lift, attempts):
    """Record the grid indices (lo, hi) of every interval attempt of a solve on ``lift``:
    ``_initial_iterate`` runs once per attempt, on the attempt's mesh."""
    pts = lift.driver.grid.points
    initial = solver_mod._initial_iterate

    def counting(mesh, *args):
        attempts.append(tuple(np.searchsorted(pts, mesh[[0, -1]]).tolist()))
        return initial(mesh, *args)

    monkeypatch.setattr(solver_mod, "_initial_iterate", counting)


class TestCellTablesPerSolve:
    """The lift's cell tables are built once per solve, retries included."""

    @pytest.mark.parametrize("solve", [solve_young, solve_rough])
    def test_one_call_per_solve_with_a_retried_interval(self, solve, monkeypatch):
        calls, attempts = [], []
        tables = RoughLift.cell_tables
        monkeypatch.setattr(
            RoughLift, "cell_tables",
            lambda self, refine=1: calls.append(refine) or tables(self, refine),
        )

        # one interval over [0, 1] does not contract for sigma(y) = 3y, so
        # the constant scheme rejects it and doubles N, halving the interval
        lift = identity_lift(cells=64)
        count_attempts(monkeypatch, lift, attempts)
        fld = sigma_catalog("linear", n=1, d=1, params={"scale": 3.0})
        sol = solve(lift, fld, np.array([1.0]), base_config(n_start=1, sewing_level=2))
        assert calls == [4]
        assert attempts[0] == (0, 64)
        assert len(attempts) > len(sol.diagnostics)


class TestLazyPrefix:
    def test_a_solve_builds_no_prefix(self):
        # the solver reads the cell tables only; the prefix serves x1_tilde_pairs and scale
        lift = RoughLift(sample_fbm(0.4, TimeGrid.uniform(64, 1.0), seed=2),
                         KernelMeasure.from_atoms([(1.0, 1.0)]), gamma=0.38)
        cfg = SolverConfig(gamma=0.38, kappa=0.35, sewing_level=2, picard_tol=1e-11)
        solve_rough(lift, sigma_catalog("tanh", n=1, d=1), np.array([0.3]), cfg)
        assert "_prefix" not in lift.__dict__
        assert lift.scale > 0 and "_prefix" in lift.__dict__


class TestSingleCellFailure:
    """An attempt depends only on its interval: a failed single cell ends the solve."""

    @pytest.mark.parametrize("scheme", ["harmonic", "constant"])
    def test_single_cell_is_tried_once(self, scheme, monkeypatch):
        attempts = []
        lift = identity_lift(cells=64)
        count_attempts(monkeypatch, lift, attempts)
        # sigma(y) = 200 y does not contract even on one of 64 cells.  Doubling N
        # cannot shrink (0, 1) further, so the harmonic scheme must not retry it either
        fld = sigma_catalog("linear", n=1, d=1, params={"scale": 200.0})
        cfg = base_config(sewing_level=2, interval_scheme=scheme, n_start=4)
        with pytest.raises(SolverFailure, match="single-cell") as info:
            solve_rough(lift, fld, np.array([1.0]), cfg)
        assert attempts.count((0, 1)) == 1
        assert attempts[-1] == (0, 1)
        assert len(info.value.diagnostics) == len(attempts)

    def test_harmonic_lengths_scale_with_the_horizon(self):
        # 512 cells on [0, 1e-3], where sigma(y) = 1e7 y does not contract even on one
        # cell (width 1.95e-6).  Harmonic lengths T/(N + n) halve in cells as N doubles,
        # so the solve reaches the first cell and ends there; lengths 1/(N + n) in
        # absolute time still spanned 7.8 cells at N = 2^16
        grid = TimeGrid.uniform(512, 1e-3)
        lift = RoughLift(deterministic_driver(grid, lambda t: t),
                         KernelMeasure.from_atoms([(1.0, 1.0)]), gamma=1.0)
        fld = sigma_catalog("linear", n=1, d=1, params={"scale": 1e7})
        cfg = base_config(sewing_level=1, interval_scheme="harmonic", n_start=4)
        with pytest.raises(SolverFailure, match="single-cell intervals") as info:
            solve_rough(lift, fld, np.array([1.0]), cfg)
        assert info.value.diagnostics[-1]["interval"] == (0.0, float(grid.points[1]))


class TestShrinkRule:
    def test_constant_scheme_reports_the_doubled_n(self):
        # one shrink rule: N doubles on each rejected attempt in both schemes, and a
        # constant-scheme interval has length T/N.  In a Young solve [0, 1] and [0, 0.5]
        # are rejected, so every committed interval is 0.25 wide at N = 4
        fld = sigma_catalog("linear", n=1, d=1, params={"scale": 3.0})
        cfg = base_config(sewing_level=2, interval_scheme="constant", n_start=1)
        sol = solve_young(identity_lift(cells=64), fld, np.array([1.0]), cfg)
        assert [(d.start, d.end) for d in sol.diagnostics] == [
            (0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
        assert [d.n_value for d in sol.diagnostics] == [4] * 4


def explicit_solve_from_lift(lift, fld, a, refine):
    """y on the grid from ytilde_{p+1} = e^{-xi h} ytilde_p + G_p(ytilde_p),
    with G_p built from one RoughLift.x1_tilde and one x2_tilde call over the sub-cells."""
    pts = lift.driver.grid.points
    h = np.diff(pts) / refine
    s = pts[:-1, None] + np.arange(refine) * h[:, None]          # (cells, refine)
    t = s + h[:, None]
    t[:, -1] = pts[1:]
    s, t = s.ravel(), t.ravel()
    x1t, x2t = lift.x1_tilde(s, t), lift.x2_tilde(s, t)
    w = lift.measure.weights
    yt = np.zeros((lift.xis.size, a.size))
    ys = [a]
    for p in range(s.size):
        y = a + w @ yt
        z = fld.batch(y[None])[0]                                  # (n, d)
        ds = fld.dsigma_batch(y[None])[0]                          # (n, d, d)
        germ = np.einsum("kn,nd->kd", x1t[p], z)
        germ += np.einsum("kmj,jq,miq->ki", x2t[p], z, ds)
        yt = np.exp(-lift.xis * (t[p] - s[p]))[:, None] * yt + germ
        if (p + 1) % refine == 0:
            ys.append(a + w @ yt)
    return np.array(ys)


class TestManyAtomSolve:
    def test_exp_density_solve_matches_explicit_recursion(self):
        measure = kernel_from_spec({"density": {"name": "exp"}})
        assert measure.n_atoms == 64
        drv = sample_fbm(0.4, TimeGrid.uniform(64, 1.0), seed=5)
        lift = RoughLift(drv, measure, gamma=0.38)
        fld = sigma_catalog("tanh", n=1, d=1)
        a = np.array([0.3])
        cfg = SolverConfig(gamma=0.38, kappa=0.35, sewing_level=2, picard_tol=1e-11,
                           interval_scheme="harmonic", n_start=4)
        sol = solve_rough(lift, fld, a, cfg)
        ref = explicit_solve_from_lift(lift, fld, a, refine=4)
        assert np.max(np.abs(sol.y - ref)) <= 1e-9

    def test_non_commuting_2d_solve_matches_explicit_recursion(self):
        # n = d = 2: the recursion copies the germ's index convention, so this
        # checks the iteration; TestNonCommutingWongZakai checks the convention
        drv = sample_fbm(0.4, TimeGrid.uniform(64, 1.0), n_dims=2, seed=5)
        lift = RoughLift(drv, KernelMeasure.from_atoms([(0.0, 0.5), (2.0, 0.5)]), gamma=0.38)
        fld, a = non_commuting_tanh_field(), np.array([0.3, -0.1])
        cfg = SolverConfig(gamma=0.38, kappa=0.35, sewing_level=2, picard_tol=1e-11,
                           interval_scheme="harmonic", n_start=4)
        sol = solve_rough(lift, fld, a, cfg)
        ref = explicit_solve_from_lift(lift, fld, a, refine=4)
        assert np.max(np.abs(sol.y - ref)) <= 1e-9


class TestSweepBlocks:
    """A sweep streams ytilde through the twisted scan's blocks."""

    @pytest.mark.parametrize("block", [3, 7])
    @pytest.mark.parametrize("solve", [solve_young, solve_rough])
    def test_block_size_does_not_move_y(self, solve, block, monkeypatch):
        drv = sample_fbm(0.7, TimeGrid.uniform(64, 1.0), seed=3)
        lift = RoughLift(drv, KernelMeasure.from_atoms([(0.5, 0.6), (4.0, 0.4)]), gamma=0.6)
        fld = sigma_catalog("tanh", n=1, d=1)
        cfg = base_config(gamma=0.6, sewing_level=2, interval_scheme="harmonic")
        ref = solve(lift, fld, np.array([0.3]), cfg)

        blocks = []
        scan = solver_mod.exp_scan_blocks

        def recording(*args):
            for b, e, blk in scan(*args):
                blocks.append((b, e))
                yield b, e, blk

        monkeypatch.setattr(rv.algebra, "SCAN_BLOCK", block)
        monkeypatch.setattr(solver_mod, "exp_scan_blocks", recording)
        sol = solve(lift, fld, np.array([0.3]), cfg)
        assert max(e - b for b, e in blocks) == block
        # grid slots (every 4th mesh point) fall inside blocks and on block ends
        assert any((b // 4 + 1) * 4 < e for b, e in blocks)
        assert any(e % 4 == 0 for b, e in blocks)
        assert len(sol.diagnostics) == len(ref.diagnostics)
        assert np.max(np.abs(sol.y - ref.y)) <= 1e-13
        assert np.max(np.abs(sol.ytilde - ref.ytilde)) <= 1e-13


class TestSweepWorkingSet:
    def test_solve_holds_no_mesh_sized_iterate(self):
        # 64 atoms, 512 cells at level 4: the first interval's 2048 sub-cells
        # make a (sub-cells, K, d) array 1 MiB, and a sweep holding the
        # iterate, the new iterate and the germ whole peaks at 7.6 MiB.
        # Streamed through the scan blocks the solve peaks at 2.2 MiB; the
        # bound leaves 35% margin.
        measure = kernel_from_spec({"density": {"name": "exp"}})
        lift = RoughLift(sample_fbm(0.4, TimeGrid.uniform(512, 1.0), seed=7), measure,
                         gamma=0.38)
        fld = sigma_catalog("tanh", n=1, d=1)
        cfg = SolverConfig(gamma=0.38, kappa=0.35, sewing_level=4, picard_tol=1e-11,
                           interval_scheme="harmonic", n_start=4)
        tracemalloc.start()
        try:
            solve_rough(lift, fld, np.array([0.3]), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20
