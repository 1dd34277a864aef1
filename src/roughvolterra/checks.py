"""Acceptance criteria A1-A9, one function each.

Every criterion returns a ``CheckResult``, the (name, passed, value,
tolerance, details) record a run manifest stores.  The CLI and the test
suite call the same functions, each with its own parameters, so the two
certify the same statements.  The parameter names of the verify kind's
criteria (A1-A4, A8, A9) are the keys of their config blocks.

A5, A6 and A7 judge data their CLI runs also write out: A5 takes the
solutions and the RK4 oracle's y, A6 the Monte Carlo values of
``x1_tilde_value``, A7 the per-seed rates of ``self_convergence``.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .algebra import TimeGrid, delta_tilde, estimate_holder_exponent, fit_line, twist
from .expkernels import e0
from .laplace import KernelMeasure
from .lift import (
    DETERMINISTIC_FUNCTIONS,
    DriverPath,
    RoughLift,
    deterministic_driver,
    sample_fbm,
    wiener_cov_x1,
)
from .oracles import x3_tilde_riemann_fast, young_integral_simpson
from .sewing import c_mu, sewing_bound_check
from .sigma import sigma_catalog
from .solver import SolverConfig, solve_rough, solve_rough_ode, young_integral

__all__ = [
    "CheckResult",
    "a1_algebraic_exactness",
    "a2_sewing_bound",
    "a3_chen_relation",
    "a4_young_exactness",
    "a5_solver_vs_ode",
    "a6_fbm_young_covariance",
    "a7_rough_self_convergence",
    "a8_diffusion_degeneration",
    "a9_holder_estimator",
    "x1_tilde_value",
    "self_convergence",
]


class CheckResult(NamedTuple):
    """One criterion's outcome, in the argument order of ``RunManifest.add_check``."""

    name: str
    passed: bool
    value: float
    tolerance: float
    details: dict | None = None


def a1_algebraic_exactness(tol, trials=100, grid_points=16, atoms=3, seed=0):
    """A1: delta delta = 0, delta~ delta~ = 0 and (delta a)_{tus} = a_{tu} a_{us}.

    Evaluated on every ordered triple of random grids with random paths and
    atoms.  The coboundary residuals are relative to the largest path
    value; the twist factors are bounded by 1.  A trial whose grid loses a
    point to ``np.unique`` is skipped.
    """
    tol, n, n_atoms = float(tol), int(grid_points), int(atoms)
    rng = np.random.default_rng(int(seed))
    i, j, k = np.array(list(combinations(range(n), 3))).T
    rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
    zero = np.zeros(1)
    worst_dd = worst_tt = worst_tw = 0.0
    for _ in range(int(trials)):
        pts = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0.02, 1.0, n - 1))]))
        if pts.size != n:
            continue
        xis = np.sort(rng.uniform(0.0, 6.0, n_atoms))
        g = rng.standard_normal((n, 2))
        gt = rng.standard_normal((n, n_atoms, 2))
        scale = max(np.max(np.abs(g)), np.max(np.abs(gt)))
        # delta delta g, as delta~ delta~ at the single atom xi = 0
        dd = delta_tilde(pts, zero, delta_tilde(pts, zero, g[:, None], rows, cols), i, j, k)
        ddt = delta_tilde(pts, xis, delta_tilde(pts, xis, gt, rows, cols), i, j, k)
        s, u, t = pts[i][:, None], pts[j][:, None], pts[k][:, None]
        a_ts, a_tu, a_us = twist(xis, s, t), twist(xis, u, t), twist(xis, s, u)
        worst_dd = max(worst_dd, float(np.max(np.abs(dd))) / scale)
        worst_tt = max(worst_tt, float(np.max(np.abs(ddt))) / scale)
        worst_tw = max(worst_tw, float(np.max(np.abs(a_ts - a_tu - a_us - a_tu * a_us))))
    worst = max(worst_dd, worst_tt, worst_tw)
    return CheckResult(
        "A1_algebraic_exactness", worst <= tol, worst, tol,
        {"delta_delta": worst_dd, "twisted": worst_tt, "twist_cocycle": worst_tw},
    )


def a2_sewing_bound(mu=1.5, rho=0.75, trials=100, level=8, xi=1.0, seed=0):
    """A2: the dyadic sewing bound with constant c_mu holds for random germs."""
    mu, rho = float(mu), float(rho)
    rng = np.random.default_rng(int(seed))
    violations = 0
    margins = []
    for _ in range(int(trials)):
        c0, c1, c2 = rng.uniform(-1, 1, 3)
        om1, om2 = rng.uniform(1.0, 6.0, 2)

        def b_pair(u, v, c0=c0, c1=c1, c2=c2, om1=om1, om2=om2):
            return (v - u) ** 1.6 * (c0 + c1 * np.cos(om1 * u) + c2 * np.sin(om2 * v))

        report = sewing_bound_check(b_pair, mu, rho, xi=float(xi), level=int(level), n_probe=7)
        margins.append(report.lhs_norm / max(report.c_mu * report.rhs_norm, 1e-300))
        if not report.satisfied:
            violations += 1
    return CheckResult(
        "A2_sewing_bound", violations == 0, violations, 0,
        {"worst_margin": max(margins), "c_mu": c_mu(mu)},
    )


def a3_chen_relation(tol, seeds=range(3), hursts=(0.4, 0.7), cells=256, triples=10,
                     sub_mesh=65536, atoms=((0.5, 0.6), (2.0, 0.3), (8.0, 0.1))):
    """A3: the closed-form Chen defect x3~ against the brute-force oracle.

    The pass value is the worst error over random grid triples relative to
    ``lift.scale**2``; ``details["worst_relative"]`` is the worst error
    relative to each triple's largest oracle value.  Triples are drawn
    with ``default_rng(10_000 + seed)`` and evaluated one at a time, each by
    its own ``lift.x3_tilde`` call and its own blocked oracle walk.
    """
    tol = float(tol)
    measure = KernelMeasure.from_atoms(atoms)
    grid = TimeGrid.uniform(int(cells), 1.0)
    worst = worst_rel = 0.0
    for hurst in hursts:
        for seed in seeds:
            driver = sample_fbm(float(hurst), grid, n_dims=1, seed=seed)
            lift = RoughLift(driver, measure, gamma=min(0.95, float(hurst)))
            rng = np.random.default_rng(10_000 + seed)
            scale = lift.scale**2
            idx = [np.sort(rng.choice(len(grid), size=3, replace=False)) for _ in range(int(triples))]
            for s, u, t in grid.points[np.reshape(idx, (-1, 3))]:
                chen = lift.x3_tilde(s, u, t)
                ref = x3_tilde_riemann_fast(driver, measure, measure.xis, s, u, t, int(sub_mesh))
                err = float(np.max(np.abs(chen - ref)))
                worst = max(worst, err / scale)
                worst_rel = max(worst_rel, err / max(float(np.max(np.abs(ref))), 1e-300))
    return CheckResult(
        "A3_chen_relation", worst <= tol, worst, tol, {"worst_relative": worst_rel}
    )


def _z_linear(ts):
    # integrand z_v = v as an (npts, n=1) array
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return ts[:, None]


def a4_young_exactness(tol, level=12, xis=(0.0, 1.0, 5.0), cells=4096,
                       functions=("identity", "sin")):
    """A4: Young integrals of z_v = v against smooth drivers vs Simpson quadrature."""
    tol = float(tol)
    measure = KernelMeasure.from_atoms([(x, 1.0) for x in sorted({float(x) for x in xis})])
    grid = TimeGrid.uniform(int(cells), 1.0)
    worst = 0.0
    details = {}
    for fn_name in functions:
        driver = deterministic_driver(grid, DETERMINISTIC_FUNCTIONS[fn_name])
        lift = RoughLift(driver, measure, gamma=1.0)
        for k, xi in enumerate(measure.xis):
            res = young_integral(lift, _z_linear, 0.0, 1.0, atom=int(k), level=int(level))
            ref = young_integral_simpson(driver, lambda v: v, float(xi), 0.0, 1.0)
            err = abs(float(res.extrapolated) - ref) / abs(ref)
            details[f"{fn_name}/xi={xi:g}"] = err
            worst = max(worst, err)
    return CheckResult("A4_young_exactness", worst <= tol, worst, tol, details)


def a5_solver_vs_ode(solutions, y_ref, tol):
    """A5: every solution's y within ``tol`` in sup norm of the RK4 oracle's ``y_ref``."""
    tol = float(tol)
    err = max(float(np.max(np.abs(sol.y - y_ref))) for sol in solutions)
    return CheckResult("A5_solver_vs_ode", err <= tol, err, tol)


def x1_tilde_value(seeds, hurst, cells, xi, horizon=1.0):
    """A6's statistic: x1~_{T0}(xi) of the fBm path drawn with each seed, one value per seed.

    The closed-form first-order lift over [0, T], unrolled over the cells,
    on paths streamed from one ``sample_fbm`` seed list.
    """
    grid = TimeGrid.uniform(cells, horizon)
    w_cells = np.exp(-xi * (horizon - grid.points[1:])) * e0(xi, grid.widths)
    return [float(w_cells @ driver.slopes[:, 0])
            for driver in sample_fbm(hurst, grid, n_dims=1, seed=seeds)]


def a6_fbm_young_covariance(values, hurst, xi, horizon=1.0, se_factor=3.0):
    """A6: Monte Carlo variance of ``x1_tilde_value`` against the quadrature covariance.

    Passes when the two differ by at most ``se_factor`` standard errors of
    the sample variance.
    """
    vals = np.asarray(values, dtype=float)
    mc_var = float(np.var(vals, ddof=1))
    se = mc_var * np.sqrt(2.0 / (vals.size - 1))
    ref = wiener_cov_x1(hurst, xi, xi, (0.0, horizon), (0.0, horizon))
    err = abs(mc_var - ref)
    band = float(se_factor) * se
    return CheckResult(
        "A6_fbm_young_covariance", err <= band, err, band,
        {"mc_variance": mc_var, "quadrature": ref, "std_error": se},
    )


def self_convergence(fine, measure, sigma, a, solver, levels, sigma_params=None):
    """One seed of A7: sup differences of y between consecutive levels, and their rate.

    ``fine`` is the driver on 2^max(levels) cells; level L solves on every
    2^(max(levels) - L)-th of its points.  The rate is minus the slope of
    log2(difference) against level.  Returns (differences, rate).
    """
    top = max(levels)
    fld = sigma_catalog(sigma, n=fine.n_dims, d=np.size(a), params=sigma_params)
    sols = {}
    for lev in levels:
        step = 2 ** (top - lev)
        drv = DriverPath(TimeGrid(fine.grid.points[::step]), fine.values[::step])
        sols[lev] = solve_rough(RoughLift(drv, measure, gamma=solver.gamma), fld, a, solver)
    diffs = [float(np.max(np.abs(sols[lev].y - sols[lev + 1].y[::2]))) for lev in levels[:-1]]
    return diffs, -fit_line(levels[:-1], np.log2(diffs))[0]


def a7_rough_self_convergence(rates, rate_threshold, min_passing):
    """A7: at least ``min_passing`` seeds converge at a rate above ``rate_threshold``."""
    min_passing = int(min_passing)
    n_pass = int(np.sum(np.asarray(rates) > float(rate_threshold)))
    return CheckResult(
        "A7_rough_self_convergence", n_pass >= min_passing, n_pass, min_passing,
        {"rates": list(rates)},
    )


def a8_diffusion_degeneration(cells=128, seed=1, hurst=0.4, sigma="tanh", sigma_params=None,
                              initial=(0.1,), solver=None):
    """A8: with the kernel {(0, 1)} the rough solve equals the rough-ODE solve bit for bit.

    y, ytilde and zeta must be identical; the value is max |y - y_ode|.
    ``solver`` is a SolverConfig (default gamma 0.38, kappa 0.35).
    """
    solver = solver if solver is not None else SolverConfig(gamma=0.38, kappa=0.35)
    driver = sample_fbm(float(hurst), TimeGrid.uniform(int(cells), 1.0), n_dims=1, seed=int(seed))
    fld = sigma_catalog(sigma, n=1, d=1, params=sigma_params)
    a = np.asarray(initial, dtype=float)
    lift = RoughLift(driver, KernelMeasure.from_atoms([(0.0, 1.0)]), gamma=solver.gamma)
    sol_a = solve_rough(lift, fld, a, solver)
    sol_b = solve_rough_ode(driver, fld, a, solver)
    identical = all(
        np.array_equal(getattr(sol_a, f), getattr(sol_b, f)) for f in ("y", "ytilde", "zeta")
    )
    diff = float(np.max(np.abs(sol_a.y - sol_b.y)))
    return CheckResult("A8_diffusion_degeneration", identical, diff, 0.0)


def a9_holder_estimator(tol, seeds=range(100), hursts=(0.4, 0.7), points=4096):
    """A9: the median Holder-exponent estimate of fBm samples lies within ``tol`` of H.

    Each H's samples are streamed from one ``sample_fbm`` seed list, so the
    check holds one FFT sub-batch of paths (8 at 4096 points) at a time.
    """
    tol = float(tol)
    grid = TimeGrid.uniform(int(points) - 1, 1.0)
    worst = 0.0
    details = {}
    for hurst in hursts:
        ests = [estimate_holder_exponent(grid, driver.values)[0]
                for driver in sample_fbm(float(hurst), grid, n_dims=1, seed=seeds)]
        med = float(np.median(ests))
        details[str(hurst)] = med
        worst = max(worst, abs(med - float(hurst)))
    return CheckResult("A9_holder_estimator", worst <= tol, worst, tol, details)
