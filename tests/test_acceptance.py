"""Acceptance suite: every criterion at its stated tolerance.

Each test runs one criterion from ``roughvolterra.checks`` (the functions
the CLI's runs call) with this suite's parameters, prints one PASS/FAIL
line (visible with `pytest -s` or in the captured-output section) and
asserts on the returned record and the runtime budget, so the suite
doubles as the acceptance report.
"""

import time

import numpy as np
import pytest

from roughvolterra import checks
from roughvolterra.algebra import TimeGrid
from roughvolterra.laplace import KernelMeasure
from roughvolterra.lift import RoughLift, deterministic_driver, sample_fbm
from roughvolterra.oracles import rk4_augmented
from roughvolterra.sigma import sigma_catalog
from roughvolterra.solver import SolverConfig, solve_rough, solve_young


def report(cid, passed, detail, started):
    line = f"ACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} — {detail} [{time.time()-started:.1f}s]"
    print(line)
    assert passed, line


def test_criterion_1_algebraic_exactness():
    started = time.time()
    rec = checks.a1_algebraic_exactness(tol=1e-12, trials=100, grid_points=16, atoms=3, seed=2024)
    report(
        "A1",
        rec.passed and time.time() - started < 1.0,
        f"max residual {rec.value:.2e} over all ordered triples "
        f"(tol {rec.tolerance:.0e}, runtime < 1 s)",
        started,
    )


def test_criterion_2_sewing_bound():
    started = time.time()
    rec = checks.a2_sewing_bound(mu=1.5, rho=0.75, trials=100, level=8, xi=1.0, seed=77)
    c_val = rec.details["c_mu"]
    assert c_val == pytest.approx(9.389, abs=5e-4)
    report(
        "A2",
        rec.passed and time.time() - started < 10.0,
        f"0 violations required, got {rec.value}; c_mu = {c_val:.4f} (runtime < 10 s)",
        started,
    )


def test_criterion_3_chen_relation():
    started = time.time()
    tol = 1e-6
    rec = checks.a3_chen_relation(
        tol=tol, seeds=range(20), hursts=(0.4, 0.7), cells=2**8, triples=50,
        sub_mesh=1 << 16, atoms=[(0.5, 0.6), (2.0, 0.3), (8.0, 0.1)],
    )
    worst = rec.details["worst_relative"]
    elapsed = time.time() - started
    report(
        "A3",
        rec.passed and worst <= tol and elapsed < 120.0,
        f"worst per-triple relative {worst:.2e}, scale-relative {rec.value:.2e} "
        f"(tol {tol:.0e}, runtime < 2 min)",
        started,
    )


def test_criterion_4_young_exactness():
    started = time.time()
    rec = checks.a4_young_exactness(
        tol=1e-8, level=12, xis=(0.0, 1.0, 5.0), cells=2**12, functions=("identity", "sin")
    )
    elapsed = time.time() - started
    report(
        "A4",
        rec.passed and elapsed < 5.0,
        f"worst relative {rec.value:.2e} vs quadrature oracles "
        f"(tol {rec.tolerance:.0e}, runtime < 5 s)",
        started,
    )


def test_criterion_5_solver_vs_ode_oracle():
    started = time.time()
    tol = 1e-4
    grid = TimeGrid.uniform(2**10, 1.0)
    driver = deterministic_driver(grid, lambda t: t)
    mea = KernelMeasure.from_atoms([(1.0, 1.0)])
    lift = RoughLift(driver, mea, gamma=1.0)
    cfg = SolverConfig(gamma=1.0, kappa=0.45, sewing_level=4, picard_tol=1e-11,
                       interval_scheme="constant", n_start=2)
    a = np.array([1.0])
    records = []
    details = []
    for name, params in (("constant", {"value": 0.8}), ("linear", {}), ("sin", {})):
        fld = sigma_catalog(name, n=1, d=1, params=params)
        y_ref, _ = rk4_augmented(driver, mea, fld, a, dt_max=1e-4)
        sols = [solver(lift, fld, a, cfg) for solver in (solve_young, solve_rough)]
        rec = checks.a5_solver_vs_ode(sols, y_ref, tol)
        records.append(rec)
        details.append(f"{name}={rec.value:.1e}")
    worst = max(rec.value for rec in records)
    elapsed = time.time() - started
    report(
        "A5",
        all(rec.passed for rec in records) and elapsed < 30.0,
        f"worst sup-error {worst:.2e} over solve_young and solve_rough "
        f"(tol {tol:.0e}; {', '.join(details)}; runtime < 30 s)",
        started,
    )


def test_criterion_6_fbm_young_covariance():
    started = time.time()
    hurst, xi = 0.7, 1.0
    vals = checks.x1_tilde_value(range(10_000), hurst, 2**10, xi)
    rec = checks.a6_fbm_young_covariance(vals, hurst, xi, se_factor=3.0)
    d = rec.details
    elapsed = time.time() - started
    report(
        "A6",
        rec.passed and elapsed < 180.0,
        f"MC {d['mc_variance']:.5f} vs quadrature {d['quadrature']:.5f} "
        f"({rec.value / d['std_error']:.2f} SE, band 3 SE; runtime < 3 min)",
        started,
    )


def test_criterion_7_rough_self_convergence():
    started = time.time()
    mea = KernelMeasure.from_atoms([(1.0, 1.0)])
    cfg = SolverConfig(gamma=0.38, kappa=0.35, sewing_level=4, picard_tol=1e-11,
                       interval_scheme="harmonic", n_start=4)
    fine_grid = TimeGrid.uniform(2**10, 1.0)
    rates = [
        checks.self_convergence(fine, mea, "tanh", np.array([0.3]), cfg, (7, 8, 9, 10))[1]
        for fine in sample_fbm(0.4, fine_grid, n_dims=1, seed=list(range(20)))
    ]
    rec = checks.a7_rough_self_convergence(rates, rate_threshold=0.2, min_passing=18)
    elapsed = time.time() - started
    report(
        "A7",
        rec.passed and elapsed < 600.0,
        f"{rec.value}/20 seeds with fitted rate > 0.2 (need >= 18; "
        f"median rate {np.median(rates):.2f}; runtime < 10 min)",
        started,
    )


def test_criterion_8_diffusion_degeneration():
    started = time.time()
    cfg = SolverConfig(gamma=0.38, kappa=0.35, sewing_level=3, picard_tol=1e-11,
                       interval_scheme="harmonic", n_start=4)
    rec = checks.a8_diffusion_degeneration(
        cells=2**7, seed=3, hurst=0.4, sigma="tanh", initial=[0.1], solver=cfg
    )
    elapsed = time.time() - started
    report(
        "A8",
        rec.passed and elapsed < 5.0,
        "kernel {(0,1)} rough solve equals the xi=0 rough-ODE solve bit for bit "
        "in y, ytilde and zeta (runtime < 5 s)",
        started,
    )


def test_criterion_9_holder_estimator_calibration():
    started = time.time()
    rec = checks.a9_holder_estimator(tol=0.07, seeds=range(100), hursts=(0.4, 0.7), points=2**12)
    details = [f"H={h}: median {med:.3f}" for h, med in rec.details.items()]
    elapsed = time.time() - started
    report(
        "A9",
        rec.passed and elapsed < 60.0,
        f"{'; '.join(details)} (band ±{rec.tolerance}; runtime < 1 min)",
        started,
    )
