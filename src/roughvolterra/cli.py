"""Config-driven experiment harness.

One JSON document describes one run: a kind (verify | solve-young |
solve-rough | convergence | ensemble | covariance-check), the kernel,
driver, coefficient field and solver blocks it needs, and explicit
tolerances for every check that gates the exit status.  Runs write CSVs
plus a manifest and exit 0 only if all enabled checks pass.

Exit codes: 0 ok, 1 check failure, 2 parse/validation error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .algebra import Increment1, TimeGrid, estimate_holder_exponent
from .expkernels import e0
from .laplace import KernelMeasure, kernel_from_spec
from .lift import (
    DriverPath,
    RoughLift,
    deterministic_driver,
    sample_fbm,
    wiener_cov_x1,
)
from .oracles import x3_tilde_riemann_fast, young_integral_simpson
from .sewing import c_mu, sewing_bound_check
from .sigma import sigma_catalog
from .solver import (
    SolverConfig,
    SolverFailure,
    solve_rough,
    solve_rough_ode,
    solve_young,
    young_integral,
)

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "run",
    "emit_csv",
    "seed_expand",
    "rk4_augmented",
    "main",
    "OUT_DIR_ENV",
]

OUT_DIR_ENV = "ROUGHVOLTERRA_OUT"

KINDS = (
    "verify",
    "solve-young",
    "solve-rough",
    "convergence",
    "ensemble",
    "covariance-check",
)

# acceptance-criterion identifiers each kind can enable
KIND_CHECKS = {
    "verify": (
        "A1_algebraic_exactness",
        "A2_sewing_bound",
        "A3_chen_relation",
        "A4_young_exactness",
        "A8_diffusion_degeneration",
        "A9_holder_estimator",
    ),
    "solve-young": ("A5_solver_vs_ode",),
    "solve-rough": ("A5_solver_vs_ode",),
    "convergence": ("A7_rough_self_convergence",),
    "ensemble": (),
    "covariance-check": ("A6_fbm_young_covariance",),
}

DETERMINISTIC_FUNCTIONS = {
    "identity": lambda t: t,
    "sin": np.sin,
    "zero": lambda t: 0.0 * t,
}


def seed_expand(spec):
    """Expand a seed spec into an explicit list.

    ``42`` -> [42]; ``"1..4"`` -> [1, 2, 3] (half-open); a list passes
    through.  Each seed keys an independent counter-based sampler stream.
    """
    if isinstance(spec, bool):
        raise ValueError("seed spec must be an int, 'a..b' range, or list")
    if isinstance(spec, int):
        return [spec]
    if isinstance(spec, list):
        if not spec or not all(isinstance(s, int) for s in spec):
            raise ValueError("seed list must be nonempty ints")
        if len(set(spec)) != len(spec):
            raise ValueError("seed list has duplicates")
        return list(spec)
    if isinstance(spec, str):
        parts = spec.split("..")
        if len(parts) != 2:
            raise ValueError(f"bad seed range {spec!r}")
        lo, hi = int(parts[0]), int(parts[1])
        if hi <= lo:
            raise ValueError(f"empty seed range {spec!r}")
        return list(range(lo, hi))
    raise ValueError(f"bad seed spec {spec!r}")


def emit_csv(path, columns):
    """Write columns as CSV: deterministic order, 17 significant digits, LF.

    ``columns`` is a sequence of (name, values); all values equal length.
    """
    names = [c[0] for c in columns]
    arrays = [np.asarray(c[1]) for c in columns]
    if arrays and any(a.shape[0] != arrays[0].shape[0] for a in arrays):
        raise ValueError("csv columns must have equal length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        n_rows = arrays[0].shape[0] if arrays else 0
        for i in range(n_rows):
            cells = []
            for a in arrays:
                v = a[i]
                if isinstance(v, str):
                    cells.append(v)
                elif isinstance(v, (np.bool_, bool)):
                    cells.append("1" if v else "0")
                elif isinstance(v, (np.integer, int)):
                    cells.append(str(int(v)))
                else:
                    cells.append(f"{float(v):.17g}")
            fh.write(",".join(cells) + "\n")


class ExperimentConfig:
    """Validated experiment description (one JSON document per run)."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        self.raw = raw
        kind = raw.get("kind")
        if kind not in KINDS:
            raise ValueError(f"unknown experiment kind {kind!r}")
        self.kind = kind
        self.output_dir = raw.get("output_dir")
        self.checks = raw.get("checks", {})
        for name in self.checks:
            if name not in KIND_CHECKS[kind]:
                raise ValueError(f"check {name!r} not available for kind {kind!r}")
        if kind in ("solve-young", "solve-rough"):
            for key in ("kernel", "driver", "sigma", "solver", "initial"):
                if key not in raw:
                    raise ValueError(f"kind {kind!r} requires field {key!r}")
        if kind == "convergence":
            for key in ("kernel", "driver", "sigma", "solver", "initial", "levels"):
                if key not in raw:
                    raise ValueError(f"kind {kind!r} requires field {key!r}")
        if kind in ("ensemble", "covariance-check"):
            if "stat" not in raw:
                raise ValueError(f"kind {kind!r} requires a 'stat' block")
        drv = raw.get("driver", {})
        if drv.get("kind") in ("fbm", "brownian") and (
            "seed" not in drv and "seeds" not in drv
        ):
            raise ValueError("stochastic drivers need an explicit seed (no entropy defaults)")
        if drv.get("kind") == "fbm" and "hurst" not in drv:
            raise ValueError("fbm driver requires field 'hurst'")
        if "solver" in raw:
            self.solver_config()        # reject a bad solver block before running

    def measure(self) -> KernelMeasure:
        return kernel_from_spec(self.raw["kernel"])

    def grid(self) -> TimeGrid:
        drv = self.raw["driver"]
        cells = int(drv["cells"])
        horizon = float(drv.get("horizon", 1.0))
        return TimeGrid.uniform(cells, horizon)

    def driver(self, seed=None, grid=None) -> DriverPath:
        drv = self.raw["driver"]
        grid = grid if grid is not None else self.grid()
        kind = drv.get("kind", "deterministic")
        n_dims = int(drv.get("n_dims", 1))
        if kind == "deterministic":
            fn_name = drv.get("function", "identity")
            if fn_name not in DETERMINISTIC_FUNCTIONS:
                raise ValueError(f"unknown driver function {fn_name!r}")
            return deterministic_driver(grid, DETERMINISTIC_FUNCTIONS[fn_name])
        if kind in ("fbm", "brownian"):
            hurst = 0.5 if kind == "brownian" else float(drv["hurst"])
            use_seed = int(drv["seed"]) if seed is None else int(seed)
            return sample_fbm(hurst, grid, n_dims=n_dims, seed=use_seed)
        raise ValueError(f"unknown driver kind {kind!r}")

    def sigma_field(self, n_dims: int):
        sg = self.raw["sigma"]
        d = len(self.raw.get("initial", [0.0]))
        return sigma_catalog(sg["name"], n=n_dims, d=d, params=sg.get("params"))

    def solver_config(self) -> SolverConfig:
        return _solver_config(self.raw["solver"], "solver")


def _solver_config(block, where) -> SolverConfig:
    """SolverConfig from a JSON block; bad key sets raise ValueError naming ``where``."""
    if not isinstance(block, dict):
        raise ValueError(f"{where!r} must be a JSON object")
    fields = dataclasses.fields(SolverConfig)
    unknown = sorted(set(block) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"unknown key(s) in {where!r}: {unknown}")
    missing = [
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.name not in block
    ]
    if missing:
        raise ValueError(f"{where!r} requires key(s) {missing}")
    return SolverConfig(**block)


class RunManifest:
    """Per-run record: config hash, version, wall clock, check outcomes."""

    def __init__(self, config_raw: dict):
        canon = json.dumps(config_raw, sort_keys=True, separators=(",", ":"))
        self.config_hash = hashlib.sha256(canon.encode()).hexdigest()
        self.version = __version__
        self.wall_clock = None
        self.checks = []

    def add_check(self, name, passed, value, tolerance, details=None):
        if any(c["name"] == name for c in self.checks):
            raise ValueError(f"check {name!r} recorded twice")
        entry = {
            "name": name,
            "passed": bool(passed),
            "value": value,
            "tolerance": tolerance,
        }
        if details is not None:
            entry["details"] = details
        self.checks.append(entry)

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def write(self, path):
        doc = {
            "config_hash": self.config_hash,
            "library_version": self.version,
            "wall_clock_seconds": self.wall_clock,
            "checks": self.checks,
        }
        with open(path, "w", newline="") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def rk4_augmented(driver: DriverPath, measure: KernelMeasure, fld, a, dt_max=1e-4):
    """RK4 oracle for smooth drivers, in (ytilde(xi_k))_k coordinates.

    Integrates ytilde' = -xi ytilde + x'(t) sigma(a + <w, ytilde>) cell by
    cell (the slope is constant within a cell, so RK4 keeps its order) and
    returns (y, ytilde) at the driver's grid points.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    pts = driver.grid.points
    xis = measure.xis
    w = measure.weights
    slopes = driver.slopes
    k_atoms, d = xis.size, a.size
    yt = np.zeros((k_atoms, d))
    out_y = np.empty((len(pts), d))
    out_yt = np.empty((len(pts), k_atoms, d))
    out_y[0] = a + w @ yt
    out_yt[0] = yt

    def rhs(yt_state, slope):
        y = a + w @ yt_state
        sig = fld.batch(y[None, :])[0]             # (n, d)
        drive = slope @ sig                        # (d,)
        return -xis[:, None] * yt_state + drive[None, :]

    for c in range(len(pts) - 1):
        width = pts[c + 1] - pts[c]
        n_sub = max(1, int(np.ceil(width / dt_max)))
        h = width / n_sub
        slope = slopes[c]
        for _ in range(n_sub):
            k1 = rhs(yt, slope)
            k2 = rhs(yt + 0.5 * h * k1, slope)
            k3 = rhs(yt + 0.5 * h * k2, slope)
            k4 = rhs(yt + h * k3, slope)
            yt = yt + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out_y[c + 1] = a + w @ yt
        out_yt[c + 1] = yt
    return out_y, out_yt


# ---------------------------------------------------------------------------
# experiment implementations


def _solution_csv(path, sol, with_atoms=True):
    cols = [("t", sol.grid.points)]
    d = sol.y.shape[1]
    for j in range(d):
        cols.append((f"y_{j+1}", sol.y[:, j]))
    if with_atoms:
        for k in range(sol.ytilde.shape[1]):
            for j in range(d):
                cols.append((f"ytilde_{k+1}_{j+1}", sol.ytilde[:, k, j]))
    emit_csv(path, cols)


def _diagnostics_csv(path, sol):
    diags = sol.diagnostics
    emit_csv(
        path,
        [
            ("start", [g.start for g in diags]),
            ("end", [g.end for g in diags]),
            ("n_value", [g.n_value for g in diags]),
            ("iterations", [g.iterations for g in diags]),
            ("contraction", [g.contraction for g in diags]),
            ("q_norm", [g.q_norm for g in diags]),
            ("htilde_norm", [g.htilde_norm for g in diags]),
            ("picard_residual", [g.picard_residual for g in diags]),
            ("ball_radius_ok", [g.ball_radius_ok for g in diags]),
            ("initial_norm_ok", [g.initial_norm_ok for g in diags]),
        ],
    )


def _run_solve(cfg: ExperimentConfig, manifest, out_dir, enabled):
    driver = cfg.driver()
    measure = cfg.measure()
    solver_cfg = cfg.solver_config()
    lift = RoughLift(driver, measure, gamma=solver_cfg.gamma)
    fld = cfg.sigma_field(driver.n_dims)
    a = np.asarray(cfg.raw["initial"], dtype=float)
    solve = solve_young if cfg.kind == "solve-young" else solve_rough
    sol = solve(lift, fld, a, solver_cfg)
    with_atoms = bool(cfg.raw.get("emit_atoms", True))
    _solution_csv(os.path.join(out_dir, "solution.csv"), sol, with_atoms=with_atoms)
    _diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), sol)

    if "A5_solver_vs_ode" in enabled:
        params = cfg.checks["A5_solver_vs_ode"]
        tol = float(params["tol"])
        dt = float(params.get("dt", 1e-4))
        if driver.kind != "deterministic":
            raise ValueError("the RK4 oracle check needs a deterministic driver")
        y_ref, _ = rk4_augmented(driver, measure, fld, a, dt_max=dt)
        err = float(np.max(np.abs(sol.y - y_ref)))
        manifest.add_check("A5_solver_vs_ode", err <= tol, err, tol)
        emit_csv(
            os.path.join(out_dir, "oracle.csv"),
            [("t", sol.grid.points)]
            + [(f"y_ref_{j+1}", y_ref[:, j]) for j in range(y_ref.shape[1])],
        )
    return sol


def _check_a1(params, manifest):
    tol = float(params["tol"])
    trials = int(params.get("trials", 100))
    n_pts = int(params.get("grid_points", 16))
    n_atoms = int(params.get("atoms", 3))
    rng = np.random.default_rng(int(params.get("seed", 0)))
    worst_dd = worst_tt = worst_tw = 0.0
    for _ in range(trials):
        pts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 1.0, n_pts - 1))])
        pts = np.unique(pts)
        grid = TimeGrid(pts)
        xis = np.sort(rng.uniform(0.0, 5.0, n_atoms))
        vals = rng.standard_normal((len(grid), 2))
        lvals = rng.standard_normal((len(grid), n_atoms, 2))
        from .algebra import (
            LaplaceIncrement1,
            delta1,
            delta2,
            delta_tilde,
            twist,
        )

        scale = max(np.max(np.abs(vals)), np.max(np.abs(lvals)))
        dd = delta2(delta1(Increment1(grid, vals)))
        dt2 = delta_tilde(delta_tilde(LaplaceIncrement1(grid, xis, lvals)))
        n = len(grid)
        for _ in range(20):
            i, j, k = sorted(int(x) for x in rng.integers(0, n, 3))
            worst_dd = max(worst_dd, float(np.max(np.abs(dd.at(i, j, k)))) / scale)
            worst_tt = max(worst_tt, float(np.max(np.abs(dt2.at(i, j, k)))) / scale)
            tus = pts[i], pts[j], pts[k]
            lhs = (
                twist(xis, tus[0], tus[2])
                - twist(xis, tus[1], tus[2])
                - twist(xis, tus[0], tus[1])
            )
            rhs = twist(xis, tus[1], tus[2]) * twist(xis, tus[0], tus[1])
            worst_tw = max(worst_tw, float(np.max(np.abs(lhs - rhs))))
    worst = max(worst_dd, worst_tt, worst_tw)
    manifest.add_check(
        "A1_algebraic_exactness", worst <= tol, worst, tol,
        details={"delta_delta": worst_dd, "twisted": worst_tt, "twist_cocycle": worst_tw},
    )


def _check_a2(params, manifest):
    mu = float(params.get("mu", 1.5))
    rho = float(params.get("rho", 0.75))
    trials = int(params.get("trials", 100))
    level = int(params.get("level", 8))
    xi = float(params.get("xi", 1.0))
    rng = np.random.default_rng(int(params.get("seed", 0)))
    violations = 0
    margins = []
    for _ in range(trials):
        c0, c1, c2 = rng.uniform(-1, 1, 3)
        om1, om2 = rng.uniform(1.0, 6.0, 2)

        def b_pair(u, v, c0=c0, c1=c1, c2=c2, om1=om1, om2=om2):
            return (v - u) ** 1.6 * (c0 + c1 * np.cos(om1 * u) + c2 * np.sin(om2 * v))

        report = sewing_bound_check(b_pair, mu, rho, xi=xi, level=level, n_probe=7)
        margins.append(report.lhs_norm / max(report.c_mu * report.rhs_norm, 1e-300))
        if not report.satisfied:
            violations += 1
    manifest.add_check(
        "A2_sewing_bound", violations == 0, violations, 0,
        details={"worst_margin": max(margins), "c_mu": c_mu(mu)},
    )


def _check_a9(params, manifest):
    tol = float(params["tol"])
    seeds = seed_expand(params.get("seeds", "0..100"))
    hursts = params.get("hursts", [0.4, 0.7])
    n_points = int(params.get("points", 4096))
    grid = TimeGrid.uniform(n_points - 1, 1.0)
    worst = 0.0
    details = {}
    for hurst in hursts:
        ests = []
        for seed in seeds:
            path = sample_fbm(float(hurst), grid, n_dims=1, seed=seed)
            est, _ = estimate_holder_exponent(Increment1(grid, path.values))
            ests.append(est)
        med = float(np.median(ests))
        details[str(hurst)] = med
        worst = max(worst, abs(med - float(hurst)))
    manifest.add_check("A9_holder_estimator", worst <= tol, worst, tol, details=details)


def _check_a8(params, manifest):
    cells = int(params.get("cells", 128))
    seed = int(params.get("seed", 1))
    hurst = float(params.get("hurst", 0.4))
    grid = TimeGrid.uniform(cells, 1.0)
    driver = sample_fbm(hurst, grid, n_dims=1, seed=seed)
    fld = sigma_catalog(
        params.get("sigma", "tanh"), n=1, d=1, params=params.get("sigma_params")
    )
    solver_cfg = _solver_config(
        params.get("solver", {"gamma": 0.38, "kappa": 0.35}),
        "A8_diffusion_degeneration.solver",
    )
    a = np.asarray(params.get("initial", [0.1]), dtype=float)
    measure = KernelMeasure.from_atoms([(0.0, 1.0)])
    lift = RoughLift(driver, measure, gamma=solver_cfg.gamma)
    sol_a = solve_rough(lift, fld, a, solver_cfg)
    sol_b = solve_rough_ode(driver, fld, a, solver_cfg)
    identical = np.array_equal(sol_a.y, sol_b.y) and np.array_equal(
        sol_a.ytilde, sol_b.ytilde
    )
    diff = float(np.max(np.abs(sol_a.y - sol_b.y)))
    manifest.add_check("A8_diffusion_degeneration", identical, diff, 0.0)


def _z_linear(ts):
    # integrand z_v = v as an (npts, n=1) array
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return ts[:, None]


def _check_a4(params, manifest):
    tol = float(params["tol"])
    level = int(params.get("level", 12))
    xis_req = sorted({float(x) for x in params.get("xis", [0.0, 1.0, 5.0])})
    cells = int(params.get("cells", 4096))
    grid = TimeGrid.uniform(cells, 1.0)
    measure = KernelMeasure.from_atoms([(x, 1.0) for x in xis_req])
    worst = 0.0
    details = {}
    for fn_name in params.get("functions", ["identity", "sin"]):
        driver = deterministic_driver(grid, DETERMINISTIC_FUNCTIONS[fn_name])
        lift = RoughLift(driver, measure, gamma=1.0)
        for k, xi in enumerate(measure.xis):
            res = young_integral(lift, _z_linear, 0.0, 1.0, atom=int(k), level=level)
            ref = young_integral_simpson(driver, lambda v: v, float(xi), 0.0, 1.0)
            err = abs(float(res.extrapolated) - ref) / abs(ref)
            details[f"{fn_name}/xi={xi:g}"] = err
            worst = max(worst, err)
    manifest.add_check("A4_young_exactness", worst <= tol, worst, tol, details=details)


def _check_a3(params, manifest):
    tol = float(params["tol"])
    hursts = [float(h) for h in params.get("hursts", [0.4, 0.7])]
    cells = int(params.get("cells", 256))
    seeds = seed_expand(params.get("seeds", "0..3"))
    n_triples = int(params.get("triples", 10))
    n_sub = int(params.get("sub_mesh", 65536))
    atoms = params.get("atoms", [[0.5, 0.6], [2.0, 0.3], [8.0, 0.1]])
    measure = KernelMeasure.from_atoms(atoms)
    grid = TimeGrid.uniform(cells, 1.0)
    worst = 0.0
    for hurst in hursts:
        for seed in seeds:
            driver = sample_fbm(hurst, grid, n_dims=1, seed=seed)
            lift = RoughLift(driver, measure, gamma=min(0.95, hurst))
            rng = np.random.default_rng(seed + 7)
            scale = lift.scale**2
            for _ in range(n_triples):
                i, j, k = np.sort(rng.choice(cells + 1, size=3, replace=False))
                s, u, t = grid.points[[i, j, k]]
                chen = lift.x3_tilde(s, u, t)
                ref = x3_tilde_riemann_fast(driver, measure, measure.xis, s, u, t, n_sub)
                err = float(np.max(np.abs(chen - ref))) / scale
                worst = max(worst, err)
    manifest.add_check("A3_chen_relation", worst <= tol, worst, tol)


def _run_verify(cfg: ExperimentConfig, manifest, out_dir, enabled):
    checks = cfg.checks
    if "A1_algebraic_exactness" in checks:
        _check_a1(checks["A1_algebraic_exactness"], manifest)
    if "A2_sewing_bound" in checks:
        _check_a2(checks["A2_sewing_bound"], manifest)
    if "A3_chen_relation" in checks:
        _check_a3(checks["A3_chen_relation"], manifest)
    if "A4_young_exactness" in checks:
        _check_a4(checks["A4_young_exactness"], manifest)
    if "A8_diffusion_degeneration" in checks:
        _check_a8(checks["A8_diffusion_degeneration"], manifest)
    if "A9_holder_estimator" in checks:
        _check_a9(checks["A9_holder_estimator"], manifest)
    emit_csv(
        os.path.join(out_dir, "verify_checks.csv"),
        [
            ("name", np.array([c["name"] for c in manifest.checks], dtype=object)),
            ("passed", [1 if c["passed"] else 0 for c in manifest.checks]),
            ("value", [float(c["value"]) for c in manifest.checks]),
        ],
    )


def _one_convergence_seed(args):
    (seed, raw, levels) = args
    cfg = ExperimentConfig(raw)
    solver_cfg = cfg.solver_config()
    measure = cfg.measure()
    top = max(levels)
    fine_grid = TimeGrid.uniform(2**top, float(raw["driver"].get("horizon", 1.0)))
    fine = cfg.driver(seed=seed, grid=fine_grid)
    a = np.asarray(raw["initial"], dtype=float)
    sols = {}
    for lev in levels:
        step = 2 ** (top - lev)
        sub = TimeGrid(fine_grid.points[::step])
        drv = DriverPath(
            sub, fine.values[::step], kind=fine.kind, hurst=fine.hurst, seed=seed
        )
        lift = RoughLift(drv, measure, gamma=solver_cfg.gamma)
        fld = cfg.sigma_field(drv.n_dims)
        solve = solve_young if raw.get("mode") == "young" else solve_rough
        sols[lev] = solve(lift, fld, a, solver_cfg)
    diffs = []
    for lev in levels[:-1]:
        step = 2
        d = float(np.max(np.abs(sols[lev].y - sols[lev + 1].y[::step])))
        diffs.append(d)
    rate = float(-np.polyfit(levels[:-1], np.log2(diffs), 1)[0])
    return seed, diffs, rate


def _run_convergence(cfg: ExperimentConfig, manifest, out_dir, enabled, jobs):
    levels = [int(x) for x in cfg.raw["levels"]]
    if levels != list(range(levels[0], levels[0] + len(levels))) or len(levels) < 3:
        raise ValueError("levels must be consecutive integers, at least 3 of them")
    seeds = seed_expand(cfg.raw["driver"].get("seeds", cfg.raw["driver"].get("seed")))
    tasks = [(seed, cfg.raw, levels) for seed in seeds]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_one_convergence_seed, tasks))
    else:
        results = [_one_convergence_seed(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    rows_seed, rows_level, rows_diff = [], [], []
    rates = []
    for seed, diffs, rate in results:
        rates.append(rate)
        for lev, d in zip(levels[:-1], diffs):
            rows_seed.append(seed)
            rows_level.append(lev)
            rows_diff.append(d)
    emit_csv(
        os.path.join(out_dir, "convergence.csv"),
        [("seed", rows_seed), ("level", rows_level), ("sup_diff", rows_diff)],
    )
    emit_csv(
        os.path.join(out_dir, "rates.csv"),
        [("seed", [r[0] for r in results]), ("rate", rates)],
    )
    if "A7_rough_self_convergence" in cfg.checks:
        params = cfg.checks["A7_rough_self_convergence"]
        threshold = float(params["rate_threshold"])
        min_pass = int(params["min_passing"])
        n_pass = int(np.sum(np.asarray(rates) > threshold))
        manifest.add_check(
            "A7_rough_self_convergence",
            n_pass >= min_pass,
            n_pass,
            min_pass,
            details={"rates": rates},
        )


def _x1_variance_stat(args):
    # closed-form first-order lift over [0, T], unrolled over cells
    seed, hurst, cells, xi, horizon = args
    grid = TimeGrid.uniform(cells, horizon)
    driver = sample_fbm(hurst, grid, n_dims=1, seed=seed)
    w_cells = np.exp(-xi * (horizon - grid.points[1:])) * e0(xi, grid.widths)
    return seed, float(w_cells @ driver.slopes[:, 0])


def _run_ensemble_values(cfg, jobs):
    stat = cfg.raw["stat"]
    if stat.get("name") != "x1_tilde_value":
        raise ValueError(f"unknown ensemble statistic {stat.get('name')!r}")
    seeds = seed_expand(stat["seeds"])
    tasks = [
        (
            seed,
            float(stat["hurst"]),
            int(stat["cells"]),
            float(stat["xi"]),
            float(stat.get("horizon", 1.0)),
        )
        for seed in seeds
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_x1_variance_stat, tasks, chunksize=64))
    else:
        results = [_x1_variance_stat(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    return results


def _run_ensemble(cfg: ExperimentConfig, manifest, out_dir, enabled, jobs):
    results = _run_ensemble_values(cfg, jobs)
    emit_csv(
        os.path.join(out_dir, "ensemble.csv"),
        [("seed", [r[0] for r in results]), ("value", [r[1] for r in results])],
    )


def _run_covariance_check(cfg: ExperimentConfig, manifest, out_dir, enabled, jobs):
    results = _run_ensemble_values(cfg, jobs)
    vals = np.asarray([r[1] for r in results])
    stat = cfg.raw["stat"]
    hurst = float(stat["hurst"])
    xi = float(stat["xi"])
    horizon = float(stat.get("horizon", 1.0))
    mc_var = float(np.var(vals, ddof=1))
    se = mc_var * np.sqrt(2.0 / (vals.size - 1))
    ref = wiener_cov_x1(hurst, xi, xi, (0.0, horizon), (0.0, horizon))
    emit_csv(
        os.path.join(out_dir, "ensemble.csv"),
        [("seed", [r[0] for r in results]), ("value", [r[1] for r in results])],
    )
    if "A6_fbm_young_covariance" in cfg.checks:
        params = cfg.checks["A6_fbm_young_covariance"]
        factor = float(params.get("se_factor", 3.0))
        err = abs(mc_var - ref)
        manifest.add_check(
            "A6_fbm_young_covariance",
            err <= factor * se,
            err,
            factor * se,
            details={"mc_variance": mc_var, "quadrature": ref, "std_error": se},
        )


def run(config_path, out_dir=None, jobs=1, checks_filter=None) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = ExperimentConfig(raw)
        if checks_filter:
            unknown = set(checks_filter) - set(cfg.checks)
            if unknown:
                raise ValueError(f"--check names not in config: {sorted(unknown)}")
            cfg.checks = {k: v for k, v in cfg.checks.items() if k in checks_filter}
        target = (
            out_dir
            or os.environ.get(OUT_DIR_ENV)
            or cfg.output_dir
            or os.getcwd()
        )
        os.makedirs(target, exist_ok=True)
    except ValueError as exc:
        print(f"config validation error: {exc}", file=sys.stderr)
        return 2

    manifest = RunManifest(raw)
    start = time.time()
    enabled = set(cfg.checks)
    try:
        if cfg.kind in ("solve-young", "solve-rough"):
            _run_solve(cfg, manifest, target, enabled)
        elif cfg.kind == "verify":
            _run_verify(cfg, manifest, target, enabled)
        elif cfg.kind == "convergence":
            _run_convergence(cfg, manifest, target, enabled, jobs)
        elif cfg.kind == "ensemble":
            _run_ensemble(cfg, manifest, target, enabled, jobs)
        elif cfg.kind == "covariance-check":
            _run_covariance_check(cfg, manifest, target, enabled, jobs)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        manifest.wall_clock = time.time() - start
        manifest.write(os.path.join(target, "run_manifest.json"))
        return 3
    except ValueError as exc:
        print(f"config validation error: {exc}", file=sys.stderr)
        return 2
    manifest.wall_clock = time.time() - start
    manifest.write(os.path.join(target, "run_manifest.json"))
    return 0 if manifest.all_passed() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughvolterra",
        description="Config-driven experiments for rough Volterra equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to the JSON experiment config")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--jobs", type=int, default=1, help="worker pool size")
    run_p.add_argument(
        "--check", action="append", default=None,
        help="run only the named check(s) from the config",
    )
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_dir=args.out, jobs=args.jobs, checks_filter=args.check)
    return 2


if __name__ == "__main__":
    sys.exit(main())
