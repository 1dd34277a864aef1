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
import functools
import hashlib
import inspect
import json
import os
import sys
import time

import numpy as np

from . import __version__, checks
from .algebra import TimeGrid
from .laplace import DENSITY_CATALOG, KernelMeasure, kernel_from_spec
from .lift import (
    DETERMINISTIC_FUNCTIONS,
    DriverPath,
    RoughLift,
    deterministic_driver,
    sample_fbm,
)
from .oracles import rk4_augmented
from .sigma import SIGMA_PARAMS, sigma_catalog
from .solver import SolverConfig, SolverFailure, solve_rough, solve_young

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "run",
    "emit_csv",
    "seed_expand",
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

# the verify kind's criteria, in manifest order; config keys are their parameters
VERIFY_CHECKS = {
    "A1_algebraic_exactness": checks.a1_algebraic_exactness,
    "A2_sewing_bound": checks.a2_sewing_bound,
    "A3_chen_relation": checks.a3_chen_relation,
    "A4_young_exactness": checks.a4_young_exactness,
    "A8_diffusion_degeneration": checks.a8_diffusion_degeneration,
    "A9_holder_estimator": checks.a9_holder_estimator,
}

# acceptance-criterion identifiers each kind can enable
KIND_CHECKS = {
    "verify": tuple(VERIFY_CHECKS),
    "solve-young": ("A5_solver_vs_ode",),
    "solve-rough": ("A5_solver_vs_ode",),
    "convergence": ("A7_rough_self_convergence",),
    "ensemble": (),
    "covariance-check": ("A6_fbm_young_covariance",),
}

STAT_KEYS = ("name", "hurst", "cells", "xi", "seeds", "horizon")     # horizon optional

# the keys laplace.kernel_from_spec reads, at the top and in a density block
KERNEL_KEYS = ("atoms", "density")
DENSITY_KEYS = ("name", "params", "n_nodes", "tail_cut", "beta", "tol")
DENSITY_PARAMS = {name: tuple(inspect.signature(factory).parameters)
                  for name, factory in DENSITY_CATALOG.items()}
SIGMA_KEYS = ("name", "params")             # sigma_catalog's name and params

# the keys of the other kinds' check blocks: (allowed, required); all are numbers
CHECK_KEYS = {
    "A5_solver_vs_ode": (("tol", "dt"), ("tol",)),
    "A6_fbm_young_covariance": (("se_factor",), ()),
    "A7_rough_self_convergence": (("rate_threshold", "min_passing"),) * 2,
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
            if name in CHECK_KEYS:
                _check_keys(self.checks[name], name, *CHECK_KEYS[name])
                _check_numbers(self.checks[name], name, CHECK_KEYS[name][0])
        solve = ("kernel", "driver", "sigma", "solver", "initial")
        required = {"solve-young": solve, "solve-rough": solve, "convergence": solve + ("levels",)}
        for key in required.get(kind, ()):
            if key not in raw:
                raise ValueError(f"kind {kind!r} requires field {key!r}")
        if kind in ("ensemble", "covariance-check"):
            if "stat" not in raw:
                raise ValueError(f"kind {kind!r} requires a 'stat' block")
            _check_keys(raw["stat"], "stat", STAT_KEYS, STAT_KEYS[:-1])
            _check_numbers(raw["stat"], "stat", ("hurst", "xi", "horizon"))
            _check_numbers(raw["stat"], "stat", ("cells",), int)
            if raw["stat"]["name"] != "x1_tilde_value":
                raise ValueError(f"unknown ensemble statistic {raw['stat']['name']!r}")
        if "kernel" in raw:
            _check_keys(raw["kernel"], "kernel", KERNEL_KEYS, ())
            if "density" in raw["kernel"]:
                _check_keys(raw["kernel"]["density"], "kernel.density", DENSITY_KEYS, ("name",))
                params = _check_family(raw["kernel"]["density"], "kernel.density", DENSITY_PARAMS)
                _check_numbers(params, "kernel.density.params", params)
        if "sigma" in raw:
            _check_keys(raw["sigma"], "sigma", SIGMA_KEYS, ("name",))
            _check_family(raw["sigma"], "sigma", SIGMA_PARAMS)
        drv = raw.get("driver", {})
        if not isinstance(drv, dict):
            raise ValueError("'driver' must be a JSON object")
        _check_numbers(drv, "driver", ("cells", "n_dims", "seed"), int)
        _check_numbers(drv, "driver", ("hurst", "horizon"))
        if kind in ("solve-young", "solve-rough") and "cells" not in drv:
            raise ValueError("driver requires field 'cells'")
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


def _check_keys(block, where, allowed, required):
    """Raise ValueError naming ``where`` unless ``block`` is an object with the right keys."""
    if not isinstance(block, dict):
        raise ValueError(f"{where!r} must be a JSON object")
    unknown = [f"{where}.{key}" for key in sorted(set(block) - set(allowed))]
    if unknown:
        raise ValueError(f"unknown key(s) {unknown}; {where!r} takes {sorted(allowed)}")
    missing = [f"{where}.{key}" for key in required if key not in block]
    if missing:
        raise ValueError(f"missing key(s) {missing}")


def _check_family(block, where, params_of, keys=("name", "params")):
    """``block["params"]``, once its family ``block["name"]`` is known and takes those keys.

    ``keys`` renames the two entries, e.g. ("sigma", "sigma_params").
    """
    name, params = block[keys[0]], block.get(keys[1], {})
    if not isinstance(name, str) or name not in params_of:
        raise ValueError(f"{where}.{keys[0]} must be one of {list(params_of)}, got {name!r}")
    _check_keys(params, f"{where}.{keys[1]}", params_of[name], ())
    return params


def _check_numbers(block, where, keys, kind=(int, float)):
    """Raise ValueError naming the key unless each of ``keys`` in ``block`` is a ``kind``."""
    for key in keys:
        value = block.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, kind):
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{where}.{key} must be {what}, got {value!r}")


def _solver_config(block, where) -> SolverConfig:
    """SolverConfig from a JSON block; bad keys or numbers raise ValueError naming them."""
    fields = dataclasses.fields(SolverConfig)
    _check_keys(
        block, where, [f.name for f in fields],
        [f.name for f in fields if f.default is dataclasses.MISSING],
    )
    for kind, type_name in ((int, "int"), ((int, float), "float")):
        _check_numbers(block, where, [
            f.name for f in fields if f.type.split(" | ")[0] == type_name
            and not (block.get(f.name) is None and f.type.endswith("| None"))
        ], kind)
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
    names = ("start", "end", "n_value", "iterations", "contraction", "q_norm", "htilde_norm",
             "picard_residual", "ball_radius_ok", "initial_norm_ok")
    emit_csv(path, [(name, [getattr(g, name) for g in sol.diagnostics]) for name in names])


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
        if driver.kind != "deterministic":
            raise ValueError("the RK4 oracle check needs a deterministic driver")
        y_ref, _ = rk4_augmented(driver, measure, fld, a, dt_max=float(params.get("dt", 1e-4)))
        manifest.add_check(*checks.a5_solver_vs_ode([sol], y_ref, params["tol"]))
        emit_csv(
            os.path.join(out_dir, "oracle.csv"),
            [("t", sol.grid.points)]
            + [(f"y_ref_{j+1}", y_ref[:, j]) for j in range(y_ref.shape[1])],
        )
    return sol


def _verify_kwargs(name, params):
    """Keyword arguments of a verify criterion from its config block."""
    sig = inspect.signature(VERIFY_CHECKS[name]).parameters.values()
    _check_keys(params, name, [p.name for p in sig], [p.name for p in sig if p.default is p.empty])
    kwargs = dict(params)
    defaults = {p.name: p.default for p in sig}
    if "sigma" in defaults:
        family = {"sigma": defaults["sigma"], **kwargs}
        family["sigma_params"] = family.get("sigma_params") or {}
        _check_family(family, name, SIGMA_PARAMS, ("sigma", "sigma_params"))
    if "seeds" in kwargs:
        kwargs["seeds"] = seed_expand(kwargs["seeds"])
    if "solver" in kwargs:
        kwargs["solver"] = _solver_config(kwargs["solver"], f"{name}.solver")
    fns = kwargs.get("functions", [])
    if not (isinstance(fns, list) and all(str(f) in DETERMINISTIC_FUNCTIONS for f in fns)):
        raise ValueError(f"{name}.functions must list names of {list(DETERMINISTIC_FUNCTIONS)}")
    return kwargs


def _run_verify(cfg: ExperimentConfig, manifest, out_dir, enabled):
    calls = [
        (fn, _verify_kwargs(name, cfg.checks[name]))
        for name, fn in VERIFY_CHECKS.items()
        if name in cfg.checks
    ]
    for fn, kwargs in calls:
        manifest.add_check(*fn(**kwargs))
    emit_csv(
        os.path.join(out_dir, "verify_checks.csv"),
        [
            ("name", np.array([c["name"] for c in manifest.checks], dtype=object)),
            ("passed", [1 if c["passed"] else 0 for c in manifest.checks]),
            ("value", [float(c["value"]) for c in manifest.checks]),
        ],
    )


def _map(fn, items, jobs, chunksize=1):
    """``fn`` over ``items``, in a pool of ``jobs`` worker processes when jobs > 1."""
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    return [fn(item) for item in items]


def _run_convergence(cfg: ExperimentConfig, manifest, out_dir, enabled, jobs):
    raw = cfg.raw
    levels = [int(x) for x in raw["levels"]]
    if levels != list(range(levels[0], levels[0] + len(levels))) or len(levels) < 3:
        raise ValueError("levels must be consecutive integers, at least 3 of them")
    seeds = seed_expand(raw["driver"].get("seeds", raw["driver"].get("seed")))
    fine_grid = TimeGrid.uniform(2 ** max(levels), float(raw["driver"].get("horizon", 1.0)))
    one_seed = functools.partial(
        checks.self_convergence,
        measure=cfg.measure(),
        sigma=raw["sigma"]["name"],
        a=np.asarray(raw["initial"], dtype=float),
        solver=cfg.solver_config(),
        levels=levels,
        sigma_params=raw["sigma"].get("params"),
        young=raw.get("mode") == "young",
    )
    drivers = [cfg.driver(seed=seed, grid=fine_grid) for seed in seeds]
    results = sorted(zip(seeds, _map(one_seed, drivers, jobs)), key=lambda r: r[0])
    rates = [rate for _, (_, rate) in results]
    rows_seed, rows_level, rows_diff = [], [], []
    for seed, (diffs, _) in results:
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
        manifest.add_check(*checks.a7_rough_self_convergence(
            rates, params["rate_threshold"], params["min_passing"]
        ))


def _run_ensemble(cfg: ExperimentConfig, manifest, out_dir, enabled, jobs):
    """Both ensemble kinds: ensemble.csv, then A6 where the config enables it."""
    stat = cfg.raw["stat"]
    hurst, xi = float(stat["hurst"]), float(stat["xi"])
    horizon = float(stat.get("horizon", 1.0))
    seeds = seed_expand(stat["seeds"])
    value = functools.partial(
        checks.x1_tilde_value, hurst=hurst, cells=int(stat["cells"]), xi=xi, horizon=horizon
    )
    results = sorted(zip(seeds, _map(value, seeds, jobs, chunksize=64)), key=lambda r: r[0])
    values = [r[1] for r in results]
    emit_csv(
        os.path.join(out_dir, "ensemble.csv"),
        [("seed", [r[0] for r in results]), ("value", values)],
    )
    if "A6_fbm_young_covariance" in cfg.checks:
        params = cfg.checks["A6_fbm_young_covariance"]
        manifest.add_check(*checks.a6_fbm_young_covariance(
            values, hurst, xi, horizon, params.get("se_factor", 3.0)
        ))


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
        elif cfg.kind in ("ensemble", "covariance-check"):
            _run_ensemble(cfg, manifest, target, enabled, jobs)
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
