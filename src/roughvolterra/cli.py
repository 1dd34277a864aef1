"""Config-driven experiment harness.

One JSON document describes one run: a kind (verify | solve-young |
solve-rough | convergence | covariance-check), the kernel,
driver, coefficient field and solver blocks it needs, and explicit
tolerances for every check that gates the exit status.  SCHEMA types the
whole document before any work runs; the run then writes CSVs plus a
manifest and exits 0 only if all enabled checks pass.

Exit codes: 0 ok, 1 check failure, 2 parse/validation error,
3 solver failure, 4 any other error once the run has started.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import dataclasses
import functools
import hashlib
import inspect
import json
import os
import sys
import time
import traceback
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from . import __version__, checks
from .algebra import TimeGrid
from .laplace import (DENSITY_CATALOG, MAX_NODES, N_NODES, KernelMeasure, QuadratureError,
                      kernel_from_spec)
from .lift import (
    DETERMINISTIC_FUNCTIONS,
    DriverPath,
    RoughLift,
    deterministic_driver,
    sample_fbm,
)
from .oracles import rk4_augmented
from .sigma import SIGMA_PARAMS, sigma_catalog
from .solver import (INTERVAL_SCHEMES, IntervalDiagnostics, SolverConfig, SolverFailure,
                     solve_rough, solve_young)

__all__ = ["ExperimentConfig", "RunManifest", "SCHEMA", "run", "emit_csv", "seed_expand", "main"]

KINDS = ("verify", "solve-young", "solve-rough", "convergence", "covariance-check")

# the verify kind's criteria, in manifest order; config keys are their parameters
VERIFY_CHECKS = {
    "A1_algebraic_exactness": checks.a1_algebraic_exactness,
    "A2_sewing_bound": checks.a2_sewing_bound,
    "A3_chen_relation": checks.a3_chen_relation,
    "A4_young_exactness": checks.a4_young_exactness,
    "A8_diffusion_degeneration": checks.a8_diffusion_degeneration,
    "A9_holder_estimator": checks.a9_holder_estimator,
}
STATS = {"x1_tilde_value": checks.x1_tilde_value}   # the covariance-check kind's statistics

DENSITY_PARAMS = {name: tuple(inspect.signature(factory).parameters)
                  for name, factory in DENSITY_CATALOG.items()}


def seed_expand(spec):
    """Expand a seed spec into a sequence of seeds.

    ``42`` -> [42]; ``"1..4"`` -> range(1, 4) (half-open, never built as
    a list); a list passes through.  Each seed keys an independent
    counter-based sampler stream, so seeds are >= 0.
    """
    if isinstance(spec, bool):
        raise ValueError("seed spec must be an int, 'a..b' range, or list")
    if isinstance(spec, int):
        seeds = [spec]
    elif isinstance(spec, list):
        if not spec or not all(isinstance(s, int) and not isinstance(s, bool) for s in spec):
            raise ValueError("seed list must be nonempty ints")
        if len(set(spec)) != len(spec):
            raise ValueError("seed list has duplicates")
        seeds = list(spec)
    elif isinstance(spec, str):
        parts = spec.split("..")
        if len(parts) != 2:
            raise ValueError(f"bad seed range {spec!r}")
        lo, hi = int(parts[0]), int(parts[1])
        if hi <= lo:
            raise ValueError(f"empty seed range {spec!r}")
        seeds = range(lo, hi)
    else:
        raise ValueError(f"bad seed spec {spec!r}")
    if (seeds.start if isinstance(seeds, range) else min(seeds)) < 0:
        raise ValueError(f"seeds must be >= 0, got {spec!r}")
    return seeds


def _consecutive(levels):
    if len(levels) < 3 or levels != list(range(max(levels[0], 0), levels[0] + len(levels))):
        raise ValueError(f"must be at least 3 consecutive integers from 0 up, got {levels}")


# a block of family parameters: params[name], the name read at sibling key name_key; rows under at
Family = NamedTuple("Family", [("params", dict), ("name_key", str), ("at", str)])
SOLVES = ("solve-young", "solve-rough")
EQUATION = SOLVES + ("convergence",)            # the kinds that solve the equation
HURST = "(0, 1)"
# The one size rule: a run's largest array within this many bytes, checked before anything is
# allocated.  A traced peak grew by at most 7.1 bytes a byte of that array, so a run at the
# budget peaks near 2 GiB, and two --jobs workers near 4 GiB, within a 7 GB 2-core machine.
WORK_BYTES = 2**28

REQUIRED, OPTIONAL = inspect.Parameter.empty, object()      # a block key with no default
# JSON path -> (type, range[, default[, read by]]).  Types: float (integers accepted), int, str;
# a tuple of allowed values; [type], a list; np.ndarray, a list of numbers as a float array;
# no block key's list may be empty; another function converts the value.  A block's type
# gives its keys: dict, the rows under it; a signature or a dataclass, their parameters,
# defaults and annotations (a dataclass block becomes its instance; a parameter defaulting
# to None accepts null); a Family, the family named beside it, each key optional.  "checks.*"
# rows type the verify criteria's parameters by name.
# A range is an interval bounding each number, or a function raising ValueError on the
# typed value.  A dict block's rows alone have a default: REQUIRED; the kinds that read the
# key, each needing it; OPTIONAL; or the value, never a tuple, that the walk fills in where
# a run reads the key and the document omits it.  read by: the kinds that read an optional
# key.  A run's kinds are its kind and, inside driver, its driver.kind: a block offers only
# the rows they read, so a key no run of the document reads exits 2 as unknown.
SCHEMA = {
    "kind": (KINDS, None, REQUIRED),
    "kernel": (dict, None, EQUATION),
    "kernel.atoms": ([[float]], KernelMeasure.from_atoms, OPTIONAL),
    "kernel.density": (dict, None, OPTIONAL),
    "kernel.density.name": (tuple(DENSITY_CATALOG), None, REQUIRED),
    "kernel.density.params":
        (Family(DENSITY_PARAMS, "name", "kernel.density.params"), None, OPTIONAL),
    "kernel.density.params.rate": (float, "(0, inf)"),
    "kernel.density.params.shape": (float, "(0, inf)"),
    "kernel.density.n_nodes": (int, f"[2, {MAX_NODES}]", N_NODES),
    "driver": (dict, None, EQUATION),
    "driver.kind": (("deterministic", "fbm"), None, "deterministic"),
    "driver.function": (tuple(DETERMINISTIC_FUNCTIONS), None, "identity", ("deterministic",)),
    "driver.cells": (int, "[1, inf)", SOLVES),
    "driver.horizon": (float, "(0, inf)", 1.0),
    "driver.n_dims": (int, "[1, inf)", 1, ("fbm",)),
    "driver.hurst": (float, HURST, ("fbm",)),
    "driver.seed": (int, "[0, inf)", OPTIONAL, ("fbm", "convergence")),
    "driver.seeds": (seed_expand, None, OPTIONAL, ("convergence",)),
    "sigma": (dict, None, EQUATION),
    "sigma.name": (tuple(SIGMA_PARAMS), None, REQUIRED),
    "sigma.params": (Family(SIGMA_PARAMS, "name", "sigma.params"), None, OPTIONAL),
    **{f"sigma.params.{key}": (np.ndarray if key == "direction" else float, None)
       for key in dict.fromkeys(k for keys in SIGMA_PARAMS.values() for k in keys)},
    "solver": (SolverConfig, None, EQUATION),
    "solver.interval_scheme": (INTERVAL_SCHEMES, None),
    "initial": (np.ndarray, None, EQUATION),
    "levels": ([int], _consecutive, ("convergence",)),
    "stat": (dict, None, ("covariance-check",)),
    "stat.name": (tuple(STATS), None, REQUIRED),
    "stat.hurst": (float, HURST, REQUIRED),
    "stat.cells": (int, "[1, inf)", REQUIRED),
    "stat.xi": (float, "[0, inf)", REQUIRED),
    "stat.seeds": (seed_expand, None, REQUIRED),
    "stat.horizon": (float, "(0, inf)", 1.0),
    "checks": (dict, None, {}),
    **{f"checks.{name}": (inspect.signature(fn), None, OPTIONAL, ("verify",))
       for name, fn in VERIFY_CHECKS.items()},
    "checks.*.tol": (float, "[0, inf)"),
    "checks.*.trials": (int, "[1, inf)"),
    "checks.*.seed": (int, "[0, inf)"),
    "checks.*.seeds": (seed_expand, None),
    "checks.*.hurst": (float, HURST),
    "checks.*.hursts": ([float], HURST),
    "checks.*.level": (int, "[0, inf)"),
    "checks.*.xi": (float, "[0, inf)"),
    "checks.*.xis": ([float], "[0, inf)"),
    "checks.A1_algebraic_exactness.grid_points": (int, "[3, inf)"),
    "checks.A1_algebraic_exactness.atoms": (int, "[1, inf)"),
    "checks.A2_sewing_bound.mu": (float, "(1, inf)"),
    "checks.A2_sewing_bound.rho": (float, "(0, inf)"),
    "checks.A3_chen_relation.cells": (int, "[2, inf)"),
    "checks.A3_chen_relation.triples": (int, "[1, inf)"),
    "checks.A3_chen_relation.sub_mesh": (int, "[1, inf)"),
    "checks.A3_chen_relation.atoms": ([[float]], KernelMeasure.from_atoms),
    "checks.A4_young_exactness.cells": (int, "[1, inf)"),
    "checks.A4_young_exactness.functions": ([tuple(DETERMINISTIC_FUNCTIONS)], None),
    "checks.A8_diffusion_degeneration.cells": (int, "[1, inf)"),
    "checks.A8_diffusion_degeneration.sigma": (tuple(SIGMA_PARAMS), None),
    "checks.A8_diffusion_degeneration.sigma_params":
        (Family(SIGMA_PARAMS, "sigma", "sigma.params"), None),
    "checks.A8_diffusion_degeneration.initial": (np.ndarray, None),
    "checks.A8_diffusion_degeneration.solver": (SolverConfig, None),
    "checks.A9_holder_estimator.points": (int, "[32, inf)"),
    "checks.A5_solver_vs_ode": (dict, None, OPTIONAL, SOLVES),
    "checks.A5_solver_vs_ode.tol": (float, "[0, inf)", REQUIRED),
    "checks.A5_solver_vs_ode.dt": (float, "(0, inf)", 1e-4),
    "checks.A6_fbm_young_covariance": (dict, None, OPTIONAL, ("covariance-check",)),
    "checks.A6_fbm_young_covariance.se_factor": (float, "[0, inf)", inspect.signature(
        checks.a6_fbm_young_covariance).parameters["se_factor"].default),     # the check's own
    "checks.A7_rough_self_convergence": (dict, None, OPTIONAL, ("convergence",)),
    "checks.A7_rough_self_convergence.rate_threshold": (float, None, REQUIRED),
    "checks.A7_rough_self_convergence.min_passing": (int, "[0, inf)", REQUIRED),
}
ANNOTATED = {"float": float, "int": int, "str": str}
SCALARS = {float: "a finite number", int: "an integer", str: "a string"}


def _row(path, annotation=inspect.Parameter.empty):
    """The row typing ``path``: its own, the "checks.*" row of its key, or its annotation's."""
    head, _, rest = path.partition(".")
    return (SCHEMA.get(path) or SCHEMA.get(f"{head}.*.{rest.partition('.')[2]}")
            or (ANNOTATED[annotation], None))


def _block_keys(typ, at, kinds, siblings):
    """key -> (row, schema path, default) of a block of type ``typ`` at schema path ``at``, in a
    run of ``kinds``: a dict block's rows that the run reads."""
    if typ is dict:
        return {p.rpartition(".")[2]: (r, p, REQUIRED if isinstance(r[2], tuple) else r[2])
                for p, r in SCHEMA.items() if p.rpartition(".")[0] == at
                and (not isinstance(r[-1], tuple) or any(k in r[-1] for k in kinds))}
    if isinstance(typ, Family):
        return {k: (SCHEMA[f"{typ.at}.{k}"], f"{typ.at}.{k}", OPTIONAL)
                for k in typ.params[siblings[typ.name_key]]}
    params = (typ if isinstance(typ, inspect.Signature) else inspect.signature(typ)).parameters
    return {p.name: (_row(f"{at}.{p.name}", p.annotation), f"{at}.{p.name}", p.default)
            for p in params.values()}


def _call(fn, value, where):
    try:
        return fn(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _walk_block(value, typ, at, where, kinds, siblings):
    if not isinstance(value, dict):
        raise ValueError(f"{where or 'config'!r} must be a JSON object")
    own = f"{at}.kind".lstrip(".")
    if typ is dict and own in SCHEMA and ("kind" in value or SCHEMA[own][2] is not REQUIRED):
        kinds += (_walk(value.setdefault("kind", SCHEMA[own][2]), SCHEMA[own], own,
                        f"{where}.kind".lstrip("."), kinds),)       # given or by default
    keys = _block_keys(typ, at, kinds, siblings)
    missing = [f"{where}.{k}".lstrip(".") for k, (*_, default) in keys.items()
               if default is REQUIRED and k not in value]
    if missing:
        raise ValueError(f"missing key(s) {missing}")
    unknown = [f"{where}.{k}".lstrip(".") for k in sorted(set(value) - set(keys))]
    if unknown:
        raise ValueError(f"unknown key(s) {unknown}; {where or 'config'!r} takes {sorted(keys)}")
    typed = {}
    for k, (*_, default) in keys.items():   # fill defaults in: a row's, JSON, is typed as given
        if k not in value and default is not REQUIRED and default is not OPTIONAL:
            (value if typ is dict else typed)[k] = copy.deepcopy(default)  # a parameter's is typed
    for k in sorted(value, key=lambda k: isinstance(keys[k][0][0], Family)):   # families last
        row, path, default = keys[k]
        if value[k] == []:
            raise ValueError(f"{where}.{k} must not be empty".lstrip("."))
        typed[k] = None if value[k] is None and default is None else _walk(
            value[k], row, path, f"{where}.{k}".lstrip("."), kinds, typed)
    return _call(lambda t: typ(**t), typed, where) if dataclasses.is_dataclass(typ) else typed


def _walk(value, row, at, where, kinds, siblings=None):
    """``value`` checked against its schema ``row`` and typed; ``at`` is its schema path,
    ``where`` its JSON path, which every error names, ``kinds`` the run's kinds so far,
    ``siblings`` the keys beside it."""
    typ, rng = row[:2]
    if typ is dict or isinstance(typ, (Family, inspect.Signature)) or dataclasses.is_dataclass(typ):
        return _walk_block(value, typ, at, where, kinds, siblings)
    if isinstance(typ, tuple) and value not in typ:
        raise ValueError(f"{where} must be one of {list(typ)}, got {value!r}")
    if isinstance(typ, list) or typ is np.ndarray:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        item = (typ[0] if isinstance(typ, list) else float, None if callable(rng) else rng)
        value = [_walk(v, item, at, f"{where}[{i}]", kinds) for i, v in enumerate(value)]
        value = value if isinstance(typ, list) else np.array(value, dtype=float)
    elif typ in SCALARS:
        ok = isinstance(value, (int, float) if typ is float else typ) and not isinstance(
            value, bool)
        if not ok or typ is float and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{where} must be {SCALARS[typ]}, got {value!r}")
        value = float(value) if typ is float else value
        if rng is not None:
            lo, hi = (float(s) for s in rng[1:-1].split(","))
            if not ((lo < value if rng[0] == "(" else lo <= value)
                    and (value < hi if rng[-1] == ")" else value <= hi)):
                raise ValueError(f"{where} must be in {rng}, got {value!r}")
    elif not isinstance(typ, tuple):
        value = _call(typ, value, where)
    if callable(rng):
        _call(rng, value, where)
    return value


def _check_relations(doc):
    """The rules between keys, once each key is typed, and the work budget WORK_BYTES."""
    kind, drv, enabled = doc["kind"], doc.get("driver", {}), doc["checks"]
    if "kernel" in doc and len({"atoms", "density"} & set(doc["kernel"])) != 1:
        raise ValueError("kernel needs exactly one of the keys 'kernel.atoms' and 'kernel.density'")
    fbm = drv.get("kind") == "fbm"
    n = drv["n_dims"] if fbm else 1                 # a deterministic driver has one dimension
    seeds = ("seed",) if kind in SOLVES else ("seed", "seeds")
    if (fbm or kind == "convergence") and not set(seeds) & set(drv):
        raise ValueError(f"missing key {' or '.join(f'driver.{s}' for s in seeds)} (explicit seeds)")
    if set(drv) >= {"seed", "seeds"}:
        raise ValueError("driver needs exactly one of the keys 'driver.seed' and 'driver.seeds'")
    if "A6_fbm_young_covariance" in enabled and not (
            doc["stat"]["hurst"] > 0.5 and len(doc["stat"]["seeds"]) > 1):
        raise ValueError("A6_fbm_young_covariance needs stat.hurst in (0.5, 1) and 2+ stat.seeds")
    if "A2_sewing_bound" in enabled:
        mu, rho = enabled["A2_sewing_bound"]["mu"], enabled["A2_sewing_bound"]["rho"]
        if not rho < mu:
            raise ValueError(f"checks.A2_sewing_bound.rho must be < mu = {mu}, got {rho}")
    directions = [("sigma.params", doc.get("sigma", {}).get("params", {}), n)]
    # the work budget: (bytes, what, keys sizing it) of the run's largest arrays (README)
    work = []
    if kind in EQUATION:
        k, k_key = ((len(doc["kernel"]["atoms"]), "kernel.atoms") if "atoms" in doc["kernel"]
                    else (doc["kernel"]["density"]["n_nodes"], "kernel.density.n_nodes"))
        at, cells = (("levels", 2 ** min(max(doc["levels"]), 64)) if kind == "convergence"
                     else ("driver.cells", drv["cells"]))
        work += _solve_work(cells, k, n, len(doc["initial"]), doc["solver"].sewing_level, fbm,
                            (at, k_key, "solver.sewing_level"))
        if kind == "convergence":                   # held through list(): one path per seed
            paths = len(drv["seeds"]) if fbm and "seeds" in drv else 1
            work.append((paths * (cells + 1) * n * 8, "the fine paths", ("driver.seeds", at)))
    if kind == "covariance-check":                  # the draw is streamed, the results held
        work += [(len(doc["stat"]["seeds"]) * 155, "the per-seed results", ("stat.seeds",)),
                 _draw_work(doc["stat"]["cells"], 1, "stat.cells")]
    if "A3_chen_relation" in enabled:
        a3, at = enabled["A3_chen_relation"], "checks.A3_chen_relation"
        work += [_draw_work(a3["cells"], 1, f"{at}.cells"), (3 * a3["cells"] * len(
            a3["atoms"]) ** 2 * 8, "the x3 walk", (f"{at}.cells", f"{at}.atoms"))]
    if "A8_diffusion_degeneration" in enabled:     # one atom, n = d = 1; the class default level
        a8, at = enabled["A8_diffusion_degeneration"], "checks.A8_diffusion_degeneration"
        if len(a8["initial"]) != 1:                 # A8's sigma has one column
            raise ValueError(f"{at}.initial must have 1 entry, got {len(a8['initial'])}")
        directions.append((f"{at}.sigma_params", a8["sigma_params"] or {}, 1))
        work += _solve_work(a8["cells"], 1, 1, 1, (a8["solver"] or SolverConfig).sewing_level,
                            True, (f"{at}.cells",) * 2 + (f"{at}.solver.sewing_level",))
    if "A9_holder_estimator" in enabled:
        work.append(_draw_work(enabled["A9_holder_estimator"]["points"], 1,
                               "checks.A9_holder_estimator.points"))
    for where, params, dims in directions:
        if "direction" in params and len(params["direction"]) != dims:
            raise ValueError(f"{where}.direction must have one entry per driver dimension "
                             f"({dims}), got {len(params['direction'])}")
    size, what, keys = max(work, default=(0, "", ()))
    if size > WORK_BYTES:
        raise ValueError(f"{', '.join(dict.fromkeys(keys))}: {what} would need {size:.3g} bytes, "
                         f"over the work budget of {WORK_BYTES} bytes")


def _draw_work(cells, n, key):
    """An fBm draw's eigenvalue pass, normals and transform on ``cells`` cells in n dimensions."""
    return cells * n * 64, "the fBm draw", (key,)


def _solve_work(cells, k, n, d, level, fbm, keys):
    """A solve's cell tables, mesh arrays and ytilde on ``cells`` cells with K = k atoms, n
    driver and d state dimensions, and its fBm draw if ``fbm``; ``keys`` name cells, K, level."""
    at, k_key, level_key = keys
    mesh = cells * 2 ** min(level, 64)              # 2^64 steps a cell are past any budget
    return [(cells * k * n * n * 8, "the cell tables", (at, k_key)),
            (mesh * n * d * d * 8, "the mesh arrays", (at, level_key)),
            (cells * k * d * 8, "ytilde on the grid", (at, k_key))] + (
        [_draw_work(cells, n, at)] if fbm else [])


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
                elif isinstance(v, (np.integer, int)):
                    cells.append(str(int(v)))
                else:
                    cells.append(f"{float(v):.17g}")
            fh.write(",".join(cells) + "\n")


class ExperimentConfig:
    """One config document, as JSON with SCHEMA's defaults in ``config`` and typed in ``doc``, and
    its kernel's atoms ``measure`` where it has a kernel; a bad one raises ValueError naming it."""

    def __init__(self, raw):
        self.config = copy.deepcopy(raw)
        self.doc = _walk(self.config, (dict, None), "", "", ())
        self.kind, self.checks = self.doc["kind"], self.doc["checks"]
        _check_relations(self.doc)
        if "kernel" in self.doc:            # once the budget holds
            try:
                self.measure = kernel_from_spec(self.doc["kernel"], self.doc["driver"]["horizon"])
            except (ValueError, QuadratureError) as exc:
                raise ValueError(f"kernel.density: {exc}") from None

    @property
    def deterministic(self) -> bool:
        return self.doc["driver"]["kind"] == "deterministic"

    def driver(self, seed=None, grid=None) -> DriverPath | Iterator[DriverPath]:
        """The configured driver on ``grid``; an fBm driver given a list of seeds
        is ``sample_fbm``'s iterator of one path per seed, a deterministic one
        ignores the seed."""
        drv = self.doc["driver"]
        if grid is None:
            grid = TimeGrid.uniform(drv["cells"], drv["horizon"])
        if self.deterministic:
            return deterministic_driver(grid, DETERMINISTIC_FUNCTIONS[drv["function"]])
        return sample_fbm(drv["hurst"], grid, n_dims=drv["n_dims"],
                          seed=drv["seed"] if seed is None else seed)

    def sigma_field(self, n_dims: int):
        sg = self.doc["sigma"]
        return sigma_catalog(sg["name"], n=n_dims, d=len(self.doc["initial"]),
                             params=sg.get("params"))


class RunManifest:
    """Per-run record: config with defaults, raw config hash, version, wall clock, checks, error."""

    def __init__(self, config_raw: dict, config=None):
        canon = json.dumps(config_raw, sort_keys=True, separators=(",", ":"))
        self.config_hash = hashlib.sha256(canon.encode()).hexdigest()
        self.config = config
        self.version = __version__
        self.wall_clock = self.error = None
        self.checks = []

    def add_check(self, name, passed, value, tolerance, details=None):
        if any(c["name"] == name for c in self.checks):
            raise ValueError(f"check {name!r} recorded twice")
        entry = {"name": name, "passed": bool(passed), "value": value, "tolerance": tolerance}
        if details is not None:
            entry["details"] = details
        self.checks.append(entry)

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def write(self, path):
        doc = {"config": self.config, "config_hash": self.config_hash, "library_version":
               self.version, "wall_clock_seconds": self.wall_clock, "checks": self.checks}
        if self.error is not None:
            doc["error"] = self.error
        with open(path, "w", newline="") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# experiment implementations


def _solution_csv(path, sol):
    d = sol.y.shape[1]
    cols = [("t", sol.grid.points)] + [(f"y_{j+1}", sol.y[:, j]) for j in range(d)]
    cols += [(f"ytilde_{k+1}_{j+1}", sol.ytilde[:, k, j])
             for k in range(sol.ytilde.shape[1]) for j in range(d)]
    emit_csv(path, cols)


def _diagnostics_csv(path, sol):
    emit_csv(path, [(f.name, [getattr(g, f.name) for g in sol.diagnostics])
                    for f in dataclasses.fields(IntervalDiagnostics)])


def _run_solve(cfg: ExperimentConfig, manifest, out_dir, jobs):
    doc = cfg.doc
    driver = cfg.driver()
    lift = RoughLift(driver, cfg.measure, gamma=doc["solver"].gamma)
    fld = cfg.sigma_field(driver.n_dims)
    solve = solve_young if cfg.kind == "solve-young" else solve_rough
    sol = solve(lift, fld, doc["initial"], doc["solver"])
    _solution_csv(os.path.join(out_dir, "solution.csv"), sol)
    _diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), sol)

    if "A5_solver_vs_ode" in cfg.checks:
        params = cfg.checks["A5_solver_vs_ode"]
        y_ref, _ = rk4_augmented(driver, cfg.measure, fld, doc["initial"], dt_max=params["dt"])
        manifest.add_check(*checks.a5_solver_vs_ode([sol], y_ref, params["tol"]))
        emit_csv(os.path.join(out_dir, "oracle.csv"), [("t", sol.grid.points)]
                 + [(f"y_ref_{j+1}", y_ref[:, j]) for j in range(y_ref.shape[1])])


def _run_verify(cfg: ExperimentConfig, manifest, out_dir, jobs):
    for name, fn in VERIFY_CHECKS.items():
        if name in cfg.checks:
            manifest.add_check(*fn(**cfg.checks[name]))
    emit_csv(os.path.join(out_dir, "verify_checks.csv"), [
        ("name", np.array([c["name"] for c in manifest.checks], dtype=object)),
        ("passed", [1 if c["passed"] else 0 for c in manifest.checks]),
        ("value", [float(c["value"]) for c in manifest.checks]),
    ])


def _map(fn, items, jobs):
    """``fn`` over ``items``, in a pool of at most ``jobs`` worker processes when jobs > 1.

    The pool forks every worker at its first submit, so it gets no more
    workers than there are items or CPUs.
    """
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _run_convergence(cfg: ExperimentConfig, manifest, out_dir, jobs):
    doc, drv, levels = cfg.doc, cfg.doc["driver"], cfg.doc["levels"]
    seeds = drv["seeds"] if "seeds" in drv else [drv["seed"]]
    fine_grid = TimeGrid.uniform(2 ** max(levels), drv["horizon"])
    one_seed = functools.partial(
        checks.self_convergence, measure=cfg.measure, sigma=doc["sigma"]["name"],
        a=doc["initial"], solver=doc["solver"], levels=levels,
        sigma_params=doc["sigma"].get("params"))
    if cfg.deterministic:   # one path whatever the seed: solve it once, repeat per seed
        per_seed = _map(one_seed, [cfg.driver(grid=fine_grid)], jobs) * len(seeds)
    else:
        per_seed = _map(one_seed, list(cfg.driver(seed=list(seeds), grid=fine_grid)), jobs)
    results = sorted(zip(seeds, per_seed), key=lambda r: r[0])
    rates = [rate for _, (_, rate) in results]
    rows = [(seed, lev, d) for seed, (diffs, _) in results for lev, d in zip(levels[:-1], diffs)]
    emit_csv(os.path.join(out_dir, "convergence.csv"),
             [(name, [r[i] for r in rows]) for i, name in enumerate(("seed", "level", "sup_diff"))])
    emit_csv(os.path.join(out_dir, "rates.csv"),
             [("seed", [r[0] for r in results]), ("rate", rates)])
    if "A7_rough_self_convergence" in cfg.checks:
        params = cfg.checks["A7_rough_self_convergence"]
        manifest.add_check(*checks.a7_rough_self_convergence(
            rates, params["rate_threshold"], params["min_passing"]))


def _run_ensemble(cfg: ExperimentConfig, manifest, out_dir, jobs):
    """The covariance-check kind: ensemble.csv, then A6 where the config enables it."""
    stat = cfg.doc["stat"]
    value = functools.partial(STATS[stat["name"]], hurst=stat["hurst"], cells=stat["cells"],
                              xi=stat["xi"], horizon=stat["horizon"])
    seeds = stat["seeds"]
    size = -(-len(seeds) // jobs)                # one contiguous run of seeds per worker
    runs = [seeds[i : i + size] for i in range(0, len(seeds), size)]
    results = sorted(zip(seeds, (v for vs in _map(value, runs, jobs) for v in vs)),
                     key=lambda r: r[0])
    values = [r[1] for r in results]
    emit_csv(os.path.join(out_dir, "ensemble.csv"),
             [("seed", [r[0] for r in results]), ("value", values)])
    if "A6_fbm_young_covariance" in cfg.checks:
        params = cfg.checks["A6_fbm_young_covariance"]
        manifest.add_check(*checks.a6_fbm_young_covariance(
            values, stat["hurst"], stat["xi"], stat["horizon"], params["se_factor"]))


RUNS = {"verify": _run_verify, "solve-young": _run_solve, "solve-rough": _run_solve,
        "convergence": _run_convergence, "covariance-check": _run_ensemble}


def run(config_path, out_dir=None, jobs=1, checks_filter=None) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2
    try:
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"--jobs must be an integer >= 1, got {jobs!r}")
        cfg = ExperimentConfig(raw)
        if checks_filter:
            unknown = set(checks_filter) - set(cfg.checks)
            if unknown:
                raise ValueError(f"--check names not in config: {sorted(unknown)}")
            for name in set(cfg.checks) - set(checks_filter):     # the manifest's config too
                del cfg.checks[name], cfg.config["checks"][name]
        target = out_dir or os.getcwd()
        os.makedirs(target, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"config validation error: {exc}", file=sys.stderr)
        return 2

    manifest = RunManifest(raw, cfg.config)
    start = time.perf_counter()
    try:
        RUNS[cfg.kind](cfg, manifest, target, jobs)
        code = 0 if manifest.all_passed() else 1
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        code = 3
    except Exception as exc:                  # the document was valid: the run itself failed
        manifest.error = {"type": type(exc).__name__, "message": str(exc),
                          "traceback": traceback.format_exc()}
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 4
    manifest.wall_clock = time.perf_counter() - start
    manifest.write(os.path.join(target, "run_manifest.json"))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughvolterra", description="Config-driven experiments for rough Volterra equations.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to the JSON experiment config")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (>= 1; at most one per seed and per CPU)")
    run_p.add_argument("--check", action="append", default=None,
                       help="run only the named check(s) from the config")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_dir=args.out, jobs=args.jobs, checks_filter=args.check)
    return 2


if __name__ == "__main__":
    sys.exit(main())
