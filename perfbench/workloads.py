"""The three workloads: job configs generated from the workload seed.

Every job is a config document run through the public ``cli.run`` entry
point.  The configs copy the shipped examples (``configs/*.json`` at the
commit that introduced the benchmark) and are kept here, so a later edit
of an example does not silently change what the benchmark measures.
A plan's job list is one pass; a run repeats the pass for ``--seconds``
and keeps each job's fastest pass.  A pass takes about 3 s (solve-k64),
1.5 s (mc-ensemble) or 6 s (verify) on a 2-core x86 box with BLAS on one
thread.
"""

from __future__ import annotations

import copy
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("solve-k64", "mc-ensemble", "verify")

WARMUP_SEED = 0            # job seeds are drawn from 1 upwards

SOLVE_ROUGH_FBM = {
    "kind": "solve-rough",
    "kernel": {"atoms": [[1.0, 1.0]]},
    "driver": {"kind": "fbm", "hurst": 0.4, "cells": 512, "seed": 7},
    "sigma": {"name": "tanh"},
    "solver": {"gamma": 0.38, "kappa": 0.35, "sewing_level": 4, "picard_tol": 1e-11,
               "interval_scheme": "harmonic", "n_start": 4},
    "initial": [0.3],
    "checks": {},
}
EXP_DENSITY_KERNEL = {"density": {"name": "exp"}}     # 64 quadrature atoms

COVARIANCE_H07 = {
    "kind": "covariance-check",
    "stat": {"name": "x1_tilde_value", "hurst": 0.7, "cells": 1024, "xi": 1.0,
             "seeds": "0..10000"},
    "checks": {"A6_fbm_young_covariance": {"se_factor": 3.0}},
}

VERIFY = {
    "kind": "verify",
    "checks": {
        "A1_algebraic_exactness": {"tol": 1e-12, "trials": 100, "grid_points": 16,
                                   "atoms": 3, "seed": 0},
        "A2_sewing_bound": {"mu": 1.5, "rho": 0.75, "trials": 100, "level": 8, "xi": 1.0,
                            "seed": 0},
        "A3_chen_relation": {"tol": 1e-6, "hursts": [0.4, 0.7], "cells": 256,
                             "seeds": "0..3", "triples": 10, "sub_mesh": 65536,
                             "atoms": [[0.5, 0.6], [2.0, 0.3], [8.0, 0.1]]},
        "A4_young_exactness": {"tol": 1e-8, "level": 12, "xis": [0, 1, 5], "cells": 4096,
                               "functions": ["identity", "sin"]},
        "A8_diffusion_degeneration": {"cells": 128, "seed": 1, "hurst": 0.4, "sigma": "tanh",
                                      "initial": [0.1],
                                      "solver": {"gamma": 0.38, "kappa": 0.35,
                                                 "sewing_level": 3, "picard_tol": 1e-11,
                                                 "interval_scheme": "harmonic",
                                                 "n_start": 4}},
        "A9_holder_estimator": {"tol": 0.07, "seeds": "0..100", "hursts": [0.4, 0.7],
                                "points": 4096},
    },
}
VERIFY_SEED_STRIDE = 1000  # > the widest seed range a criterion uses (A9: 100)

# work in one pass
SOLVE_K64_JOBS = 1
MC_PATHS = 2000


@dataclass
class Job:
    config: dict
    config_path: str
    out_dir: str
    checks: list | None = None       # the CLI's --check filter


@dataclass
class Plan:
    workload: str
    jobs: list
    warmups: list                    # (hurst, cells): one sample_fbm each in set-up
    work: float                      # units of work in one pass, for throughput
    work_unit: str


def _solve_jobs(seed, n_jobs, kernel):
    rng = random.Random(seed)
    configs = []
    for driver_seed in rng.sample(range(1, 2**31), n_jobs):
        cfg = copy.deepcopy(SOLVE_ROUGH_FBM)
        cfg["kernel"] = copy.deepcopy(kernel)
        cfg["driver"]["seed"] = driver_seed
        configs.append((cfg, None))
    cells = SOLVE_ROUGH_FBM["driver"]["cells"]
    return configs, [(SOLVE_ROUGH_FBM["driver"]["hurst"], cells)], n_jobs * cells, "grid cells"


def _mc_jobs(seed, paths):
    cfg = copy.deepcopy(COVARIANCE_H07)
    base = 1 + seed * paths
    cfg["stat"]["seeds"] = f"{base}..{base + paths}"
    stat = cfg["stat"]
    return [(cfg, None)], [(stat["hurst"], stat["cells"])], paths, "paths"


def _verify_jobs(seed):
    base = 1 + seed * VERIFY_SEED_STRIDE
    cfg = copy.deepcopy(VERIFY)
    checks = cfg["checks"]
    checks["A1_algebraic_exactness"]["seed"] = base
    checks["A2_sewing_bound"]["seed"] = base
    checks["A3_chen_relation"]["seeds"] = f"{base}..{base + 3}"
    checks["A8_diffusion_degeneration"]["seed"] = base
    checks["A9_holder_estimator"]["seeds"] = f"{base}..{base + 100}"
    configs = [(cfg, [name]) for name in checks]
    a3, a8, a9 = (VERIFY["checks"][k] for k in (
        "A3_chen_relation", "A8_diffusion_degeneration", "A9_holder_estimator"))
    warmups = (
        [(h, a9["points"] - 1) for h in a9["hursts"]]
        + [(h, a3["cells"]) for h in a3["hursts"]]
        + [(a8["hurst"], a8["cells"])]
    )
    return configs, warmups, len(configs), "criteria"


def build(workload, seed, root):
    """Generate the job list of one pass and write its configs under ``root``."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if workload == "solve-k64":
        made = _solve_jobs(seed, SOLVE_K64_JOBS, EXP_DENSITY_KERNEL)
    elif workload == "mc-ensemble":
        made = _mc_jobs(seed, MC_PATHS)
    elif workload == "verify":
        made = _verify_jobs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    configs, warmups, work, unit = made
    jobs = []
    for i, (cfg, checks) in enumerate(configs):
        path = os.path.join(root, f"job{i:03d}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        jobs.append(Job(cfg, path, os.path.join(root, f"job{i:03d}"), checks))
    return Plan(workload, jobs, warmups, work, unit)
