import ast
import functools
import inspect
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from perfbench import layers, workloads
from roughvolterra import checks, cli, solver as solver_mod
from roughvolterra.cli import (
    RunManifest,
    emit_csv,
    run,
    seed_expand,
)
from roughvolterra.laplace import KernelMeasure, QuadratureError
from roughvolterra.lift import RoughLift, deterministic_driver, sample_fbm
from roughvolterra.algebra import TimeGrid
from roughvolterra.oracles import rk4_augmented
from roughvolterra.sigma import SIGMA_PARAMS, sigma_catalog
from roughvolterra.solver import SolverConfig

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class TestSeedExpand:
    def test_single(self):
        assert seed_expand(42) == [42]

    def test_range_half_open(self):
        assert seed_expand("1..4") == range(1, 4)

    def test_deterministic(self):
        assert seed_expand("7..12") == seed_expand("7..12")

    def test_list_passthrough(self):
        assert seed_expand([3, 1, 5]) == [3, 1, 5]

    def test_range_is_not_built(self):
        tracemalloc.start()
        try:
            seeds = seed_expand("0..2000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seeds) == 2000000 and peak < 1 << 20

    def test_rejects_bad_specs(self):
        for bad in ("4..4", "5..2", "x..y", "-1..3", [1, 1], [], 1.5, True):
            with pytest.raises(ValueError):
                seed_expand(bad)


class TestEmitCsv:
    def test_empty_table_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        emit_csv(p, [("t", []), ("y_1", [])])
        assert p.read_bytes() == b"t,y_1\n"

    def test_round_trip_doubles(self, tmp_path):
        p = tmp_path / "vals.csv"
        vals = np.array([0.1, 1.0 / 3.0, np.pi, 1e-17, 12345.678901234567])
        emit_csv(p, [("t", np.arange(5.0)), ("y_1", vals)])
        rows = p.read_text().splitlines()[1:]
        parsed = np.array([float(r.split(",")[1]) for r in rows])
        assert np.array_equal(parsed, vals)

    def test_lf_line_endings(self, tmp_path):
        p = tmp_path / "lf.csv"
        emit_csv(p, [("a", [1.0, 2.0])])
        assert b"\r" not in p.read_bytes()

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(tmp_path / "bad.csv", [("a", [1.0]), ("b", [1.0, 2.0])])


class TestManifest:
    def test_duplicate_check_rejected(self):
        m = RunManifest({"kind": "verify"})
        m.add_check("c", True, 0.0, 1.0)
        with pytest.raises(ValueError):
            m.add_check("c", True, 0.0, 1.0)

    def test_hash_depends_on_config(self):
        a = RunManifest({"kind": "verify"})
        b = RunManifest({"kind": "verify", "x": 1})
        assert a.config_hash != b.config_hash


class TestRk4Oracle:
    def test_linear_sigma_exact_solution(self):
        grid = TimeGrid.uniform(64, 1.0)
        driver = deterministic_driver(grid, lambda t: t)
        mea = KernelMeasure.from_atoms([(1.0, 1.0)])
        fld = sigma_catalog("linear", n=1, d=1)
        y, yt = rk4_augmented(driver, mea, fld, np.array([1.0]), dt_max=1e-3)
        assert np.max(np.abs(y[:, 0] - (1.0 + grid.points))) < 1e-10
        assert np.max(np.abs(yt[:, 0, 0] - grid.points)) < 1e-10


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# edits of solve_config() to another kind, deleting the blocks that only the solving kinds read
SOLVE_BLOCKS = dict.fromkeys(("kernel", "driver", "sigma", "solver", "initial"))
VERIFY = {"kind": "verify", **SOLVE_BLOCKS}
COVARIANCE = {"kind": "covariance-check", **SOLVE_BLOCKS}
STAT = {"name": "x1_tilde_value", "hurst": 0.7, "cells": 16, "xi": 1.0, "seeds": "0..2"}


def solve_config(cells=128, tol=1e-4, sigma="sin"):
    return {
        "kind": "solve-young",
        "kernel": {"atoms": [[1.0, 1.0]]},
        "driver": {"kind": "deterministic", "function": "identity", "cells": cells},
        "sigma": {"name": sigma},
        "solver": {"gamma": 1.0, "kappa": 0.45, "sewing_level": 4,
                   "picard_tol": 1e-11, "interval_scheme": "constant", "n_start": 2},
        "initial": [1.0],
        "checks": {"A5_solver_vs_ode": {"tol": tol, "dt": 1e-4}},
    }


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_shipped_config_validates(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        cli.ExperimentConfig(json.load(fh))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_job_configs_validate(tmp_path, workload):
    # the benchmark keeps its own frozen copies of the configs: one that stopped
    # validating would show there only as a failed run
    for job in workloads.build(workload, 1, str(tmp_path)).jobs:
        with open(job.config_path) as fh:
            cli.ExperimentConfig(json.load(fh))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_traces_and_checks_the_current_library(tmp_path, workload):
    # one traced benchmark process per workload: it wraps library functions by
    # name, needs a call of every layer the workload must reach, and checks each
    # job's output (solve-k64 against its own explicit recursion), so a renamed
    # traced function, a lost layer or a drift in the solver fails here rather
    # than at benchmark time
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, "-m", "perfbench.child", "--workload", workload,
                    "--seed", "1", "--mode", "trace", "--dir", str(tmp_path / "run"),
                    "--result", str(result)], cwd=root, check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(["src", "."])})
    doc = json.loads(result.read_text())
    assert [s for s in layers.REQUIRED[workload] if not doc["layers"][f"{s}.calls"]] == []
    assert not any(doc["check_messages"])


@pytest.mark.parametrize("doc", [
    {**solve_config(), "driver": {"kind": "fbm", "hurst": 0.4, "cells": 8192, "seed": 1}},
    {**solve_config(), "kind": "convergence", "levels": [11, 12, 13],
     "driver": {"kind": "fbm", "hurst": 0.4, "seeds": "0..4"}, "checks": {}},
    {"kind": "covariance-check", "stat": {"name": "x1_tilde_value", "hurst": 0.7,
                                          "cells": 8192, "xi": 1.0, "seeds": "0..4"}},
    {"kind": "verify", "checks": {"A3_chen_relation": {"tol": 1e-6, "cells": 8192},
                                  "A8_diffusion_degeneration": {"cells": 8192},
                                  "A9_holder_estimator": {"tol": 0.07, "points": 8193}}},
], ids=["solve", "convergence", "covariance-check", "verify"])
def test_fbm_grid_past_the_old_point_cap_validates(doc):
    # fBm grids were capped at 4095 cells; within the work budget they now run
    cli.ExperimentConfig(doc)


def test_no_get_supplies_a_schema_default():
    # SCHEMA's rows hold the CLI's defaults, and the walk fills them in: a .get(key, default)
    # in cli.py on a key whose row has a default would be a second home for it
    defaulted = {p.rpartition(".")[2] for p, r in cli.SCHEMA.items() if len(r) > 2 and not
                 isinstance(r[2], tuple) and r[2] is not cli.REQUIRED and r[2] is not cli.OPTIONAL}
    assert defaulted == {"kind", "function", "horizon", "n_dims", "n_nodes", "dt", "se_factor",
                         "checks"}
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    seconds = [f"line {node.lineno}: .get({node.args[0].value!r}, ...)" for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "get" and len(node.args) == 2
               and isinstance(node.args[0], ast.Constant) and node.args[0].value in defaulted]
    assert seconds == []


class TestRunFlows:
    def test_parse_error_exit_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert run(str(p), out_dir=str(tmp_path)) == 2

    def test_validation_error_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "nope"})
        assert run(cfg, out_dir=str(tmp_path)) == 2

    def test_missing_seed_rejected(self, tmp_path):
        doc = solve_config()
        doc["driver"] = {"kind": "fbm", "hurst": 0.4, "cells": 16}
        doc["checks"] = {}
        cfg = write_config(tmp_path, doc)
        assert run(cfg, out_dir=str(tmp_path)) == 2

    @pytest.mark.parametrize(
        "block, edit, named",
        [
            ("solver", {"sewing_levle": 3}, "sewing_levle"),
            ("solver", {"gamma": None}, "gamma"),
            ("solver", {"n_start": 0}, "n_start"),
            ("solver", {"contraction_limit": 0.0}, "contraction_limit"),
            ("driver", {"kind": "fbm", "function": None, "hurts": 0.4, "seed": 1}, "hurst"),
            ("solver", {"gamma": "0.38"}, "gamma"),
            ("solver", {"kappa": True}, "kappa"),
            ("checks", {"A5_solver_vs_ode": {"dt": 1e-4}}, "tol"),
            ("checks", {"A5_solver_vs_ode": {"tol": "1e-4"}}, "tol"),
            ("config", {"kind": "convergence", "levels": [5, 6, 7], "driver": {
                "kind": "deterministic", "seed": 1}, "checks": {
                "A7_rough_self_convergence": {"rate_threshold": 0.2}}}, "min_passing"),
            ("config", {**VERIFY, "checks": {
                "A4_young_exactness": {"tol": 1e-8, "functions": ["cos"]}}}, "functions"),
            ("solver", {"max_picard": 2.5}, "solver.max_picard"),
            ("solver", {"n_start": 2.0}, "solver.n_start"),
            ("solver", {"sewing_level": 3.5}, "solver.sewing_level"),
            ("solver", {"n_cap": 1e6}, "solver.n_cap"),
            ("driver", {"cells": [64]}, "driver.cells"),
            ("driver", {"cells": 64.0}, "driver.cells"),
            ("driver", {"cells": None}, "cells"),
            ("driver", {"n_dims": "1"}, "driver.n_dims"),
            ("driver", {"horizon": [1.0]}, "driver.horizon"),
            ("driver", {"kind": "fbm", "function": None, "hurst": 0.4, "seed": 1.5},
             "driver.seed"),
            ("driver", {"kind": "fbm", "function": None, "hurst": "0.4", "seed": 1},
             "driver.hurst"),
            ("kernel", {"atomz": [[1.0, 1.0]]}, "atomz"),
            ("kernel", {"atoms": None, "density": {"name": "exp", "n_node": 8}}, "n_node"),
            ("sigma", {"nmae": "tanh"}, "nmae"),
            ("kernel", {"atoms": None, "density": {"name": "exp", "params": {"rat": 2.0}}},
             "kernel.density.params.rat"),
            ("sigma", {"name": "tanh", "params": {"ampp": 5.0}}, "sigma.params.ampp"),
            ("kernel", {"atoms": None, "density": {"name": "exp", "params": {"rate": "2"}}},
             "kernel.density.params.rate"),
            ("kernel", {"atoms": None, "density": {"name": "expo"}}, "kernel.density.name"),
            ("sigma", {"name": "zero", "params": {"direction": [1.0]}}, "sigma.params.direction"),
            ("sigma", {"name": ["tanh"]}, "sigma.name"),
            ("config", {**VERIFY, "checks": {
                "A8_diffusion_degeneration": {"sigma_params": {"ampp": 5.0}}}},
             "A8_diffusion_degeneration.sigma_params.ampp"),
            ("config", {**VERIFY, "checks": {
                "A8_diffusion_degeneration": {"sigma": "zero", "sigma_params": {"amp": 1.0}}}},
             "A8_diffusion_degeneration.sigma_params.amp"),
            ("config", {**VERIFY, "checks": {
                "A8_diffusion_degeneration": {"sigma": "tanhh"}}},
             "A8_diffusion_degeneration.sigma"),
            ("config", {"emit_atom": False}, "emit_atom"),
            ("driver", {"sed": 1}, "driver.sed"),
            ("config", {**VERIFY, "checks": {"A1_algebraic_exactness": {
                "tol": 1e-12, "trials": "3", "grid_points": 8}}},
             "A1_algebraic_exactness.trials"),
            ("config", {"mode": "yung"}, "mode"),
            ("sigma", {"params": {"amp": "5"}}, "sigma.params.amp"),
            ("sigma", {"params": {"amp": True}}, "sigma.params.amp"),
            ("config", {"kind": "convergence", "levels": [5, "6", 7], "driver": {
                "kind": "deterministic", "seed": 1}}, "levels"),
            ("config", {**VERIFY, "checks": {"A4_young_exactness": {
                "tol": 1e-8, "level": 2.5, "cells": 64, "xis": [1.0]}}},
             "A4_young_exactness.level"),
            ("config", {"initial": 0.3}, "initial"),
            ("config", {"kind": "convergence", "levels": 7, "driver": {
                "kind": "deterministic", "seed": 1}}, "levels"),
            ("config", {**VERIFY, "checks": {"A3_chen_relation": {
                "tol": 1e-6, "hursts": 0.4}}}, "A3_chen_relation.hursts"),
            ("checks", {"A5_solver_vs_ode": {"tol": 1e-4, "dt": 0}}, "A5_solver_vs_ode.dt"),
            ("solver", {"interval_scheme": "explicit", "boundaries": "x"}, "solver.boundaries"),
            ("sigma", {"params": {"amp": [5]}}, "sigma.params.amp"),
            ("kernel", {"atoms": None}, "kernel.atoms"),
            ("driver", {"kind": "fbm", "function": None, "hurst": 0.4, "seed": 1,
                        "cells": 10**8}, "driver.cells"),
            ("config", {**VERIFY, "checks": {"A5_solver_vs_ode": {"tol": 1e-4}}},
             "A5_solver_vs_ode"),
            ("sigma", {"params": {"direction": [1.0, 2.0]}}, "sigma.params.direction"),
            ("config", {**VERIFY, "checks": {"A2_sewing_bound": {"rho": 2.0}}},
             "A2_sewing_bound.rho"),
            ("config", {**VERIFY, "checks": {
                "A8_diffusion_degeneration": {"initial": [0.1, 0.2]}}},
             "A8_diffusion_degeneration.initial"),
            ("config", {**VERIFY, "checks": {"A8_diffusion_degeneration": {
                "sigma_params": {"direction": [1.0, 2.0]}}}},
             "A8_diffusion_degeneration.sigma_params.direction"),
            ("solver", {"young": True}, "solver.young"),
            ("config", {**VERIFY, "checks": {"A3_chen_relation": {
                "tol": 1e-6, "hursts": []}}}, "A3_chen_relation.hursts"),
            ("config", {**VERIFY, "checks": {"A3_chen_relation": {
                "tol": 1e-6, "atoms": []}}}, "A3_chen_relation.atoms"),
            ("config", {**VERIFY, "checks": {"A4_young_exactness": {
                "tol": 1e-8, "xis": []}}}, "A4_young_exactness.xis"),
            ("config", {**VERIFY, "checks": {"A4_young_exactness": {
                "tol": 1e-8, "functions": []}}}, "A4_young_exactness.functions"),
            ("config", {**VERIFY, "checks": {"A9_holder_estimator": {
                "tol": 0.05, "hursts": []}}}, "A9_holder_estimator.hursts"),
            ("kernel", {"atoms": []}, "kernel.atoms"),
            ("config", {"initial": []}, "initial"),
            ("driver", {"n_dims": 3}, "driver.n_dims"),
            ("kernel", {"density": {"name": "exp", "beta": 1.0}}, "kernel.density.beta"),
            ("solver", {"interval_scheme": "harmonik"}, "solver.interval_scheme"),
            ("solver", {"interval_scheme": "explicit"}, "solver.interval_scheme"),
            ("config", {"emit_atoms": False}, "emit_atoms"),
            ("kernel", {"density": {"name": "exp"}}, "kernel.density"),
            ("config", {"output_dir": "x"}, "output_dir"),
            ("config", {"kind": "ensemble", "stat": {"name": "x1_tilde_value", "hurst": 0.7,
                                                     "cells": 16, "xi": 1.0, "seeds": "0..2"}},
             "kind"),
            ("driver", {"kind": "brownian", "seed": 1}, "driver.kind"),
            # over the work budget, each named by a key of its largest term
            ("driver", {"cells": 10**9}, "driver.cells"),
            ("config", {"kind": "convergence", "levels": [24, 25, 26], "driver": {
                "kind": "deterministic", "seed": 1}}, "levels"),
            ("kernel", {"atoms": None, "density": {"name": "exp", "n_nodes": 10**7}},
             "kernel.density.n_nodes"),
            ("solver", {"sewing_level": 40}, "solver.sewing_level"),
            ("config", {**COVARIANCE, "stat": {
                "name": "x1_tilde_value", "hurst": 0.7, "cells": 16, "xi": 1.0,
                "seeds": "0..100000000"}}, "stat.seeds"),
            ("config", {**COVARIANCE, "stat": {
                "name": "x1_tilde_value", "hurst": 0.7, "cells": 10**8, "xi": 1.0,
                "seeds": "0..2"}}, "stat.cells"),
            ("config", {**VERIFY, "checks": {"A3_chen_relation": {
                "tol": 1e-6, "cells": 4000, "atoms": [[x, 1.0] for x in range(400)]}}},
             "checks.A3_chen_relation.cells"),
            ("config", {**VERIFY, "checks": {"A8_diffusion_degeneration": {
                "cells": 4000, "solver": {"gamma": 0.38, "kappa": 0.35, "sewing_level": 30}}}},
             "checks.A8_diffusion_degeneration.cells"),
            ("config", {**VERIFY, "checks": {"A9_holder_estimator": {
                "tol": 0.07, "points": 10**8}}}, "checks.A9_holder_estimator.points"),
            # within the budget, but past the nodes whose Gauss-Laguerre weights stay normal
            ("kernel", {"atoms": None, "density": {"name": "exp", "n_nodes": 9000}},
             "kernel.density.n_nodes"),
            # convergence takes its grid from levels and reads no driver.cells
            ("config", {"kind": "convergence", "levels": [5, 6, 7], "driver": {
                "kind": "deterministic", "cells": 128, "seed": 1}}, "driver.cells"),
            # the density's tail cut and reconstruction tolerance are not config keys
            ("kernel", {"atoms": None, "density": {"name": "exp", "tail_cut": 40.0}},
             "kernel.density.tail_cut"),
            ("kernel", {"atoms": None, "density": {"name": "exp", "tol": 1e-6}},
             "kernel.density.tol"),
            # a block or key that no run of the document reads
            ("config", {**VERIFY, "solver": solve_config()["solver"]}, "solver"),
            ("config", {**VERIFY, "kernel": {"atoms": [[1.0, 1.0]]}}, "kernel"),
            ("config", {**VERIFY, "initial": [1.0]}, "initial"),
            ("config", {"levels": [5, 6, 7]}, "levels"),
            ("config", {"stat": STAT}, "stat"),
            ("config", {**COVARIANCE, "stat": STAT, "driver": solve_config()["driver"]}, "driver"),
            ("config", {**COVARIANCE, "stat": STAT, "sigma": {"name": "sin"}}, "sigma"),
            ("config", {"kind": "convergence", "levels": [5, 6, 7], "driver": {
                "kind": "deterministic", "seed": 1}, "stat": STAT}, "stat"),
            ("driver", {"kind": "fbm", "function": None, "hurst": 0.4, "seed": 1,
                        "seeds": "0..2"}, "driver.seeds"),
            ("driver", {"kind": "fbm", "hurst": 0.4, "seed": 1}, "driver.function"),
            ("driver", {"hurst": 0.4}, "driver.hurst"),
            ("driver", {"seed": 1}, "driver.seed"),
            ("driver", {"seeds": "0..2"}, "driver.seeds"),
            # a density that misses its reconstruction tolerance on [0, driver.horizon]
            ("kernel", {"atoms": None, "density": {"name": "gamma", "n_nodes": 8}},
             "kernel.density"),
            ("kernel", {"atoms": None, "density": {"name": "exp", "params": {"rate": 1e-3},
                                                   "n_nodes": 128}}, "kernel.density"),
            # a convergence driver reads exactly one of seed and seeds
            ("config", {"kind": "convergence", "levels": [5, 6, 7], "driver": {
                "kind": "deterministic", "seed": 1, "seeds": "0..2"}},
             "'driver.seed' and 'driver.seeds'"),
            # one past MAX_NODES, the most nodes of the Gauss-Laguerre rule
            ("kernel", {"atoms": None, "density": {"name": "exp", "n_nodes": 181}},
             "kernel.density.n_nodes must be in [2, 180]"),
            # 64 nodes are within tolerance on [0, 1] but not on [0, 50]
            ("config", {"kernel": {"density": {"name": "exp"}}, "driver": {
                "kind": "deterministic", "function": "identity", "cells": 128, "horizon": 50.0}},
             "kernel.density: kernel reconstruction error"),
            # a rule that does not converge, at gamma shape 100
            ("kernel", {"atoms": None, "density": {"name": "gamma", "params": {"shape": 100.0}}},
             "kernel.density: the Gauss-Laguerre rule did not converge"),
        ],
    )
    def test_bad_block_key_exit_2_names_it(self, tmp_path, capsys, block, edit, named):
        doc = solve_config()
        doc["checks"] = {}
        target = doc if block == "config" else doc[block]
        for key, value in edit.items():
            if value is None:
                del target[key]
            else:
                target[key] = value
        config = write_config(tmp_path, doc)
        tracemalloc.start()
        try:
            assert run(config, out_dir=str(tmp_path / "o")) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert peak < 1 << 20                   # rejected before anything is allocated

    def test_verify_sigma_block_checked_before_any_criterion_runs(self, tmp_path, monkeypatch):
        ran = []
        a1 = cli.VERIFY_CHECKS["A1_algebraic_exactness"]
        monkeypatch.setitem(cli.VERIFY_CHECKS, "A1_algebraic_exactness",
                            functools.wraps(a1)(lambda **kw: ran.append(kw)))
        doc = {"kind": "verify", "checks": {
            "A1_algebraic_exactness": {"tol": 1e-12},
            "A8_diffusion_degeneration": {"sigma_params": {"ampp": 5.0}}}}
        assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "o")) == 2
        assert ran == []

    @pytest.mark.parametrize(
        "edit, named",
        [({"hurts": 0.7}, "hurts"), ({"hurst": None}, "hurst"), ({"cells": [64]}, "cells"),
         ({"cells": True}, "cells"), ({"hurst": 0.4}, "stat.hurst"),
         ({"seeds": 7}, "stat.seeds")],
    )
    def test_bad_stat_key_exit_2_names_it(self, tmp_path, capsys, edit, named):
        doc = {
            "kind": "covariance-check",
            "stat": {"name": "x1_tilde_value", "hurst": 0.7, "cells": 64, "xi": 1.0,
                     "seeds": "0..10"},
            "checks": {"A6_fbm_young_covariance": {"se_factor": 3.0}},
        }
        for key, value in edit.items():
            if value is None:
                del doc["stat"][key]
            else:
                doc["stat"][key] = value
        assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_verify_solver_block_typo_exit_2(self, tmp_path, capsys):
        doc = {"kind": "verify", "checks": {"A8_diffusion_degeneration": {
            "cells": 16, "solver": {"gamma": 0.38, "kappa": 0.35, "sewing_levle": 3}}}}
        assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "o")) == 2
        assert "sewing_levle" in capsys.readouterr().err

    @pytest.mark.parametrize("error", ["quadrature", "factorisation"])
    def test_run_error_exit_4_writes_manifest_error(self, tmp_path, capsys, monkeypatch, error):
        # each error is raised by a stand-in once the run has started: a density that misses
        # its reconstruction tolerance exits 2 at validation
        doc = solve_config()
        if error == "quadrature":
            at, exc = "RoughLift", QuadratureError(
                "kernel reconstruction error 1.0e-03 exceeds tolerance 1.0e-08 at 2 nodes")
        else:                       # a ValueError subclass
            doc["driver"] = {"kind": "fbm", "hurst": 0.4, "cells": 16, "seed": 1}
            doc["checks"] = {}
            at, exc = "sample_fbm", np.linalg.LinAlgError(
                "circulant embedding of fGn has a negative or non-finite eigenvalue")

        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, at, broken)
        expected = type(exc).__name__
        out = tmp_path / "o"
        assert run(write_config(tmp_path, doc), out_dir=str(out)) == 4
        err = capsys.readouterr().err
        assert expected in err and "Traceback" not in err and len(err.splitlines()) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["error"]["type"] == expected and manifest["error"]["message"]

    def test_every_verify_parameter_has_a_schema_row(self):
        for name, fn in cli.VERIFY_CHECKS.items():
            for param in inspect.signature(fn).parameters:
                assert cli._row(f"checks.{name}.{param}")

    def test_sigma_params_rows_are_the_families_keys(self):
        rows = {p.removeprefix("sigma.params.") for p in cli.SCHEMA
                if p.startswith("sigma.params.")}
        assert rows == {k for keys in SIGMA_PARAMS.values() for k in keys}

    def test_wall_clock_ignores_a_clock_set_back(self, tmp_path, monkeypatch):
        ticks = iter([1e9, 0.0])
        monkeypatch.setattr(cli.time, "time", lambda: next(ticks, 0.0))
        out = tmp_path / "o"
        assert run(write_config(tmp_path, solve_config()), out_dir=str(out)) == 0
        assert json.loads((out / "run_manifest.json").read_text())["wall_clock_seconds"] >= 0

    def test_successful_solve_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 0
        assert (out / "solution.csv").exists()
        assert (out / "diagnostics.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["checks"][0]["name"] == "A5_solver_vs_ode"
        assert manifest["checks"][0]["passed"]

    def test_check_failure_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(tol=1e-12))
        assert run(cfg, out_dir=str(tmp_path / "o")) == 1

    def test_solver_failure_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver_mod, "MAX_PICARD", 3)
        doc = solve_config()
        doc["kind"] = "solve-rough"
        doc["sigma"] = {"name": "linear", "params": {"scale": 40.0}}
        doc["solver"].update({"interval_scheme": "harmonic", "n_start": 1, "picard_tol": 1e-14})
        doc["checks"] = {}
        cfg = write_config(tmp_path, doc)
        assert run(cfg, out_dir=str(tmp_path / "o")) == 3

    def test_diagnostics_rows_match_intervals(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out = tmp_path / "out"
        run(cfg, out_dir=str(out))
        rows = (out / "diagnostics.csv").read_text().splitlines()
        import roughvolterra as rv

        lift = rv.RoughLift(
            rv.deterministic_driver(rv.TimeGrid.uniform(128, 1.0), lambda t: t),
            rv.KernelMeasure.from_atoms([(1.0, 1.0)]),
            gamma=1.0,
        )
        sol = rv.solve_young(
            lift, sigma_catalog("sin", n=1, d=1), np.array([1.0]),
            rv.SolverConfig(gamma=1.0, kappa=0.45, sewing_level=4, picard_tol=1e-11,
                            interval_scheme="constant", n_start=2),
        )
        assert len(rows) - 1 == len(sol.diagnostics)

    def test_byte_identical_reruns(self, tmp_path):
        doc = {
            "kind": "verify",
            "checks": {
                "A1_algebraic_exactness": {"tol": 1e-12, "trials": 5,
                                            "grid_points": 8, "atoms": 2, "seed": 0}
            },
        }
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(cfg, out_dir=str(out1)) == 0
        assert run(cfg, out_dir=str(out2)) == 0
        assert (out1 / "verify_checks.csv").read_bytes() == (
            out2 / "verify_checks.csv"
        ).read_bytes()
        m1 = json.loads((out1 / "run_manifest.json").read_text())
        m2 = json.loads((out2 / "run_manifest.json").read_text())
        m1.pop("wall_clock_seconds")
        m2.pop("wall_clock_seconds")
        assert m1 == m2

    @pytest.mark.parametrize("jobs", [0, -2, 2.0, True, "2"])
    def test_bad_jobs_exit_2_names_it(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path, solve_config())
        assert run(cfg, out_dir=str(tmp_path / "o"), jobs=jobs) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs, n_items, cpus, workers",
                             [(1000, 3, 64, 3), (1000, 50, 2, 2), (4, 50, 64, 4),
                              (8, 1, 64, None), (1, 50, 64, None)])
    def test_pool_size_bounded_by_items_and_cpus(self, monkeypatch, jobs, n_items, cpus,
                                                 workers):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli._map(abs, range(-n_items, 0), jobs) == list(range(n_items, 0, -1))
        assert started == ([] if workers is None else [workers])

    def test_check_filter(self, tmp_path):
        doc = {
            "kind": "verify",
            "checks": {
                "A1_algebraic_exactness": {"tol": 1e-12, "trials": 3,
                                            "grid_points": 8, "atoms": 2, "seed": 0},
                "A8_diffusion_degeneration": {"cells": 32, "seed": 1},
            },
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "only_a1"
        assert run(cfg, out_dir=str(out), checks_filter=["A1_algebraic_exactness"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert [c["name"] for c in manifest["checks"]] == ["A1_algebraic_exactness"]
        assert manifest["config"]["checks"] == {"A1_algebraic_exactness": doc["checks"][
            "A1_algebraic_exactness"]}                  # the document of the run it records
        assert run(cfg, out_dir=str(out), checks_filter=["missing"]) == 2

    def test_manifest_names_cover_enabled_criteria(self, tmp_path):
        doc = {
            "kind": "verify",
            "checks": {
                "A1_algebraic_exactness": {"tol": 1e-12, "trials": 3,
                                            "grid_points": 8, "atoms": 2, "seed": 0},
                "A8_diffusion_degeneration": {"cells": 32, "seed": 1},
            },
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "cov"
        assert run(cfg, out_dir=str(out)) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        names = {c["name"] for c in manifest["checks"]}
        assert set(doc["checks"]) <= names

    def test_convergence_kind(self, tmp_path):
        doc = {
            "kind": "convergence",
            "kernel": {"atoms": [[1.0, 1.0]]},
            "driver": {"kind": "fbm", "hurst": 0.4, "seeds": "0..3"},
            "sigma": {"name": "tanh"},
            "solver": {"gamma": 0.38, "kappa": 0.35, "sewing_level": 2,
                       "picard_tol": 1e-10, "interval_scheme": "harmonic", "n_start": 4},
            "initial": [0.3],
            "levels": [5, 6, 7, 8],
            "checks": {"A7_rough_self_convergence":
                       {"rate_threshold": -2.0, "min_passing": 3}},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "conv"
        assert run(cfg, out_dir=str(out)) == 0
        rates = (out / "rates.csv").read_text().splitlines()
        assert len(rates) - 1 == 3

    def test_gamma_density_below_shape_one_solves(self, tmp_path):
        # shape 0.5 is alpha = -1/2, a weight the generalized Gauss-Laguerre rule takes
        doc = {
            "kind": "solve-rough",
            "kernel": {"density": {"name": "gamma", "params": {"shape": 0.5}}},
            "driver": {"kind": "fbm", "hurst": 0.4, "cells": 64, "seed": 7},
            "sigma": {"name": "tanh"},
            "solver": {"gamma": 0.38, "kappa": 0.35, "sewing_level": 2, "picard_tol": 1e-10,
                       "interval_scheme": "harmonic", "n_start": 4},
            "initial": [0.3],
        }
        assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "o")) == 0

    def test_small_rate_density_solves(self, tmp_path):
        # exp at rate 0.2 has 64 atoms within tolerance on the run's [0, 1], though not on
        # [0, 10]
        doc = {
            "kind": "solve-rough",
            "kernel": {"density": {"name": "exp", "params": {"rate": 0.2}}},
            "driver": {"kind": "fbm", "hurst": 0.4, "cells": 512, "seed": 7},
            "sigma": {"name": "tanh"},
            "solver": {"gamma": 0.38, "kappa": 0.35, "sewing_level": 2, "picard_tol": 1e-10,
                       "interval_scheme": "harmonic", "n_start": 4},
            "initial": [0.3],
        }
        assert run(write_config(tmp_path, doc), out_dir=str(tmp_path / "o")) == 0

    def test_deterministic_convergence_solves_once(self, tmp_path, monkeypatch):
        # a deterministic driver is the same path for every seed: one set of
        # solves, its result repeated per seed
        calls = []
        solve = checks.self_convergence
        monkeypatch.setattr(checks, "self_convergence",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        doc = {
            "kind": "convergence",
            "kernel": {"atoms": [[1.0, 1.0]]},
            "driver": {"kind": "deterministic", "function": "sin", "seeds": "0..3"},
            "sigma": {"name": "tanh"},
            "solver": {"gamma": 1.0, "kappa": 0.45, "sewing_level": 2,
                       "picard_tol": 1e-10, "interval_scheme": "harmonic", "n_start": 4},
            "initial": [0.3],
            "levels": [4, 5, 6],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "conv"
        assert run(cfg, out_dir=str(out)) == 0
        assert len(calls) == 1
        rows = [line.split(",") for line in (out / "rates.csv").read_text().splitlines()[1:]]
        assert [int(seed) for seed, _ in rows] == [0, 1, 2]
        assert len({rate for _, rate in rows}) == 1
        conv = (out / "convergence.csv").read_text().splitlines()[1:]
        assert len(conv) == 3 * 2 and len({line.split(",", 1)[1] for line in conv}) == 2

    def test_ensemble_and_covariance_kinds(self, tmp_path):
        doc = {
            "kind": "covariance-check",
            "stat": {"name": "x1_tilde_value", "hurst": 0.7, "cells": 64,
                     "xi": 1.0, "seeds": "0..400"},
            "checks": {"A6_fbm_young_covariance": {"se_factor": 3.0}},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "cov6"
        code = run(cfg, out_dir=str(out))
        manifest = json.loads((out / "run_manifest.json").read_text())
        detail = manifest["checks"][0]["details"]
        assert detail["quadrature"] > 0
        # 400 seeds is a smoke run; the full-size band is acceptance work
        assert code in (0, 1)
        ens = (out / "ensemble.csv").read_text().splitlines()
        assert len(ens) - 1 == 400

    def test_covariance_check_seed_chunks_agree_across_jobs(self, tmp_path):
        # --jobs K gives each worker one contiguous run of the 130 unsorted seeds
        # (K = 3: 44, 44 and 42); a path does not depend on the seeds drawn beside it
        seeds = [int(s) for s in np.random.default_rng(0).permutation(130)]
        doc = {"kind": "covariance-check",
               "stat": {"name": "x1_tilde_value", "hurst": 0.7, "cells": 1024, "xi": 1.0,
                        "seeds": seeds}}
        cfg = write_config(tmp_path, doc)
        csvs = []
        for jobs in (1, 2, 3):
            assert run(cfg, out_dir=str(tmp_path / f"jobs{jobs}"), jobs=jobs) == 0
            csvs.append((tmp_path / f"jobs{jobs}" / "ensemble.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
        rows = [line.split(",") for line in csvs[0].decode().splitlines()[1:]]
        assert [int(seed) for seed, _ in rows] == list(range(130))
        grid, measure = TimeGrid.uniform(1024, 1.0), KernelMeasure.from_atoms([(1.0, 1.0)])
        for seed, value in rows:
            lift = RoughLift(sample_fbm(0.7, grid, seed=int(seed)), measure, gamma=0.5)
            assert float(value) == pytest.approx(lift.x1_tilde(0.0, 1.0)[0, 0], rel=1e-12, abs=0)

    def test_verify_records_are_the_checks_functions(self, tmp_path):
        # the CLI's verify criteria are the functions of roughvolterra.checks
        path = os.path.join(CONFIGS, "verify.json")
        names = ["A1_algebraic_exactness", "A2_sewing_bound", "A8_diffusion_degeneration"]
        out = tmp_path / "verify"
        assert run(path, out_dir=str(out), checks_filter=names) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        with open(path) as fh:
            params = json.load(fh)["checks"]
        a8 = dict(params["A8_diffusion_degeneration"])
        a8["solver"] = SolverConfig(**a8["solver"])
        expected = [
            checks.a1_algebraic_exactness(**params["A1_algebraic_exactness"]),
            checks.a2_sewing_bound(**params["A2_sewing_bound"]),
            checks.a8_diffusion_degeneration(**a8),
        ]
        assert [c["name"] for c in manifest["checks"]] == names
        for entry, rec in zip(manifest["checks"], expected):
            assert entry["name"] == rec.name
            assert entry["value"] == rec.value
            assert entry["passed"] == rec.passed
