"""Property test of the CLI boundary.

Each shipped config, cut to test size, has one key at some depth
dropped, renamed or given a value of another JSON type, or gains a
top-level block of another shipped config that it lacks.  Every such run
exits with a code of the README's table and prints no traceback, and it
leaves a manifest exactly when it got past validation (exit code not 2).
Each shipped config, cut to test size, also runs as before with numpy's
dense linear algebra (LAPACK), scipy's eigen solvers and scipy's eigenvalue-based
Gauss-Laguerre rules made to raise (and, for a density kernel, adaptive quadrature),
and runs again, byte for byte,
from the document its manifest records.
"""

import contextlib
import io
import json
import os
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from roughvolterra import cli
from roughvolterra.cli import run

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIGS = os.path.join(ROOT, "configs")
NAMES = sorted(name for name in os.listdir(CONFIGS) if name.endswith(".json"))
with open(os.path.join(ROOT, "README.md")) as fh:       # the exit codes of its table
    EXIT_CODES = [int(code) for code in re.findall(r"^\| `(\d)` +\|", fh.read(), re.M)]
LIMITS = {"cells": 64, "trials": 4, "triples": 2, "sub_mesh": 256, "points": 64, "level": 4}
VALUES = ["x", 2.5, 7, True, None, [1], {"a": 1}]       # one of each JSON type


def shrink(node):
    """``node`` cut to test size: cells <= 64, seed ranges <= 4, levels [4, 5, 6], small meshes
    and an RK4 oracle step of 1e-3."""
    if isinstance(node, list):
        return [shrink(value) for value in node]
    if not isinstance(node, dict):
        return node
    out = {}
    for key, value in node.items():
        if key in LIMITS and isinstance(value, int):
            value = min(value, LIMITS[key])
        elif key == "seeds" and isinstance(value, str):
            lo, hi = map(int, value.split(".."))
            value = f"{lo}..{min(hi, lo + 4)}"
        elif key == "levels":
            value = [4, 5, 6]
        elif key == "dt":
            value = max(value, 1e-3)
        out[key] = shrink(value)
    return out


def load(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return shrink(json.load(fh))


def key_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))


def test_readme_tables_the_exit_codes():
    assert EXIT_CODES == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("name", NAMES)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_mutated_config_exits_with_a_documented_code(name, data, tmp_path_factory):
    doc = load(name)
    path = data.draw(st.sampled_from(sorted(key_paths(doc))))
    action = data.draw(st.sampled_from(["drop", "rename", "retype", "graft"]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "drop":
        del parent[key]
    elif action == "rename":
        parent[key + "_renamed"] = parent.pop(key)
    elif action == "graft":
        other, block = data.draw(st.sampled_from(
            [(other, block) for other in NAMES for block in load(other) if block not in doc]))
        doc[block] = load(other)[block]
    else:
        parent[key] = data.draw(st.sampled_from(
            [v for v in VALUES if type(v) is not type(parent[key])]))

    root = tmp_path_factory.mktemp("mutated")
    config, out = root / "config.json", root / "out"
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(str(config), out_dir=str(out))
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
    assert (out / "run_manifest.json").exists() == (code != 2)


def refuse(*args, **kwargs):
    raise AssertionError("a run path reached dense linear algebra or adaptive quadrature")


@pytest.mark.parametrize("name, kernel", [(name, None) for name in NAMES] + [
    ("solve_rough_fbm.json", {"density": {"name": "exp"}})])
def test_runs_reach_no_lapack(name, kernel, tmp_path, monkeypatch):
    doc = load(name)
    if kernel is not None:
        doc["kernel"] = kernel
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))

    def outcome(out):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(str(config), out_dir=str(out))
        return code, json.loads((out / "run_manifest.json").read_text())["checks"]

    with monkeypatch.context() as patch:        # first, so nothing is cached yet
        for fn in dir(np.linalg):
            value = getattr(np.linalg, fn)
            if callable(value) and not isinstance(value, type) and fn[0] != "_" and fn != "norm":
                patch.setattr(np.linalg, fn, refuse)
        for fn in dir(scipy.linalg):             # scipy's eigen solvers
            if fn.startswith("eig"):
                patch.setattr(scipy.linalg, fn, refuse)
        patch.setattr(np, "polyfit", refuse)
        patch.setattr(np.polynomial.legendre, "leggauss", refuse)
        patch.setattr(scipy.special, "roots_genlaguerre", refuse)
        patch.setattr(scipy.special, "roots_laguerre", refuse)
        if kernel is not None:      # nor adaptive quadrature, however a module bound quad
            patch.setattr(scipy.integrate, "quad", refuse)
            for fn in ("_quad", "_quad_weight"):        # what every quad call goes through
                patch.setattr(scipy.integrate._quadpack_py, fn, refuse)
        guarded = outcome(tmp_path / "guarded")
    assert guarded == outcome(tmp_path / "free")


def run_doc(doc, out):
    """``doc`` run into ``out``: its exit code, its CSVs' bytes and its manifest."""
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps(doc))
    code = run(str(config), out_dir=str(out))
    csvs = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    return code, csvs, json.loads((out / "run_manifest.json").read_text())


@pytest.mark.parametrize("name", NAMES)
def test_manifest_config_reruns_the_run(name, tmp_path):
    # the manifest's config, the document with SCHEMA's defaults filled in, is the run it records
    code, csvs, manifest = run_doc(load(name), tmp_path / "raw")
    again, csvs_again, manifest_again = run_doc(manifest["config"], tmp_path / "filled")
    assert csvs and (again, csvs_again) == (code, csvs)
    assert json.dumps(manifest_again["checks"]) == json.dumps(manifest["checks"])
    assert manifest_again["config"] == manifest["config"]       # filling in is idempotent


def test_a_schema_default_reaches_the_run_and_the_manifest(tmp_path, monkeypatch):
    row = cli.SCHEMA["driver.horizon"]
    monkeypatch.setitem(cli.SCHEMA, "driver.horizon", row[:2] + (2.0,) + row[3:])
    doc = load("solve_young_sin.json")
    assert "horizon" not in doc["driver"]
    _, csvs, manifest = run_doc(doc, tmp_path / "out")
    assert csvs["solution.csv"].splitlines()[-1].split(b",")[0] == b"2"
    assert manifest["config"]["driver"]["horizon"] == 2.0
