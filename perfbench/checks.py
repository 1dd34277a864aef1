"""Output checks, run after the timed job list.

Each check returns one message per job, empty when the job's outputs are
correct.  The checks hold for any workload seed:

- solve jobs: ``solution.csv``'s y must match the explicit one-step
  recursion ytilde_{p+1} = e^{-xi h} ytilde_p + G_p(ytilde_p) within
  SOLVE_TOL.  G_p is built here from the public ``RoughLift.cell_tables``
  and ``SigmaField.batch``/``dsigma_batch``; the solver's Picard fixed
  point on each interval equals this recursion, because the germ on fine
  step p depends only on ytilde at step p.
- covariance and verify jobs: every manifest check passes.  The
  covariance job's ensemble values are also recomputed for three seeds
  through ``RoughLift.x1_tilde``, a second closed-form route.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

SOLVE_TOL = 1e-9
ENSEMBLE_TOL = 1e-10


def _manifest(job):
    path = os.path.join(job.out_dir, "run_manifest.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def explicit_y(cfg, driver_seeds):
    """y on the grid from the explicit recursion, batched over driver seeds:
    shape (len(driver_seeds), cells + 1, d)."""
    from roughvolterra import RoughLift, TimeGrid, kernel_from_spec, sample_fbm, sigma_catalog

    drv, solver = cfg["driver"], cfg["solver"]
    grid = TimeGrid.uniform(int(drv["cells"]), 1.0)
    measure = kernel_from_spec(cfg["kernel"])
    a = np.asarray(cfg["initial"], dtype=float)
    fld = sigma_catalog(cfg["sigma"]["name"], n=1, d=a.size, params=cfg["sigma"].get("params"))
    refine = 2 ** int(solver["sewing_level"])
    tables = [
        RoughLift(sample_fbm(float(drv["hurst"]), grid, seed=s), measure,
                  gamma=float(solver["gamma"])).cell_tables(refine)
        for s in driver_seeds
    ]
    x1t, x2t, decay = (np.stack([t[i] for t in tables]) for i in range(3))
    w = measure.weights
    yt = np.zeros((len(driver_seeds), measure.n_atoms, a.size))
    y = np.empty((len(driver_seeds), len(grid), a.size))
    y[:, 0] = a
    for c in range(len(grid) - 1):
        x1c, x2c, dc = x1t[:, c], x2t[:, c], decay[:, c, :, None]
        for _ in range(refine):
            yc = a[None, :] + np.einsum("k,bkd->bd", w, yt)
            z = fld.batch(yc)                                  # (b, n, d)
            ds = fld.dsigma_batch(yc)                          # (b, n, d, d)
            germ = np.einsum("bkn,bnd->bkd", x1c, z)
            germ += np.einsum("bkmj,bjq,bmiq->bki", x2c, z, ds)
            yt = dc * yt + germ
        y[:, c + 1] = a[None, :] + np.einsum("k,bkd->bd", w, yt)
    return y


def _check_solve(jobs, msgs):
    done = [i for i, m in enumerate(msgs) if not m]
    if not done:
        return
    ref = explicit_y(jobs[done[0]].config, [jobs[i].config["driver"]["seed"] for i in done])
    for b, i in enumerate(done):
        header, rows = _read_csv(os.path.join(jobs[i].out_dir, "solution.csv"))
        cols = [header.index(f"y_{j + 1}") for j in range(ref.shape[2])]
        y = np.array([[float(r[c]) for c in cols] for r in rows])
        if y.shape != ref[b].shape:
            msgs[i] = f"solution.csv has shape {y.shape}, expected {ref[b].shape}"
            continue
        err = float(np.max(np.abs(y - ref[b])))
        if not err <= SOLVE_TOL:
            msgs[i] = f"y differs from the explicit recursion by {err:.3e} > {SOLVE_TOL:g}"


def _check_manifest(job, manifest):
    wanted = job.checks or list(job.config["checks"])
    names = [c["name"] for c in manifest["checks"]]
    if sorted(names) != sorted(wanted):
        return f"manifest checks {names}, expected {wanted}"
    failed = [c["name"] for c in manifest["checks"] if not c["passed"]]
    return f"manifest checks failed: {failed}" if failed else ""


def _check_ensemble(job):
    from roughvolterra import KernelMeasure, RoughLift, TimeGrid, sample_fbm

    stat = job.config["stat"]
    lo, hi = (int(x) for x in stat["seeds"].split(".."))
    header, rows = _read_csv(os.path.join(job.out_dir, "ensemble.csv"))
    seeds = [int(r[header.index("seed")]) for r in rows]
    if seeds != list(range(lo, hi)):
        return "ensemble.csv seeds do not match the configured range"
    values = [float(r[header.index("value")]) for r in rows]
    grid = TimeGrid.uniform(int(stat["cells"]), 1.0)
    measure = KernelMeasure.from_atoms([(float(stat["xi"]), 1.0)])
    for k in (0, len(seeds) // 2, len(seeds) - 1):
        driver = sample_fbm(float(stat["hurst"]), grid, seed=seeds[k])
        ref = float(RoughLift(driver, measure, gamma=0.5).x1_tilde(0.0, 1.0)[0, 0])
        if not abs(values[k] - ref) <= ENSEMBLE_TOL * max(1.0, abs(ref)):
            return f"ensemble value of seed {seeds[k]} is {values[k]!r}, lift gives {ref!r}"
    return ""


def check_jobs(plan, exit_codes):
    """One message per job: empty when its outputs pass every check."""
    msgs = []
    for job, rc in zip(plan.jobs, exit_codes):
        if rc != 0:
            msgs.append(f"exit code {rc}")
            continue
        manifest = _manifest(job)
        if manifest is None:
            msgs.append("no run_manifest.json")
            continue
        msg = _check_manifest(job, manifest)
        if not msg and job.config["kind"] == "covariance-check":
            msg = _check_ensemble(job)
        msgs.append(msg)
    if plan.workload.startswith("solve"):
        _check_solve(plan.jobs, msgs)
    return msgs
