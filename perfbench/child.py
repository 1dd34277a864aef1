"""One benchmark process: set-up, the timed job list, then output checks.

Started by ``run.py`` as ``python -m perfbench.child`` in a fresh process
with BLAS pinned to one thread.  The third-party modules the library
imports (DEPENDENCIES) are loaded first and not timed: their import time
reads site-packages from disk and is no work of this repository.  Set-up
time starts after them and covers importing ``roughvolterra``, generating
the configs and the ``sample_fbm`` warm-ups.  Modes:

- ``setup``: set-up only; reports setup_s.
- ``run``:   set-up, then timed passes over the job list through
  ``cli.run``, one job at a time, tracing off, until ``--seconds`` have
  passed (at least MIN_PASSES passes); then the output checks.
- ``base``:  as ``run`` with MIN_PASSES passes, the untraced side of the
  tracing overhead.
- ``trace``: as ``base``, with span wrappers installed before the warm-up;
  also reports the per-layer metrics of one pass and writes the spans as
  JSONL.

The result is written as JSON to ``--result``.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback

DEPENDENCIES = ("numpy", "scipy", "scipy.integrate", "scipy.special")
MIN_PASSES = 2


def _versions(np):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0, help="time to measure (run mode)")
    p.add_argument("--mode", choices=("setup", "run", "base", "trace"), required=True)
    p.add_argument("--dir", required=True, help="scratch directory of this process")
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None, help="JSONL file for the spans (trace mode)")
    args = p.parse_args(argv)

    for name in DEPENDENCIES:
        importlib.import_module(name)
    np = sys.modules["numpy"]

    t0 = time.perf_counter()
    import roughvolterra
    from roughvolterra import TimeGrid, cli

    from perfbench import checks, layers, workloads
    from perfbench.tracer import Tracer

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        layers.install(tracer)
        tracer.enabled = True
    os.makedirs(args.dir, exist_ok=True)
    plan = workloads.build(args.workload, args.seed, args.dir)
    for hurst, cells in plan.warmups:
        roughvolterra.sample_fbm(hurst, TimeGrid.uniform(cells, 1.0), seed=workloads.WARMUP_SEED)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "versions": _versions(np)}
    if args.mode == "setup":
        _write(args.result, result)
        return 0

    exit_codes = [0] * len(plan.jobs)
    job_s = [[] for _ in plan.jobs]          # per job, one time per pass
    start = time.perf_counter()
    passes = 0
    while True:
        passes += 1
        for i, job in enumerate(plan.jobs):
            if tracer is not None:
                tracer.request = f"job{i}"
            t = time.perf_counter()
            try:
                rc = cli.run(job.config_path, out_dir=job.out_dir, checks_filter=job.checks)
            except Exception:
                traceback.print_exc()
                rc = None
            job_s[i].append(time.perf_counter() - t)
            if rc != 0:
                exit_codes[i] = rc
        if passes >= MIN_PASSES and (
                args.mode != "run" or time.perf_counter() - start >= args.seconds):
            break
    if tracer is not None:
        tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        messages = checks.check_jobs(plan, exit_codes)
    except Exception:
        traceback.print_exc()
        messages = ["output check raised"] * len(plan.jobs)
    result.update(
        job_s=job_s, exit_codes=exit_codes, check_messages=messages,
        peak_rss_mb=peak_rss_mb, work=plan.work, work_unit=plan.work_unit,
    )
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, passes)
        if args.spans:
            tracer.write_spans(args.spans)
    _write(args.result, result)
    return 0


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
