"""Benchmark of the roughvolterra CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the library is imported from
``src/`` (there is nothing to build).  Each job is a generated config run
through the public ``cli.run`` entry point, one job at a time (a closed
loop with one client), in a fresh child process with BLAS pinned to one
thread.

``--trace 0`` reports the end-to-end metrics: RUN_PROCESSES processes
each time passes over the job list for their share of ``--seconds``, and
each job's fastest pass counts; set-up is timed in them and in set-up-only
processes between them, and reported as the median.  ``--trace 1`` reports the per-layer metrics: TRACE_PAIRS
pairs of an untraced and a traced process on the same seed, each with two
passes over the job list; the traced ones must repeat every count exactly.
Outputs are checked after the timed region;
the last line of standard output is the JSON result, and the exit code
is 1 when any check fails.  Scratch files live under ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers, stats, workloads  # noqa: E402

RUN_PROCESSES = 2
TRACE_PAIRS = 2
BLAS_THREADS = 1
RUN_BUDGET_S = 170.0     # every child together; the run must end within 180 s
OUT = ROOT / ".bench_out"


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, mode, run_dir, tag, deadline, seconds=0.0, spans=None):
    result = run_dir / f"{tag}.json"
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode,
        "--dir", str(run_dir / tag), "--result", str(result),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time budget spent before the {tag} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=sys.stderr,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} process exceeded the time budget") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{tag} process exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _environment(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return dict(versions, blas_threads=BLAS_THREADS, nproc=os.cpu_count(),
                cpu=cpu, platform=platform.platform())


def _failures(results):
    exit_codes = [rc for r in results for rc in r["exit_codes"]]
    messages = [m for r in results for m in r["check_messages"]]
    return exit_codes, messages


def end_to_end(args, run_dir, deadline):
    # set-up-only processes alternate with the timed ones, so the set-up
    # samples and each job's passes are spread over the whole run
    setups, runs = [], []
    for i in range(RUN_PROCESSES):
        setups.append(_child(args, "setup", run_dir, f"setup{i}", deadline)["setup_s"])
        runs.append(_child(args, "run", run_dir, f"run{i}", deadline,
                           seconds=args.seconds / RUN_PROCESSES))
        setups.append(runs[-1]["setup_s"])
    setups.append(_child(args, "setup", run_dir, f"setup{RUN_PROCESSES}", deadline)["setup_s"])
    job_s = [sum(times, []) for times in zip(*(r["job_s"] for r in runs))]
    best = stats.best_per_job(job_s)
    wall_s = sum(best)
    n, passes = len(best), len(job_s[0])
    ratio, failed = stats.fail_ratio(*_failures(runs))
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh processes"),
        "wall_s": (wall_s, "s", f"{n} jobs, each at its fastest of {passes} passes"),
        "throughput": (runs[0]["work"] / wall_s, "1/s",
                       f"{runs[0]['work']:g} {runs[0]['work_unit']} per pass"),
        "job_p50_s": (statistics.median(best), "s", f"{n} jobs"),
    }
    if args.workload.startswith("solve"):
        tail_s, tail_p, beyond, _ = stats.tail(best)
        metrics["job_tail_s"] = (tail_s, "s",
                                 f"p{tail_p:.1f} of {n} jobs, {beyond} beyond it")
    metrics["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in runs), "MB",
                              "largest ru_maxrss of the timed processes")
    notes = [f"fail_ratio {ratio:g} ({failed} of {RUN_PROCESSES * n} job runs failed)"]
    return metrics, runs, runs[0]["versions"], notes, []


def per_layer(args, run_dir, deadline):
    # untraced and traced processes alternate, so each overhead ratio
    # compares two neighbours in time
    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    bases, traced = [], []
    for i in range(TRACE_PAIRS):
        bases.append(_child(args, "base", run_dir, f"base{i}", deadline))
        traced.append(_child(args, "trace", run_dir, f"trace{i}", deadline,
                             spans=trace_dir / f"{args.workload}-seed{args.seed}-{i}.jsonl"))
    first, second = (t["layers"] for t in traced[:2])
    gates = [f"count gate: {name} is {first[name]} then {second[name]}"
             for name in layers.EXACT_METRICS if first[name] != second[name]]
    gates += [f"binding gate: {span} recorded no call on {args.workload}"
              for span in layers.REQUIRED[args.workload] if first[f"{span}.calls"] == 0]
    metrics = {}
    for name, unit in layers.per_layer_metrics():
        if name == "bench.trace_overhead":
            pairs = [(sum(stats.best_per_job(b["job_s"])), sum(stats.best_per_job(t["job_s"])))
                     for b, t in zip(bases, traced)]
            metrics[name] = (stats.trace_overhead(pairs), unit,
                             f"traced over untraced wall_s, median of {len(pairs)} pairs")
        else:
            metrics[name] = (statistics.median(t["layers"][name] for t in traced), unit, "")
    notes = []
    if metrics["bench.trace_overhead"][0] < 0:
        notes.append("bench.trace_overhead is negative: the host's speed changed more "
                     "between neighbouring processes than the wrappers cost")
    return metrics, bases + traced, bases[0]["versions"], notes, gates


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "roughvolterra" / "cli.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, results, versions, notes, gates = measure(args, run_dir, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    exit_codes, messages = _failures(results)
    _, failed = stats.fail_ratio(exit_codes, messages)
    notes += gates + [f"job {i}: {msg}" for i, msg in enumerate(messages) if msg]
    correct = failed == 0 and not gates
    env = _environment(versions)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, (value, unit, note) in metrics.items():
        extra = "" if name in gated else "  (printed only, not in BENCHMARK.json)"
        print(f"  {name:40s} {value:>14.6g} {unit:6s} {note}{extra}")
    for note in notes:
        print(f"  {note}")
    print("all metrics: " + json.dumps({k: v for k, (v, _, _) in metrics.items()}))
    print("environment: " + json.dumps(env, sort_keys=True))
    doc = {
        "correct": correct,
        "attempted": len(exit_codes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                    if k in gated},
    }
    print(json.dumps(doc))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
