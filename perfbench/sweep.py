"""Run the benchmark over several seeds per workload and summarise it.

    python3 perfbench/sweep.py [--out perfbench/baseline.json]

For every workload in BENCHMARK.json: SEEDS untraced runs on the seeds
1, 2, ..., each of ``run_seconds``, then one traced run on seed 1.
Prints, per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)``, their distance as a share of the
median and that share over the metric's bound in BENCHMARK.json; with
``--out`` also writes every value and the traced run's per-layer metrics
as JSON.  Exits 1 when any run fails or reports incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402

SEEDS = 10


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    tagged = {ln.split(": ", 1)[0]: json.loads(ln.split(": ", 1)[1])
              for ln in lines if ln.startswith(("environment: ", "all metrics: "))}
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None, None, tagged.get("environment")
    return json.loads(lines[-1]), tagged["all metrics"], tagged["environment"]


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values, envs = {}, []
        for seed in range(1, 1 + SEEDS):
            res, every, env = _run(workload, seed, seconds, 0)
            envs.append(env)
            if res is None or not res["correct"]:
                ok = False
                print(f"{workload} seed {seed}: failed", flush=True)
                continue
            for name, value in every.items():
                values.setdefault(name, []).append(value)
        summary = {}
        print(f"{workload}: seeds 1 to {SEEDS}", flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, share = stats.spread(vals)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                             "values": vals}
            bound = bounds.get(name)
            rel = f"{share / bound:6.2f} of bound {bound}" if bound else "(not gated)"
            print(f"  {name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {share:7.4f}  {rel}", flush=True)
        res, _, _ = _run(workload, 1, seconds, 1)
        if res is None or not res["correct"]:
            ok = False
            print(f"{workload} seed 1: traced run failed", flush=True)
        per_layer = {k: m["value"] for k, m in res["metrics"].items()} if res else {}
        if per_layer.get("bench.trace_overhead", 0.0) < 0:
            # the wrappers cost less than the host's speed changes between
            # neighbouring processes; a negative cost is no baseline
            per_layer["bench.trace_overhead"] = None
        doc["workloads"][workload] = {"end_to_end": summary, "per_layer": per_layer}
        doc["environment"] = next((e for e in envs if e), None)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
