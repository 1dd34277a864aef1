"""Which library functions are traced, and the per-layer metrics built from them.

Each entry of TARGETS is (module, attribute path, span name).  Functions
are rebound at every ``roughvolterra`` module attribute that holds them
(``cli.sample_fbm`` as well as ``lift.sample_fbm``, ``lift.e0``,
``solver.compensated_sum_tilde``, the package re-exports, ...); methods
are replaced on their class; ``SigmaField.batch`` and ``dsigma_batch``
are per-instance callables, wrapped as each field is constructed.
"""

from __future__ import annotations

import importlib
import sys

from perfbench import tracer as tr

TARGETS = (
    ("cli", "run", "cli.run"),
    ("cli", "emit_csv", "cli.emit_csv"),
    ("solver", "solve_rough", "solver.solve_rough"),
    ("lift", "sample_fbm", "lift.sample_fbm"),
    ("lift", "wiener_cov_x1", "lift.wiener_cov_x1"),
    ("lift", "RoughLift.__init__", "lift.RoughLift.init"),
    ("lift", "RoughLift.x1_tilde", "lift.x1_tilde"),
    ("lift", "RoughLift.x1_tilde_pairs", "lift.x1_tilde_pairs"),
    ("lift", "RoughLift.x2_tilde", "lift.x2_tilde"),
    ("lift", "RoughLift.x3_tilde", "lift.x3_tilde"),
    ("lift", "RoughLift.cell_tables", "lift.cell_tables"),
    ("oracles", "x3_tilde_riemann_fast", "oracles.x3_tilde_riemann_fast"),
    ("oracles", "subdivide", "oracles.subdivide"),
    ("oracles", "young_integral_simpson", "oracles.young_integral_simpson"),
    ("sewing", "compensated_sum_tilde", "sewing.compensated_sum_tilde"),
    ("sewing", "sewing_bound_check", "sewing.sewing_bound_check"),
    ("sewing", "c_mu", "sewing.c_mu"),
    ("algebra", "estimate_holder_exponent", "algebra.estimate_holder_exponent"),
    ("algebra", "delta_tilde", "algebra.delta_tilde"),
    ("expkernels", "e0", "expkernels.e0"),
    ("expkernels", "exp_int", "expkernels.exp_int"),
    ("expkernels", "ramp_int", "expkernels.ramp_int"),
    ("laplace", "kernel_from_spec", "laplace.kernel_from_spec"),
)
SIGMA_SPANS = ("sigma.batch", "sigma.dsigma_batch")
SPAN_NAMES = tuple(t[2] for t in TARGETS) + SIGMA_SPANS

# counts that are not span call counts: (name, unit)
EXTRA_METRICS = (
    ("solver.picard_iterations", "count"),
    ("solver.intervals", "count"),
    ("solver.interval_yield", "ratio"),
    ("lift.sample_fbm.first_s", "s"),
    ("oracles.mesh_points", "count"),
    ("sewing.levels", "count"),
    ("sewing.early_stop_ratio", "ratio"),
    ("cli.emit_csv.rows", "count"),
    ("cli.emit_csv.cells", "count"),
    ("bench.trace_overhead", "ratio"),
)

# metrics that a deterministic program repeats exactly for one seed
EXACT_METRICS = tuple(f"{s}.calls" for s in SPAN_NAMES) + tuple(
    name for name, unit in EXTRA_METRICS if unit != "s" and name != "bench.trace_overhead"
)

# layers each workload must reach; a traced run that records no call of
# one of them has lost a binding (or the workload no longer tests it)
REQUIRED = {
    "solve-k64": (
        "solver.solve_rough", "sigma.batch", "sigma.dsigma_batch", "lift.cell_tables",
        "lift.x1_tilde", "lift.RoughLift.init", "lift.sample_fbm", "expkernels.e0",
        "expkernels.ramp_int", "laplace.kernel_from_spec", "cli.run", "cli.emit_csv",
    ),
    "mc-ensemble": (
        "lift.sample_fbm", "lift.wiener_cov_x1", "expkernels.e0", "cli.run", "cli.emit_csv",
    ),
    "verify": (
        "solver.solve_rough", "lift.sample_fbm", "lift.x1_tilde", "lift.x1_tilde_pairs",
        "lift.x2_tilde", "lift.x3_tilde", "oracles.x3_tilde_riemann_fast",
        "oracles.subdivide", "oracles.young_integral_simpson",
        "sewing.compensated_sum_tilde", "sewing.sewing_bound_check", "sewing.c_mu",
        "algebra.estimate_holder_exponent", "algebra.delta_tilde", "expkernels.e0",
        "expkernels.exp_int", "expkernels.ramp_int", "cli.run", "cli.emit_csv",
    ),
}


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in reporting order."""
    out = []
    for span in SPAN_NAMES:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    return out + list(EXTRA_METRICS)


def _count_solve(tracer, args, kwargs, result):
    tracer.count("solver.intervals", len(result.diagnostics))
    tracer.count("solver.picard_iterations", sum(d.iterations for d in result.diagnostics))


def _count_csv(tracer, args, kwargs, result):
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    rows = len(columns[0][1]) if columns else 0
    tracer.count("cli.emit_csv.rows", rows)
    tracer.count("cli.emit_csv.cells", rows * len(columns))


def _count_sewing(tracer, args, kwargs, result):
    tracer.count("sewing.levels", len(result.sums))
    tracer.count("sewing.early_stops", int(result.stopped_early))


def _count_mesh(tracer, args, kwargs, result):
    tracer.count("oracles.mesh_points", len(result))


HOOKS = {
    "solver.solve_rough": _count_solve,
    "cli.emit_csv": _count_csv,
    "sewing.compensated_sum_tilde": _count_sewing,
    "oracles.subdivide": _count_mesh,
}


def _library_modules():
    importlib.import_module("roughvolterra.cli")
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "roughvolterra" or name.startswith("roughvolterra."))]


def install(tracer):
    """Wrap every target at every binding, then check that none was missed.

    Raises RuntimeError naming any binding left unwrapped.
    """
    modules = _library_modules()
    originals = []
    for mod_name, path, span in TARGETS:
        mod = sys.modules[f"roughvolterra.{mod_name}"]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(span, original, HOOKS.get(span)))
        else:
            original = getattr(mod, path)
            wrapped = tracer.wrap(span, original, HOOKS.get(span))
            if tr.rebind(modules, original, wrapped) == 0:
                raise RuntimeError(f"no binding of {mod_name}.{path} found")
        originals.append(original)

    sigma = sys.modules["roughvolterra.sigma"]
    field_init = sigma.SigmaField.__init__

    def traced_init(self, *args, **kwargs):
        field_init(self, *args, **kwargs)
        self.batch = tracer.wrap("sigma.batch", self.batch)
        self.dsigma_batch = tracer.wrap("sigma.dsigma_batch", self.dsigma_batch)

    sigma.SigmaField.__init__ = traced_init

    missed = tr.unwrapped_bindings(modules, originals)
    for mod_name, path, _ in TARGETS:
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(sys.modules[f"roughvolterra.{mod_name}"], cls_name)
            if not tr.is_traced(cls.__dict__[meth]):
                missed.append(f"roughvolterra.{mod_name}.{path}")
    probe = sigma.sigma_catalog("tanh")
    if not (tr.is_traced(probe.batch) and tr.is_traced(probe.dsigma_batch)):
        missed.append("roughvolterra.sigma.SigmaField.batch")
    if missed:
        raise RuntimeError(f"unwrapped bindings: {sorted(missed)}")


def layer_metrics(tracer, passes):
    """Per-layer metrics of one pass over the job list (set-up spans excluded).

    Calls, self times and counts are summed over the ``passes`` traced
    passes and divided by their number; the passes repeat the same jobs.
    ``solver.intervals`` and ``solver.picard_iterations`` are read from the
    diagnostics of each solution ``solve_rough`` returns, the rows and the
    ``iterations`` column its CLI writes to diagnostics.csv.
    ``bench.trace_overhead`` needs the untraced runs and is added by the caller.
    """
    spans = tracer.spans
    per_span = tr.self_times(spans, include=lambda s: s[4] != tr.SETUP)
    counts = tracer.job_counts()
    out = {}
    for span in SPAN_NAMES:
        calls, self_ns = per_span.get(span, (0, 0))
        out[f"{span}.calls"] = calls / passes
        out[f"{span}.self_s"] = self_ns / 1e9 / passes
    first = next((s for s in spans if s[0] == "lift.sample_fbm"), None)
    out["lift.sample_fbm.first_s"] = (first[3] - first[2]) / 1e9 if first else 0.0
    for name in ("solver.intervals", "solver.picard_iterations", "oracles.mesh_points",
                 "sewing.levels", "cli.emit_csv.rows", "cli.emit_csv.cells"):
        out[name] = counts[name] / passes
    in_solves = tr.calls_under(spans, "lift.cell_tables", "solver.solve_rough")
    out["solver.interval_yield"] = counts["solver.intervals"] / in_solves if in_solves else 0.0
    n_sums = per_span.get("sewing.compensated_sum_tilde", (0, 0))[0]
    out["sewing.early_stop_ratio"] = counts["sewing.early_stops"] / n_sums if n_sums else 0.0
    return out
