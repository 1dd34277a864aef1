"""Tests of the benchmark's own arithmetic and tracing (no library runs)."""

import json
import statistics
import types
from pathlib import Path

import pytest

from perfbench import layers, stats, tracer as tr


def _span(name, parent, start, end, request="job0"):
    return (name, parent, start, end, request)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", -1, 0, 100),
        _span("b", 0, 10, 50),        # child of a
        _span("c", 1, 20, 30),        # child of b, grandchild of a
        _span("b", 0, 60, 70),        # second call of b
        _span("d", -1, 200, 205, request="setup"),
    ]
    got = tr.self_times(spans, include=lambda s: s[4] != "setup")
    assert got == {"a": [1, 100 - 40 - 10], "b": [2, (40 - 10) + 10], "c": [1, 10]}
    assert sum(v[1] for v in got.values()) == 100     # self times add up to the root


def test_calls_under_walks_every_ancestor():
    spans = [
        _span("solve", -1, 0, 10),
        _span("sweep", 0, 1, 9),
        _span("tables", 1, 2, 3),     # under solve through sweep
        _span("tables", -1, 20, 21),  # outside any solve
    ]
    assert tr.calls_under(spans, "tables", "solve") == 1


def test_wrapper_records_spans_counts_and_passes_through_when_disabled():
    t = tr.Tracer()

    def inner(x):
        return x + 1

    traced_inner = t.wrap("inner", inner, lambda tc, a, kw, r: tc.count("seen", r))
    outer = t.wrap("outer", lambda x: traced_inner(x) * 2)
    assert outer(1) == 4 and t.spans == []            # disabled: no spans
    t.enabled = True
    t.request = "job0"
    assert outer(1) == 4
    assert [(s[0], s[1]) for s in t.spans] == [("outer", -1), ("inner", 0)]
    assert t.job_counts() == {"seen": 2}


def test_rebind_replaces_every_binding_and_finds_leftovers():
    def f():
        return 1

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    home.f = user.f = user.alias = f
    assert tr.unwrapped_bindings([home, user], [f]) == ["home.f", "user.f", "user.alias"]
    wrapped = tr.Tracer().wrap("f", f)
    assert tr.rebind([home, user], f, wrapped) == 3
    assert tr.unwrapped_bindings([home, user], [f]) == []
    assert tr.is_traced(user.alias)


def test_layer_metrics_are_per_pass_and_yield_counts_tables_inside_solves():
    t = tr.Tracer()
    t.spans = [_span("lift.sample_fbm", -1, 0, 5, request=tr.SETUP)]   # cold warm-up
    for p in range(2):                                                  # two passes
        solve = len(t.spans)
        t.spans += [
            _span("solver.solve_rough", -1, 100 * p, 100 * p + 50),
            _span("lift.cell_tables", solve, 100 * p + 10, 100 * p + 20),
            _span("lift.cell_tables", solve, 100 * p + 30, 100 * p + 40),
        ]
        t.request = f"job{p}"
        t.count("solver.intervals", 1)
        t.count("solver.picard_iterations", 4)
    t.spans.append(_span("lift.cell_tables", -1, 300, 310))            # outside a solve
    got = layers.layer_metrics(t, passes=2)
    assert got["solver.solve_rough.calls"] == 1 and got["lift.cell_tables.calls"] == 2.5
    assert got["solver.solve_rough.self_s"] == pytest.approx(30e-9)
    assert got["solver.intervals"] == 1 and got["solver.picard_iterations"] == 4
    assert got["solver.interval_yield"] == pytest.approx(0.5)          # 2 of 4 in solves
    assert got["lift.sample_fbm.first_s"] == pytest.approx(5e-9)
    assert got["lift.sample_fbm.calls"] == 0                           # set-up excluded


@pytest.mark.parametrize(
    "n, rank",
    [(24, 14), (11, 1), (100, 90), (10, 10), (1, 1)],
)
def test_tail_has_ten_jobs_beyond_it(n, rank):
    values = [float(v) for v in range(n, 0, -1)]      # unsorted input
    value, pct, beyond, count = stats.tail(values)
    assert value == float(rank)
    assert count == n and beyond == n - rank
    assert pct == pytest.approx(100.0 * rank / n)
    if n > stats.TAIL_BEYOND:
        assert beyond == stats.TAIL_BEYOND
    else:                                             # no percentile qualifies: the max
        assert beyond == 0 and value == max(values)


def test_best_per_job_keeps_each_jobs_fastest_pass():
    assert stats.best_per_job([[0.5, 0.3, 0.4], [1.0, 1.2, 0.9]]) == [0.3, 0.9]
    assert stats.best_per_job([[2.0]]) == [2.0]
    with pytest.raises(ValueError):
        stats.best_per_job([[0.1], []])


def test_trace_overhead_is_the_median_of_per_pair_ratios():
    pairs = [(1.0, 1.1), (2.0, 2.4), (1.0, 0.9)]       # +10%, +20%, -10%
    assert stats.trace_overhead(pairs) == pytest.approx(0.1)
    assert stats.trace_overhead([(2.0, 3.0), (1.0, 1.2)]) == pytest.approx(0.35)


def test_fail_ratio_counts_exit_codes_exceptions_and_checks():
    ratio, failed = stats.fail_ratio([0, 1, None, 0, 0], ["", "", "", "bad y", ""])
    assert failed == 3 and ratio == pytest.approx(3 / 5)
    assert stats.fail_ratio([0, 0], ["", ""]) == (0.0, 0)
    with pytest.raises(ValueError):
        stats.fail_ratio([0], [])


def test_spread_matches_statistics_quantiles():
    vals = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    med, q1, q3, share = stats.spread(vals)
    eq1, _, eq3 = statistics.quantiles(vals, n=4)
    assert (med, q1, q3) == (statistics.median(vals), eq1, eq3)
    assert share == pytest.approx((eq3 - eq1) / med)


def test_benchmark_json_lists_exactly_the_reported_layer_metrics():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert declared == layers.per_layer_metrics()
    for workload, required in layers.REQUIRED.items():
        assert workload in [w["name"] for w in bench["workloads"]]
        assert set(required) <= set(layers.SPAN_NAMES)
