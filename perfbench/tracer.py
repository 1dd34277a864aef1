"""In-memory spans and counts, recorded by wrappers the benchmark installs.

The library is not edited: each traced function is replaced, at every
module attribute that binds it, by a wrapper that records a span (name,
parent span, start and end in perf_counter_ns, request id) while the
tracer is enabled, and calls straight through otherwise.  A layer's self
time is its span durations minus the parts covered by its child spans.
Stdlib only, so the arithmetic is testable without the library.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

SETUP = "setup"


class Tracer:
    """Span and counter collector; one per traced process."""

    def __init__(self):
        self.enabled = False
        self.request = SETUP
        self.spans = []              # (name, parent index or -1, start_ns, end_ns, request)
        self.counts = {}             # request -> Counter
        self._stack = []

    def count(self, name, k=1):
        self.counts.setdefault(self.request, Counter())[name] += k

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_return(tracer, args, kwargs, result)`` runs after a traced call
        returns, to record counts taken from the arguments or the result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, parent, start, end, tracer.request)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        traced.__bench_span__ = name
        return traced

    def job_counts(self):
        """Counters summed over every request except set-up."""
        total = Counter()
        for request, counter in self.counts.items():
            if request != SETUP:
                total.update(counter)
        return total

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, (name, parent, start, end, request) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "request": request,
                }) + "\n")


def is_traced(obj):
    return hasattr(obj, "__bench_span__")


def rebind(modules, original, replacement):
    """Replace every module attribute that is ``original``; returns how many."""
    n = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def unwrapped_bindings(modules, originals):
    """Module attributes that still bind one of ``originals`` directly."""
    ids = {id(fn) for fn in originals}
    return [
        f"{mod.__name__}.{attr}"
        for mod in modules
        for attr, value in vars(mod).items()
        if id(value) in ids
    ]


def self_times(spans, include=lambda span: True):
    """Per span name: [calls, self_ns] over the spans ``include`` accepts.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it on one thread.
    """
    child_ns = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for sid, span in enumerate(spans):
        if include(span):
            name, _, start, end, _ = span
            rec = out.setdefault(name, [0, 0])
            rec[0] += 1
            rec[1] += end - start - child_ns[sid]
    return out


def calls_under(spans, name, ancestor):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    n = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[1]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                n += 1
                break
            parent = spans[parent][1]
    return n
