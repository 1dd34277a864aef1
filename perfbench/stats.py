"""Arithmetic of the benchmark's reported figures (stdlib only)."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values):
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, beyond, n).  With n <= TAIL_BEYOND no
    percentile qualifies and the maximum is reported (percentile 100,
    nothing beyond it), so the record always states what it is.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n      # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / n, n - rank, n


def best_per_job(job_s):
    """Each job's fastest pass; ``job_s`` holds one list of pass times per job."""
    if not job_s or not all(job_s):
        raise ValueError("every job needs at least one timed pass")
    return [min(times) for times in job_s]


def trace_overhead(pairs):
    """Median over (untraced, traced) wall-time pairs of traced / untraced - 1.

    Each pair is run back to back, so a change of host speed between pairs
    does not enter the ratio.
    """
    if not pairs:
        raise ValueError("no pairs")
    return statistics.median(traced / base - 1.0 for base, traced in pairs)


def fail_ratio(exit_codes, check_failures):
    """Failed jobs over attempted jobs, and the failed count.

    A job fails on a nonzero exit code, an exception (exit code None) or a
    failed output check (a non-empty message in ``check_failures``).
    """
    if len(exit_codes) != len(check_failures):
        raise ValueError("one check result per job required")
    if not exit_codes:
        raise ValueError("no jobs attempted")
    failed = sum(
        1 for rc, msg in zip(exit_codes, check_failures) if rc != 0 or msg
    )
    return failed / len(exit_codes), failed


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")
