"""Dyadic sewing maps and compensated Riemann sums.

The sewing map is realised as the limit of explicit dyadic-partition
corrections; its exponentially weighted variant differs only by per-term
decay factors, so a single engine serves both (the plain map is the
weight-1 case, exactly).  Partitions are anchored to the requested
interval [s, t], not to any global grid; germ evaluation at off-grid
times is the germ's responsibility.

Summation within a level uses a fixed deterministic reduction order, so
results are bit-reproducible run to run on a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.special import zeta

from .algebra import delta_tilde

__all__ = [
    "SewingResult",
    "NotSewableError",
    "compensated_sum_tilde",
    "lambda_tilde_dyadic",
    "c_mu",
    "sewing_bound_check",
    "SewingBoundReport",
]

DEFAULT_MAX_LEVEL = 14
EARLY_STOP_ABS = 1e-12
EARLY_STOP_REL = 1e-10


class NotSewableError(RuntimeError):
    """Raised when level sums show no decay: the germ has no sewing limit."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass
class SewingResult:
    """Raw level-L sum plus convergence diagnostics.

    ``value`` (the raw sum at the deepest computed level) is the
    contractual output; ``extrapolated`` iterates guarded Richardson
    steps over the whole level sequence, which is the best available
    estimate of the sewing limit.
    """

    value: np.ndarray
    level: int
    sums: list = field(default_factory=list)
    diff_norms: list = field(default_factory=list)
    extrapolated: np.ndarray = None
    stopped_early: bool = False


def _decay_ratio(seq, window=4):
    """Consistent signed decay ratio of the tail differences, or None.

    Dyadic partitions make error terms geometric in half-powers of 2, so a
    fitted ratio close to one of those is snapped to it exactly (that is
    what lets a Richardson pass remove the term to its full depth).
    """
    diffs = [b - a for a, b in zip(seq[:-1], seq[1:])]
    ratios = []
    for a, b in zip(diffs[-window - 1 : -1], diffs[-window:]):
        den = float(np.sum(b * b))
        if den == 0.0:
            return None
        ratios.append(float(np.sum(a * b)) / den)
    if len(ratios) < 2:
        return None
    last = ratios[-1]
    if any(not np.isfinite(r) or r <= 1.05 for r in ratios):
        return None
    if abs(ratios[-2] / last - 1.0) > 0.25:
        return None
    snapped = 2.0 ** (round(2.0 * np.log2(last)) / 2.0)
    if snapped > 1.05 and abs(last / snapped - 1.0) < 0.06:
        return snapped
    return last


def _richardson_pass(seq, rho):
    return [b + (b - a) / (rho - 1.0) for a, b in zip(seq[:-1], seq[1:])]


def _extrapolate(sums, max_passes=2):
    """Guarded iterated Richardson over the level sums.

    Each pass removes the leading geometric error term using the median
    tail ratio; passes stop once the differences settle or stop decaying
    consistently.  On clean power-series errors this reproduces
    Romberg-quality limits; on rough germs the guard keeps it to the
    passes the data supports.
    """
    seq = [np.asarray(s, dtype=float) for s in sums]
    for _ in range(max_passes):
        if len(seq) < 4:
            break
        tail = float(np.linalg.norm(seq[-1] - seq[-2]))
        if tail <= EARLY_STOP_ABS + EARLY_STOP_REL * float(np.linalg.norm(seq[-1])):
            break
        rho = _decay_ratio(seq)
        if rho is None:
            break
        seq = _richardson_pass(seq, rho)
    return seq[-1]


def _weighted_level_sum(germ, xi, s, t, level):
    # np.sum's fixed pairwise reduction keeps this bit-reproducible
    pts = np.linspace(s, t, 2**level + 1)
    u, v = pts[:-1], pts[1:]
    vals = np.asarray(germ(u, v), dtype=float)
    if vals.shape[0] != u.size:
        raise ValueError("germ must return one value per partition cell")
    w = np.exp(-xi * (t - v)).reshape((u.size,) + (1,) * (vals.ndim - 1))
    return np.sum(w * vals, axis=0)


def compensated_sum_tilde(
    germ,
    xi: float,
    s: float,
    t: float,
    level: int = DEFAULT_MAX_LEVEL,
) -> SewingResult:
    """Exponentially weighted compensated Riemann sums of a germ over [s, t].

    ``germ(u, v)`` receives equal-length arrays of cell endpoints (u < v,
    consecutive cells of a dyadic partition) and returns one value per
    cell.  Levels 0..level are accumulated with per-term weights
    e^{-xi (t - v)}; iteration stops early once successive level sums
    settle, and raises NotSewableError after three consecutive level
    differences that fail to decrease.
    """
    if xi < 0:
        raise ValueError("xi must be >= 0")
    if not t > s:
        raise ValueError("need s < t")
    if level < 0:
        raise ValueError("level must be >= 0")
    sums, diff_norms = [], []
    bad_streak = 0
    stopped = False
    for n in range(level + 1):
        sums.append(_weighted_level_sum(germ, xi, s, t, n))
        if len(sums) >= 2:
            d = float(np.linalg.norm(sums[-1] - sums[-2]))
            if diff_norms and d >= diff_norms[-1] > 0:
                bad_streak += 1
                if bad_streak >= 3 and n >= 5:
                    res = _finish(sums, diff_norms + [d], n, stopped)
                    raise NotSewableError(
                        "germ not sewable: level differences are not decaying",
                        result=res,
                    )
            else:
                bad_streak = 0
            diff_norms.append(d)
            scale = float(np.linalg.norm(sums[-1]))
            if d <= EARLY_STOP_ABS or d <= EARLY_STOP_REL * scale:
                stopped = n < level
                break
    return _finish(sums, diff_norms, len(sums) - 1, stopped)


def _finish(sums, diff_norms, last_level, stopped):
    return SewingResult(
        value=sums[-1],
        level=last_level,
        sums=sums,
        diff_norms=diff_norms,
        extrapolated=_extrapolate(sums),
        stopped_early=stopped,
    )


def lambda_tilde_dyadic(b_pair, xi: float, s: float, t: float, level: int):
    """Level-n dyadic correction M~^n_{ts}(xi) of a 1-increment B.

    Piecewise value from the dyadic construction: B_{ts} minus the
    weighted telescoping sum of B over the level-n partition of (s, t).
    Converges to the twisted sewing map applied to delta~ B as the level
    grows (for germs of Holder order > 1); vanishes at every level when
    delta~ B = 0.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if xi < 0:
        raise ValueError("xi must be >= 0")
    whole = np.asarray(b_pair(np.array([s]), np.array([t])), dtype=float)[0]
    inner = _weighted_level_sum(b_pair, xi, s, t, level)
    return whole - inner


def c_mu(mu: float) -> float:
    """Sewing constant c_mu = 2 + 2^mu zeta(mu), for mu > 1."""
    if mu <= 1:
        raise ValueError("c_mu requires mu > 1")
    return 2.0 + 2.0**mu * float(zeta(mu))


@dataclass
class SewingBoundReport:
    satisfied: bool
    lhs_norm: float
    rhs_norm: float
    c_mu: float


def sewing_bound_check(
    b_pair,
    mu: float,
    rho: float,
    s: float = 0.0,
    t: float = 1.0,
    xi: float = 0.0,
    level: int = 10,
    n_probe: int = 9,
) -> SewingBoundReport:
    """Check the sewing contraction bound on a probe grid.

    Verifies  sup |M^level_{ts}| / (t-s)^mu  <=  c_mu * N[h; (rho, mu-rho)]
    where h = delta~ B of ``b_pair`` and the two-exponent norm puts rho on
    the inner gap.  Both sides are discrete suprema; the right side uses a
    finer probe set, so the check is conservative in the intended direction.
    """
    if mu <= 1:
        raise ValueError("sewing bound requires mu > 1")
    if not 0 < rho < mu:
        raise ValueError("need 0 < rho < mu")

    probe = np.linspace(s, t, n_probe)
    lhs = 0.0
    for i in range(n_probe):
        for j in range(i + 1, n_probe):
            m_val = lambda_tilde_dyadic(b_pair, xi, probe[i], probe[j], level)
            lhs = max(lhs, float(np.linalg.norm(m_val)) / (probe[j] - probe[i]) ** mu)

    # h = delta~ B on every ordered triple of the finer probe, from one table of B
    fine = np.linspace(s, t, 2 * n_probe - 1)
    u, v = np.triu_indices(fine.size, 1)
    vals = np.asarray(b_pair(fine[u], fine[v]), dtype=float)
    table = np.zeros((fine.size, fine.size) + vals.shape[1:])
    table[u, v] = vals
    i, j, k = np.array(list(combinations(range(fine.size), 3))).T
    h = delta_tilde(fine, [xi], table[:, :, None], i, j, k).reshape(i.size, -1)
    denom = (fine[j] - fine[i]) ** rho * (fine[k] - fine[j]) ** (mu - rho)
    rhs = float(np.max(np.linalg.norm(h, axis=1) / denom))

    c = c_mu(mu)
    return SewingBoundReport(
        satisfied=lhs <= c * rhs + 1e-14,
        lhs_norm=lhs,
        rhs_norm=rhs,
        c_mu=c,
    )
