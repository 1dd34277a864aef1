"""Discrete increment calculus on a time grid.

Paths sampled on a grid, the exponentially twisted coboundary ``delta~``
(the plain coboundary ``delta`` at frequency 0) with its twist factor, the
L_beta norm and an empirical Holder-exponent estimator, which the sewing
and solver layers are built on.

Everything here is a pure function of immutable inputs.  Increments are
arrays: a path is indexed by grid point, a 1-increment by a pair of grid
points, and ``delta_tilde`` is evaluated on arrays of grid indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "twist",
    "delta_tilde",
    "exp_scan",
    "exp_scan_blocks",
    "lbeta_norm",
    "fit_line",
    "estimate_holder_exponent",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times on [0, T], starting at 0."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("time grid needs at least 2 points")
        if pts[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.isfinite(pts)):
            raise ValueError("time grid must be finite")

    def __len__(self) -> int:
        return self.points.size

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.points)

    @classmethod
    def uniform(cls, n_cells: int, horizon: float = 1.0) -> "TimeGrid":
        return cls(np.linspace(0.0, horizon, n_cells + 1))

    def cell_of(self, times):
        """Index i of the cell [points[i], points[i+1]) holding each time, clipped to the grid."""
        return np.clip(np.searchsorted(self.points, times, side="right") - 1, 0, len(self) - 2)


def twist(xi, s, t):
    """Twist factor a_ts(xi) = exp(-xi (t - s)) - 1, in (-1, 0].

    Accepts scalars or broadcastable arrays.
    """
    xi = np.asarray(xi, dtype=float)
    dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be >= 0")
    if np.any(dt < 0):
        raise ValueError("need s <= t")
    out = np.expm1(-xi * dt)
    return out if out.ndim else float(out)


def _decay(points, xis, i, j, extra_ndim):
    # exp(-xi (t_j - t_i)) shaped (index..., atom, 1...) to broadcast over value axes
    fac = np.exp(-np.multiply.outer(points[j] - points[i], xis))
    return fac.reshape(fac.shape + (1,) * extra_ndim)


def delta_tilde(points, xis, h, *idx):
    """Twisted coboundary: delta minus multiplication by the twist factor.

    With two index arrays (i, j), ``h`` is a per-atom path indexed
    (grid point, atom, ...) and the result is, at s = points[i],
    t = points[j]:  (delta~ h)_{ts}(xi) = h_t(xi) - exp(-xi(t-s)) h_s(xi).
    With three index arrays (i, j, k), ``h`` is a per-atom 1-increment
    tabulated as h[a, b] = h_{points[b] points[a]} (indexed (grid point,
    grid point, atom, ...)) and the result is, at s, u, t = points[i],
    points[j], points[k]:
      (delta~ h)_{tus}(xi) = h_{ts}(xi) - h_{tu}(xi) - exp(-xi(t-u)) h_{us}(xi).
    Index arrays (or slices) broadcast against each other; the result is indexed
    (index..., atom, ...).  Atoms with xi = 0 give the plain delta.
    """
    points = np.asarray(points, dtype=float)
    xis = np.asarray(xis, dtype=float)
    h = np.asarray(h, dtype=float)
    if np.any(xis < 0):
        raise ValueError("Laplace frequencies must be >= 0")
    if len(idx) == 2:
        i, j = idx
        return h[j] - _decay(points, xis, i, j, h.ndim - 2) * h[i]
    if len(idx) == 3:
        i, j, k = idx
        return h[i, k] - h[j, k] - _decay(points, xis, j, k, h.ndim - 3) * h[i, j]
    raise TypeError("delta_tilde takes two index arrays (a path) or three (a 1-increment)")


SCAN_MAX_EXPONENT = 30.0     # xi (t_end - t_start) of a block at the largest xi, at most
SCAN_BLOCK = 256             # steps per block at most; bounds the temporaries


def exp_scan_blocks(points, xis, germ, init):
    """The twisted scan of ``exp_scan``, one block at a time: yields (b, e,
    r[b+1 : e+1]) for consecutive blocks covering the len(points) - 1 steps.

    ``germ(b, e)`` returns the block's increments g[b:e], indexed (step,
    atom, ...), so a caller can build them and keep what it needs of each
    block, never the whole path.  Blocks hold at most ``SCAN_BLOCK`` steps
    and span at most ``SCAN_MAX_EXPONENT`` at the largest xi; with weights
    v_p = exp(-xi (t_e - t_p)) in [e^-30, 1] on block [t_b, t_e],
    r_q = exp(-xi (t_q - t_b)) r_b + sum_{b<=p<q} v_{p+1} g_p / v_q.
    A single step longer than the bound is a block of its own (v = 1).
    The next block starts from a yielded block's last row, so the caller
    must not change it.
    """
    points = np.asarray(points, dtype=float)
    xis = np.asarray(xis, dtype=float)
    if (xis < 0).any():
        raise ValueError("Laplace frequencies must be >= 0")
    rate = xis.max(initial=0.0)
    reach = SCAN_MAX_EXPONENT / rate if rate > 0 else np.inf
    n_steps = points.size - 1
    last = init
    b = 0
    while b < n_steps:
        e = int(np.searchsorted(points, points[b] + reach, side="right")) - 1
        e = min(max(e, b + 1), b + SCAN_BLOCK, n_steps)
        g = np.asarray(germ(b, e), dtype=float)
        extra = g.ndim - 2
        v = _decay(points, xis, slice(b + 1, e + 1), e, extra)
        blk = g * v
        del g                                  # free the germ before the next temporaries
        np.cumsum(blk, axis=0, out=blk)
        blk /= v
        del v
        blk += _decay(points, xis, b, slice(b + 1, e + 1), extra) * last
        yield b, e, blk
        last = blk[-1]
        b = e


def exp_scan(points, xis, g, init):
    """Twisted scan, inverting consecutive ``delta_tilde``: the path r with r_0 =
    init and r_{p+1} = exp(-xi (t_{p+1} - t_p)) r_p + g_p, t = ``points``.

    ``g`` is indexed (step, atom, ...), ``init`` (atom, ...) or a scalar,
    the result (grid point, atom, ...).  A blocked prefix sum, the blocks
    of ``exp_scan_blocks`` written into one array.
    """
    g = np.asarray(g, dtype=float)
    out = np.empty((g.shape[0] + 1,) + g.shape[1:])
    out[0] = init
    for b, e, blk in exp_scan_blocks(points, xis, lambda b, e: g[b:e], out[0]):
        out[b + 1 : e + 1] = blk
    return out


def lbeta_norm(vals, measure, beta: float):
    """Quadrature L_beta norms sum_k |w_k| (1 + xi_k^beta) ||g(xi_k)|| of
    (..., K, d) arrays, one per leading index: (...)."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    w = np.abs(measure.weights) * (1.0 + measure.xis**beta)
    norms = np.sqrt(np.sum(np.asarray(vals, dtype=float) ** 2, axis=-1))
    return norms @ w


def fit_line(x, y):
    """Least-squares line through the points (x, y): returns (slope, RMS residual).

    Closed form on centred data, slope = sum x~ y~ / sum x~^2, so no
    linear-algebra library is reached for a handful of points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("a line fit needs at least two distinct x values")
    slope = float(xc @ yc) / sxx
    return slope, float(np.sqrt(np.mean((yc - slope * xc) ** 2)))


def estimate_holder_exponent(grid: TimeGrid, values):
    """Empirical Holder exponent of a path sampled on ``grid``.

    Least-squares slope (``fit_line``) of log median|increment| against log
    lag over dyadic lags.  Returns (exponent, residual) where residual is
    the RMS misfit of the regression.  Raises on (near-)constant paths,
    whose exponent is undefined.
    """
    n = len(grid)
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != n:
        raise ValueError("values must have one entry per grid point")
    if n < 32:
        raise ValueError("need at least 32 grid points")
    vals = vals.reshape(n, -1)
    scale = np.max(np.abs(vals - vals[0]))
    if scale == 0.0:
        raise ValueError("constant path has no defined Holder exponent")
    # short lags only: long-lag medians are too noisy to help the fit
    j_max = max(min(int(np.log2(n - 1)) - 2, 5), 1)
    lags, meds = [], []
    pts = grid.points
    for j in range(j_max + 1):
        lag = 2**j
        if lag >= n:
            break
        diffs = np.linalg.norm(vals[lag:] - vals[:-lag], axis=1)
        med = float(np.median(diffs))
        if med <= 0.0:
            continue
        lags.append(float(np.median(pts[lag:] - pts[:-lag])))
        meds.append(med)
    if len(lags) < 3:
        raise ValueError("not enough usable lags to fit an exponent")
    return fit_line(np.log(lags), np.log(meds))
