"""Driver sampling and exact rough lifts of piecewise-linear paths.

Drivers (deterministic samples, fractional Brownian motion) are stored as
piecewise-linear paths on a time grid.  For such paths every
exponentially weighted iterated integral has a closed form per cell, so
the first-order lift, the weighted Levy-area analogue and the third-order
Chen defect are computed exactly (to round-off) on arbitrary pairs: each
is a sum over the cell pieces of [s, t], every piece decayed from its end
to t, and one walk evaluates it on whole arrays of pairs.

fBm is sampled exactly in law on uniform grids of any size.  A draw
embeds the Toeplitz increment covariance in a circulant of size 2n and
applies its symmetric square root to normals by real FFTs, O(n log n),
and a non-uniform grid is rejected.  Sampling uses counter-based Philox
streams keyed by the seed, so a fixed seed reproduces its path bit for
bit.  A list of seeds is an iterator of paths drawn from one eigenvalue
pass, one FFT sub-batch at a time, each sub-batch's normals, transform and
block of paths within DRAW_BYTES (256 KiB) and its paths read-only views of
that block.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from .algebra import exp_scan
from .expkernels import e0, exp_int, ramp_int
from .laplace import KernelMeasure

__all__ = [
    "DriverPath",
    "RoughLift",
    "sample_fbm",
    "deterministic_driver",
    "DETERMINISTIC_FUNCTIONS",
    "wiener_cov_x1",
]

DRAW_BYTES = 256 * 1024                   # one FFT sub-batch's normals, transform and paths
TABLE_BYTES = 64 * 1024                   # one cell_tables chunk's gathered (cells, K) factor


def _rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by the seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=int(seed))))


@dataclass(frozen=True)
class DriverPath:
    """Piecewise-linear driver: values (n_points, n_dims) on a time grid.

    ``values`` is a read-only view of the array given, not a copy, so paths
    drawn together share one block and cannot write to each other; the
    per-cell ``slopes`` are computed from it on first use.
    """

    grid: "TimeGrid"
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals = (vals[:, None] if vals.ndim == 1 else vals).view()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.shape[0] != len(self.grid):
            raise ValueError("driver needs one value row per grid point")
        if not np.all(np.isfinite(vals)):
            raise ValueError("driver values must be finite")

    @property
    def n_dims(self) -> int:
        return self.values.shape[1]

    @cached_property
    def slopes(self) -> np.ndarray:
        """Per-cell slopes, shape (n_cells, n_dims)."""
        return np.diff(self.values, axis=0) / self.grid.widths[:, None]

    def at(self, times):
        """Piecewise-linear evaluation at arbitrary times in [0, T]."""
        times = np.asarray(times, dtype=float)
        pts = self.grid.points
        idx = self.grid.cell_of(times)
        return self.values[idx] + self.slopes[idx] * (times - pts[idx])[..., None]


def _uniform_step(times: np.ndarray) -> float | None:
    """Common width h when ``times`` is h, 2h, ..., nh to ~1e-9, else None.

    ``TimeGrid.uniform`` comes from ``linspace``, whose widths differ from
    horizon/n by round-off only (below 1e-12 relative at 4095 cells).
    """
    h = float(times[-1]) / times.size
    widths = np.diff(times, prepend=0.0)
    return h if np.all(np.abs(widths - h) <= 1e-9 * h) else None


def _fgn_autocovariance(hurst: float, n: int, h: float) -> np.ndarray:
    """Increment autocovariance of fBm on step h at lags k = 0..n-1.

    gamma(k) = h^2H/2 (|k+1|^2H - 2|k|^2H + |k-1|^2H).  For k >= 2 the
    second difference is evaluated as 2 k^2H (expm1(S) cosh D + 2
    sinh^2(D/2)), S = H log1p(-1/k^2), D = 2H atanh(1/k), which avoids its
    cancellation: the plain form errs by about eps k^2H at lag k, against
    gamma(k) ~ k^(2H-2), and every circulant eigenvalue sums all n lags.
    """
    a = 2.0 * hurst
    gamma = np.empty(n)
    gamma[0] = 1.0
    gamma[1:2] = 2.0 ** (a - 1.0) - 1.0
    k = np.arange(2, n, dtype=float)
    s = hurst * np.log1p(-1.0 / k**2)
    d = a * np.arctanh(1.0 / k)
    gamma[2:] = k**a * (np.expm1(s) * np.cosh(d) + 2.0 * np.sinh(0.5 * d) ** 2)
    return h**a * gamma


def _draw_batch(n: int, n_dims: int) -> int:
    """Seeds per FFT sub-batch of a draw of n steps, 6 at 1024 and 1 at 4095.

    A column takes 16 n bytes of normals, 16 (n + 1) of transform and
    8 (n + 1) of path block; a sub-batch's columns fit DRAW_BYTES, and a
    seed whose columns exceed it is drawn alone.
    """
    return max(1, DRAW_BYTES // ((40 * n + 24) * n_dims))


def _circulant_root(hurst: float, times: np.ndarray) -> np.ndarray:
    """sqrt(lambda), the n + 1 eigenvalue roots of fGn's circulant embedding on 0 and ``times``.

    ``times`` must be uniform: the Toeplitz covariance of the n increments,
    gamma at lags 0..n, is embedded in the circulant of size 2n with first
    row c = (gamma_0..gamma_n, gamma_{n-1}..gamma_1) and eigenvalues
    lambda = rfft(c).  For fGn every lambda is >= 0 (Craigmile 2003); a
    negative or non-finite one raises LinAlgError.
    """
    n = times.size
    h = _uniform_step(times)
    if h is None:
        widths = np.diff(times, prepend=0.0)
        raise ValueError(f"fBm sampling needs a uniform grid; this grid's {n} cells have "
                         f"widths {widths.min():.3g} to {widths.max():.3g}")
    gamma = _fgn_autocovariance(hurst, n + 1, h)
    lam = np.fft.rfft(np.r_[gamma, gamma[-2:0:-1]]).real
    if not (np.all(np.isfinite(lam)) and lam.min() >= 0.0):
        raise np.linalg.LinAlgError(
            f"circulant embedding of fGn (H = {hurst}, {n} steps) has a negative or "
            "non-finite eigenvalue"
        )
    return np.sqrt(lam)


def _fbm_draw(grid, root: np.ndarray, seeds: list, n_dims: int):
    """The seeds' fBm paths on ``grid``, yielded in order, one FFT sub-batch at a time.

    The circulant's symmetric square root applied to 2n normals,
    irfft(root rfft(z)), has the circulant as covariance, so its first n
    entries are the increments, exact in law (Davies & Harte 1987; Wood &
    Chan 1994).  Each seed's stream draws 2n normals per dimension; seeds
    go through the FFTs in sub-batches whose normals, transform and paths
    fit DRAW_BYTES, and a cumulative sum writes a sub-batch's increments
    into its own (n + 1, batch n_dims) block, row 0 zero, whose column
    views are the paths.
    """
    n = root.size - 1
    per = _draw_batch(n, n_dims)
    z = np.empty((min(per, len(seeds)) * n_dims, 2 * n))     # normals, then increments
    f = np.empty((len(z), n + 1), dtype=complex)
    for i0 in range(0, len(seeds), per):
        batch = seeds[i0 : i0 + per]
        m = len(batch) * n_dims
        for j, s in enumerate(batch):
            _rng(s).standard_normal(out=z[j * n_dims : (j + 1) * n_dims])
        np.fft.rfft(z[:m], out=f[:m])
        f[:m] *= root
        np.fft.irfft(f[:m], 2 * n, out=z[:m])
        block = np.zeros((n + 1, m))
        np.cumsum(z[:m, :n], axis=1, out=block[1:].T)
        for j in range(len(batch)):
            yield DriverPath(grid, block[:, j * n_dims : (j + 1) * n_dims])


def _int_at_least(value, name: str, low: int) -> int:
    """``value`` as an int >= ``low``: TypeError for a boolean or non-integer, ValueError below."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, not a boolean")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def sample_fbm(hurst: float, grid, n_dims: int = 1, seed=0) -> DriverPath | Iterator[DriverPath]:
    """Exact-in-law fBm sample on the grid from the seed's Philox normals.

    The grid must be uniform (``TimeGrid.uniform``); its increment
    covariance is embedded in a circulant and applied by real FFTs, 2n
    normals per dimension, on a grid of any size.  Components are
    independent; H = 0.5 reduces to Brownian motion.

    ``n_dims`` is an integer >= 1, and each seed an integer >= 0 (a Python
    or numpy integer, not a boolean).  A single seed returns one
    DriverPath.  A list, range or array of seeds returns an iterator of one
    DriverPath per seed, in order (an empty one, none), drawn from one
    eigenvalue pass one FFT sub-batch at a time (6 seeds at 1024 points, 1
    at 4095, within DRAW_BYTES): a caller that streams it holds one
    sub-batch of paths, and one that needs them all calls ``list()``.  A
    seed's path matches its single-seed draw bit for bit, whichever seeds
    share its sub-batch.  Bad arguments (TypeError or ValueError), a
    non-uniform grid (ValueError) and a negative or non-finite eigenvalue
    (LinAlgError) raise at the call, before any draw.  Each path's values are a read-only view of its
    sub-batch's block, so a path kept keeps that block alive.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("Hurst parameter must be in (0, 1)")
    n_dims = _int_at_least(n_dims, "n_dims", 1)
    single = not isinstance(seed, (list, tuple, range)) and np.ndim(seed) == 0
    seeds = [_int_at_least(s, "seed", 0) for s in ([seed] if single else seed)]
    paths = _fbm_draw(grid, _circulant_root(hurst, grid.points[1:]), seeds, n_dims)
    return next(paths) if single else paths


def deterministic_driver(grid, fn) -> DriverPath:
    """Sample a deterministic function onto the grid (piecewise-linear)."""
    vals = np.asarray([fn(t) for t in grid.points], dtype=float)
    return DriverPath(grid, vals)


# deterministic driver functions by the names configs use
DETERMINISTIC_FUNCTIONS = {
    "identity": lambda t: t,
    "sin": np.sin,
    "zero": lambda t: 0.0 * t,
}


class RoughLift:
    """Rough-lift data of a piecewise-linear driver over a kernel measure.

    Builds the first-order lift from 0 to every grid point (the twisted
    scan of the per-cell closed forms) on first use; ``x1_tilde_pairs``
    reconstructs arbitrary pairs from it through the twisted Chasles
    relation.  ``x1_tilde``, ``x2_tilde`` and ``x3_tilde`` walk the cell
    pieces of scalar or array pairs (triples).

    ``gamma`` is the regularity the lift claims for the driver.
    """

    def __init__(self, driver: DriverPath, measure: KernelMeasure, gamma: float):
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        self.driver = driver
        self.measure = measure
        self.gamma = float(gamma)

    @cached_property
    def _prefix(self):
        """x1 tilde from 0 to every grid point, (points, K, n): the twisted scan of the cells."""
        grid = self.driver.grid
        return exp_scan(grid.points, self.xis,
                        self._x1_cells(slice(None), e0(self.xis, grid.widths[:, None])), 0.0)

    @property
    def xis(self):
        return self.measure.xis

    @property
    def n_dims(self):
        return self.driver.n_dims

    def _x1_cells(self, cells, e0_rows, out=None):
        """x1 tilde over a piece of each cell: its e0(xi, width) row times the slope, (C, K, n)."""
        return np.multiply(e0_rows[:, :, None], self.driver.slopes[cells][:, None, :], out=out)

    def _ramp_weights(self, dt):
        """The x2 tilde ramp factor sum_k w_k ramp_int(xi, xi_k, dt) per width, (C, K)."""
        xis = self.xis
        ramp = ramp_int(xis[None, :, None], xis[None, None, :], dt[:, None, None])  # (C, Kout, Kin)
        return ramp @ self.measure.weights

    def _walk(self, s, t, piece):
        """Sum over the cell pieces of each pair s <= t, decayed to t.

        ``s`` and ``t`` are scalars or arrays of one shape.  The nonempty
        pieces [a, b] of every [s, t] clipped to driver cells are found in
        one pass (each pair's cells repeated with its pair id);
        ``piece(s, cells, a, b)`` returns their closed-form terms, indexed
        (piece, K, ...), and each term, weighted by e^{-xi (t - b)}, is
        added to its pair in order: the twisted recursion over the pieces,
        unrolled.  Returns (*shape, K, ...); a pair with s == t gives 0.
        """
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        grid = self.driver.grid
        if not np.all((0.0 <= s) & (s <= t) & (t <= grid.horizon * (1 + 1e-12) + 1e-15)):
            raise ValueError("need 0 <= s <= t <= horizon")
        shape, s, t = s.shape, s.ravel(), np.minimum(t.ravel(), grid.horizon)
        first = grid.cell_of(s)
        count = grid.cell_of(t) - first + 1
        pair = np.repeat(np.arange(s.size), count)
        cells = np.arange(pair.size) - np.repeat(np.cumsum(count) - count - first, count)
        pts = grid.points
        a = np.maximum(s[pair], pts[cells])
        b = np.minimum(t[pair], pts[cells + 1])
        keep = b > a
        pair, cells, a, b = pair[keep], cells[keep], a[keep], b[keep]
        terms = piece(s[pair], cells, a, b)
        decay = np.exp(-np.multiply.outer(t[pair] - b, self.xis))
        terms *= decay.reshape(decay.shape + (1,) * (terms.ndim - 2))
        out = np.zeros((s.size,) + terms.shape[1:])
        np.add.at(out, pair, terms)
        return out.reshape(shape + terms.shape[1:])

    # -- first order -------------------------------------------------------

    def x1_tilde(self, s, t):
        """Exact weighted first-order integral over [s, t], shape (*shape, K, n).

        One walk over the cell pieces of every pair, each piece's term
        e0(xi, b - a) times its slope, so there is no cancellation against
        large prefixes.
        """
        return self._walk(
            s, t, lambda s, cells, a, b: self._x1_cells(cells, e0(self.xis, (b - a)[:, None])))

    def _prefix_at(self, v):
        """x1 tilde from 0 to each time in v, shape (len(v), K, n)."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        pts = self.driver.grid.points
        cells = self.driver.grid.cell_of(v)
        dt = v - pts[cells]
        decay = np.exp(-self.xis[None, :] * dt[:, None])[:, :, None]
        return self._x1_cells(cells, e0(self.xis, dt[:, None])) + decay * self._prefix[cells]

    def x1_tilde_pairs(self, u, v):
        """Vectorised x1 tilde on pairs (u_i, v_i): shape (npairs, K, n).

        Uses prefix differences; exact up to an eps-level residual
        relative to the prefix scale.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        decay = np.exp(-self.xis[None, :] * (v - u)[:, None])[:, :, None]
        return self._prefix_at(v) - decay * self._prefix_at(u)

    # -- second order --------------------------------------------------

    def x2_tilde(self, s, t):
        """Weighted Levy-area analogue over [s, t], shape (*shape, K, n, n).

        int_s^t e^{-xi(t-v)} dx_v (x) x1_{vs}, per output atom xi, by one
        walk over the cell pieces of every pair: each piece [a, b] adds a
        ramp term and a cross term against x1 tilde from s to a.
        """
        xis = self.xis
        ws = self.measure.weights

        def piece(s, cells, a, b):
            dt = b - a
            m = self.driver.slopes[cells]                          # (C, n)
            run = self.x1_tilde_pairs(s, a)                        # (C, K, n)
            cross = exp_int(xis[None, :, None], xis[None, None, :], dt[:, None, None])
            ramp = self._ramp_weights(dt)[:, :, None, None]
            terms = ramp * np.einsum("cj,cd->cjd", m, m)[:, None]
            terms += np.einsum("cok,k,cj,ckd->cojd", cross, ws, m, run)
            return terms

        return self._walk(s, t, piece)

    def x3_tilde(self, s, u, t):
        """Chen defect on ordered triples s <= u <= t, shape (*shape, K, n, n).

        (delta~ x2)_{tus} - x1~_{tu} (x) x1_{us}; x2 comes from the direct
        construction, so there is no circularity.  The three x2 pairs of
        every triple take one walk, the two x1 pairs another.
        """
        s, u, t = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (s, u, t)))
        if not np.all((s <= u) & (u <= t)):
            raise ValueError("need s <= u <= t")
        x2_ts, x2_tu, x2_us = self.x2_tilde(np.stack([s, u, s]), np.stack([t, t, u]))
        x1_tu, x1_us = self.x1_tilde(np.stack([u, s]), np.stack([t, u]))
        decay = np.exp(-np.multiply.outer(t - u, self.xis))[..., None, None]
        d_x2 = x2_ts - x2_tu - decay * x2_us
        outer = np.einsum("...kj,...d->...kjd", x1_tu, self.measure.weights @ x1_us)
        return d_x2 - outer

    # -- solver support --------------------------------------------------

    def cell_tables(self, refine: int = 1):
        """Closed-form lift data for every grid cell at uniform sub-refinement.

        All ``refine`` equal sub-cells of one cell share the same slope and
        width, hence the same closed forms, in which the slope is a rank-one
        factor; e0, the x2 ramp factor and the decay depend on the width alone,
        are evaluated once per distinct width and gathered into the tables a
        chunk of ``TABLE_BYTES`` at a time.  Returns (x1t, x2t, decay,
        sub_widths) with shapes (C, K, n), (C, K, n, n), (C, K), (C,).
        """
        if refine < 1:
            raise ValueError("refine must be >= 1")
        widths = self.driver.grid.widths / refine
        uniq, inv = np.unique(widths, return_inverse=True)
        m = self.driver.slopes
        mm = np.einsum("cj,cd->cjd", m, m)[:, None]
        e0_w, ramp_w = e0(self.xis[None, :], uniq[:, None]), self._ramp_weights(uniq)  # (U, K)
        (c, n), k = m.shape, self.xis.size
        x1t, x2t = np.empty((c, k, n)), np.empty((c, k, n, n))
        step = max(1, TABLE_BYTES // (8 * k))                     # cells per chunk
        for b in range(0, c, step):
            w, e = inv[b : b + step], slice(b, b + step)
            self._x1_cells(e, e0_w[w], out=x1t[e])
            np.multiply(ramp_w[w][:, :, None, None], mm[e], out=x2t[e])
        decay = np.exp(-self.xis[None, :] * uniq[:, None])[inv]
        return x1t, x2t, decay, widths

    # -- diagnostics -------------------------------------------------------

    @property
    def scale(self) -> float:
        """Reference magnitude of the first-order lift (for scaled residuals)."""
        return max(float(np.max(np.abs(self._prefix))), 1e-300)


def wiener_cov_x1(hurst, xi, eta, interval_a, interval_b):
    """Covariance of two weighted Wiener integrals of fBm with H > 1/2.

    c_H int_{[s,t]x[u,v]} e^{-xi(t-a)} e^{-eta(v-b)} |a-b|^{2H-2} da db,
    c_H = H(2H-1), by nested adaptive quadrature.  The integrable
    |a-b|^{2H-2} singularity is handled with algebraic endpoint weights;
    the outer integral is split at the inner interval's endpoints.
    """
    if not hurst > 0.5:
        raise ValueError("covariance formula requires H > 1/2")
    if xi < 0 or eta < 0:
        raise ValueError("Laplace frequencies must be >= 0")
    s, t = map(float, interval_a)
    u, v = map(float, interval_b)
    if not (s < t and u < v):
        raise ValueError("intervals must be nondegenerate and ordered")
    c_h = hurst * (2.0 * hurst - 1.0)
    expo = 2.0 * hurst - 2.0

    def f(b):
        return np.exp(-eta * (v - b))

    def inner(a):
        if u < a < v:                       # split at the singularity
            return (quad(f, u, a, weight="alg", wvar=(0.0, expo))[0]
                    + quad(f, a, v, weight="alg", wvar=(expo, 0.0))[0])
        if a in (u, v):
            return quad(f, u, v, weight="alg", wvar=(expo, 0.0) if a == u else (0.0, expo))[0]
        return quad(lambda b: f(b) * abs(a - b) ** expo, u, v, limit=200)[0]

    breaks = sorted({s, t} | {x for x in (u, v) if s < x < t})
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        val, _ = quad(
            lambda a: np.exp(-xi * (t - a)) * inner(a), lo, hi,
            limit=200, epsabs=1e-12, epsrel=1e-10,
        )
        total += val
    return c_h * total
