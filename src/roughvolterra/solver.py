"""Convolutional Young and rough Volterra solvers.

The unknown is the Laplace-indexed path ytilde with ytilde_0 = 0; its
twisted increments are fixed points of the integral map
(delta~ ytilde)_{ts} = J_ts(d~x sigma(y)), y = a + <kernel, ytilde>.

A solve covers [0, T] with consecutive intervals of length T/(N + c n)
after n committed ones (c = 1 in the ``harmonic`` interval scheme, 0 in
the ``constant`` one; N starts at ``n_start``), runs a Picard iteration on
each interval over a sub-refined mesh, and patches intervals through the
twisted Chasles relation.  Contraction is detected empirically from the
first two sweeps; on failure N doubles and the interval is re-run, unless
it already spans a single grid cell, when the solve fails.

The sub-cell mesh and the lift's per-cell closed forms
(``RoughLift.cell_tables``) are built once per solve; an interval attempt
is a slice of the mesh and views of its cells' rows.  A sweep evaluates
sigma once over the interval mesh, then walks the blocks of the twisted
scan (``algebra.exp_scan_blocks``): each block's germ comes from its
cells' tables, and of the propagated ytilde the sweep keeps only the
projection y = a + <kernel, ytilde> on the mesh, which is all the next
sweep reads, and ytilde at the grid points, which is all the norms, the
commit and the next interval's start read.  No (sub-cells x atoms x d)
array is held.  Picard sweeps are independent across atoms and could be
parallelised; a single solve is sequential over intervals by data
dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import SCAN_BLOCK, TimeGrid, delta_tilde, exp_scan_blocks, lbeta_norm
from .laplace import KernelMeasure
from .lift import RoughLift
from .sewing import compensated_sum_tilde
from .sigma import SigmaField

__all__ = [
    "SolverConfig",
    "IntervalDiagnostics",
    "Solution",
    "SolverFailure",
    "young_integral",
    "rough_integral",
    "solve_young",
    "solve_rough",
    "solve_rough_ode",
]


class SolverFailure(RuntimeError):
    """Fixed-point iteration failed; carries the per-interval norm trace."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


def _sewn_integral(lift, z, zeta, s, t, atom, level):
    """Compensated sum over [s, t] of the germ x1~ z, plus x2~ . zeta* when ``zeta`` is given,
    with the exponential weights of ``atom``."""
    def germ(u, v):
        out = np.einsum("pn,pn...->p...", lift.x1_tilde_pairs(u, v)[:, atom],
                        np.asarray(z(u), dtype=float))
        if zeta is not None:
            out = out + np.einsum("pmj,pjm->p", lift.x2_tilde(u, v)[:, atom],
                                  np.asarray(zeta(u), dtype=float))
        return out

    return compensated_sum_tilde(germ, float(lift.xis[atom]), s, t, level)


def young_integral(lift: RoughLift, z, s: float, t: float, atom: int, level: int = 12):
    """Convolutional Young integral of a grid path against the lift.

    ``z(times)`` must return values with shape (len(times), n) or
    (len(times), n, m).  Realised as the weighted compensated Riemann sums
    of the first-order germ x1~ z; requires lift regularity above 1/2.
    Returns the SewingResult (``value`` is the raw level sum;
    ``extrapolated`` the estimated limit).
    """
    if not lift.gamma > 0.5:
        raise ValueError("Young integration requires lift regularity > 1/2")
    return _sewn_integral(lift, z, None, s, t, atom, level)


def rough_integral(lift: RoughLift, z, s: float, t: float, atom: int, level: int = 10, *, zeta):
    """Rough convolutional integral of a controlled integrand.

    As in ``young_integral``, ``z(times)`` must return values with shape
    (len(times), n); ``zeta(times)`` returns its Gubinelli derivative,
    (len(times), n, n).  The germ is the compensated second-order
    expression x1~ z + x2~ . zeta*, summed with exponential weights; the
    sewing construction supplies the remaining correction in the limit.
    """
    return _sewn_integral(lift, z, zeta, s, t, atom, level)


INTERVAL_SCHEMES = ("harmonic", "constant")
CONTRACTION_LIMIT = 0.999          # sweep-update ratio that counts as no contraction
MAX_PICARD = 60                    # Picard sweeps per interval attempt


@dataclass
class SolverConfig:
    """Solver parameters: regularities, mesh depth, Picard and interval policy.

    ``sewing_level`` is the dyadic sub-refinement of each grid cell used
    when evaluating the integral germ.  Intervals have length T/(N + c n)
    after n committed ones, c = 1 for ``interval_scheme`` ``harmonic`` and
    0 for ``constant``; N starts at ``n_start`` and doubles on every rejected
    attempt (a diagnostics row's ``n_value`` is the N its interval ran at),
    and a failed single-cell interval ends the solve.  Each interval attempt
    runs at most ``MAX_PICARD`` sweeps.  The L_beta norms' exponent follows from
    gamma: 1 in a rough solve and gamma in a Young one.
    """

    gamma: float
    kappa: float
    sewing_level: int = 4
    picard_tol: float = 1e-10
    n_start: int = 4
    interval_scheme: str = "harmonic"

    def __post_init__(self):
        if not (1.0 / 3.0 < self.kappa < self.gamma <= 1.0):
            raise ValueError("need 1/3 < kappa < gamma <= 1")
        if self.picard_tol <= 0:
            raise ValueError("tolerance must be > 0")
        if self.sewing_level < 0:
            raise ValueError("sewing_level must be >= 0")
        if self.interval_scheme not in INTERVAL_SCHEMES:
            raise ValueError(f"interval_scheme must be one of {list(INTERVAL_SCHEMES)}, "
                             f"got {self.interval_scheme!r}")
        if self.n_start < 1:
            raise ValueError("n_start must be >= 1")


@dataclass
class IntervalDiagnostics:
    start: float
    end: float
    n_value: int
    iterations: int
    contraction: float
    q_norm: float
    htilde_norm: float
    picard_residual: float


@dataclass
class Solution:
    """Solver output: ytilde on grid x atoms, projected y, diagnostics."""

    grid: TimeGrid
    ytilde: np.ndarray            # (T, K, d)
    y: np.ndarray                 # (T, d)
    zeta: np.ndarray              # (T, n, d)
    diagnostics: list = field(default_factory=list)


def _project(a, vals, weights):
    """y = a + <w, ytilde> of (..., K, d) values."""
    return a + np.einsum("pkd,k->pd", vals, weights)


def _initial_iterate(fine, r, a, measure, htilde):
    """The first iterate exp(-xi (t - t_lo)) htilde as ``_sweep`` returns one:
    its projection on the interval mesh ``fine``, built block by block, and
    its values at the grid slots, every r-th mesh point."""
    def decayed(t):
        return np.exp(-np.multiply.outer(t - fine[0], measure.xis))[:, :, None] * htilde

    y = np.empty((fine.size, a.size))
    for b in range(0, fine.size, SCAN_BLOCK):
        y[b : b + SCAN_BLOCK] = _project(a, decayed(fine[b : b + SCAN_BLOCK]), measure.weights)
    return y, decayed(fine[::r])


def _sweep(fine, r, x1t, x2t, fld, a, measure, y, htilde, rough):
    """One Picard sweep from the current iterate's projection ``y`` on the mesh.

    ``fine`` is the interval's mesh, r points a grid cell, and ``x1t``,
    ``x2t`` its cells' rows of the cell tables.  Each scan block's germ is
    built from those rows, and of the new ytilde only its projection and its
    grid-slot values are kept: returns (y on the mesh (P, d), ytilde at the
    grid slots (M, K, d)).
    """
    z = fld.batch(y)                                        # (P, n, d)
    ds = fld.dsigma_batch(y[:-1]) if rough else None        # (P-1, n, d, d)

    def germ(b, e):
        c = np.arange(b, e) // r                            # sub-cell -> row of x1t, x2t
        g = np.einsum("pkn,pnd->pkd", x1t[c], z[b:e])
        if rough:
            g += np.einsum("pkmj,pjq,pmiq->pki", x2t[c], z[b:e], ds[b:e])
        return g

    y_new = np.empty_like(y)
    y_new[0] = y[0]                                         # the interval start is fixed
    slots = np.empty((len(x1t) + 1,) + htilde.shape)
    slots[0] = htilde
    for b, e, blk in exp_scan_blocks(fine, measure.xis, germ, htilde):
        y_new[b + 1 : e + 1] = _project(a, blk, measure.weights)
        j = b // r + 1                                      # first grid slot in (b, e]
        slots[j : e // r + 1] = blk[j * r - b - 1 :: r]
    return y_new, slots


def _path_norm(vals, pts_grid, measure, beta, expo):
    """L_beta sup plus expo-Hoelder seminorm of a twisted path over consecutive grid
    pairs, and those pairs' twisted increments."""
    sup = float(np.max(lbeta_norm(vals, measure, beta)))
    inc = delta_tilde(pts_grid, measure.xis, vals, np.s_[:-1], np.s_[1:])
    hold = float(np.max(lbeta_norm(inc, measure, beta) / np.diff(pts_grid)**expo))
    return sup + hold, inc


def _interval_q_norm(lift, ytilde_grid, zeta_grid, pts_grid, measure, beta, kappa):
    """Discrete controlled-path norm over the interval's grid pairs."""
    norm_y, dyt = _path_norm(ytilde_grid, pts_grid, measure, beta, kappa)
    widths = np.diff(pts_grid)
    sup_z = float(np.max(np.sqrt(np.sum(zeta_grid**2, axis=(1, 2)))))
    dz = np.sqrt(np.sum((zeta_grid[1:] - zeta_grid[:-1]) ** 2, axis=(1, 2)))
    hold_z = float(np.max(dz / widths**kappa))
    x1t = lift.x1_tilde(pts_grid[:-1], pts_grid[1:])         # (M, K, n)
    first = np.einsum("mkn,mnd->mkd", x1t, zeta_grid[:-1])
    rem = dyt - first
    hold_r = float(np.max(lbeta_norm(rem, measure, beta) / widths ** (2 * kappa)))
    return norm_y + sup_z + hold_z + hold_r


def _solve(lift: RoughLift, fld: SigmaField, a, config: SolverConfig, rough: bool) -> Solution:
    if fld.n != lift.n_dims:
        raise ValueError("sigma field row count must match the driver dimension")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.size != fld.d:
        raise ValueError("initial condition does not match sigma's column count")
    if not rough and not lift.gamma > 0.5:
        raise ValueError("Young solve requires lift regularity > 1/2")

    grid = lift.driver.grid
    pts = grid.points
    measure = lift.measure
    beta = 1.0 if rough else config.gamma
    n_pts, k_atoms, d = len(grid), measure.n_atoms, fld.d
    r = 2**config.sewing_level
    x1t, x2t, _, subw = lift.cell_tables(r)
    # the sub-cell mesh; an attempt on grid cells [lo, hi] is fine[lo*r : hi*r + 1]
    fine = np.append((pts[:-1, None] + subw[:, None] * np.arange(r)).ravel(), pts[-1])
    harmonic = config.interval_scheme == "harmonic"     # c in eps = T/(N + c n)
    expo = config.gamma if not rough else config.kappa

    ytilde_grid = np.zeros((n_pts, k_atoms, d))
    zeta_grid = np.zeros((n_pts, lift.n_dims, d))
    diagnostics: list[IntervalDiagnostics] = []

    lo = 0
    n_done = 0
    n_value = config.n_start
    htilde = np.zeros((k_atoms, d))
    failures: list = []

    while lo < n_pts - 1:
        eps = grid.horizon / (n_value + n_done * harmonic)
        hi = int(np.searchsorted(pts, pts[lo] + eps * (1 + 1e-12), side="right")) - 1
        hi = min(max(hi, lo + 1), n_pts - 1)

        mesh = fine[lo * r : hi * r + 1]                    # with x1t, x2t[lo:hi]: the attempt
        y_mesh, yt = _initial_iterate(mesh, r, a, measure, htilde)
        rho = np.nan
        converged = False
        updates = []
        for _ in range(MAX_PICARD):
            y_new, new = _sweep(mesh, r, x1t[lo:hi], x2t[lo:hi], fld, a, measure, y_mesh,
                                htilde, rough)
            upd = _path_norm(new - yt, pts[lo : hi + 1], measure, beta, expo)[0]
            updates.append(upd)
            scale = max(1.0, float(np.max(lbeta_norm(new, measure, beta))))
            y_mesh, yt = y_new, new
            if upd <= config.picard_tol * scale:
                converged = True
                break
            if len(updates) >= 2 and updates[-2] > 0 and upd > 10 * config.picard_tol * scale:
                rho_now = updates[-1] / updates[-2]
                # no contraction observed in the first sweeps, or diverging later
                if (len(updates) <= 3 and rho_now >= CONTRACTION_LIMIT) or rho_now >= 4.0:
                    break
        if len(updates) >= 2 and updates[0] > 0:
            rho = updates[1] / updates[0]

        if not converged:
            failures.append(
                {"interval": (float(pts[lo]), float(pts[hi])),
                 "updates": updates, "n_value": n_value}
            )
            # an attempt depends only on its interval, so a single cell is not retried
            if hi == lo + 1:
                raise SolverFailure("no contraction even on single-cell intervals", failures)
            n_value *= 2
            continue

        # commit the interval; yt holds ytilde at its grid points
        ytilde_grid[lo : hi + 1] = yt
        zeta_grid[lo : hi + 1] = fld.batch(_project(a, yt, measure.weights))

        # converged-state residual: one more germ pass, per grid cell
        final = _sweep(mesh, r, x1t[lo:hi], x2t[lo:hi], fld, a, measure, y_mesh, htilde,
                       rough)[1]
        residual = float(np.max(lbeta_norm(final - yt, measure, beta)))

        q_norm = _interval_q_norm(
            lift, yt, zeta_grid[lo : hi + 1],
            pts[lo : hi + 1], measure, beta, config.kappa,
        )
        h_norm = float(lbeta_norm(htilde[None], measure, beta)[0])
        diagnostics.append(
            IntervalDiagnostics(
                start=float(pts[lo]),
                end=float(pts[hi]),
                n_value=n_value,
                iterations=len(updates),
                contraction=float(rho) if np.isfinite(rho) else 0.0,
                q_norm=q_norm,
                htilde_norm=h_norm,
                picard_residual=residual,
            )
        )
        htilde = yt[-1].copy()
        lo = hi
        n_done += 1

    y = _project(a, ytilde_grid, measure.weights)
    return Solution(
        grid=grid,
        ytilde=ytilde_grid,
        y=y,
        zeta=zeta_grid,
        diagnostics=diagnostics,
    )


def solve_young(lift: RoughLift, fld: SigmaField, a, config: SolverConfig) -> Solution:
    """Young Volterra solve (first-order germ), for lifts with gamma > 1/2."""
    return _solve(lift, fld, a, config, rough=False)


def solve_rough(lift: RoughLift, fld: SigmaField, a, config: SolverConfig) -> Solution:
    """Rough Volterra solve (compensated second-order germ)."""
    return _solve(lift, fld, a, config, rough=True)


def solve_rough_ode(driver, fld: SigmaField, a, config: SolverConfig) -> Solution:
    """Diffusion-type special case: kernel identically 1 (single atom xi = 0).

    dy = dx sigma(y) solved by the same engine on the degenerate measure;
    bit-identical to solve_rough on {(0, 1)} by construction.
    """
    measure = KernelMeasure.from_atoms([(0.0, 1.0)])
    lift = RoughLift(driver, measure, gamma=config.gamma)
    return solve_rough(lift, fld, a, config)
