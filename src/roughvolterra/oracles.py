"""Brute-force reference evaluators for lift and integral values.

Everything here deliberately avoids the closed-form cell calculus: values
are built from midpoint Riemann / Simpson sums over fine sub-meshes using
only driver slopes and exponentials.  They are the independent side of
the dual-route checks (closed form vs. brute force) used by the
verification harness and the test suite, and converge at the rate of the
sub-mesh rather than being exact.  ``rk4_augmented`` integrates the
solver's ODE in Laplace coordinates instead, cell by cell: every driver
here is piecewise linear, hence smooth on each cell, so RK4 keeps its
order on all of them, sampled fBm included.

Sub-meshes are aligned with the driver cells, so the driver's increment
over a sub-step is its cell's slope times the step, exactly.  The running
first-order integral inside ``x2_tilde_riemann`` is the twisted
recurrence r_{k+1} = e^{-eta h_k} r_k + e^{-eta h_k/2} dx_k of the
midpoint rule; it is evaluated with ``algebra.exp_scan``, a blocked
prefix scan, so that 2^16-step meshes stay affordable.
``x3_tilde_riemann_fast`` walks its two sub-meshes in blocks of _BLOCK
steps, taking each step's slope from its piece's cell, so its working set
does not grow with the mesh; its steps are those of ``subdivide`` bit for
bit.
"""

from __future__ import annotations

import numpy as np

from .algebra import exp_scan

__all__ = [
    "subdivide",
    "x1_tilde_riemann",
    "x2_tilde_riemann",
    "x3_tilde_riemann_fast",
    "young_integral_simpson",
    "rk4_augmented",
]

_BLOCK = 8192                      # sub-mesh steps per block of a blocked walk


def _pieces(grid_points, s, t, target):
    """(knots, per, step): the cell-aligned pieces of [s, t], each ``per`` steps of ``step``."""
    pts = np.asarray(grid_points, dtype=float)
    knots = np.concatenate(([s], pts[(pts > s) & (pts < t)], [t]))
    per = max(1, int(round(target / (knots.size - 1))))
    return knots, per, np.diff(knots) / per


def subdivide(grid_points, s, t, target):
    """Sub-mesh of [s, t] aligned with driver cells, about ``target`` steps.

    Every piece of [s, t] between consecutive knots (s, the grid points
    inside (s, t), t) is split into the same number of equal steps, as
    ``np.linspace`` would.  Alignment keeps piecewise-linear integrands
    smooth within every sub-step, so midpoint sums retain second-order
    accuracy.
    """
    knots, per, step = _pieces(grid_points, s, t, target)
    return np.append(np.arange(per) * step[:, None] + knots[:-1, None], t)


def _step_blocks(driver, s, t, target):
    """The steps of ``subdivide(grid, s, t, target)``, at most _BLOCK at a time.

    Yields (midpoints (B,), driver increments (B, n)) block by block.  Mesh
    point q is computed as ``subdivide`` computes it, so every midpoint and
    width is bit-identical to the full mesh's; a step's slope is its piece's,
    whose cell is the cell of the piece's first knot.
    """
    knots, per, step = _pieces(driver.grid.points, s, t, target)
    slope = driver.slopes[driver.grid.cell_of(knots[:-1])]
    step = np.append(step, 0.0)              # mesh point P is 0 * 0 + knots[-1] = t
    n_steps = per * (knots.size - 1)
    for q0 in range(0, n_steps, _BLOCK):
        piece, j = np.divmod(np.arange(q0, min(q0 + _BLOCK, n_steps) + 1), per)
        mesh = j * step[piece] + knots[piece]
        yield 0.5 * (mesh[:-1] + mesh[1:]), slope[piece[:-1]] * np.diff(mesh)[:, None]


def _sub_steps(driver, mesh):
    """(midpoints (P,), driver slopes (P, n), driver increments (P, n)) of a sub-mesh's steps."""
    mid = 0.5 * (mesh[:-1] + mesh[1:])
    slope = driver.slopes[driver.grid.cell_of(mid)]
    return mid, slope, slope * np.diff(mesh)[:, None]


def x1_tilde_riemann(driver, xi, s, t, n_sub=4096):
    """Midpoint Riemann value of int_s^t e^{-xi(t-v)} dx_v, shape (n,)."""
    if t <= s:
        return np.zeros(driver.n_dims)
    mid, _, dx = _sub_steps(driver, subdivide(driver.grid.points, s, t, n_sub))
    return np.einsum("p,pn->n", np.exp(-np.asarray(xi) * (t - mid)), dx)


def _x1_scan(mesh, dx, xis):
    """Running weighted integrals along a sub-mesh, by twisted scan.

    Maintains r_k(eta) = int_{mesh[0]}^{mesh[k]} e^{-eta(mesh[k]-w)} dx_w
    (midpoint rule per sub-step, exact for a linear path within the step)
    starting from 0.  Returns the values at sub-step midpoints, with the
    half-step contribution included: shape (P, K, n).
    """
    steps = np.diff(mesh)[:, None]
    half = np.exp(-steps / 2.0 * xis)[:, :, None]
    run = exp_scan(mesh, xis, half * dx[:, None, :], 0.0)
    quarter = np.exp(-steps / 4.0 * xis)[:, :, None]
    return half * run[:-1] + quarter * (0.5 * dx[:, None, :])


def x2_tilde_riemann(driver, measure, xi, s, t, n_sub=65536):
    """Midpoint Riemann value of int_s^t e^{-xi(t-v)} dx_v (x) x1_{vs}.

    ``xi`` may be a scalar (returns (n, n)) or an array of output
    frequencies (returns (K_out, n, n)).  The projected first-order
    integral is accumulated by midpoint sums on the same sub-mesh.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    n = driver.n_dims
    if t <= s:
        out = np.zeros((xi_arr.size, n, n))
        return out if np.ndim(xi) else out[0]
    mesh = subdivide(driver.grid.points, s, t, n_sub)
    mid, _, dx = _sub_steps(driver, mesh)
    x1_mid = np.einsum("k,pkn->pn", measure.weights, _x1_scan(mesh, dx, measure.xis))
    w_out = np.exp(-np.multiply.outer(xi_arr, t - mid))
    out = np.einsum("Kp,pj,pd->Kjd", w_out, dx, x1_mid)
    return out if np.ndim(xi) else out[0]


def x3_tilde_riemann_fast(driver, measure, xi, s, u, t, n_sub=65536):
    """Brute-force Chen defect int_u^t e^{-xi(t-v)} dx_v (x) (delta x1)_{vus}.

    (delta x1)_{vus} = x1_{vs} - x1_{vu} - x1_{us}
                     = sum_k w_k (e^{-eta_k (v-u)} - 1) x1~_{us}(eta_k),
    with x1~_{us} a midpoint Riemann sum on a sub-mesh of [s, u] of about
    n_sub/4 steps and the outer integral a midpoint sum on a sub-mesh of
    [u, t] of about n_sub steps.  Both sums walk their sub-mesh in blocks
    of _BLOCK steps, so a call holds a few (K, _BLOCK) arrays whatever
    ``n_sub``; only the order of summation differs from one pass over the
    whole mesh.  ``xi`` scalar or array as in :func:`x2_tilde_riemann`.
    """
    if not s <= u <= t:
        raise ValueError("need s <= u <= t")
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    n = driver.n_dims
    out = np.zeros((xi_arr.size, n, n))
    if t > u > s:                     # else (delta x1)_{vus} or the outer interval is 0
        x1t_us = np.zeros((measure.n_atoms, n))
        for mid, dx in _step_blocks(driver, s, u, max(n_sub // 4, 64)):
            x1t_us += np.exp(-np.multiply.outer(measure.xis, u - mid)) @ dx
        for mid, dx in _step_blocks(driver, u, t, n_sub):
            a_vu = np.expm1(-np.multiply.outer(measure.xis, mid - u))     # (K, B)
            inner = np.einsum("k,kp,kn->pn", measure.weights, a_vu, x1t_us)
            w_out = np.exp(-np.multiply.outer(xi_arr, t - mid))
            out += np.einsum("Kp,pj,pd->Kjd", w_out, dx, inner)
    return out if np.ndim(xi) else out[0]


def young_integral_simpson(driver, z_fn, xi, s, t, n_sub=8192):
    """Composite-Simpson value of int_s^t e^{-xi(t-v)} x'(v) z(v) dv.

    An adaptive-quadrature-grade reference for smooth scalar integrands
    against piecewise-linear drivers (the integrand is smooth within each
    driver cell because the sub-mesh aligns with the cells).
    """
    mesh = subdivide(driver.grid.points, s, t, n_sub)
    a, b = mesh[:-1], mesh[1:]
    mid, slope, _ = _sub_steps(driver, mesh)

    def f(v):
        return np.exp(-xi * (t - v)) * z_fn(v)

    return float(np.sum((b - a) / 6.0 * slope[:, 0] * (f(a) + 4.0 * f(mid) + f(b))))


def rk4_augmented(driver, measure, fld, a, dt_max=1e-4):
    """RK4 oracle for piecewise-linear drivers, in (ytilde(xi_k))_k coordinates.

    Integrates ytilde' = -xi ytilde + x'(t) sigma(a + <w, ytilde>) cell by
    cell (the slope is constant within a cell, so RK4 keeps its order on
    any piecewise-linear driver, however rough its samples) and returns
    (y, ytilde) at the driver's grid points.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    pts = driver.grid.points
    xis = measure.xis
    w = measure.weights
    slopes = driver.slopes
    k_atoms, d = xis.size, a.size
    yt = np.zeros((k_atoms, d))
    out_y = np.empty((len(pts), d))
    out_yt = np.empty((len(pts), k_atoms, d))
    out_y[0] = a + w @ yt
    out_yt[0] = yt

    def rhs(yt_state, slope):
        y = a + w @ yt_state
        sig = fld.batch(y[None, :])[0]             # (n, d)
        drive = slope @ sig                        # (d,)
        return -xis[:, None] * yt_state + drive[None, :]

    for c in range(len(pts) - 1):
        width = pts[c + 1] - pts[c]
        n_sub = max(1, int(np.ceil(width / dt_max)))
        h = width / n_sub
        slope = slopes[c]
        for _ in range(n_sub):
            k1 = rhs(yt, slope)
            k2 = rhs(yt + 0.5 * h * k1, slope)
            k3 = rhs(yt + 0.5 * h * k2, slope)
            k4 = rhs(yt + h * k3, slope)
            yt = yt + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out_y[c + 1] = a + w @ yt
        out_yt[c + 1] = yt
    return out_y, out_yt
