"""Brute-force reference evaluators for lift and integral values.

Everything here deliberately avoids the closed-form cell calculus: values
are built from midpoint Riemann / Simpson sums over fine sub-meshes using
only driver samples and exponentials.  They are the independent side of
the dual-route checks (closed form vs. brute force) used by the
verification harness and the test suite, and converge at the rate of the
sub-mesh rather than being exact.  ``rk4_augmented`` integrates the
solver's ODE in Laplace coordinates for smooth drivers instead.

The running first-order integrals inside the double-integral oracles are
the twisted recurrence r_{k+1} = e^{-eta h_k} r_k + e^{-eta h_k/2} dx_k of
the midpoint rule; they are evaluated with ``algebra.exp_scan``, a blocked
prefix scan, so that 2^16-step meshes stay affordable.
"""

from __future__ import annotations

import numpy as np

from .algebra import exp_scan

__all__ = [
    "subdivide",
    "x1_tilde_riemann",
    "x2_tilde_riemann",
    "x3_tilde_riemann",
    "x3_tilde_riemann_fast",
    "young_integral_simpson",
    "rk4_augmented",
]


def subdivide(grid_points, s, t, target):
    """Sub-mesh of [s, t] aligned with driver cells, about ``target`` steps.

    Alignment keeps piecewise-linear integrands smooth within every
    sub-step, so midpoint sums retain second-order accuracy.
    """
    pts = np.asarray(grid_points, dtype=float)
    knots = [s] + [float(p) for p in pts if s < p < t] + [t]
    n_cells = len(knots) - 1
    per = max(1, int(round(target / n_cells)))
    mesh = [np.linspace(a, b, per + 1)[:-1] for a, b in zip(knots[:-1], knots[1:])]
    return np.append(np.concatenate(mesh), t)


def x1_tilde_riemann(driver, xi, s, t, n_sub=4096):
    """Midpoint Riemann value of int_s^t e^{-xi(t-v)} dx_v, shape (n,)."""
    if t <= s:
        return np.zeros(driver.n_dims)
    mesh = subdivide(driver.grid.points, s, t, n_sub)
    mid = 0.5 * (mesh[:-1] + mesh[1:])
    dx = driver.at(mesh[1:]) - driver.at(mesh[:-1])
    return np.einsum("p,pn->n", np.exp(-np.asarray(xi) * (t - mid)), dx)


def _x1_scan(mesh, dx, xis, init):
    """Running weighted integrals along a sub-mesh, by twisted scan.

    Maintains r_k(eta) = int_{mesh[0]}^{mesh[k]} e^{-eta(mesh[k]-w)} dx_w
    (midpoint rule per sub-step, exact for a linear path within the step)
    starting from ``init``.  Returns (values at sub-step midpoints with the
    half-step contribution included: shape (P, K, n), final run (K, n)).
    """
    steps = np.diff(mesh)[:, None]
    half = np.exp(-steps / 2.0 * xis)[:, :, None]
    run = exp_scan(mesh, xis, half * dx[:, None, :], init)
    quarter = np.exp(-steps / 4.0 * xis)[:, :, None]
    return half * run[:-1] + quarter * (0.5 * dx[:, None, :]), run[-1]


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
    mid = 0.5 * (mesh[:-1] + mesh[1:])
    dx = driver.at(mesh[1:]) - driver.at(mesh[:-1])
    at_mid, _ = _x1_scan(mesh, dx, measure.xis, np.zeros((measure.n_atoms, n)))
    x1_mid = np.einsum("k,pkn->pn", measure.weights, at_mid)
    w_out = np.exp(-np.multiply.outer(xi_arr, t - mid))
    out = np.einsum("Kp,pj,pd->Kjd", w_out, dx, x1_mid)
    return out if np.ndim(xi) else out[0]


def x3_tilde_riemann(driver, measure, xi, s, u, t, n_sub=65536):
    """Brute-force Chen defect int_u^t e^{-xi(t-v)} dx_v (x) (delta x1)_{vus}.

    (delta x1)_{vus} = x1_{vs} - x1_{vu} - x1_{us}, both running first-order
    integrals accumulated by midpoint sums.  ``xi`` scalar or array as in
    :func:`x2_tilde_riemann`.
    """
    if not s <= u <= t:
        raise ValueError("need s <= u <= t")
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    n = driver.n_dims
    if t <= u:
        out = np.zeros((xi_arr.size, n, n))
        return out if np.ndim(xi) else out[0]
    if u > s:
        mesh_su = subdivide(driver.grid.points, s, u, max(n_sub // 4, 64))
        dx_su = driver.at(mesh_su[1:]) - driver.at(mesh_su[:-1])
        _, init_s = _x1_scan(
            mesh_su, dx_su, measure.xis, np.zeros((measure.n_atoms, n))
        )
    else:
        init_s = np.zeros((measure.n_atoms, n))
    x1_us = measure.weights @ init_s
    mesh = subdivide(driver.grid.points, u, t, n_sub)
    mid = 0.5 * (mesh[:-1] + mesh[1:])
    dx = driver.at(mesh[1:]) - driver.at(mesh[:-1])
    at_mid_s, _ = _x1_scan(mesh, dx, measure.xis, init_s)
    at_mid_u, _ = _x1_scan(mesh, dx, measure.xis, np.zeros_like(init_s))
    delta_x1 = np.einsum(
        "k,pkn->pn", measure.weights, at_mid_s - at_mid_u
    ) - x1_us[None, :]
    w_out = np.exp(-np.multiply.outer(xi_arr, t - mid))
    out = np.einsum("Kp,pj,pd->Kjd", w_out, dx, delta_x1)
    return out if np.ndim(xi) else out[0]


def x3_tilde_riemann_fast(driver, measure, xi, s, u, t, n_sub=65536):
    """Same quantity as :func:`x3_tilde_riemann`, via the inner increment's
    per-atom twist representation.

    (delta x1)_{vus} = sum_k w_k (e^{-eta_k (v-u)} - 1) x1~_{us}(eta_k),
    with x1~_{us} itself a midpoint Riemann sum; removes the running scans,
    so 2^16-step meshes cost a few milliseconds.
    """
    if not s <= u <= t:
        raise ValueError("need s <= u <= t")
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    n = driver.n_dims
    if t <= u:
        out = np.zeros((xi_arr.size, n, n))
        return out if np.ndim(xi) else out[0]
    if u > s:
        mesh_su = subdivide(driver.grid.points, s, u, max(n_sub // 4, 64))
        mid_su = 0.5 * (mesh_su[:-1] + mesh_su[1:])
        dx_su = driver.at(mesh_su[1:]) - driver.at(mesh_su[:-1])
        x1t_us = np.einsum(
            "kp,pn->kn", np.exp(-np.multiply.outer(measure.xis, u - mid_su)), dx_su
        )
    else:
        x1t_us = np.zeros((measure.n_atoms, n))
    mesh = subdivide(driver.grid.points, u, t, n_sub)
    mid = 0.5 * (mesh[:-1] + mesh[1:])
    dx = driver.at(mesh[1:]) - driver.at(mesh[:-1])
    a_vu = np.expm1(-np.multiply.outer(measure.xis, mid - u))     # (K, P)
    inner = np.einsum("k,kp,kn->pn", measure.weights, a_vu, x1t_us)
    w_out = np.exp(-np.multiply.outer(xi_arr, t - mid))
    out = np.einsum("Kp,pj,pd->Kjd", w_out, dx, inner)
    return out if np.ndim(xi) else out[0]


def young_integral_simpson(driver, z_fn, xi, s, t, n_sub=8192):
    """Composite-Simpson value of int_s^t e^{-xi(t-v)} x'(v) z(v) dv.

    An adaptive-quadrature-grade reference for smooth scalar integrands
    against piecewise-linear drivers (the integrand is smooth within each
    driver cell because the sub-mesh aligns with the cells).
    """
    mesh = subdivide(driver.grid.points, s, t, n_sub)
    a, b = mesh[:-1], mesh[1:]
    mid = 0.5 * (a + b)
    pts = driver.grid.points
    idx = np.clip(np.searchsorted(pts, mid, side="right") - 1, 0, len(pts) - 2)
    slopes = driver.slopes[idx][:, 0]

    def f(v):
        return np.exp(-xi * (t - v)) * z_fn(v)

    return float(np.sum((b - a) / 6.0 * slopes * (f(a) + 4.0 * f(mid) + f(b))))


def rk4_augmented(driver, measure, fld, a, dt_max=1e-4):
    """RK4 oracle for smooth drivers, in (ytilde(xi_k))_k coordinates.

    Integrates ytilde' = -xi ytilde + x'(t) sigma(a + <w, ytilde>) cell by
    cell (the slope is constant within a cell, so RK4 keeps its order) and
    returns (y, ytilde) at the driver's grid points.
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
