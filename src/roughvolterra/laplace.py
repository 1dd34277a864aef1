"""Atomic Laplace representations of Volterra kernels.

A kernel phi(v) = int_0^inf e^{-v xi} phihat(xi) dxi is carried at runtime
as a finite signed atomic measure {(xi_k, w_k)}; continuous densities exist
only at construction time, where they are discretised by composite
Gauss-Legendre quadrature on [0, tail_cut] and validated by reconstructing
phi at a few probe points.  Every downstream xi-integral is then an exact
finite sum relative to the chosen measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

__all__ = [
    "KernelMeasure",
    "QuadratureError",
    "build_quadrature",
    "phi_eval",
    "DENSITY_CATALOG",
    "kernel_from_spec",
]


class QuadratureError(RuntimeError):
    """Raised when a density discretisation misses its reconstruction tolerance."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


@dataclass(frozen=True)
class KernelMeasure:
    """Finite, non-empty signed atomic measure {(xi_k, w_k)} standing for phihat(xi) dxi."""

    xis: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        xis = np.atleast_1d(np.asarray(self.xis, dtype=float))
        ws = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "xis", xis)
        object.__setattr__(self, "weights", ws)
        if xis.shape != ws.shape or xis.ndim != 1:
            raise ValueError("atoms need matching 1-d frequency and weight arrays")
        if xis.size == 0:
            raise ValueError("a kernel measure needs at least one atom")
        if not (np.all(np.isfinite(xis)) and np.all(np.isfinite(ws))):
            raise ValueError("atoms must be finite")
        if np.any(xis < 0):
            raise ValueError("Laplace frequencies must be >= 0")
        if np.any(np.diff(xis) <= 0):
            raise ValueError("atoms must be sorted by frequency with no duplicates")

    @classmethod
    def from_atoms(cls, atoms):
        pairs = sorted((float(x), float(w)) for x, w in atoms)
        return cls(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))

    @property
    def n_atoms(self) -> int:
        return self.xis.size


def phi_eval(measure: KernelMeasure, v):
    """Kernel value phi(v) = sum_k w_k e^{-v xi_k}; v may be an array."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("kernel argument must be >= 0")
    out = np.exp(-np.multiply.outer(v, measure.xis)) @ measure.weights
    return out if out.ndim else float(out)


PROBE_POINTS = (0.1, 1.0, 10.0)     # where build_quadrature checks its reconstruction of phi
N_NODES = 64                        # kernel_from_spec's default node count, one atom a node


def check_n_nodes(n_nodes: int, tail_cut: float, key: str = "n_nodes"):
    """Raise ValueError naming ``key`` unless ``n_nodes`` fills whole panels of 8 nodes (2 to 7,
    one panel) and the smallest of ``build_quadrature``'s panel edges, tail_cut 2^-k for
    k < n_nodes // 8, is a normal float: past it nodes collide."""
    if n_nodes < 2 or n_nodes >= 8 and n_nodes % 8:
        raise ValueError(f"{key} must be 2 to 7 or a multiple of 8, got {n_nodes}")
    most = 8 * (int(np.frexp(tail_cut)[1]) + 1022)
    if n_nodes > most:
        raise ValueError(f"{key} must be at most {most} at tail_cut {tail_cut:g}, got {n_nodes}")


GL_NEWTON_STEPS = 6     # from _gauss_legendre's guesses, enough for round-off at n <= 8


def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n, evaluated with its three-term recurrence, from
    the guesses -cos(pi (4k - 1) / (4n + 2)) (as in Hale & Townsend 2013);
    the weights are 2 / ((1 - x^2) P_n'(x)^2), and both are symmetrised.
    """
    k = np.arange(1, n + 1)
    x = -np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(GL_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        x = x - p / dp
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) for |x| < 1 by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def build_quadrature(
    density,
    n_nodes: int,
    tail_cut: float,
    reconstruction_tol: float = 1e-8,
) -> KernelMeasure:
    """Discretise a kernel density into composite Gauss-Legendre atoms.

    The measure is accepted only if it reproduces phi(v) at PROBE_POINTS
    within ``reconstruction_tol`` of an adaptive-quadrature
    reference over [0, inf); otherwise a QuadratureError reports the
    achieved error.  ``check_n_nodes`` bounds ``n_nodes``.
    """
    if tail_cut <= 0:
        raise ValueError("tail_cut must be positive")
    check_n_nodes(n_nodes, tail_cut)
    per_panel = min(8, n_nodes)
    n_panels = n_nodes // per_panel
    base_x, base_w = _gauss_legendre(per_panel)
    # panels graded geometrically toward 0, where e^{-v xi} needs resolution
    edges = np.concatenate(
        [[0.0], tail_cut * 2.0 ** -np.arange(n_panels - 1, -1.0, -1.0)]
    )
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    xis = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    ws = (half[:, None] * base_w[None, :]).ravel() * np.asarray(
        [density(x) for x in xis], dtype=float
    )
    order = np.argsort(xis)
    measure = KernelMeasure(xis[order], ws[order])

    worst = 0.0
    for v in PROBE_POINTS:
        ref, _ = quad(
            lambda x: np.exp(-v * x) * density(x), 0.0, np.inf, limit=400
        )
        worst = max(worst, abs(phi_eval(measure, v) - ref))
    if worst > reconstruction_tol:
        raise QuadratureError(
            f"kernel reconstruction error {worst:.3e} exceeds tolerance "
            f"{reconstruction_tol:.3e} at {n_nodes} nodes",
            achieved_error=worst,
        )
    return measure


def _exp_density(rate=1.0):
    return lambda xi: np.exp(-rate * xi), rate


def _gamma_density(shape=2.0, rate=1.0):
    if shape < 1.0:
        raise ValueError("gamma-type density needs shape >= 1 for quadrature")
    return lambda xi: xi ** (shape - 1.0) * np.exp(-rate * xi), rate


# name -> factory(params) -> (density, min decay rate)
DENSITY_CATALOG = {
    "exp": _exp_density,
    "gamma": _gamma_density,
}


DENSITY_KEYS = ("name", "params", "n_nodes")


def density_tail_cut(d: dict):
    """A density spec's density and tail cut, 50 over the density's slowest decay rate."""
    density, decay_rate = DENSITY_CATALOG[d["name"]](**d.get("params", {}))
    return density, 50.0 / decay_rate


def kernel_from_spec(spec: dict) -> KernelMeasure:
    """Build a measure from a config mapping.

    Accepts exactly one of ``{"atoms": [[xi, w], ...]}`` and
    ``{"density": {key: value}}`` with keys from DENSITY_KEYS.
    The tail cut is 50 over the density's slowest decay rate, validated by
    the reconstruction check.  Any other key is an error.
    """
    unknown = sorted(set(spec) - {"atoms", "density"}) + sorted(
        f"density.{k}" for k in set(spec.get("density", {})) - set(DENSITY_KEYS))
    if unknown:
        raise ValueError(f"unknown kernel spec key(s) {unknown}")
    if len(spec) != 1:
        raise ValueError("kernel spec needs exactly one of 'atoms' and 'density'")
    if "atoms" in spec:
        return KernelMeasure.from_atoms(spec["atoms"])
    d = spec["density"]
    if d.get("name") not in DENSITY_CATALOG:
        raise ValueError(f"unknown density {d.get('name')!r}")
    density, tail = density_tail_cut(d)
    return build_quadrature(density, n_nodes=int(d.get("n_nodes", N_NODES)), tail_cut=tail)
