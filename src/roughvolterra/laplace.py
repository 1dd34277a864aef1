"""Atomic Laplace representations of Volterra kernels.

A kernel phi(v) = int_0^inf e^{-v xi} phihat(xi) dxi is carried at runtime
as a finite signed atomic measure {(xi_k, w_k)}; continuous densities exist
only at construction time, where they are discretised by a generalized
Gauss-Laguerre rule and validated against phi's closed form on the run's
horizon.  Every downstream xi-integral is then an exact finite sum relative
to the chosen measure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

__all__ = [
    "KernelMeasure",
    "QuadratureError",
    "build_quadrature",
    "phi_eval",
    "DENSITY_CATALOG",
    "kernel_from_spec",
]


class QuadratureError(RuntimeError):
    """Raised when a density's Gauss-Laguerre rule fails or misses its reconstruction tolerance."""

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


RECONSTRUCTION_TOL = 1e-8   # build_quadrature's largest relative error of phi on [0, horizon]
CHECK_POINTS = 65           # uniform points of [0, horizon] it checks; the error peaks at horizon
N_NODES = 64                        # kernel_from_spec's default node count, one atom a node
# build_quadrature's most nodes: its smallest weight, about 1e-298 at 180 nodes for alpha in
# [-0.8, 3], is subnormal by 190
MAX_NODES = 180
START_STEPS = 6         # Newton steps on the start angles, residual below 1e-7 at 180 nodes
ABERTH_STEPS = 20       # a cap: from those starts the nodes converge within 6 for alpha <= 5
ABERTH_TOL = 1e-8       # a relative step this small leaves round-off, as convergence is cubic


def _laguerre(n: int, alpha: float, x):
    """p_{n-1}(x), p_n(x) and sum_{k<n} p_k(x)^2 for the polynomials p_k orthonormal under
    xi^alpha e^{-xi} / Gamma(alpha + 1) on [0, inf), by their three-term recurrence."""
    p0, p1, total = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    for k in range(n):
        total += p1 * p1
        p0, p1 = p1, ((x - 2 * k - 1 - alpha) * p1 - math.sqrt(k * (k + alpha)) * p0) \
            / math.sqrt((k + 1) * (k + 1 + alpha))
    return p0, p1, total


def _gauss_laguerre(n: int, alpha: float):
    """n-point Gauss rule for the weight xi^alpha e^{-xi} on [0, inf): nodes (ascending), weights.

    Aberth-Ehrlich iteration on p_n, evaluated with its three-term recurrence, not an
    eigenvalue solve.  It starts from the zeros' asymptotics nu sin^2(phi_i / 2), where
    phi_i + sin(phi_i) = pi (4i - 1 + 2 alpha) / nu and nu = 4n + 2 alpha + 2 (the
    Bessel-corrected quantiles of the zeros' density sqrt((nu - x) / x)).  The weights are the
    Christoffel numbers Gamma(alpha + 1) / sum_{k<n} p_k(x_i)^2.
    """
    nu = 4 * n + 2 * alpha + 2
    c = np.pi * (4 * np.arange(1, n + 1) - 1 + 2 * alpha) / nu
    phi = c / 2                 # below the root of the concave phi + sin(phi) = c, Newton rises
    for _ in range(START_STEPS):
        phi = phi + (c - phi - np.sin(phi)) / (1 + np.cos(phi))
    x = nu * np.sin(phi / 2) ** 2
    b_n = math.sqrt(n * (n + alpha))
    with np.errstate(all="ignore"):     # from alpha near 20 the recurrence may overflow
        for _ in range(ABERTH_STEPS):
            p0, p1, _ = _laguerre(n, alpha, x)
            newton = x * p1 / (n * p1 + b_n * p0)   # p_n / p_n': x p_n' = n p_n + b_n p_{n-1}
            gaps = x[:, None] - x
            np.fill_diagonal(gaps, np.inf)
            step = newton / (1 - newton * (1 / gaps).sum(axis=1))
            x = x - step
            if np.all(np.abs(step) <= ABERTH_TOL * x):
                break
        x = np.sort(x)
        return x, gamma(alpha + 1) / _laguerre(n, alpha, x)[2]


def build_quadrature(alpha: float, rate: float, n_nodes: int,
                     horizon: float = 1.0) -> KernelMeasure:
    """Discretise the kernel density xi^alpha e^{-rate xi} into Gauss-Laguerre atoms.

    The n_nodes atoms are x_i / rate with weights w_i / rate^(alpha + 1), for the Gauss rule
    (x_i, w_i) of the weight xi^alpha e^{-xi}, so the weights carry the density.  The measure
    is accepted only if it reproduces phi(v) = Gamma(alpha + 1) / (v + rate)^(alpha + 1) within
    RECONSTRUCTION_TOL relative at CHECK_POINTS uniform points of [0, horizon], the solver's
    range of v; otherwise a QuadratureError reports the achieved error.  ``n_nodes`` is 2 to
    MAX_NODES, checked before the rule is built.
    """
    if not 2 <= n_nodes <= MAX_NODES:
        raise ValueError(f"n_nodes must be 2 to {MAX_NODES}, got {n_nodes}")
    try:                        # the rule's own nodes and weights, as atoms at rate 1
        rule = KernelMeasure(*_gauss_laguerre(n_nodes, alpha))
    except ValueError as exc:
        raise QuadratureError(f"the Gauss-Laguerre rule did not converge at {n_nodes} nodes, "
                              f"alpha {alpha}: {exc}") from None
    measure = KernelMeasure(rule.xis / rate, rule.weights / rate ** (alpha + 1))

    v = np.linspace(0.0, horizon, CHECK_POINTS)
    worst = np.max(np.abs(phi_eval(measure, v) * (v + rate) ** (alpha + 1) / gamma(alpha + 1) - 1))
    if not worst <= RECONSTRUCTION_TOL:
        raise QuadratureError(f"kernel reconstruction error {worst:.3e} exceeds relative tolerance "
                              f"{RECONSTRUCTION_TOL:.0e} on [0, {horizon:g}] at {n_nodes} nodes",
                              achieved_error=worst)
    return measure


def _exp_density(rate=1.0):
    return _gamma_density(1.0, rate)


def _gamma_density(shape=2.0, rate=1.0):
    if not 0 < rate < np.inf:
        raise ValueError(f"density rate must be positive and finite, got {rate}")
    if not 0 < shape < np.inf:
        raise ValueError(f"density shape must be positive and finite, got {shape}")
    return shape - 1.0, rate


# name -> factory(params) -> (alpha, rate) of the density xi^alpha e^{-rate xi}
DENSITY_CATALOG = {
    "exp": _exp_density,
    "gamma": _gamma_density,
}


DENSITY_KEYS = ("name", "params", "n_nodes")


def kernel_from_spec(spec: dict, horizon: float = 1.0) -> KernelMeasure:
    """Build a measure from a config mapping, a density's checked on [0, horizon].

    Accepts exactly one of ``{"atoms": [[xi, w], ...]}`` and
    ``{"density": {key: value}}`` with keys from DENSITY_KEYS.
    Any other key is an error.
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
    alpha, rate = DENSITY_CATALOG[d["name"]](**d.get("params", {}))
    n_nodes = d.get("n_nodes", N_NODES)
    if isinstance(n_nodes, bool):           # operator.index takes True as 1
        raise TypeError(f"n_nodes must be an integer, got {n_nodes!r}")
    return build_quadrature(alpha, rate, operator.index(n_nodes), horizon)
