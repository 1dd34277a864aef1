"""Coefficient fields sigma: R^d -> R^{n,d} with analytic derivatives.

The solver needs sigma up to third derivatives (bounds included, for
diagnostics).  The shipped catalog covers the shapes used by the
experiment harness: zero, constant, linear, sine and a tanh-saturating
field, all of the separable form sigma(y)[i, j] = u_i f(y_j).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["SigmaField", "sigma_catalog", "SIGMA_NAMES", "SIGMA_PARAMS"]


@dataclass
class SigmaField:
    """Matrix-valued coefficient with derivative evaluators.

    ``batch`` maps (P, d) -> (P, n, d); ``dsigma_batch`` appends one
    derivative axis per order: (P, n, d, d), (P, n, d, d, d), ...
    ``bounds[k]`` is a declared sup bound on the k-th derivative, used in
    diagnostics only.
    """

    n: int
    d: int
    batch: Callable[[np.ndarray], np.ndarray]
    dsigma_batch: Callable[[np.ndarray], np.ndarray]
    d2sigma_batch: Callable[[np.ndarray], np.ndarray] | None = None
    d3sigma_batch: Callable[[np.ndarray], np.ndarray] | None = None
    bounds: dict = field(default_factory=dict)
    name: str = "custom"

    def __call__(self, y):
        return self.batch(np.asarray(y, dtype=float)[None, :])[0]

    def dsigma(self, y):
        return self.dsigma_batch(np.asarray(y, dtype=float)[None, :])[0]

    def d2sigma(self, y):
        if self.d2sigma_batch is None:
            raise ValueError(f"sigma field {self.name!r} has no second derivative")
        return self.d2sigma_batch(np.asarray(y, dtype=float)[None, :])[0]

    def d3sigma(self, y):
        if self.d3sigma_batch is None:
            raise ValueError(f"sigma field {self.name!r} has no third derivative")
        return self.d3sigma_batch(np.asarray(y, dtype=float)[None, :])[0]

    def fd_consistency(self, n_points: int = 10, seed: int = 0, h: float = 1e-6):
        """Max relative error of Dsigma against central differences of sigma
        (and of D2sigma against differences of Dsigma) at random points."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_points):
            y = rng.uniform(-1.5, 1.5, size=self.d)
            scale = max(1.0, float(np.max(np.abs(self.dsigma(y)))))
            for q in range(self.d):
                e = np.zeros(self.d)
                e[q] = h
                fd = (self(y + e) - self(y - e)) / (2 * h)
                worst = max(worst, float(np.max(np.abs(fd - self.dsigma(y)[..., q]))) / scale)
            if self.d2sigma_batch is not None:
                scale2 = max(1.0, float(np.max(np.abs(self.d2sigma(y)))))
                for q in range(self.d):
                    e = np.zeros(self.d)
                    e[q] = h
                    fd = (self.dsigma(y + e) - self.dsigma(y - e)) / (2 * h)
                    worst = max(
                        worst,
                        float(np.max(np.abs(fd - self.d2sigma(y)[..., q]))) / scale2,
                    )
        return worst


def _separable(name, n, d, u, f, f1, f2, f3, bound_f, bound_scale):
    """sigma[i, j] = u_i f(y_j) and its diagonal derivative tensors."""
    u = np.asarray(u, dtype=float).reshape(n)
    eye = np.eye(d)
    eye2 = np.einsum("jq,jr->jqr", eye, eye)
    eye3 = np.einsum("jq,jr,js->jqrs", eye, eye, eye)

    def batch(ys):
        return u[None, :, None] * f(ys)[:, None, :]

    def dbatch(ys):
        return u[None, :, None, None] * f1(ys)[:, None, :, None] * eye[None, None, :, :]

    def d2batch(ys):
        return (
            u[None, :, None, None, None]
            * f2(ys)[:, None, :, None, None]
            * eye2[None, None, :, :, :]
        )

    def d3batch(ys):
        return (
            u[None, :, None, None, None, None]
            * f3(ys)[:, None, :, None, None, None]
            * eye3[None, None, :, :, :, :]
        )

    umax = float(np.max(np.abs(u))) if n else 0.0
    bounds = {k: umax * b * bound_scale**k for k, b in enumerate(bound_f)}
    return SigmaField(
        n=n, d=d, batch=batch, dsigma_batch=dbatch,
        d2sigma_batch=d2batch, d3sigma_batch=d3batch,
        bounds=bounds, name=name,
    )


def sigma_catalog(name: str, n: int = 1, d: int = 1, params: dict | None = None) -> SigmaField:
    """Build a catalog coefficient field.

    Names: ``zero``, ``constant`` (params: value), ``linear`` (scale),
    ``sin`` (amp, freq, phase), ``tanh`` (amp, width).  ``direction``
    (length-n weights) is accepted by the separable families.
    """
    p = dict(params or {})
    u = np.asarray(p.pop("direction", np.ones(n)), dtype=float)

    if name == "zero":
        zero = np.zeros((n, d))

        def batch(ys):
            return np.zeros((ys.shape[0], n, d))

        def dbatch(ys):
            return np.zeros((ys.shape[0], n, d, d))

        return SigmaField(
            n=n, d=d, batch=batch, dsigma_batch=dbatch,
            d2sigma_batch=lambda ys: np.zeros((ys.shape[0], n, d, d, d)),
            d3sigma_batch=lambda ys: np.zeros((ys.shape[0], n, d, d, d, d)),
            bounds={0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}, name="zero",
        )

    if name == "constant":
        value = np.asarray(p.pop("value", 1.0), dtype=float)
        mat = np.broadcast_to(value, (n, d)).copy()

        def batch(ys):
            return np.broadcast_to(mat, (ys.shape[0], n, d)).copy()

        def dbatch(ys):
            return np.zeros((ys.shape[0], n, d, d))

        return SigmaField(
            n=n, d=d, batch=batch, dsigma_batch=dbatch,
            d2sigma_batch=lambda ys: np.zeros((ys.shape[0], n, d, d, d)),
            d3sigma_batch=lambda ys: np.zeros((ys.shape[0], n, d, d, d, d)),
            bounds={0: float(np.max(np.abs(mat))), 1: 0.0, 2: 0.0, 3: 0.0},
            name="constant",
        )

    if name == "linear":
        scale = float(p.pop("scale", 1.0))
        return _separable(
            "linear", n, d, u,
            lambda y: scale * y,
            lambda y: scale * np.ones_like(y),
            lambda y: np.zeros_like(y),
            lambda y: np.zeros_like(y),
            bound_f=(np.inf, abs(scale), 0.0, 0.0), bound_scale=1.0,
        )

    if name == "sin":
        amp = float(p.pop("amp", 1.0))
        freq = float(p.pop("freq", 1.0))
        phase = float(p.pop("phase", 0.0))
        return _separable(
            "sin", n, d, u,
            lambda y: amp * np.sin(freq * y + phase),
            lambda y: amp * freq * np.cos(freq * y + phase),
            lambda y: -amp * freq**2 * np.sin(freq * y + phase),
            lambda y: -amp * freq**3 * np.cos(freq * y + phase),
            bound_f=(amp, amp, amp, amp), bound_scale=freq,
        )

    if name == "tanh":
        amp = float(p.pop("amp", 1.0))
        width = float(p.pop("width", 1.0))
        c = 1.0 / width
        return _separable(
            "tanh", n, d, u,
            lambda y: amp * np.tanh(c * y),
            lambda y: amp * c / np.cosh(c * y) ** 2,
            lambda y: -2.0 * amp * c**2 * np.tanh(c * y) / np.cosh(c * y) ** 2,
            lambda y: amp * c**3 * (2.0 * np.cosh(2 * c * y) - 4.0) / np.cosh(c * y) ** 4,
            bound_f=(amp, amp, 0.77 * amp, 2.0 * amp), bound_scale=c,
        )

    raise ValueError(f"unknown sigma field {name!r}")


# the params keys sigma_catalog reads for each family
SIGMA_PARAMS = {"zero": (), "constant": ("value",), "linear": ("scale", "direction"),
                "sin": ("amp", "freq", "phase", "direction"),
                "tanh": ("amp", "width", "direction")}
SIGMA_NAMES = tuple(SIGMA_PARAMS)
