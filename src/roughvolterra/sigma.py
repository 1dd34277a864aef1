"""Coefficient fields sigma: R^d -> R^{n,d} with their analytic derivative.

The solver reads sigma and its first derivative: the rough germ's
second-order term is x2~ . (sigma Dsigma)(y).  The shipped catalog covers
the shapes used by the experiment harness: zero, constant, linear, sine
and a tanh-saturating field, all of the separable form
sigma(y)[i, j] = u_i f(y_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["SigmaField", "sigma_catalog", "SIGMA_PARAMS"]


@dataclass
class SigmaField:
    """Matrix-valued coefficient with its derivative evaluator.

    ``batch`` maps (P, d) -> (P, n, d); ``dsigma_batch`` appends the
    derivative axis: (P, n, d, d), the last axis being the direction.
    """

    n: int
    d: int
    batch: Callable[[np.ndarray], np.ndarray]
    dsigma_batch: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def __call__(self, y):
        return self.batch(np.asarray(y, dtype=float)[None, :])[0]

    def dsigma(self, y):
        return self.dsigma_batch(np.asarray(y, dtype=float)[None, :])[0]

    def fd_consistency(self, n_points: int = 10, seed: int = 0, h: float = 1e-6):
        """Max relative error of Dsigma against central differences of sigma
        at random points."""
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
        return worst


def _separable(name, n, d, u, f, f1):
    """sigma[i, j] = u_i f(y_j) and its diagonal derivative tensor."""
    u = np.asarray(u, dtype=float).reshape(n)
    eye = np.eye(d)

    def batch(ys):
        return u[None, :, None] * f(ys)[:, None, :]

    def dbatch(ys):
        return u[None, :, None, None] * f1(ys)[:, None, :, None] * eye[None, None, :, :]

    return SigmaField(n=n, d=d, batch=batch, dsigma_batch=dbatch, name=name)


def sigma_catalog(name: str, n: int = 1, d: int = 1, params: dict | None = None) -> SigmaField:
    """Build a catalog coefficient field.

    Names: ``zero``, ``constant`` (params: value), ``linear`` (scale),
    ``sin`` (amp, freq, phase), ``tanh`` (amp, width).  ``direction``
    (length-n weights) is accepted by linear, sin and tanh.
    """
    p = dict(params or {})
    u = np.asarray(p.pop("direction", np.ones(n)), dtype=float)

    if name in ("zero", "constant"):
        value = float(p.pop("value", 1.0)) if name == "constant" else 0.0
        return _separable(name, n, d, np.ones(n), lambda y: np.full_like(y, value), np.zeros_like)

    if name == "linear":
        scale = float(p.pop("scale", 1.0))
        return _separable(
            "linear", n, d, u,
            lambda y: scale * y,
            lambda y: scale * np.ones_like(y),
        )

    if name == "sin":
        amp = float(p.pop("amp", 1.0))
        freq = float(p.pop("freq", 1.0))
        phase = float(p.pop("phase", 0.0))
        return _separable(
            "sin", n, d, u,
            lambda y: amp * np.sin(freq * y + phase),
            lambda y: amp * freq * np.cos(freq * y + phase),
        )

    if name == "tanh":
        amp = float(p.pop("amp", 1.0))
        width = float(p.pop("width", 1.0))
        c = 1.0 / width
        return _separable(
            "tanh", n, d, u,
            lambda y: amp * np.tanh(c * y),
            lambda y: amp * c / np.cosh(c * y) ** 2,
        )

    raise ValueError(f"unknown sigma field {name!r}")


# the params keys sigma_catalog reads for each family
SIGMA_PARAMS = {"zero": (), "constant": ("value",), "linear": ("scale", "direction"),
                "sin": ("amp", "freq", "phase", "direction"),
                "tanh": ("amp", "width", "direction")}
