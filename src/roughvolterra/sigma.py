"""Coefficient fields sigma: R^d -> R^{n,d} with their analytic derivative.

The solver reads sigma and its first derivative: the rough germ's
second-order term is x2~ . (sigma Dsigma)(y).  The shipped catalog covers
the shapes used by the experiment harness: zero, constant, linear, sine
and a tanh-saturating field, all of the separable form
sigma(y)[i, j] = u_i f(y_j).
"""

from __future__ import annotations

import inspect
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


def _separable(n, d, u, f, f1):
    """sigma[i, j] = u_i f(y_j) and its diagonal derivative tensor; u None means all ones."""
    u = np.ones(n) if u is None else np.asarray(u, dtype=float).reshape(n)
    eye = np.eye(d)

    def batch(ys):
        return u[None, :, None] * f(ys)[:, None, :]

    def dbatch(ys):
        return u[None, :, None, None] * f1(ys)[:, None, :, None] * eye[None, None, :, :]

    return SigmaField(n=n, d=d, batch=batch, dsigma_batch=dbatch)


# each family's params are its keyword parameters; it returns (direction, f, f')

def _zero():
    return None, np.zeros_like, np.zeros_like


def _constant(value=1.0):
    value = float(value)
    return None, lambda y: np.full_like(y, value), np.zeros_like


def _linear(scale=1.0, direction=None):
    scale = float(scale)
    return direction, lambda y: scale * y, lambda y: scale * np.ones_like(y)


def _sin(amp=1.0, freq=1.0, phase=0.0, direction=None):
    amp, freq, phase = float(amp), float(freq), float(phase)
    return (direction, lambda y: amp * np.sin(freq * y + phase),
            lambda y: amp * freq * np.cos(freq * y + phase))


def _tanh(amp=1.0, width=1.0, direction=None):
    amp, c = float(amp), 1.0 / float(width)
    return direction, lambda y: amp * np.tanh(c * y), lambda y: amp * c / np.cosh(c * y) ** 2


_FAMILIES = {"zero": _zero, "constant": _constant, "linear": _linear, "sin": _sin, "tanh": _tanh}

# the params keys sigma_catalog accepts for each family
SIGMA_PARAMS = {name: tuple(inspect.signature(fn).parameters) for name, fn in _FAMILIES.items()}


def sigma_catalog(name: str, n: int = 1, d: int = 1, params: dict | None = None) -> SigmaField:
    """Build the catalog field ``name``, a key of SIGMA_PARAMS, with n rows and d columns.

    ``params`` takes the family's keys listed there; ``direction`` (length-n
    weights) defaults to all ones.  Any other key raises ValueError.
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown sigma field {name!r}")
    params = params or {}
    unknown = sorted(set(params) - set(SIGMA_PARAMS[name]))
    if unknown:
        raise ValueError(f"sigma field {name!r} has no param(s) {unknown}; "
                         f"it takes {list(SIGMA_PARAMS[name])}")
    return _separable(n, d, *_FAMILIES[name](**params))
