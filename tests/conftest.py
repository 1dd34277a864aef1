import numpy as np
import pytest


def _fd_consistency(fld, n_points=10, seed=0, h=1e-6):
    """Max relative error of ``fld``'s Dsigma against central differences of sigma
    at random points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        y = rng.uniform(-1.5, 1.5, size=fld.d)
        ds = fld.dsigma_batch(y[None])[0]
        scale = max(1.0, float(np.max(np.abs(ds))))
        for q in range(fld.d):
            e = np.zeros(fld.d)
            e[q] = h
            fd = (fld.batch((y + e)[None])[0] - fld.batch((y - e)[None])[0]) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd - ds[..., q]))) / scale)
    return worst


@pytest.fixture
def fd_consistency():
    """The finite-difference check of a SigmaField's derivative, shared by the sigma and
    solver tests."""
    return _fd_consistency
