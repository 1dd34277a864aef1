"""The blocked sub-mesh walk of ``oracles.x3_tilde_riemann_fast``."""

import tracemalloc

import numpy as np
import pytest

from roughvolterra import oracles
from roughvolterra.algebra import TimeGrid
from roughvolterra.laplace import KernelMeasure
from roughvolterra.lift import sample_fbm

ATOMS3 = [(0.5, 0.6), (2.0, 0.3), (8.0, 0.1)]


def fbm_driver(n_dims=2, cells=256, seed=3):
    return sample_fbm(0.4, TimeGrid.uniform(cells, 1.0), n_dims=n_dims, seed=seed)


def linspace_mesh(grid, s, t, target):
    """Each piece of [s, t] between knots split by np.linspace into equal steps."""
    inside = grid.points[(grid.points > s) & (grid.points < t)]
    knots = np.concatenate(([s], inside, [t]))
    per = max(1, round(target / (knots.size - 1)))
    return np.append(np.concatenate(
        [np.linspace(a, b, per + 1)[:-1] for a, b in zip(knots[:-1], knots[1:])]), t)


def full_mesh_x3(driver, measure, xis, s, u, t, n_sub):
    """The oracle's midpoint sums in one pass over whole meshes, increments from ``at``."""
    def steps(a, b, target):
        mesh = linspace_mesh(driver.grid, a, b, target)
        vals = driver.at(mesh)
        return 0.5 * (mesh[:-1] + mesh[1:]), np.diff(vals, axis=0)

    mid, dx = steps(s, u, max(n_sub // 4, 64))
    x1t_us = np.exp(-np.multiply.outer(measure.xis, u - mid)) @ dx           # (K, n)
    mid, dx = steps(u, t, n_sub)
    a_vu = np.expm1(-np.multiply.outer(measure.xis, mid - u))                 # (K, P)
    inner = np.einsum("k,kp,kn->pn", measure.weights, a_vu, x1t_us)
    w_out = np.exp(-np.multiply.outer(xis, t - mid))
    return np.einsum("Kp,pj,pd->Kjd", w_out, dx, inner)


class TestBlockedWalk:
    @pytest.mark.parametrize("s, t, target", [(0.1, 0.9, 65536), (0.5007, 0.5030, 20000),
                                              (0.125, 0.6875, 1000)])
    def test_blocks_are_the_full_mesh_steps(self, s, t, target):
        # every midpoint and increment bit for bit, block boundaries wherever they fall
        driver = fbm_driver()
        mesh = oracles.subdivide(driver.grid.points, s, t, target)
        mid, _, dx = oracles._sub_steps(driver, mesh)
        blocks = list(oracles._step_blocks(driver, s, t, target))
        assert np.array_equal(np.concatenate([b[0] for b in blocks]), mid)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), dx)
        assert all(len(b[0]) <= oracles._BLOCK for b in blocks)

    @pytest.mark.parametrize("s, u, t, n_sub", [
        # [u, t] inside one cell: its one piece is 20000 steps, over two blocks
        (0.2, 0.50078125 + 1e-4, 0.50078125 + 3e-3, 20000),
        # [u, t] over 206 cells, 318 steps a piece: block boundaries fall inside pieces
        (0.05, 0.1, 0.9, 65536),
    ])
    def test_matches_a_full_mesh_midpoint_sum(self, s, u, t, n_sub):
        driver = fbm_driver()
        measure = KernelMeasure.from_atoms(ATOMS3)
        pieces = oracles._pieces(driver.grid.points, u, t, n_sub)
        assert pieces[1] * (pieces[0].size - 1) > oracles._BLOCK
        assert oracles._BLOCK % pieces[1] != 0 or pieces[0].size == 2
        got = oracles.x3_tilde_riemann_fast(driver, measure, measure.xis, s, u, t, n_sub)
        ref = full_mesh_x3(driver, measure, measure.xis, s, u, t, n_sub)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_working_set_does_not_grow_with_the_mesh(self):
        # a few (K, _BLOCK) arrays: 1.19 MB measured at 2^16 and at 2^18 steps (one
        # pass over the whole mesh held 7.1 MB and 28.3 MB)
        driver = fbm_driver(n_dims=1)
        measure = KernelMeasure.from_atoms(ATOMS3)
        for n_sub in (1 << 16, 1 << 18):
            tracemalloc.start()
            try:
                oracles.x3_tilde_riemann_fast(driver, measure, measure.xis, 0.1, 0.3, 0.9,
                                              n_sub)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 1024**2, n_sub

    def test_degenerate_triples_are_zero(self):
        driver = fbm_driver()
        measure = KernelMeasure.from_atoms(ATOMS3)
        for s, u, t in [(0.25, 0.25, 0.75), (0.25, 0.75, 0.75)]:
            out = oracles.x3_tilde_riemann_fast(driver, measure, 1.0, s, u, t)
            assert out.shape == (2, 2) and not np.any(out)
        with pytest.raises(ValueError):
            oracles.x3_tilde_riemann_fast(driver, measure, 1.0, 0.5, 0.25, 0.75)
