"""Seed lists in ``checks``: one eigenvalue pass each, streamed one FFT sub-batch at a time."""

import tracemalloc

import numpy as np
import pytest

from roughvolterra import checks
from roughvolterra import lift as lift_mod
from roughvolterra.algebra import TimeGrid
from roughvolterra.lift import sample_fbm


def test_chunked_draws_match_one_draw():
    # draws do not depend on how the seeds are split into calls
    grid = TimeGrid.uniform(1024, 1.0)
    seeds = list(range(40))
    whole = list(sample_fbm(0.7, grid, seed=seeds))
    chunked = [d for i in range(0, 40, 13) for d in sample_fbm(0.7, grid, seed=seeds[i : i + 13])]
    assert len(whole) == len(chunked) == 40
    assert all(np.array_equal(a.values, b.values) for a, b in zip(whole, chunked))


@pytest.fixture
def eigenvalue_passes(monkeypatch):
    passes = []
    gamma = lift_mod._fgn_autocovariance
    monkeypatch.setattr(lift_mod, "_fgn_autocovariance",
                        lambda hurst, n, h: passes.append(n) or gamma(hurst, n, h))
    return passes


def test_a9_makes_one_eigenvalue_pass_per_hurst(eigenvalue_passes):
    checks.a9_holder_estimator(1.0, seeds=range(20), hursts=(0.4, 0.7), points=4096)
    assert eigenvalue_passes == [4096, 4096]


def test_x1_tilde_value_makes_one_eigenvalue_pass(eigenvalue_passes):
    values = checks.x1_tilde_value(range(200), 0.7, 1024, 1.0)
    assert len(values) == 200 and eigenvalue_passes == [1025]


def test_a9_holds_one_chunk_of_paths():
    # one FFT sub-batch's normals, transform and paths (DRAW_BYTES), and slack for the
    # draw's grid vectors (gamma, c, lambda, root) and the estimator's increments:
    # 0.40 MB measured against 4.72 MB for one held 101-seed draw
    points = 4096
    checks.a9_holder_estimator(1.0, seeds=range(2), hursts=(0.4,), points=points)
    tracemalloc.start()
    try:
        rec = checks.a9_holder_estimator(0.07, seeds=range(101), hursts=(0.4,), points=points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.passed
    assert peak <= lift_mod.DRAW_BYTES + 24 * 8 * points


def test_x1_tilde_value_holds_one_sub_batch():
    # one sub-batch's normals, transform and paths (DRAW_BYTES), two more blocks (the
    # last path's block lives on while the next is drawn; one is slack), a result
    # float and a seed int per seed (each with its list slot) and the grid vectors:
    # 0.55 MB measured, 1.71 MB with the block uncounted in a 1 MiB budget
    seeds, cells = range(2000), 1024
    checks.x1_tilde_value(range(2), 0.7, cells, 1.0)
    tracemalloc.start()
    try:
        values = checks.x1_tilde_value(seeds, 0.7, cells, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) == len(seeds)
    block = 8 * (cells + 1) * lift_mod._draw_batch(cells, 1)
    bound = lift_mod.DRAW_BYTES + 2 * block + 2 * 36 * len(seeds) + 16 * 8 * (cells + 1)
    assert peak <= min(bound, 0.75e6)
