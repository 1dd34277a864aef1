"""The seed chunks of ``checks``: one FFT sub-batch of a draw each."""

import tracemalloc

import numpy as np
import pytest

from roughvolterra import checks
from roughvolterra import lift as lift_mod
from roughvolterra.algebra import TimeGrid
from roughvolterra.lift import sample_fbm


@pytest.mark.parametrize("cells, size", [(4095, 8), (1024, 31)])
def test_seed_chunks_are_the_draw_sub_batch(cells, size):
    seeds = list(range(101))
    chunks = checks.seed_chunks(seeds, cells)
    assert lift_mod.draw_batch(cells) == size
    assert [len(c) for c in chunks[:-1]] == [size] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) <= size
    assert [s for c in chunks for s in c] == seeds


def test_chunked_draws_match_one_draw():
    # draws do not depend on how the seeds are split into calls
    grid = TimeGrid.uniform(1024, 1.0)
    seeds = list(range(40))
    whole = sample_fbm(0.7, grid, seed=seeds)
    chunked = [d for c in checks.seed_chunks(seeds, 1024) for d in sample_fbm(0.7, grid, seed=c)]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(whole, chunked))


def test_a9_holds_one_chunk_of_paths():
    # one chunk's paths (8 at 4096 points), the draw's DRAW_BYTES of normals and
    # transform, and slack for its grid vectors (gamma, c, lambda, root) and the
    # estimator's increments: 1.95 MB measured against 4.72 MB for one 101-seed draw
    points = 4096
    checks.a9_holder_estimator(1.0, seeds=range(2), hursts=(0.4,), points=points)
    tracemalloc.start()
    try:
        rec = checks.a9_holder_estimator(0.07, seeds=range(101), hursts=(0.4,), points=points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.passed
    chunk = len(checks.seed_chunks(list(range(101)), points - 1)[0]) * points * 8
    assert peak <= chunk + lift_mod.DRAW_BYTES + 24 * 8 * points
