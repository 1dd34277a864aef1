import tracemalloc

import numpy as np
import pytest

import roughvolterra as rv
from roughvolterra import lift as lift_mod
from roughvolterra import oracles
from roughvolterra.algebra import TimeGrid
from roughvolterra.expkernels import RAMP_SERIES_CUT, e0, ramp_int
from roughvolterra.laplace import KernelMeasure
from roughvolterra.lift import (
    DriverPath,
    RoughLift,
    deterministic_driver,
    sample_fbm,
    wiener_cov_x1,
)

ATOMS3 = [(0.5, 0.6), (2.0, 0.3), (8.0, 0.1)]


def linear_lift(cells=64, atoms=ATOMS3, gamma=1.0):
    grid = TimeGrid.uniform(cells, 1.0)
    driver = deterministic_driver(grid, lambda t: t)
    return RoughLift(driver, KernelMeasure.from_atoms(atoms), gamma=gamma)


class TestDriverPath:
    def test_shapes_and_slopes(self):
        grid = TimeGrid.uniform(4, 1.0)
        drv = DriverPath(grid, np.arange(5.0))
        assert drv.n_dims == 1
        assert np.allclose(drv.slopes, 4.0)

    def test_interpolation(self):
        grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
        drv = DriverPath(grid, np.array([0.0, 1.0, 0.0]))
        assert drv.at(np.array([0.25]))[0, 0] == pytest.approx(0.5)
        assert drv.at(np.array([0.5]))[0, 0] == 1.0

    def test_validation(self):
        grid = TimeGrid.uniform(4, 1.0)
        with pytest.raises(ValueError):
            DriverPath(grid, np.arange(4.0))
        with pytest.raises(ValueError):
            DriverPath(grid, np.array([0, 1, np.inf, 2, 3.0]))

    @pytest.mark.parametrize("shape", [(65,), (65, 2)])
    def test_values_are_a_read_only_view(self, shape):
        given = np.random.default_rng(4).standard_normal(shape)
        drv = DriverPath(TimeGrid.uniform(64, 1.0), given)
        assert np.shares_memory(drv.values, given)
        with pytest.raises(ValueError, match="read-only"):
            drv.values[3] = 1e300
        given[3] = 2.0                               # the caller's array stays writeable
        assert given.flags.writeable

    def test_lazy_slopes_and_at_match_the_eager_formula(self):
        grid = TimeGrid(np.linspace(0.0, 1.0, 65) ** 1.5)
        vals = np.random.default_rng(5).standard_normal((65, 2))
        drv = DriverPath(grid, vals)
        slopes = np.diff(vals, axis=0) / grid.widths[:, None]
        times = np.linspace(0.0, 1.0, 301)
        idx = grid.cell_of(times)
        at = vals[idx] + slopes[idx] * (times - grid.points[idx])[..., None]
        assert np.array_equal(drv.at(times), at)
        assert np.array_equal(drv.slopes, slopes)
        assert drv.slopes is drv.slopes                 # computed once


def _no_draw(*args):
    raise AssertionError("sample_fbm drew before checking its arguments")


class TestSampleFbm:
    def test_brownian_increment_independence(self):
        grid = TimeGrid.uniform(2**10, 1.0)
        drv = sample_fbm(0.5, grid, seed=5)
        inc = np.diff(drv.values[:, 0])
        rho = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(rho) < 0.05

    def test_variance_matches_covariance_function(self):
        # E[X_1^2] = 1 for H = 0.7: Monte-Carlo over 10^4 seeds, 3 SE band
        grid = TimeGrid.uniform(8, 1.0)
        vals = np.array(
            [sample_fbm(0.7, grid, seed=s).values[-1, 0] for s in range(10_000)]
        )
        var = np.var(vals, ddof=1)
        se = var * np.sqrt(2.0 / (vals.size - 1))
        assert abs(var - 1.0) <= 3 * se

    def test_seed_determinism(self):
        grid = TimeGrid.uniform(64, 1.0)
        a = sample_fbm(0.4, grid, n_dims=2, seed=123)
        b = sample_fbm(0.4, grid, n_dims=2, seed=123)
        assert np.array_equal(a.values, b.values)
        c = sample_fbm(0.4, grid, n_dims=2, seed=124)
        assert not np.array_equal(a.values, c.values)

    def test_grid_of_8192_cells_draws_and_lifts(self):
        # no point cap: 2^13 cells, twice the largest grid the CLI once allowed
        grid = TimeGrid.uniform(2**13, 1.0)
        driver = sample_fbm(0.4, grid, seed=3)
        assert driver.values.shape == (2**13 + 1, 1) and np.all(np.isfinite(driver.values))
        lift = RoughLift(driver, KernelMeasure.from_atoms(ATOMS3), gamma=0.38)
        full = lift.x1_tilde_pairs(0.0, 1.0)[0]
        assert np.allclose(full, lift.x1_tilde(0.0, 1.0), rtol=0, atol=1e-12 * lift.scale)

    def test_hurst_validation(self):
        grid = TimeGrid.uniform(8, 1.0)
        with pytest.raises(ValueError):
            sample_fbm(1.0, grid, seed=0)

    @pytest.mark.parametrize("n_dims, error", [
        (0, ValueError), (-1, ValueError), (np.int64(0), ValueError),
        (1.0, TypeError), (True, TypeError), ("2", TypeError), (None, TypeError),
    ], ids=["zero", "negative", "numpy-zero", "float", "bool", "str", "none"])
    def test_bad_n_dims_is_rejected_before_drawing(self, monkeypatch, n_dims, error):
        # a seed list raises at the call too, not at the iterator's first step
        monkeypatch.setattr(lift_mod, "_fbm_draw", _no_draw)
        for seed in (0, [0, 1]):
            with pytest.raises(error, match="n_dims"):
                sample_fbm(0.4, TimeGrid.uniform(8, 1.0), n_dims=n_dims, seed=seed)

    @pytest.mark.parametrize("seed, error", [
        (1.7, TypeError), (1.0, TypeError), (True, TypeError), (np.bool_(True), TypeError),
        ("1", TypeError), (-1, ValueError), (np.int64(-2), ValueError),
        ([1, 2.5], TypeError), ([3, False], TypeError), ([0, -4], ValueError),
        (np.array([1.0, 2.0]), TypeError), ([[1, 2]], TypeError),
    ], ids=["fraction", "float", "bool", "numpy-bool", "str", "negative", "numpy-negative",
            "list-fraction", "list-bool", "list-negative", "float-array", "nested-list"])
    def test_bad_seed_is_rejected_before_drawing(self, monkeypatch, seed, error):
        # a bad seed alone and after a good one in a list; a seed list raises at the
        # call, not at the iterator's first step
        monkeypatch.setattr(lift_mod, "_fbm_draw", _no_draw)
        for given in (seed,) if np.ndim(seed) else (seed, [0, seed]):
            with pytest.raises(error, match="seed"):
                sample_fbm(0.4, TimeGrid.uniform(8, 1.0), seed=given)

    def test_ragged_seed_list_is_rejected_before_drawing(self, monkeypatch):
        # np.ndim cannot take a ragged list, so it has a test of its own
        monkeypatch.setattr(lift_mod, "_fbm_draw", _no_draw)
        with pytest.raises(TypeError, match="seed"):
            sample_fbm(0.4, TimeGrid.uniform(8, 1.0), seed=[0, [1, 2]])

    def test_integer_like_seeds_are_accepted(self):
        grid = TimeGrid.uniform(8, 1.0)
        ref = [sample_fbm(0.4, grid, n_dims=2, seed=s).values for s in (3, 4, 5)]
        assert np.array_equal(sample_fbm(0.4, grid, n_dims=np.int64(2), seed=np.uint32(4)).values,
                              ref[1])
        assert np.array_equal(sample_fbm(0.4, grid, n_dims=2, seed=np.array(4)).values, ref[1])
        for seeds in (range(3, 6), np.arange(3, 6), [np.int32(3), 4, np.int64(5)]):
            drawn = [p.values for p in sample_fbm(0.4, grid, n_dims=2, seed=seeds)]
            assert all(np.array_equal(a, b) for a, b in zip(drawn, ref))

    def test_covariance_matrix_values(self):
        r = fbm_covariance(0.7, np.array([0.5, 1.0]))
        assert r[1, 1] == pytest.approx(1.0)
        assert r[0, 1] == pytest.approx(0.5 * (0.5**1.4 + 1.0 - 0.5**1.4) , rel=1e-12)


class _UnitNormals:
    """Stands in for a seed's Philox stream: seed k "draws" the unit vector e_k."""

    def __init__(self, k):
        self.k = k

    def standard_normal(self, out):
        out[...] = 0.0
        out[:, self.k] = 1.0


def _no_normals(seed):
    raise AssertionError("normals drawn for a draw that must be rejected")


def circulant_root(hurst, n):
    """Rows 0..n-1 of the symmetric square root of the 2n-point circulant, by explicit cosine sums.

    lambda_m = sum_k c_k cos(pi m k / n) and s_j = sum_m sqrt(lambda_m) cos(pi m j / n) / 2n,
    the angles reduced mod 2n first; row j of the root is s at lags (j - k) mod 2n.
    """
    gamma = lift_mod._fgn_autocovariance(hurst, n + 1, 1.0 / n)
    c = np.r_[gamma, gamma[-2:0:-1]]
    k = np.arange(2 * n)
    cos = np.cos(np.pi * (np.outer(k, k) % (2 * n)) / n)
    s = cos @ np.sqrt(cos @ c) / (2 * n)
    return s[(k[:n, None] - k[None, :]) % (2 * n)]


def drawn_block(hurst, n, seeds, n_dims):
    """The seed list's paths on the uniform n-cell grid, side by side in one (n + 1, seeds n_dims) array."""
    return np.hstack([p.values for p in sample_fbm(hurst, TimeGrid.uniform(n, 1.0),
                                                   n_dims=n_dims, seed=seeds)])


def fbm_covariance(hurst, times):
    """Covariance matrix R_H(t, s) = (|s|^2H + |t|^2H - |t-s|^2H)/2."""
    t = np.asarray(times, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (
        np.abs(t[:, None]) ** h2
        + np.abs(t[None, :]) ** h2
        - np.abs(t[:, None] - t[None, :]) ** h2
    )


def covariance_rows(hurst, times, rows):
    """Rows ``rows`` of fbm_covariance(hurst, times), without the other rows."""
    t, r = np.asarray(times, dtype=float), np.asarray(times, dtype=float)[rows]
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(r[:, None]) ** h2 + np.abs(t[None, :]) ** h2
                  - np.abs(r[:, None] - t[None, :]) ** h2)


def two_pass_draw(hurst, n, seeds, n_dims):
    """The circulant draw in two plain passes: every seed's increments at once, then their sums."""
    times = TimeGrid.uniform(n, 1.0).points[1:]
    gamma = lift_mod._fgn_autocovariance(hurst, n + 1, lift_mod._uniform_step(times))
    lam = np.fft.rfft(np.r_[gamma, gamma[-2:0:-1]]).real
    z = np.vstack([lift_mod._rng(s).standard_normal((n_dims, 2 * n)) for s in seeds])
    increments = np.fft.irfft(np.sqrt(lam) * np.fft.rfft(z), 2 * n)[:, :n]
    return np.vstack([np.zeros(len(z)), np.cumsum(increments, axis=1).T])


class TestFbmFactorRoutes:
    """Circulant route on uniform grids against explicit sums and the exact covariance."""

    @pytest.mark.parametrize("n", [1, 8, 257, 1024, 4095])
    @pytest.mark.parametrize("hurst", [0.01, 0.4, 0.5, 0.7, 0.99])
    def test_path_factor_reproduces_covariance(self, monkeypatch, n, hurst):
        # the uniform-grid path factor reproduces the covariance.  Seed k draws e_k, so
        # the draws of seeds 0..2n-1 are the columns of the path factor P (n x 2n); P P^T
        # is accumulated over runs of 256 columns of one seed list
        monkeypatch.setattr(lift_mod, "_rng", _UnitNormals)
        grid = TimeGrid.uniform(n, 1.0)
        # every 16th row (and the last) of P P^T on the largest grid, against those
        # rows of the covariance; its largest entry, R_H(1, 1) = 1, is in the last row
        rows = np.arange(n) if n <= 1024 else np.r_[0:n:16, n - 1]
        cov = covariance_rows(hurst, grid.points[1:], rows)
        implied = np.zeros((rows.size, n))
        paths = sample_fbm(hurst, grid, seed=range(2 * n))
        for k0 in range(0, 2 * n, 256):
            # columns k0.. of P, one per row
            cols = np.array([next(paths).values[1:, 0] for _ in range(min(256, 2 * n - k0))])
            implied += cols[:, rows].T @ cols
        assert next(paths, None) is None
        assert np.max(np.abs(implied - cov)) <= 1e-12 * np.max(np.abs(cov))

    @pytest.mark.parametrize("hurst", [0.01, 0.7])
    def test_covariance_rows_are_rows_of_the_covariance(self, hurst):
        times = TimeGrid.uniform(257, 1.0).points[1:]
        rows = np.r_[0:257:16, 256]
        assert np.array_equal(covariance_rows(hurst, times, rows),
                              fbm_covariance(hurst, times)[rows])

    @pytest.mark.parametrize("n", [8, 257, 1024, 4095])
    @pytest.mark.parametrize("hurst", [0.01, 0.4, 0.5, 0.7, 0.99])
    def test_one_pass_factor_equals_two_pass_reference(self, n, hurst):
        # the draw takes sub-batches through FFTs written in place and sums each
        # straight into the block; the same arithmetic in two plain passes gives its bits
        seeds = list(range(3, 23))
        assert np.array_equal(drawn_block(hurst, n, seeds, 2), two_pass_draw(hurst, n, seeds, 2))

    @pytest.mark.parametrize("n", [8, 257, 1024])
    @pytest.mark.parametrize("rows", [1, 7, "n"])
    def test_sub_batches_stack_to_one_draw(self, monkeypatch, n, rows):
        # sub-batches of 1, 7 or all 20 seeds (column panels of the block) stack to one draw
        seeds = list(range(3, 23))
        per = len(seeds) if rows == "n" else rows
        monkeypatch.setattr(lift_mod, "DRAW_BYTES", per * (32 * n + 16) * 2)
        assert np.array_equal(drawn_block(0.4, n, seeds, 2), two_pass_draw(0.4, n, seeds, 2))

    @pytest.mark.parametrize("hurst", [0.01, 0.4, 0.99])
    def test_streamed_draws_match_the_factor(self, hurst):
        # 20 seeds in two dimensions take two sub-batches at 1024 points.  Both routes
        # are float64: each eigenvalue carries an error of about eps max(lambda), and at
        # H = 0.01 min/max(lambda) ~ 1e-5, so the routes agree to 2.4e-12 at 1024 points
        # (a longdouble reference is within 1.3e-12 of the FFT and 3.7e-12 of the sums)
        seeds = list(range(5, 25))
        for n in (1, 64, 257, 1024):
            grid = TimeGrid.uniform(n, 1.0)
            gauss = np.hstack([lift_mod._rng(s).standard_normal((2, 2 * n)).T for s in seeds])
            expect = np.cumsum(circulant_root(hurst, n) @ gauss, axis=0)
            paths = [sample_fbm(hurst, grid, n_dims=2, seed=5)]
            paths += sample_fbm(hurst, grid, n_dims=2, seed=seeds)
            got = np.hstack([p.values[1:] for p in paths])
            ref = np.hstack([expect[:, :2], expect])
            assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref)), n
            (single,) = sample_fbm(hurst, grid, n_dims=2, seed=[5])
            assert np.array_equal(single.values, paths[0].values), n

    def test_streamed_seed_list_holds_its_paths_and_one_panel(self):
        # beyond the one block of paths a draw holds one panel of seeds' normals and
        # their transform (DRAW_BYTES), a Philox stream and a DriverPath per seed (under
        # 1 KiB) and a few grid vectors: gamma, c, lambda, its root
        seeds = list(range(101))
        for n, n_dims in ((1024, 1), (4095, 1), (4095, 2)):
            tracemalloc.start()
            try:
                paths = list(sample_fbm(0.4, TimeGrid.uniform(n, 1.0), n_dims=n_dims, seed=seeds))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(paths) == 101
            held = lift_mod.DRAW_BYTES + (n + 1) * len(seeds) * n_dims * 8
            assert peak <= held + 1024 * len(seeds) + 8 * 16 * (n + 1), (n, n_dims)

    @pytest.mark.parametrize("n", [64, 4095])
    def test_seed_list_paths_share_one_block(self, n):
        # three seeds in two dimensions fit one sub-batch (4 seeds at 4095 points);
        # ten take three there, each sub-batch's paths views of its own block
        paths = list(sample_fbm(0.4, TimeGrid.uniform(n, 1.0), n_dims=2, seed=[1, 2, 3]))
        block = paths[0].values.base
        assert block.shape == (n + 1, 6)
        assert all(p.values.base is block and np.shares_memory(p.values, block) for p in paths)
        assert not any(p.values.flags.writeable for p in paths)
        paths = list(sample_fbm(0.4, TimeGrid.uniform(n, 1.0), n_dims=2, seed=range(10)))
        per = 4 if n == 4095 else 10
        for i0 in range(0, 10, per):
            batch = paths[i0 : i0 + per]
            block = batch[0].values.base
            assert block.shape == (n + 1, 2 * len(batch))
            assert all(p.values.base is block for p in batch)
            assert not any(np.shares_memory(p.values, block) for p in paths[i0 + per :])

    def test_empty_seed_list_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(lift_mod, "_rng", _no_normals)
        paths = sample_fbm(0.4, TimeGrid.uniform(64, 1.0), seed=[])
        assert iter(paths) is paths and list(paths) == []

    @pytest.mark.parametrize("lag", [1, 1000])
    def test_negative_eigenvalue_raises_before_drawing(self, monkeypatch, lag):
        # correlation 1.5 at one lag is not a covariance: lambda_m = 1 + 3 cos(pi m lag / n)
        # has negative eigenvalues, so the draw raises before drawing any normals
        broken = lambda hurst, n, h: np.r_[1.0, np.zeros(lag - 1), 1.5, np.zeros(n - lag - 1)]
        monkeypatch.setattr(lift_mod, "_fgn_autocovariance", broken)
        monkeypatch.setattr(lift_mod, "_rng", _no_normals)
        for seed in (5, [5, 6]):            # a seed list raises at the call too
            with pytest.raises(np.linalg.LinAlgError, match="negative or non-finite eigenvalue"):
                sample_fbm(0.4, TimeGrid.uniform(1100, 1.0), seed=seed)

    def test_seed_list_makes_one_eigenvalue_pass(self, monkeypatch):
        passes = []
        gamma = lift_mod._fgn_autocovariance
        monkeypatch.setattr(lift_mod, "_fgn_autocovariance",
                            lambda hurst, n, h: passes.append(n) or gamma(hurst, n, h))
        # 300 seeds in two dimensions take two FFT sub-batches at 64 points
        paths = sample_fbm(0.4, TimeGrid.uniform(64, 1.0), n_dims=2, seed=list(range(300)))
        assert passes == [65]
        assert sum(1 for _ in paths) == 300 and passes == [65]

    def test_seed_list_draws_each_seed(self):
        # one path per seed, in order, each bit for bit its single-seed draw.  At 1024
        # points in two dimensions a sub-batch holds 15 seeds, so dropping the first
        # five puts every later seed beside other seeds, and it keeps its bits
        grid = TimeGrid.uniform(1024, 1.0)
        seeds = [3, 7, 11, 12] + list(range(20, 60))
        paths = list(sample_fbm(0.4, grid, n_dims=2, seed=seeds))
        assert len(paths) == len(seeds)
        for path, seed in zip(paths, seeds):
            one = sample_fbm(0.4, grid, n_dims=2, seed=seed)
            assert path.values.shape == one.values.shape
            assert np.array_equal(path.values, one.values)
        later = list(sample_fbm(0.4, grid, n_dims=2, seed=seeds[5:]))
        assert len(later) == len(seeds) - 5
        assert all(np.array_equal(a.values, b.values) for a, b in zip(later, paths[5:]))
        (single,) = sample_fbm(0.4, grid, n_dims=2, seed=[7])
        assert np.array_equal(single.values, sample_fbm(0.4, grid, n_dims=2, seed=7).values)

    def test_non_uniform_grid_is_rejected_before_drawing(self, monkeypatch):
        # a non-uniform grid is rejected before any normals are drawn or any FFT runs
        def no_fft(*args, **kwargs):
            raise AssertionError("FFT run on a non-uniform grid")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        monkeypatch.setattr(lift_mod, "_rng", _no_normals)
        grid = TimeGrid(np.linspace(0.0, 1.0, 65) ** 1.5)
        for seed in (3, [3, 4]):            # a seed list raises at the call too
            with pytest.raises(ValueError, match="needs a uniform grid; this grid's 64 cells"):
                sample_fbm(0.4, grid, seed=seed)

    def test_uniform_detection(self):
        times = TimeGrid.uniform(4095, 0.3).points[1:]
        assert lift_mod._uniform_step(times) == pytest.approx(0.3 / 4095, rel=1e-15)
        bent = times.copy()
        bent[100] += 1e-6 * (0.3 / 4095)
        assert lift_mod._uniform_step(bent) is None

    def test_non_finite_eigenvalue_raises_before_drawing(self, monkeypatch):
        # an infinite gamma_0 makes every lambda +inf: not negative, but not finite, so the
        # draw raises before drawing any normals
        monkeypatch.setattr(
            lift_mod, "_fgn_autocovariance", lambda hurst, n, h: np.r_[np.inf, np.zeros(n - 1)]
        )
        monkeypatch.setattr(lift_mod, "_rng", _no_normals)
        for seed in (5, range(5, 9)):       # a seed list raises at the call too
            with pytest.raises(np.linalg.LinAlgError, match="negative or non-finite eigenvalue"):
                sample_fbm(0.4, TimeGrid.uniform(16, 1.0), seed=seed)


class TestX1:
    def test_zero_frequency_is_plain_increment(self):
        lift = linear_lift(atoms=[(0.0, 1.0), (1.0, 1.0)])
        val = lift.x1_tilde(0.25, 0.75)
        assert val[0, 0] == pytest.approx(0.5, rel=1e-13)

    def test_linear_path_closed_form(self):
        lift = linear_lift(atoms=[(1.0, 1.0)])
        assert lift.x1_tilde(0.0, 1.0)[0, 0] == pytest.approx(
            1.0 - np.exp(-1.0), rel=1e-12
        )
        x1 = lift.measure.weights @ lift.x1_tilde(0.0, 1.0)
        assert x1[0] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)

    def test_constant_path(self):
        grid = TimeGrid.uniform(8, 1.0)
        driver = deterministic_driver(grid, lambda t: 2.5)
        lift = RoughLift(driver, KernelMeasure.from_atoms(ATOMS3), gamma=1.0)
        assert np.max(np.abs(lift.x1_tilde(0.0, 1.0))) == 0.0

    def test_degenerate_measure_gives_plain_increment(self):
        grid = TimeGrid.uniform(32, 1.0)
        driver = sample_fbm(0.45, grid, seed=9)
        lift = RoughLift(driver, KernelMeasure.from_atoms([(0.0, 1.0)]), gamma=0.4)
        for s, t in [(0.0, 1.0), (0.25, 0.8125)]:
            dx = driver.at(np.array([t]))[0] - driver.at(np.array([s]))[0]
            assert np.allclose(lift.measure.weights @ lift.x1_tilde(s, t), dx, atol=1e-13)

    def test_off_grid_splitting(self):
        lift = linear_lift(cells=4, atoms=[(2.0, 1.0)])
        val = lift.x1_tilde(0.1, 0.6)[0, 0]
        ref = oracles.x1_tilde_riemann(lift.driver, 2.0, 0.1, 0.6, 1 << 14)[0]
        assert val == pytest.approx(ref, rel=1e-7)

    def test_pairs_match_scalar_route(self):
        grid = TimeGrid.uniform(16, 1.0)
        driver = sample_fbm(0.4, grid, n_dims=2, seed=2)
        lift = RoughLift(driver, KernelMeasure.from_atoms(ATOMS3), gamma=0.38)
        rng = np.random.default_rng(0)
        u = np.sort(rng.uniform(0, 0.5, 5))
        v = u + rng.uniform(0.01, 0.5, 5)
        batch = lift.x1_tilde_pairs(u, v)
        for i in range(5):
            assert np.allclose(batch[i], lift.x1_tilde(u[i], v[i]), atol=1e-12)

    def test_driver_scaling_linearity(self):
        grid = TimeGrid.uniform(16, 1.0)
        base = sample_fbm(0.45, grid, seed=4)
        doubled = DriverPath(grid, 2.0 * base.values)
        mea = KernelMeasure.from_atoms(ATOMS3)
        l1 = RoughLift(base, mea, gamma=0.4)
        l2 = RoughLift(doubled, mea, gamma=0.4)
        assert np.allclose(2 * l1.x1_tilde(0.125, 0.875), l2.x1_tilde(0.125, 0.875))
        w = mea.weights
        assert np.allclose(2 * (w @ l1.x1_tilde(0.0, 1.0)), w @ l2.x1_tilde(0.0, 1.0))


class TestChasles:
    def test_exactness_on_grid_triples(self):
        grid = TimeGrid.uniform(64, 1.0)
        driver = sample_fbm(0.4, grid, n_dims=2, seed=8)
        lift = RoughLift(driver, KernelMeasure.from_atoms(ATOMS3), gamma=0.38)
        # max twisted-Chasles residual over 300 random grid triples, scaled
        rng = np.random.default_rng(0)
        pts = lift.driver.grid.points
        i, j, k = pts[np.sort(rng.integers(0, pts.size, size=(3, 300)), axis=0)]
        ts, tu, us = lift.x1_tilde(np.stack([i, j, i]), np.stack([k, k, j]))
        res = ts - tu - np.exp(-np.multiply.outer(k - j, lift.xis))[..., None] * us
        assert float(np.max(np.abs(res))) / lift.scale < 1e-12


class TestSubMesh:
    @pytest.mark.parametrize("s, t", [(0.125, 0.6875), (0.1, 0.61)])
    def test_mesh_is_per_cell_linspace(self, s, t):
        grid = TimeGrid.uniform(16, 1.0)
        driver = sample_fbm(0.4, grid, n_dims=2, seed=3)
        mesh = oracles.subdivide(grid.points, s, t, 1000)
        inside = grid.points[(grid.points > s) & (grid.points < t)]
        knots = np.concatenate(([s], inside, [t]))
        per = round(1000 / (knots.size - 1))
        ref = np.append(np.concatenate(
            [np.linspace(a, b, per + 1)[:-1] for a, b in zip(knots[:-1], knots[1:])]), t)
        assert mesh.shape == ref.shape and np.array_equal(mesh, ref)
        assert np.all(np.isin(inside, mesh))
        _, _, dx = oracles._sub_steps(driver, mesh)
        total = driver.at(np.array([t]))[0] - driver.at(np.array([s]))[0]
        assert np.allclose(dx.sum(axis=0), total, rtol=0, atol=1e-13)


class TestX2:
    def test_constant_path_zero(self):
        grid = TimeGrid.uniform(8, 1.0)
        driver = deterministic_driver(grid, lambda t: 1.0)
        lift = RoughLift(driver, KernelMeasure.from_atoms(ATOMS3), gamma=1.0)
        assert np.max(np.abs(lift.x2_tilde(0.0, 1.0))) == 0.0

    def test_linear_path_closed_form(self):
        # x = id, projection measure {(0,1)} so x1_{vs} = v - s; xi = 1
        grid = TimeGrid.uniform(64, 1.0)
        driver = deterministic_driver(grid, lambda t: t)
        mea = KernelMeasure.from_atoms([(0.0, 1.0), (1.0, 0.0)])
        lift = RoughLift(driver, mea, gamma=1.0)
        assert lift.x2_tilde(0.0, 1.0)[1, 0, 0] == pytest.approx(
            np.exp(-1.0), rel=1e-12
        )

    def test_two_cell_path_matches_riemann_oracle(self):
        rng = np.random.default_rng(14)
        grid = TimeGrid(np.array([0.0, 0.45, 1.0]))
        driver = DriverPath(grid, rng.standard_normal((3, 1)))
        mea = KernelMeasure.from_atoms([(2.0, 1.0)])
        lift = RoughLift(driver, mea, gamma=1.0)
        val = lift.x2_tilde(0.0, 1.0)[0]
        ref = oracles.x2_tilde_riemann(driver, mea, 2.0, 0.0, 1.0, 1 << 16)
        scale = max(np.abs(ref).max(), 1e-12)
        assert np.max(np.abs(val - ref)) / scale < 1e-6


class TestX3:
    def test_degenerate_triples_vanish(self):
        lift = linear_lift(cells=16)
        for s, u, t in [(0.25, 0.25, 0.75), (0.25, 0.75, 0.75)]:
            assert np.max(np.abs(lift.x3_tilde(s, u, t))) < 1e-14

    def test_constant_path_zero(self):
        grid = TimeGrid.uniform(8, 1.0)
        driver = deterministic_driver(grid, lambda t: -3.0)
        lift = RoughLift(driver, KernelMeasure.from_atoms(ATOMS3), gamma=1.0)
        assert np.max(np.abs(lift.x3_tilde(0.0, 0.5, 1.0))) == 0.0

    def test_direct_formula_oracle_2d(self):
        grid = TimeGrid.uniform(16, 1.0)
        driver = sample_fbm(0.45, grid, n_dims=2, seed=31)
        mea = KernelMeasure.from_atoms(ATOMS3)
        lift = RoughLift(driver, mea, gamma=0.4)
        s, u, t = 0.125, 0.5, 0.9375
        chen = lift.x3_tilde(s, u, t)
        ref = oracles.x3_tilde_riemann_fast(driver, mea, mea.xis, s, u, t, 1 << 16)
        scale = lift.scale**2
        assert np.max(np.abs(chen - ref)) / scale < 1e-6

    def test_chen_identity_by_construction(self):
        grid = TimeGrid.uniform(32, 1.0)
        driver = sample_fbm(0.4, grid, n_dims=2, seed=12)
        mea = KernelMeasure.from_atoms(ATOMS3)
        lift = RoughLift(driver, mea, gamma=0.38)
        s, u, t = 0.0625, 0.4375, 0.9375
        d_x2 = (
            lift.x2_tilde(s, t)
            - lift.x2_tilde(u, t)
            - np.exp(-mea.xis * (t - u))[:, None, None] * lift.x2_tilde(s, u)
        )
        x1_us = mea.weights @ lift.x1_tilde(s, u)
        recon = np.einsum("kj,d->kjd", lift.x1_tilde(u, t), x1_us) + lift.x3_tilde(s, u, t)
        assert np.max(np.abs(d_x2 - recon)) < 1e-14 * lift.scale**2 + 1e-16


def graded_lift():
    # an fBm path on a non-uniform grid, built from the dense factor of its covariance
    grid = TimeGrid(np.linspace(0.0, 1.0, 33) ** 1.3)
    factor = np.linalg.cholesky(fbm_covariance(0.4, grid.points[1:]))
    values = np.vstack([np.zeros(2), factor @ lift_mod._rng(5).standard_normal((32, 2))])
    driver = DriverPath(grid, values)
    return RoughLift(driver, KernelMeasure.from_atoms([(0.0, 0.4)] + ATOMS3), gamma=0.38)


class TestPairArrays:
    """The lift on arrays of pairs and triples is its one-pair calls, stacked."""

    def test_array_calls_equal_pair_calls_bit_for_bit(self):
        lift = graded_lift()
        pts = lift.driver.grid.points
        a, b = pts[9], pts[10]
        s, u, t = np.array([
            [0.3, 0.3, 0.3],                                    # s == u == t
            [pts[4], pts[4], pts[5]],                           # one cell, on the grid
            [a + 0.1 * (b - a), a + 0.5 * (b - a), a + 0.9 * (b - a)],   # inside one cell
            [0.07, 0.41, 0.93],                                 # off-grid ends
            [pts[2], pts[17], pts[30]],
            [0.0, 0.5, 1.0],                                    # the full horizon
        ]).T
        x1 = np.stack([lift.x1_tilde(p, q) for p, q in zip(s, t)])
        x2 = np.stack([lift.x2_tilde(p, q) for p, q in zip(s, t)])
        x3 = np.stack([lift.x3_tilde(p, m, q) for p, m, q in zip(s, u, t)])
        assert x1.shape == (6, 4, 2) and x2.shape == x3.shape == (6, 4, 2, 2)
        assert np.array_equal(lift.x1_tilde(s, t), x1)
        assert np.array_equal(lift.x2_tilde(s, t), x2)
        assert np.array_equal(lift.x3_tilde(s, u, t), x3)
        assert not np.any(x1[0]) and not np.any(x2[0]) and not np.any(x3[0])

    @pytest.mark.parametrize("s, t", [
        ([0.1, 0.5], [0.2, 0.4]),            # s > t
        ([0.1, -0.1], [0.2, 0.3]),           # s < 0
        ([0.1, 0.2], [0.2, 1.5]),            # t past the horizon
        ([0.1, np.nan], [0.2, 0.3]),
    ])
    def test_bad_pair_in_an_array_raises(self, s, t):
        lift = graded_lift()
        for method in (lift.x1_tilde, lift.x2_tilde):
            with pytest.raises(ValueError, match="need 0 <= s <= t <= horizon"):
                method(np.array(s), np.array(t))

    def test_bad_triple_in_an_array_raises(self):
        lift = graded_lift()
        with pytest.raises(ValueError, match="need s <= u <= t"):
            lift.x3_tilde(np.array([0.1, 0.5]), np.array([0.2, 0.4]), np.array([0.3, 0.6]))


class TestDegenerateKernel:
    def test_textbook_smooth_identities(self):
        # measure {(0,1)}: x1 = delta x, x2 = int (delta x)(x)(delta x),
        # delta(x2)_{tus} = (delta x)_{tu} (x) (delta x)_{us}, x3 = 0
        grid = TimeGrid.uniform(64, 1.0)
        driver = deterministic_driver(grid, lambda t: np.array([np.sin(t), t**2]))
        mea = KernelMeasure.from_atoms([(0.0, 1.0)])
        lift = RoughLift(driver, mea, gamma=1.0)
        s, u, t = 0.25, 0.5, 0.875
        dx_tu = driver.at(np.array([t]))[0] - driver.at(np.array([u]))[0]
        dx_us = driver.at(np.array([u]))[0] - driver.at(np.array([s]))[0]
        d_x2 = lift.x2_tilde(s, t)[0] - lift.x2_tilde(u, t)[0] - lift.x2_tilde(s, u)[0]
        assert np.allclose(d_x2, np.outer(dx_tu, dx_us), atol=1e-13)
        assert np.max(np.abs(lift.x3_tilde(s, u, t))) < 1e-13

    def test_scaling_covariance_second_order(self):
        grid = TimeGrid.uniform(16, 1.0)
        base = sample_fbm(0.45, grid, n_dims=2, seed=21)
        alpha = -1.7
        scaled = DriverPath(grid, alpha * base.values)
        mea = KernelMeasure.from_atoms(ATOMS3)
        l1 = RoughLift(base, mea, gamma=0.4)
        l2 = RoughLift(scaled, mea, gamma=0.4)
        s, u, t = 0.125, 0.5, 0.9375
        assert np.allclose(alpha**2 * l1.x2_tilde(s, t), l2.x2_tilde(s, t), rtol=1e-12)
        assert np.allclose(
            alpha**2 * l1.x3_tilde(s, u, t), l2.x3_tilde(s, u, t),
            rtol=1e-10, atol=1e-13,
        )


class TestMeshConvergence:
    def test_x2_cauchy_under_refinement(self):
        # lifts of dyadic refinements of one fBm sample are Cauchy: the
        # sup-differences of x2 at shared pairs decay with rate > 0.2
        mea = KernelMeasure.from_atoms([(1.0, 1.0)])
        top = 10
        fine_grid = TimeGrid.uniform(2**top, 1.0)
        rates = []
        for seed in range(3):
            fine = sample_fbm(0.4, fine_grid, seed=seed)
            probes = [(0.0, 0.5), (0.25, 1.0), (0.0, 1.0), (0.5, 0.75)]
            vals = {}
            for lev in range(6, top + 1):
                step = 2 ** (top - lev)
                sub = TimeGrid(fine_grid.points[::step])
                drv = DriverPath(sub, fine.values[::step])
                lift = RoughLift(drv, mea, gamma=0.38)
                vals[lev] = np.array([lift.x2_tilde(s, t)[0, 0, 0] for s, t in probes])
            diffs = [
                np.max(np.abs(vals[lev + 1] - vals[lev])) for lev in range(6, top)
            ]
            rates.append(-np.polyfit(range(6, top), np.log2(diffs), 1)[0])
        assert np.median(rates) > 0.2


class TestWienerCov:
    def test_variance_identity(self):
        assert wiener_cov_x1(0.7, 0.0, 0.0, (0.0, 1.0), (0.0, 1.0)) == pytest.approx(
            1.0, rel=1e-8
        )

    def test_disjoint_intervals_positive_and_smaller(self):
        same = wiener_cov_x1(0.7, 0.0, 0.0, (0.0, 0.5), (0.0, 0.5))
        cross = wiener_cov_x1(0.7, 0.0, 0.0, (0.0, 0.5), (2.0, 2.5))
        assert 0.0 < cross < same

    def test_requires_h_above_half(self):
        with pytest.raises(ValueError):
            wiener_cov_x1(0.5, 0.0, 0.0, (0.0, 1.0), (0.0, 1.0))

    def test_weighted_variance_against_independent_grid(self):
        # coarse cross-check of the nested-quadrature route: tensor midpoint
        # grid plus the analytic mass of the singular diagonal cells
        h, xi = 0.7, 1.0
        val = wiener_cov_x1(h, xi, xi, (0.0, 1.0), (0.0, 1.0))
        n = 600
        rho = 2 * h - 2.0
        a = (np.arange(n) + 0.5) / n
        step = 1.0 / n
        d = np.abs(a[:, None] - a[None, :])
        w = np.exp(-xi * (1 - a))
        with np.errstate(divide="ignore"):
            kernel = np.where(d > 0, d**rho, 0.0)
        diag_mass = 2 * step ** (rho + 2) / ((rho + 1) * (rho + 2))
        c_h = h * (2 * h - 1)
        ref = c_h * (np.sum(np.outer(w, w) * kernel) / n**2 + np.sum(w * w) * diag_mass)
        assert val == pytest.approx(ref, rel=2e-2)


def cell_tables_per_cell(lift, refine):
    """The closed forms of ``RoughLift.cell_tables`` evaluated on every cell."""
    widths = lift.driver.grid.widths / refine
    xis, ws, m = lift.xis, lift.measure.weights, lift.driver.slopes
    x1t = e0(xis[None, :], widths[:, None])[:, :, None] * m[:, None, :]
    ramp = ramp_int(xis[None, :, None], xis[None, None, :], widths[:, None, None])
    mm = np.einsum("cj,cd->cjd", m, m)
    x2t = (ramp @ ws)[:, :, None, None] * mm[:, None, :, :]
    decay = np.exp(-xis[None, :] * widths[:, None])
    return x1t, x2t, decay, widths


# dyadic grids, so every sub-cell endpoint t_c + w is exact
CELL_TABLE_GRIDS = {
    "uniform": TimeGrid.uniform(64, 1.0),
    "distinct": TimeGrid(np.r_[0.0, np.cumsum(np.arange(1, 33) * 2.0**-9)]),
    "repeating": TimeGrid(np.r_[0.0, np.cumsum(np.tile([3, 5, 3, 2, 5], 6) * 2.0**-6)]),
}
# xi = 0, two near-equal rates (|lam - mu| dt < 2e-6) and a fast atom: the slow pairs
# take ramp_int's series (max(xi, eta) dt < RAMP_SERIES_CUT), the fast atom's its quotient
CELL_TABLE_ATOMS = [(0.0, 0.4), (1e-3, 0.3), (2.0, 0.2), (2.0 + 1e-4, 0.1), (500.0, 0.05)]


class TestCellTables:
    @pytest.mark.parametrize("grid_name", sorted(CELL_TABLE_GRIDS))
    @pytest.mark.parametrize("refine", [1, 4])
    def test_atoms_reach_both_ramp_int_branches(self, monkeypatch, grid_name, refine):
        scaled = []

        def spy(xi, eta, dt):
            scaled.append(np.maximum(xi, eta) * dt)
            return ramp_int(xi, eta, dt)

        monkeypatch.setattr(lift_mod, "ramp_int", spy)
        grid = CELL_TABLE_GRIDS[grid_name]
        RoughLift(DriverPath(grid, np.zeros((len(grid), 2))),
                  KernelMeasure.from_atoms(CELL_TABLE_ATOMS), gamma=1.0).cell_tables(refine)
        (scaled,) = scaled
        assert np.any(scaled < RAMP_SERIES_CUT) and np.any(scaled >= RAMP_SERIES_CUT)

    @pytest.mark.parametrize("grid_name", sorted(CELL_TABLE_GRIDS))
    @pytest.mark.parametrize("refine", [1, 4])
    def test_per_width_tables_equal_per_cell_formula(self, grid_name, refine):
        grid = CELL_TABLE_GRIDS[grid_name]
        values = np.random.default_rng(4).standard_normal((len(grid), 2))
        lift = RoughLift(DriverPath(grid, values), KernelMeasure.from_atoms(CELL_TABLE_ATOMS),
                         gamma=1.0)
        got = lift.cell_tables(refine)
        for a, b in zip(got, cell_tables_per_cell(lift, refine)):
            assert a.shape == b.shape
            assert np.array_equal(a, b)
        x1t, _, decay, sub_w = got
        pts = grid.points
        for c in range(len(grid) - 1):
            ref = lift.x1_tilde(pts[c], pts[c] + sub_w[c])
            np.testing.assert_allclose(x1t[c], ref, rtol=1e-14, atol=0)
            np.testing.assert_allclose(decay[c], np.exp(-lift.xis * sub_w[c]),
                                       rtol=1e-14, atol=0)
