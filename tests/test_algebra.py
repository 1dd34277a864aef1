import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughvolterra.algebra import (
    TimeGrid,
    delta_tilde,
    estimate_holder_exponent,
    exp_scan,
    fit_line,
    lbeta_norm,
    twist,
)
from roughvolterra.laplace import KernelMeasure
from roughvolterra.lift import sample_fbm

EXACT = 1e-12


def small_grid(n=8, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.0, n - 1))])
    return TimeGrid(np.unique(pts))


def delta(points, h, *idx):
    """Plain coboundary: delta_tilde with the single atom xi = 0."""
    h = np.expand_dims(np.asarray(h, dtype=float), len(idx) - 1)    # atom axis after time axes
    return np.take(delta_tilde(points, [0.0], h, *idx), 0, axis=np.broadcast(*idx).ndim)


def pair_table(points, g, xis):
    """delta~ g on every pair of grid indices: a 1-increment table."""
    n = len(points)
    return delta_tilde(points, xis, g, np.arange(n)[:, None], np.arange(n)[None, :])


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5]))          # must start at 0
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))     # strictly increasing
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))

    def test_horizon_and_lookup(self):
        g = TimeGrid(np.array([0.0, 0.25, 1.5]))
        assert g.horizon == 1.5


class TestDelta:
    def test_linear_function_increment(self):
        g = TimeGrid(np.array([0.0, 1.0]))
        assert delta(g.points, g.points, 0, 1) == 1.0

    def test_constant_path_gives_zero(self):
        g = small_grid()
        d = delta(g.points, np.full(len(g), 3.7), 0, np.arange(1, len(g)))
        assert np.all(d == 0.0)

    def test_square_on_half_three_halves(self):
        g = TimeGrid(np.array([0.0, 0.5, 1.5]))
        assert delta(g.points, g.points**2, 1, 2) == pytest.approx(2.0, abs=1e-15)

    def test_delta2_of_exact_increment_vanishes(self):
        g = small_grid(seed=3)
        rng = np.random.default_rng(1)
        dg = pair_table(g.points, rng.standard_normal((len(g), 1, 3)), [0.0])[:, :, 0]
        for trip in [(0, 2, 5), (1, 3, 6), (0, 1, 2)]:
            assert np.max(np.abs(delta(g.points, dg, *trip))) < EXACT

    def test_delta2_square_width(self):
        g = TimeGrid(np.array([0.0, 1.0, 2.0]))
        h = (g.points[None, :] - g.points[:, None]) ** 2
        assert delta(g.points, h, 0, 1, 2) == pytest.approx(2.0)

    def test_delta2_additive_increment_vanishes(self):
        g = small_grid(seed=5)
        h = g.points[None, :] - g.points[:, None]
        for trip in [(0, 2, 4), (1, 5, 6)]:
            assert delta(g.points, h, *trip) == pytest.approx(0.0, abs=EXACT)


class TestTwist:
    def test_zero_frequency(self):
        assert twist(0.0, 0.2, 0.9) == 0.0

    def test_coincident_times(self):
        assert twist(3.0, 0.5, 0.5) == 0.0

    def test_unit_case(self):
        assert twist(1.0, 0.0, 1.0) == pytest.approx(np.exp(-1.0) - 1.0, rel=1e-12)

    def test_range(self):
        # open lower bound holds away from underflow; -1.0 is the correctly
        # rounded value once exp(-xi dt) underflows
        assert -1.0 < twist(5.0, 0.0, 2.0) <= 0.0
        assert -1.0 <= twist(50.0, 0.0, 10.0) <= 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            twist(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            twist(1.0, 1.0, 0.0)

    def test_cocycle_identity(self):
        # (delta a)_{tus} = a_{tu} a_{us}, per atom, on random triples
        rng = np.random.default_rng(2)
        for _ in range(50):
            s, u, t = np.sort(rng.uniform(0.0, 2.0, 3))
            xi = rng.uniform(0.0, 8.0)
            lhs = twist(xi, s, t) - twist(xi, u, t) - twist(xi, s, u)
            rhs = twist(xi, u, t) * twist(xi, s, u)
            assert lhs == pytest.approx(rhs, abs=EXACT)


class TestDeltaTilde:
    def grid_and_atoms(self, seed=0, n=8, k=3):
        g = small_grid(n, seed)
        rng = np.random.default_rng(seed + 10)
        xis = np.sort(rng.uniform(0.0, 5.0, k))
        return g, xis, rng

    def test_zero_atoms_match_plain_delta(self):
        g, _, rng = self.grid_and_atoms()
        vals = rng.standard_normal((len(g), 1, 2))
        i, j = np.array([0, 2]), np.array([3, 5])
        dt = delta_tilde(g.points, [0.0], vals, i, j)
        assert np.array_equal(dt[:, 0], vals[j, 0] - vals[i, 0])

    def test_twisted_exactness(self):
        g, xis, rng = self.grid_and_atoms(seed=4)
        vals = rng.standard_normal((len(g), len(xis), 2))
        table = pair_table(g.points, vals, xis)
        scale = np.max(np.abs(vals))
        i, j, k = np.array([(0, 2, 6), (1, 4, 5), (0, 1, 7)]).T
        assert np.max(np.abs(delta_tilde(g.points, xis, table, i, j, k))) < EXACT * scale

    def test_exponential_is_twisted_closed(self):
        # g_t(xi) = e^{-xi t} has delta~ g = 0 identically
        g, xis, _ = self.grid_and_atoms(seed=6)
        vals = np.exp(-np.outer(g.points, xis))[:, :, None]
        i, j = np.array([0, 2, 1]), np.array([4, 7, 3])
        assert np.max(np.abs(delta_tilde(g.points, xis, vals, i, j))) < EXACT

    def test_leibniz_rule_matrix_scalar(self):
        # delta~(M L) = delta~M L - M delta L on random 2-increment data
        g, xis, rng = self.grid_and_atoms(seed=8)
        n = len(g)
        m_table = rng.standard_normal((n, n, len(xis)))
        l_vals = rng.standard_normal(n)
        prod = m_table * l_vals[:, None, None]
        scale = max(1.0, np.max(np.abs(m_table)) * np.max(np.abs(l_vals)))
        for i, j, k in [(0, 2, 5), (1, 3, 6), (0, 1, 7)]:
            lhs = delta_tilde(g.points, xis, prod, i, j, k)
            rhs = (delta_tilde(g.points, xis, m_table, i, j, k) * l_vals[i]
                   - m_table[j, k] * (l_vals[j] - l_vals[i]))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_rejects_bad_input(self):
        g, xis, rng = self.grid_and_atoms()
        vals = rng.standard_normal((len(g), len(xis)))
        with pytest.raises(ValueError):
            delta_tilde(g.points, -xis, vals, 0, 1)
        with pytest.raises(TypeError):
            delta_tilde(g.points, xis, vals, 0)


class TestLbetaNorm:
    def test_zero(self):
        mea = KernelMeasure.from_atoms([(1.0, 0.5), (2.0, 0.5)])
        assert lbeta_norm(np.zeros((2, 3)), mea, 1.0) == 0.0
        assert np.array_equal(lbeta_norm(np.zeros((4, 5, 2, 3)), mea, 1.0), np.zeros((4, 5)))

    def test_single_atom_at_origin(self):
        mea = KernelMeasure.from_atoms([(0.0, 1.0)])
        v = np.array([[3.0, 4.0]])
        assert lbeta_norm(v, mea, 2.0) == pytest.approx(5.0)
        rows = np.array([[[3.0, 4.0]], [[6.0, 8.0]], [[0.0, -1.0]]])
        assert lbeta_norm(rows, mea, 2.0) == pytest.approx([5.0, 10.0, 1.0])

    def test_weighted_sum(self):
        mea = KernelMeasure.from_atoms([(1.0, 0.5), (2.0, 0.5)])
        ones = np.ones((2, 1))
        assert lbeta_norm(ones, mea, 1.0) == pytest.approx(2.5)
        # one norm per leading index: row r is r times the all-ones row
        rows = np.arange(3.0)[:, None, None] * np.ones((3, 2, 1))
        assert lbeta_norm(rows, mea, 1.0) == pytest.approx([0.0, 2.5, 5.0])
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((6, 2, 3))
        each = [lbeta_norm(v, mea, 0.5) for v in vals]
        assert np.allclose(lbeta_norm(vals, mea, 0.5), each, rtol=1e-14, atol=0.0)

    def test_rejects_negative_beta(self):
        mea = KernelMeasure.from_atoms([(1.0, 1.0)])
        with pytest.raises(ValueError):
            lbeta_norm(np.ones((1, 1)), mea, -0.5)
        with pytest.raises(ValueError):
            lbeta_norm(np.ones((4, 1, 1)), mea, -0.5)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 12),
    dims=st.integers(1, 3),
)
def test_delta_delta_is_zero_property(seed, n, dims):
    rng = np.random.default_rng(seed)
    pts = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.0, n - 1))]))
    g = TimeGrid(pts)
    vals = rng.standard_normal((len(g), 1, dims))
    dg = pair_table(g.points, vals, [0.0])[:, :, 0]
    scale = max(np.max(np.abs(vals)), 1e-12)
    m = len(g)
    for trip in {(0, m // 2, m - 1), (0, 1, m - 1)}:
        assert np.max(np.abs(delta(g.points, dg, *trip))) <= EXACT * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
def test_twisted_delta_delta_is_zero_property(seed, k):
    rng = np.random.default_rng(seed)
    pts = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.0, 7))]))
    g = TimeGrid(pts)
    xis = np.sort(rng.uniform(0.0, 10.0, k))
    xis[0] = 0.0
    vals = rng.standard_normal((len(g), k, 2))
    ddt = delta_tilde(g.points, xis, pair_table(g.points, vals, xis), 0, len(g) // 2, len(g) - 1)
    scale = max(np.max(np.abs(vals)), 1e-12)
    assert np.max(np.abs(ddt)) <= EXACT * scale


def scan_loop(points, xis, g, init):
    """The twisted recurrence r_{p+1} = e^{-xi h_p} r_p + g_p, one step at a time."""
    out = [np.broadcast_to(init, g.shape[1:]).astype(float)]
    for p in range(g.shape[0]):
        decay = np.exp(-xis * (points[p + 1] - points[p]))
        out.append(decay.reshape(decay.shape + (1,) * (g.ndim - 2)) * out[-1] + g[p])
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_steps=st.sampled_from([0, 1, 7, 300, 700]),
    log_xih=st.floats(-3.0, 3.0),
    tail=st.sampled_from([(), (2,), (2, 3)]),
)
def test_exp_scan_is_the_twisted_recurrence_property(seed, n_steps, log_xih, tail):
    # non-uniform steps in [0.1, 1], atoms {0, xi, xi_max} with xi_max h up to 1e3,
    # trailing shapes (K,), (K, n), (K, n, d); 300 and 700 steps span several blocks
    rng = np.random.default_rng(seed)
    points = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n_steps))])
    xis = np.array([0.0, rng.uniform(0.0, 10**log_xih), 10**log_xih])
    g = rng.standard_normal((n_steps, 3) + tail)
    init = rng.standard_normal((3,) + tail)
    r = exp_scan(points, xis, g, init)
    ref = scan_loop(points, xis, g, init)
    assert r.shape == (n_steps + 1, 3) + tail and np.all(np.isfinite(r))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(r - ref)) <= 1e-12 * scale
    p = np.arange(n_steps)
    assert np.max(np.abs(delta_tilde(points, xis, r, p, p + 1) - g), initial=0.0) <= 1e-12 * scale


def test_leibniz_scalar_product_rule():
    # delta(gh) = delta g h + g delta h for scalar paths, random data
    rng = np.random.default_rng(21)
    g = small_grid(10, seed=21)
    a = rng.standard_normal(len(g))
    b = rng.standard_normal(len(g))
    for i, j in [(0, 4), (2, 9), (1, 5)]:
        # convention puts g at the later time, h at the earlier one
        lhs = delta(g.points, a * b, i, j)
        rhs = delta(g.points, a, i, j) * b[i] + a[j] * delta(g.points, b, i, j)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestHolderEstimator:
    def test_smooth_path(self):
        g = TimeGrid.uniform(255, 1.0)
        est, _ = estimate_holder_exponent(g, g.points.copy())
        assert est == pytest.approx(1.0, abs=0.01)
        # a two-column path of the same slope gives the same estimate
        est2, _ = estimate_holder_exponent(g, np.stack([g.points, -2.0 * g.points], axis=1))
        assert est2 == pytest.approx(1.0, abs=0.01)

    def test_requires_enough_points(self):
        g = TimeGrid.uniform(16, 1.0)
        with pytest.raises(ValueError):
            estimate_holder_exponent(g, g.points.copy())
        # one value row per grid point
        g = TimeGrid.uniform(63, 1.0)
        with pytest.raises(ValueError, match="one entry per grid point"):
            estimate_holder_exponent(g, g.points[:-1].copy())

    def test_constant_path_rejected(self):
        g = TimeGrid.uniform(63, 1.0)
        with pytest.raises(ValueError):
            estimate_holder_exponent(g, np.ones(len(g)))

    def test_brownian_sample_in_band(self):
        g = TimeGrid.uniform(2**12, 1.0)
        drv = sample_fbm(0.5, g, seed=17)
        est, _ = estimate_holder_exponent(g, drv.values)
        assert 0.4 <= est <= 0.6

    def test_fbm_07_sample_in_band(self):
        g = TimeGrid.uniform(2**12, 1.0)
        drv = sample_fbm(0.7, g, seed=23)
        est, _ = estimate_holder_exponent(g, drv.values)
        assert 0.63 <= est <= 0.77


class TestFitLine:
    """The closed-form line fit against numpy's least-squares polynomial fit."""

    @staticmethod
    def polyfit_reference(x, y):
        coef = np.polyfit(x, y, 1)
        return coef[0], np.sqrt(np.mean((np.polyval(coef, x) - y) ** 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_points_match_polyfit(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-5.0, 1.0, 3 + seed))
        y = rng.normal(size=x.size) - 0.3 * x
        slope, rms = fit_line(x, y)
        ref_slope, ref_rms = self.polyfit_reference(x, y)
        assert slope == pytest.approx(ref_slope, rel=EXACT, abs=EXACT)
        assert rms == pytest.approx(ref_rms, rel=EXACT, abs=EXACT)

    def test_exact_line_has_its_slope_and_no_residual(self):
        x = np.log([1 / 4096, 2 / 4096, 4 / 4096, 8 / 4096, 16 / 4096, 32 / 4096])
        y = 0.4 * x - 1.7
        slope, rms = fit_line(x, y)
        assert slope == pytest.approx(self.polyfit_reference(x, y)[0], rel=EXACT)
        assert slope == pytest.approx(0.4, rel=EXACT)
        assert rms < EXACT

    def test_needs_two_distinct_x(self):
        with pytest.raises(ValueError, match="two distinct"):
            fit_line([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
