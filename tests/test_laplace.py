import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, roots_genlaguerre

from roughvolterra import laplace
from roughvolterra.laplace import (
    DENSITY_CATALOG,
    KernelMeasure,
    QuadratureError,
    build_quadrature,
    kernel_from_spec,
    phi_eval,
)


class TestKernelMeasure:
    def test_atoms_sorted_and_validated(self):
        m = KernelMeasure.from_atoms([(2.0, 0.5), (0.0, 1.0)])
        assert m.xis.tolist() == [0.0, 2.0]
        assert m.weights.tolist() == [1.0, 0.5]
        with pytest.raises(ValueError):
            KernelMeasure.from_atoms([(1.0, 1.0), (1.0, 2.0)])
        with pytest.raises(ValueError):
            KernelMeasure.from_atoms([(-1.0, 1.0)])

    def test_rejects_empty_measure(self):
        with pytest.raises(ValueError):
            KernelMeasure.from_atoms([])
        with pytest.raises(ValueError):
            KernelMeasure(np.array([]), np.array([]))


class TestPhiEval:
    def test_single_atom(self):
        m = KernelMeasure.from_atoms([(1.0, 1.0)])
        assert phi_eval(m, 0.0) == 1.0
        assert phi_eval(m, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_constant_kernel(self):
        m = KernelMeasure.from_atoms([(0.0, 1.0)])
        assert np.allclose(phi_eval(m, np.array([0.0, 0.5, 10.0])), 1.0)

    def test_rejects_negative_argument(self):
        m = KernelMeasure.from_atoms([(1.0, 1.0)])
        with pytest.raises(ValueError):
            phi_eval(m, -0.1)

    def test_completely_monotone_for_positive_weights(self):
        rng = np.random.default_rng(0)
        m = KernelMeasure.from_atoms(
            [(x, w) for x, w in zip(np.sort(rng.uniform(0, 5, 6)), rng.uniform(0.1, 1, 6))]
        )
        vs = np.linspace(0, 10, 50)
        vals = phi_eval(m, vs)
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 1e-15)


class TestBuildQuadrature:
    def test_exponential_density(self):
        alpha, rate = DENSITY_CATALOG["exp"]()
        m = build_quadrature(alpha, rate, n_nodes=64)
        assert phi_eval(m, 1.0) == pytest.approx(0.5, abs=1e-8)
        for v in (0.1, 1.0, 10.0):          # phi(v) = int e^{-v xi} e^{-xi} dxi = 1/(1 + v)
            assert phi_eval(m, v) == pytest.approx(1.0 / (1.0 + v), abs=1e-8)

    def test_gamma_density(self):
        alpha, rate = DENSITY_CATALOG["gamma"](shape=2.0, rate=1.0)
        m = build_quadrature(alpha, rate, n_nodes=64)
        assert phi_eval(m, 1.0) == pytest.approx(0.25, abs=1e-8)

    def test_failure_reports_achieved_error(self):
        alpha, rate = DENSITY_CATALOG["exp"]()
        with pytest.raises(QuadratureError) as info:
            build_quadrature(alpha, rate, n_nodes=2)
        assert info.value.achieved_error > 1e-12

    @pytest.mark.parametrize("alpha", [-0.8, -0.5, 0.0, 1.0, 3.0, 19.0])
    @pytest.mark.parametrize("rate", [0.1, 1.0, 2.0])
    def test_closed_form_matches_adaptive_quadrature(self, alpha, rate):
        # the check's reference phi(v) = Gamma(alpha + 1) / (v + rate)^(alpha + 1), against
        # int_0^inf xi^alpha e^{-(v + rate) xi} dxi by adaptive quadrature, its singular end
        # at 0 taken by quad's algebraic weight
        for v in np.linspace(0.0, 10.0, 11):
            s = v + rate
            ref = (quad(lambda xi: np.exp(-s * xi), 0.0, 1.0, weight="alg", wvar=(alpha, 0.0),
                        epsabs=0.0, epsrel=1e-13)[0]
                   + quad(lambda xi: xi ** alpha * np.exp(-s * xi), 1.0, np.inf,
                          epsabs=0.0, epsrel=1e-13, limit=200)[0])
            assert gamma(alpha + 1) / s ** (alpha + 1) == pytest.approx(ref, rel=1e-12)

    def test_checked_on_the_horizon(self):
        # exp at rate 0.1 is within the relative tolerance on [0, 1] from 58 nodes; a default
        # exp kernel, within it on [0, 1], is 4.8% off at v = 50
        alpha, rate = DENSITY_CATALOG["exp"](rate=0.1)
        with pytest.raises(QuadratureError):
            build_quadrature(alpha, rate, n_nodes=57, horizon=1.0)
        m = build_quadrature(alpha, rate, n_nodes=58, horizon=1.0)
        v = np.linspace(0.0, 1.0, 1001)     # finer than the check's grid
        assert np.max(np.abs(phi_eval(m, v) * (v + rate) - 1)) <= laplace.RECONSTRUCTION_TOL
        with pytest.raises(QuadratureError, match=r"on \[0, 50\]") as info:
            kernel_from_spec({"density": {"name": "exp"}}, horizon=50.0)
        assert info.value.achieved_error > 0.04

    def test_large_mass_builds(self):
        # the tolerance is relative: gamma at shape 20 has phi(0) = 19! = 1.2e17
        m = kernel_from_spec({"density": {"name": "gamma", "params": {"shape": 20.0}}})
        assert phi_eval(m, 0.0) == pytest.approx(gamma(20.0), rel=1e-8)

    @pytest.mark.parametrize("alpha, n_nodes", [(19.0, 152), (99.0, 64), (199.0, 64)])
    def test_rule_failure_is_a_quadrature_error(self, alpha, n_nodes):
        # at these (alpha, n) the iteration leaves non-finite or negative nodes; shapes 100
        # and 200 reach it through kernel_from_spec at the default node count
        named = f"Gauss-Laguerre rule did not converge at {n_nodes} nodes, alpha {alpha}"
        with pytest.raises(QuadratureError, match=named):
            build_quadrature(alpha, 1.0, n_nodes=n_nodes)
        if n_nodes == laplace.N_NODES:
            spec = {"density": {"name": "gamma", "params": {"shape": alpha + 1}}}
            with pytest.raises(QuadratureError, match=named):
                kernel_from_spec(spec)

    def test_node_count_bound(self):
        # every count from 2 to MAX_NODES builds that many atoms; the bound is checked before
        # any n x n array of the rule is built, and at MAX_NODES every weight is a normal float
        assert build_quadrature(0.0, 1.0, n_nodes=60).n_atoms == 60
        assert build_quadrature(0.0, 1.0, n_nodes=laplace.MAX_NODES).n_atoms == laplace.MAX_NODES
        for n_nodes in (1, laplace.MAX_NODES + 1, 10**9):
            with pytest.raises(ValueError, match=f"n_nodes must be 2 to {laplace.MAX_NODES}"):
                build_quadrature(0.0, 1.0, n_nodes=n_nodes)
        for alpha in (-0.8, 0.0, 3.0):
            assert laplace._gauss_laguerre(laplace.MAX_NODES, alpha)[1].min() > np.finfo(float).tiny

    def test_atoms_scale_with_the_rate(self):
        # the rate r maps the rule's nodes x_i to x_i / r and its weights w_i to w_i / r^shape,
        # here at the default shape 2
        one = kernel_from_spec({"density": {"name": "gamma", "params": {"rate": 1.0}}})
        two = kernel_from_spec({"density": {"name": "gamma", "params": {"rate": 2.0}}})
        assert np.array_equal(two.xis, one.xis / 2.0)
        assert np.array_equal(two.weights, one.weights / 4.0)

    def test_native_atoms_pass_through(self):
        # point-mass requests skip quadrature entirely
        m = kernel_from_spec({"atoms": [[1.0, 1.0]]})
        assert m.n_atoms == 1


ALPHAS = (-0.8, -0.5, 0.0, 1.0, 3.0)


class TestGaussLaguerre:
    """Recurrence-iterated nodes and weights against scipy's eigenvalue-based rule."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_roots_genlaguerre(self, alpha):
        for n in range(1, laplace.MAX_NODES + 1):
            x, w = laplace._gauss_laguerre(n, alpha)
            ref_x, ref_w = roots_genlaguerre(n, alpha)
            assert np.all(np.abs(x - ref_x) <= 1e-12 * ref_x), n
            assert np.all(np.abs(w - ref_w) <= 1e-10 * ref_w), n

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_up_to_degree_2n_minus_1(self, n):
        k = np.arange(2 * n)
        for alpha in ALPHAS:
            x, w = laplace._gauss_laguerre(n, alpha)
            exact = gamma(k + alpha + 1)        # int_0^inf xi^k xi^alpha e^{-xi} dxi
            assert np.all(np.abs(w @ x[:, None] ** k - exact) <= 1e-13 * exact), alpha

    @pytest.mark.parametrize("name, power", [("exp", 1), ("gamma", 2)], ids=["exp", "gamma"])
    def test_default_density_kernels_match_phi(self, name, power):
        # the default densities e^{-xi} and xi e^{-xi} have phi(v) = 1 / (1 + v)^power
        measure = kernel_from_spec({"density": {"name": name}})
        v = np.linspace(0.0, 1.0, 201)
        assert measure.n_atoms == 64
        assert np.max(np.abs(phi_eval(measure, v) - 1.0 / (1.0 + v) ** power)) <= 1e-14


class TestKernelFromSpec:
    def test_density_spec(self):
        m = kernel_from_spec(
            {"density": {"name": "exp", "params": {"rate": 1.0}, "n_nodes": 64}}
        )
        assert phi_eval(m, 1.0) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("n_nodes", [16.9, 16.0, "16", True])
    def test_n_nodes_must_be_an_integer(self, n_nodes):
        with pytest.raises(TypeError):
            kernel_from_spec({"density": {"name": "exp", "n_nodes": n_nodes}})
        assert kernel_from_spec({"density": {"name": "exp", "n_nodes": np.int64(16)}}).n_atoms == 16

    def test_unknown_density(self):
        with pytest.raises(ValueError):
            kernel_from_spec({"density": {"name": "nope"}})

    def test_missing_keys(self):
        with pytest.raises(ValueError):
            kernel_from_spec({})

    @pytest.mark.parametrize(
        "spec, named",
        [({"density": {"name": "exp", "n_nodse": 8}}, "density.n_nodse"),
         ({"atoms": [[1.0, 1.0]], "atomz": [[2.0, 1.0]]}, "atomz")],
    )
    def test_unknown_keys_rejected(self, spec, named):
        with pytest.raises(ValueError, match=named):
            kernel_from_spec(spec)

    def test_atoms_and_density_together_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            kernel_from_spec({"atoms": [[1.0, 1.0]], "density": {"name": "exp"}})

    @pytest.mark.parametrize(
        "name, params, named",
        [("exp", {"rate": 0.0}, "rate"), ("exp", {"rate": -1.0}, "rate"),
         ("gamma", {"shape": 0.0}, "shape"), ("gamma", {"shape": -0.5}, "shape")],
    )
    def test_density_params_validated(self, name, params, named):
        with pytest.raises(ValueError, match=named):
            kernel_from_spec({"density": {"name": name, "params": params}})

    @pytest.mark.parametrize("shape", [0.2, 0.5, 0.9])
    def test_gamma_shape_below_one(self, shape):
        # the generalized rule takes any alpha = shape - 1 > -1; phi(v) = Gamma(s) / (1 + v)^s
        measure = kernel_from_spec({"density": {"name": "gamma", "params": {"shape": shape}}})
        v = np.linspace(0.0, 1.0, 201)
        assert measure.n_atoms == 64
        assert np.max(np.abs(phi_eval(measure, v) - gamma(shape) / (1.0 + v) ** shape)) <= 1e-12
