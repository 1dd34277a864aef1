import numpy as np
import pytest

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
        density, _ = DENSITY_CATALOG["exp"]()
        m = build_quadrature(density, n_nodes=64, tail_cut=40.0)
        assert phi_eval(m, 1.0) == pytest.approx(0.5, abs=1e-8)
        for v in (0.1, 1.0, 10.0):          # phi(v) = int e^{-v xi} e^{-xi} dxi = 1/(1 + v)
            assert phi_eval(m, v) == pytest.approx(1.0 / (1.0 + v), abs=1e-8)

    def test_gamma_density(self):
        density, _ = DENSITY_CATALOG["gamma"](shape=2.0, rate=1.0)
        m = build_quadrature(density, n_nodes=64, tail_cut=40.0)
        assert phi_eval(m, 1.0) == pytest.approx(0.25, abs=1e-8)

    def test_failure_reports_achieved_error(self):
        density, _ = DENSITY_CATALOG["exp"]()
        with pytest.raises(QuadratureError) as info:
            build_quadrature(density, n_nodes=2, tail_cut=40.0,
                             reconstruction_tol=1e-12)
        assert info.value.achieved_error > 1e-12

    def test_node_count_stops_before_the_panels_underflow(self):
        # panels 50 * 2^-k keep a normal smallest edge up to k = 1027, 1028 panels of 8
        # nodes: 8224 nodes build distinct atoms, and the next multiple of 8 raises naming
        # n_nodes; a count between, which would fill no whole panel, raises too
        density, _ = DENSITY_CATALOG["exp"]()
        assert build_quadrature(density, n_nodes=8224, tail_cut=50.0).n_atoms == 8224
        with pytest.raises(ValueError, match="n_nodes must be at most 8224"):
            build_quadrature(density, n_nodes=8232, tail_cut=50.0)
        for n_nodes in (1, 8231):
            with pytest.raises(ValueError, match="n_nodes must be 2 to 7 or a multiple of 8"):
                build_quadrature(density, n_nodes=n_nodes, tail_cut=50.0)

    def test_default_tail_cut_from_decay_rate(self):
        m = kernel_from_spec(
            {"density": {"name": "exp", "params": {"rate": 2.0}, "n_nodes": 64}}
        )
        # tail defaults to 50/rate = 25
        assert m.xis.max() < 25.0
        assert m.xis.max() > 20.0

    def test_native_atoms_pass_through(self):
        # point-mass requests skip quadrature entirely
        m = kernel_from_spec({"atoms": [[1.0, 1.0]]})
        assert m.n_atoms == 1


class TestGaussLegendre:
    """Newton-iterated nodes and weights against numpy's eigenvalue-based rule."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_leggauss(self, n):
        x, w = laplace._gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.all(np.abs(x - ref_x) <= 2 * np.spacing(np.abs(ref_x)))
        assert np.all(np.abs(w - ref_w) <= 1e-14 * ref_w)
        assert w.sum() == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_up_to_degree_2n_minus_1(self, n):
        x, w = laplace._gauss_legendre(n)
        k = np.arange(2 * n)
        exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)     # int_{-1}^{1} x^k dx
        assert np.all(np.abs(w @ x[:, None] ** k - exact) <= 1e-15)

    @pytest.mark.parametrize("name", ["exp", "gamma"])
    def test_default_density_atoms_match_a_leggauss_build(self, name, monkeypatch):
        spec = {"density": {"name": name}}
        measure = kernel_from_spec(spec)
        monkeypatch.setattr(laplace, "_gauss_legendre", np.polynomial.legendre.leggauss)
        ref = kernel_from_spec(spec)
        assert measure.n_atoms == ref.n_atoms == 64
        assert np.all(np.abs(measure.xis - ref.xis) <= 1e-14 * ref.xis)
        assert np.all(np.abs(measure.weights - ref.weights) <= 1e-14 * np.abs(ref.weights))


class TestKernelFromSpec:
    def test_density_spec(self):
        m = kernel_from_spec(
            {"density": {"name": "exp", "params": {"rate": 1.0}, "n_nodes": 64}}
        )
        assert phi_eval(m, 1.0) == pytest.approx(0.5, abs=1e-8)

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
