import numpy as np
import pytest

from roughvolterra.sigma import SIGMA_PARAMS, SigmaField, sigma_catalog


class TestCatalog:
    def test_shapes(self):
        for name in SIGMA_PARAMS:
            fld = sigma_catalog(name, n=2, d=3)
            y = np.array([0.1, -0.4, 0.7])
            assert fld.batch(y[None])[0].shape == (2, 3)
            assert fld.dsigma_batch(y[None])[0].shape == (2, 3, 3)

    def test_zero(self):
        fld = sigma_catalog("zero", n=1, d=1)
        assert fld.batch(np.array([2.0])[None])[0, 0, 0] == 0.0

    def test_constant_matrix(self):
        fld = sigma_catalog("constant", n=2, d=2, params={"value": 0.5})
        assert np.allclose(fld.batch(np.zeros(2)[None])[0], 0.5)
        assert np.max(np.abs(fld.dsigma_batch(np.ones(2)[None])[0])) == 0.0

    def test_linear_scalar(self):
        fld = sigma_catalog("linear", n=1, d=1, params={"scale": 2.0})
        assert fld.batch(np.array([0.3])[None])[0, 0, 0] == pytest.approx(0.6)

    def test_sin_scalar(self):
        fld = sigma_catalog("sin", n=1, d=1)
        assert fld.batch(np.array([0.5])[None])[0, 0, 0] == pytest.approx(np.sin(0.5))

    def test_tanh_bounded(self):
        fld = sigma_catalog("tanh", n=1, d=1, params={"amp": 0.8})
        ys = np.linspace(-20, 20, 101)[:, None]
        assert np.max(np.abs(fld.batch(ys))) <= 0.8

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            sigma_catalog("cosh")

    @pytest.mark.parametrize("name, params, bad", [
        ("tanh", {"widht": 2.0}, "widht"),
        ("zero", {"direction": [1.0]}, "direction"),
        ("constant", {"value": 0.5, "scale": 2.0}, "scale"),
    ])
    def test_unknown_param_names_it_and_the_family_keys(self, name, params, bad):
        with pytest.raises(ValueError) as exc:
            sigma_catalog(name, params=params)
        assert bad in str(exc.value) and str(list(SIGMA_PARAMS[name])) in str(exc.value)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("name", ["linear", "sin", "tanh"])
    def test_fd_consistency_scalar(self, name, fd_consistency):
        fld = sigma_catalog(name, n=1, d=1)
        assert fd_consistency(fld, n_points=10, seed=1) < 1e-6

    def test_fd_consistency_multidim(self, fd_consistency):
        fld = sigma_catalog("sin", n=3, d=2, params={"freq": 2.0, "direction": [1.0, 0.5, -0.3]})
        assert fd_consistency(fld, n_points=8, seed=2) < 1e-6


class TestCustomField:
    def test_square_field(self, fd_consistency):
        # sigma(y) = y^2 as a custom scalar field
        fld = SigmaField(
            n=1, d=1,
            batch=lambda ys: (ys**2)[:, None, :],
            dsigma_batch=lambda ys: (2 * ys)[:, None, :, None],
        )
        assert fld.batch(np.array([3.0])[None])[0, 0, 0] == 9.0
        assert fd_consistency(fld, n_points=5) < 1e-6
