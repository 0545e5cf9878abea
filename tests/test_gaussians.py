"""Scalar special functions and the ensemble/surrogate constructions."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ensrisk.gaussians import (
    GaussianComponent,
    GaussianEnsemble,
    abs_moment,
    averaged_surrogate,
    moment_surrogate,
    std_normal_cdf,
    std_normal_pdf,
)
from ensrisk.oracle import QuadratureConfig, adaptive_quadrature


class TestStdNormalPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=0)

    def test_even(self):
        assert std_normal_pdf(1.7) == std_normal_pdf(-1.7)

    def test_at_one(self):
        # exp(-1/2) / sqrt(2 pi), evaluated at high precision
        assert std_normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-15)

    def test_positive_and_rejects_nan(self):
        zs = np.linspace(-30, 30, 101)
        assert np.all(std_normal_pdf(zs) >= 0.0)
        with pytest.raises(ValueError):
            std_normal_pdf(float("nan"))
        with pytest.raises(ValueError):
            std_normal_pdf(float("inf"))


class TestStdNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_reflection(self):
        for z in (0.3, 1.3, 2.7, 5.5):
            assert std_normal_cdf(-z) + std_normal_cdf(z) == pytest.approx(1.0, abs=1e-15)

    def test_quantile_196(self):
        # frozen from the quadrature of the pdf over (-inf, 1.96]
        assert std_normal_cdf(1.96) == pytest.approx(0.9750021048517767, abs=1e-12)

    def test_monotone(self):
        zs = np.linspace(-8, 8, 400)
        vals = std_normal_cdf(zs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals > 0.0) & (vals < 1.0))

    def test_matches_quadrature_on_grid(self):
        cfg = QuadratureConfig()
        for z in np.arange(-6.0, 6.25, 0.25):
            ref = adaptive_quadrature(std_normal_pdf, -40.0, float(z), cfg).value
            assert std_normal_cdf(float(z)) == pytest.approx(ref, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            std_normal_cdf(float("-inf"))


class TestAbsMoment:
    def test_centered(self):
        # E|X - X'| for unit Gaussians: A(0, sqrt(2)) = 2 / sqrt(pi)
        assert abs_moment(0.0, math.sqrt(2.0)) == pytest.approx(
            2.0 / math.sqrt(math.pi), rel=1e-15)

    def test_degenerate_sigma(self):
        assert abs_moment(3.0, 1e-12) == pytest.approx(3.0, abs=1e-9)
        assert abs_moment(-2.5, 0.0) == 2.5

    def test_monte_carlo_value(self):
        # frozen mean of |X|, X ~ N(1,1), 1e7 draws, seed 123 (se 2.5e-4)
        assert abs_moment(1.0, 1.0) == pytest.approx(1.1665161188163953, abs=3e-4)

    def test_even_in_mu(self):
        assert abs_moment(1.4, 0.7) == abs_moment(-1.4, 0.7)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            abs_moment(0.0, -1.0)

    @given(st.floats(-50, 50), st.floats(1e-6, 50))
    def test_lower_bounds(self, mu, sigma):
        a = abs_moment(mu, sigma)
        assert a >= abs(mu) - 1e-12 * max(1.0, abs(mu))
        assert a >= sigma * math.sqrt(2.0 / math.pi) - 1e-12 * sigma

    def test_limit_at_zero_mean(self):
        for sigma in (0.1, 1.0, 7.0):
            assert abs_moment(0.0, sigma) == pytest.approx(
                sigma * math.sqrt(2.0 / math.pi), rel=1e-14)


class TestTypes:
    def test_component_validation(self):
        with pytest.raises(ValueError):
            GaussianComponent(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianComponent(0.0, -1.0)
        with pytest.raises(ValueError):
            GaussianComponent(float("nan"), 1.0)
        c = GaussianComponent(2.0, 4.0)
        assert c.sigma == 2.0

    def test_ensemble_needs_members(self):
        with pytest.raises(ValueError):
            GaussianEnsemble(())
        ens = GaussianEnsemble.from_arrays([0.0, 1.0], [1.0, 2.0])
        assert ens.size == 2
        np.testing.assert_array_equal(ens.means, [0.0, 1.0])
        np.testing.assert_array_equal(ens.variances, [1.0, 2.0])

    def test_surrogates_require_positive_variance(self):
        with pytest.raises(ValueError):
            GaussianComponent(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianComponent(0.0, -2.0)


class TestSurrogates:
    def test_singleton_identity(self):
        ens = GaussianEnsemble.from_arrays([2.0], [3.0])
        mm = moment_surrogate(ens)
        av = averaged_surrogate(ens)
        assert (mm.mean, mm.variance) == (2.0, 3.0)
        assert (av.mean, av.variance) == (2.0, 3.0)

    def test_hand_evaluated_two_member(self):
        # mu = {0, 2}, var = {1, 1}: (1 + 0 + 1 + 4)/2 - 1 = 2
        ens = GaussianEnsemble.from_arrays([0.0, 2.0], [1.0, 1.0])
        mm = moment_surrogate(ens)
        assert mm.mean == 1.0
        assert mm.variance == pytest.approx(2.0, rel=1e-15)
        av = averaged_surrogate(ens)
        assert av.mean == 1.0
        assert av.variance == 1.0

    def test_difference_is_population_variance(self):
        ens = GaussianEnsemble.from_arrays([0.0, 2.0], [0.3, 0.9])
        gap = moment_surrogate(ens).variance - averaged_surrogate(ens).variance
        assert gap == pytest.approx(1.0, rel=1e-14)  # Var({0, 2}) = 1

    def test_identical_components_collapse(self):
        ens = GaussianEnsemble.from_arrays([1.5] * 4, [0.7] * 4)
        mm = moment_surrogate(ens)
        assert mm.mean == 1.5
        assert mm.variance == pytest.approx(0.7, rel=1e-15)

    def test_law_of_total_variance_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            means = rng.uniform(-5, 5, m)
            variances = rng.uniform(0.01, 9, m)
            ens = GaussianEnsemble.from_arrays(means, variances)
            # raw law-of-total-variance form, computed independently
            raw = float(np.mean(variances + means**2) - np.mean(means) ** 2)
            assert moment_surrogate(ens).variance == pytest.approx(raw, rel=1e-12)
            pop_var = float(np.mean((means - means.mean()) ** 2))
            assert moment_surrogate(ens).variance == pytest.approx(
                averaged_surrogate(ens).variance + pop_var, rel=1e-12)
