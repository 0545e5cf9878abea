"""Scalar special functions and the ensemble/surrogate constructions."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ensrisk import gaussians
from ensrisk.gaussians import (
    DEGENERATE_SIGMA,
    GaussianEnsemble,
    abs_moment,
    averaged_surrogate,
    moment_surrogate,
    std_normal_cdf,
    std_normal_pdf,
)
from ensrisk.estimators import EnsembleBatch
from ensrisk.oracle import adaptive_quadrature


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
        for z in np.arange(-6.0, 6.25, 0.25):
            ref = adaptive_quadrature(std_normal_pdf, -40.0, float(z)).value
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


def _ulps(got, ref):
    """|got - ref| in units of the last place of ref."""
    return np.abs(got - ref) / np.spacing(np.abs(ref))


def _accuracy_grid():
    """z in [-40, 40] every 0.02, plus both sides of the branch edges
    |x| = 1, 8 and sqrt(MAXLOG)."""
    edges = []
    for edge in (1.0, 8.0, math.sqrt(gaussians._MAXLOG)):
        for e in (edge, edge * math.sqrt(2.0)):  # on the erfc and the Phi scale
            edges += [np.nextafter(e, 0.0), e, np.nextafter(e, np.inf)]
    edges = np.array(edges)
    return np.concatenate([np.linspace(-40.0, 40.0, 4001), edges, -edges])


class TestCephesCore:
    """The erf core shared by A, Phi and the oracle's CDF, against mpmath at
    50 digits and against SciPy.  Below the smallest normal double the
    reference is compared in absolute terms: Cephes returns 0 once
    x^2 > MAXLOG, where erfc is still a subnormal ~1e-310."""

    TINY = np.finfo(float).tiny
    # The Cephes P/Q and R/S forms are up to 5 ulp off on their own in double
    # arithmetic, and erfc = 1 - erf loses up to 3 more bits just below
    # |x| = 1 (SciPy's erfc is 9 ulp off there too); A adds erf to 2 phi and
    # so never cancels.
    CDF_ULPS = 10
    ABS_ULPS = 4

    @pytest.fixture(scope="class")
    def grid(self):
        z = _accuracy_grid()
        with mpmath.workdps(50):
            mp_z = [mpmath.mpf(float(v)) for v in z]
            ref = {
                "erfc": [mpmath.erfc(v) for v in mp_z],
                "cdf": [mpmath.ncdf(v) for v in mp_z],
                # A(z, 1) = 2 phi(z) + z erf(z / sqrt 2)
                "abs": [2 * mpmath.npdf(v) + v * mpmath.erf(v / mpmath.sqrt(2)) for v in mp_z],
            }
            return z, {k: np.array([float(r) for r in v]) for k, v in ref.items()}

    def _check(self, got, ref, ulps):
        normal = ref >= self.TINY
        assert _ulps(got[normal], ref[normal]).max() <= ulps
        assert np.all(np.abs(got[~normal] - ref[~normal]) <= self.TINY)

    def test_erfc_against_mpmath(self, grid):
        z, ref = grid
        self._check(gaussians._erfc(z), ref["erfc"], self.CDF_ULPS)

    def test_cdf_against_mpmath(self, grid):
        z, ref = grid
        self._check(std_normal_cdf(z), ref["cdf"], self.CDF_ULPS)

    def test_abs_moment_against_mpmath(self, grid):
        z, ref = grid
        self._check(abs_moment(z, 1.0), ref["abs"], self.ABS_ULPS)

    def test_erfc_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.normal(0.0, 2.0, 500_000), rng.uniform(-30.0, 30.0, 500_000)])
        got, ref = gaussians._erfc(x), special.erfc(x)
        # |x| < 1 is the same T/U evaluation in the same order
        small = np.abs(x) < 1.0
        assert np.array_equal(got[small], ref[small])
        # SciPy rounds x^2 before exp, which costs it up to x^2 ulp in the
        # upper tail (~500 ulp at x = 24); the core splits x^2 exactly
        normal = ref >= self.TINY
        assert np.all(_ulps(got, ref)[normal] <= 4.0 + x[normal] ** 2)
        assert np.all(np.abs(got - ref)[~normal] <= self.TINY)

    @given(st.floats(-40.0, 40.0))
    def test_cdf_reflection(self, z):
        assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(-1e150, 1e150), st.floats(0.0, 1e150))
    def test_abs_moment_at_least_abs_mean(self, mu, sigma):
        assert abs_moment(mu, sigma) >= abs(mu)

    def test_abs_moment_at_least_abs_mean_where_erf_rounds_to_one(self):
        # |z| in [5, 10]: erf(|z|/sqrt 2) is within a few ulp of 1 and the
        # rounded sum can land an ulp below |mu| unless it is held at it
        rng = np.random.default_rng(2)
        z = rng.uniform(5.0, 10.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        sigma = rng.lognormal(0.0, 3.0, z.size)
        mu = z * sigma
        assert np.all(abs_moment(mu, sigma) >= np.abs(mu))

    @given(st.floats(-1e300, 1e300), st.floats(0.0, DEGENERATE_SIGMA))
    def test_degenerate_sigma_is_exactly_abs_mean(self, mu, sigma):
        assert abs_moment(mu, sigma) == abs(mu)

    @pytest.mark.parametrize("fn", [gaussians._erfc, gaussians._ndtr,
                                    lambda z: abs_moment(z, 0.7)],
                             ids=["erfc", "cdf", "abs_moment"])
    def test_result_independent_of_position(self, fn):
        # one more element than a block, spanning every branch of the core
        rng = np.random.default_rng(5)
        n = gaussians._BLOCK + 1
        x = rng.choice([0.5, 3.0, 30.0], n) * rng.uniform(-1.0, 1.0, n)
        whole = fn(x)
        index = np.arange(n)
        for perm in (index[::-1], np.roll(index, 1), np.roll(index, 4099)):
            assert fn(x[perm]).tobytes() == whole[perm].tobytes()
        picks = np.concatenate([rng.choice(n - 1, 40, replace=False), [n - 1]])
        for i in picks:
            assert fn(x[i:i + 1]).tobytes() == whole[i:i + 1].tobytes()
            assert float(fn(x[i])) == whole[i]

    @pytest.mark.parametrize("n", [0, 1, gaussians._BLOCK - 1, gaussians._BLOCK,
                                   gaussians._BLOCK + 1])
    def test_out_is_filled_in_place(self, n):
        """``_blocked(..., out=)`` returns ``out`` itself, holding the bits
        the allocating call returns: for no elements (an M = 1 batch has no
        member pairs), one, and either side of a block."""
        rng = np.random.default_rng(n)
        x = rng.choice([0.5, 3.0, 30.0], n) * rng.uniform(-1.0, 1.0, n)
        sigma = rng.choice([0.0, 0.7, 2.0], n)
        for kernel, operands in ((gaussians._abs_moment_block, (x, sigma)),
                                 (functools.partial(gaussians._erfc_block, cdf=False), (x,)),
                                 (functools.partial(gaussians._erfc_block, cdf=True), (x,))):
            want = gaussians._blocked(kernel, *operands)
            rows = np.full((2, n), np.nan)  # out is one row of a larger block
            out = rows[1]
            assert gaussians._blocked(kernel, *operands, out=out) is out
            assert out.tobytes() == want.tobytes()
            assert np.isnan(rows[0]).all()


class TestTypes:
    def test_component_validation(self):
        with pytest.raises(ValueError):
            GaussianEnsemble([0.0], [0.0])
        with pytest.raises(ValueError):
            GaussianEnsemble([0.0], [-1.0])
        with pytest.raises(ValueError):
            GaussianEnsemble([float("nan")], [1.0])
        c = GaussianEnsemble([2.0], [4.0])
        assert c.size == 1
        assert (c.means[0], c.variances[0]) == (2.0, 4.0)

    def test_ensemble_needs_members(self):
        with pytest.raises(ValueError):
            GaussianEnsemble([], [])
        ens = GaussianEnsemble([0.0, 1.0], [1.0, 2.0])
        assert ens.size == 2
        np.testing.assert_array_equal(ens.means, [0.0, 1.0])
        np.testing.assert_array_equal(ens.variances, [1.0, 2.0])

    @pytest.mark.parametrize("means, variances", [
        ([], []),
        ([0.0, 1.0], [1.0]),
        ([[0.0, 1.0]], [[1.0, 2.0]]),
        (0.0, 1.0),
        ([0.0, float("nan")], [1.0, 1.0]),
        ([float("inf"), 0.0], [1.0, 1.0]),
        ([0.0, -float("inf")], [1.0, 1.0]),
        ([0.0], [float("inf")]),
        ([0.0, 1.0], [1.0, 0.0]),
        ([0.0, 1.0], [-2.0, 1.0]),
    ])
    def test_rejects_bad_input(self, means, variances):
        with pytest.raises(ValueError):
            GaussianEnsemble(means, variances)

    def test_fields_are_read_only(self):
        ens = GaussianEnsemble([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ens.means[0] = 5.0
        with pytest.raises(ValueError):
            ens.variances[1] = -1.0
        np.testing.assert_array_equal(ens.means, [0.0, 1.0])
        np.testing.assert_array_equal(ens.variances, [1.0, 2.0])

    def test_inputs_are_copied(self):
        means, variances = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        ens = GaussianEnsemble(means, variances)
        means[0], variances[0] = 7.0, 9.0
        np.testing.assert_array_equal(ens.means, [0.0, 1.0])
        np.testing.assert_array_equal(ens.variances, [1.0, 2.0])
        assert means.flags.writeable and variances.flags.writeable


class TestSurrogates:
    def test_singleton_identity(self):
        ens = GaussianEnsemble([2.0], [3.0])
        mm = moment_surrogate(ens)
        av = averaged_surrogate(ens)
        assert (mm.means[0], mm.variances[0]) == (2.0, 3.0)
        assert (av.means[0], av.variances[0]) == (2.0, 3.0)

    def test_hand_evaluated_two_member(self):
        # mu = {0, 2}, var = {1, 1}: (1 + 0 + 1 + 4)/2 - 1 = 2
        ens = GaussianEnsemble([0.0, 2.0], [1.0, 1.0])
        mm = moment_surrogate(ens)
        assert mm.means[0] == 1.0
        assert mm.variances[0] == pytest.approx(2.0, rel=1e-15)
        av = averaged_surrogate(ens)
        assert av.means[0] == 1.0
        assert av.variances[0] == 1.0

    def test_difference_is_population_variance(self):
        ens = GaussianEnsemble([0.0, 2.0], [0.3, 0.9])
        gap = moment_surrogate(ens).variances[0] - averaged_surrogate(ens).variances[0]
        assert gap == pytest.approx(1.0, rel=1e-14)  # Var({0, 2}) = 1

    def test_identical_components_collapse(self):
        ens = GaussianEnsemble([1.5] * 4, [0.7] * 4)
        mm = moment_surrogate(ens)
        assert mm.means[0] == 1.5
        assert mm.variances[0] == pytest.approx(0.7, rel=1e-15)

    def test_law_of_total_variance_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            means = rng.uniform(-5, 5, m)
            variances = rng.uniform(0.01, 9, m)
            ens = GaussianEnsemble(means, variances)
            # raw law-of-total-variance form, computed independently
            raw = float(np.mean(variances + means**2) - np.mean(means) ** 2)
            assert moment_surrogate(ens).variances[0] == pytest.approx(raw, rel=1e-12)
            pop_var = float(np.mean((means - means.mean()) ** 2))
            assert moment_surrogate(ens).variances[0] == pytest.approx(
                averaged_surrogate(ens).variances[0] + pop_var, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_bitwise_equal_to_the_batch_surrogates(self, m):
        rng = np.random.default_rng(m)
        means, variances = rng.uniform(-5, 5, (200, m)), rng.uniform(0.05, 9, (200, m))
        batch = EnsembleBatch(means, variances)
        for var, surrogate in ((batch.var_mm, moment_surrogate),
                               (batch.var_av, averaged_surrogate)):
            got = [surrogate(GaussianEnsemble(mr, vr)) for mr, vr in zip(means, variances)]
            assert np.array([g.means[0] for g in got]).tobytes() == batch.mu_star.tobytes()
            assert np.array([g.variances[0] for g in got]).tobytes() == var.tobytes()
