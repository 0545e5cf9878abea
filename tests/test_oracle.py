"""The quadrature/Monte-Carlo oracle itself."""

import math

import numpy as np
import pytest

from ensrisk import oracle
from ensrisk.gaussians import GaussianComponent, GaussianEnsemble
from ensrisk.oracle import (
    ConvergenceError,
    McConfig,
    QuadratureConfig,
    _batch_log_mixture_entropy,
    adaptive_quadrature,
    mc_expected_score,
    oracle_entropy,
    oracle_expected_score,
)
from ensrisk.estimators import NOT_CLOSED_FORM, entropy, expected_score
from ensrisk.scores import ScoringRule
from ensrisk.synthetic import ShiftKind, UniformPosteriorSpec, _sample_arrays, apply_shift

G01 = GaussianComponent(0.0, 1.0)


def _random_distribution(rng, max_members=3):
    m = int(rng.integers(1, max_members + 1))
    return GaussianEnsemble.from_arrays(
        rng.uniform(-4, 4, m), rng.uniform(0.05, 6, m))


class TestConfigs:
    def test_quadrature_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(tail_width=5.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)

    def test_mc_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=10)
        with pytest.raises(ValueError):
            McConfig(samples=1000, seed=-1)


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        res = adaptive_quadrature(lambda t: t**2, 0.0, 3.0)
        assert res.value == pytest.approx(9.0, abs=1e-13)

    def test_error_estimate_bounds_true_error(self):
        res = adaptive_quadrature(np.cos, 0.0, 2.0)
        assert abs(res.value - math.sin(2.0)) <= max(res.error, 1e-13)

    def test_kinked_integrand_with_knot(self):
        res = adaptive_quadrature(lambda t: np.abs(t - 0.3), -1.0, 1.0, knots=(0.3,))
        exact = 0.5 * (1.3**2 + 0.7**2)
        assert res.value == pytest.approx(exact, abs=1e-10)

    def test_convergence_error_carries_best_estimate(self):
        cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-14, max_subdivisions=1)
        with pytest.raises(ConvergenceError) as info:
            adaptive_quadrature(lambda t: np.abs(np.sin(40 * t)) ** 0.3, 0.0, 10.0, cfg)
        assert math.isfinite(info.value.best)
        assert info.value.error > 0


class TestOracleAgainstClosedForms:
    def test_trivial_se_pair(self):
        res = oracle_expected_score(ScoringRule.SE, G01, GaussianComponent(2.0, 5.0))
        assert res.value == pytest.approx(9.0, abs=1e-10)

    def test_equivalence_sweep(self):
        """Quadrature vs closed forms on random (rule, pred, label) configs."""
        rng = np.random.default_rng(21)
        cfg = QuadratureConfig()
        checked = 0
        while checked < 200:
            rule = list(ScoringRule)[int(rng.integers(0, 4))]
            pred = _random_distribution(rng)
            label = _random_distribution(rng)
            closed = expected_score(rule, pred, label)
            if closed is NOT_CLOSED_FORM:
                continue
            quad = oracle_expected_score(rule, pred, label, cfg).value
            assert quad == pytest.approx(closed, abs=max(1e-8, 1e-8 * abs(closed)))
            checked += 1

    def test_entropy_sweep(self):
        rng = np.random.default_rng(22)
        cfg = QuadratureConfig()
        for _ in range(60):
            dist = _random_distribution(rng)
            for rule in ScoringRule:
                closed = entropy(rule, dist)
                if closed is NOT_CLOSED_FORM:
                    continue
                quad = oracle_entropy(rule, dist, cfg)
                assert quad == pytest.approx(closed, abs=max(1e-8, 1e-8 * abs(closed)))

    def test_log_mixture_entropy_between_bounds(self):
        # no closed form, but Shannon entropy of the mixture is bracketed by
        # mean member entropy and the moment-matched Gaussian entropy
        mix = GaussianEnsemble.from_arrays([0.0, 2.5], [0.5, 1.5])
        h = oracle_entropy(ScoringRule.LOG, mix)
        lo = float(np.mean([entropy(ScoringRule.LOG, GaussianComponent(m, v))
                            for m, v in zip(mix.means, mix.variances)]))
        from ensrisk.gaussians import moment_surrogate
        hi = entropy(ScoringRule.LOG, moment_surrogate(mix))
        assert lo - 1e-10 <= h <= hi + 1e-10

    def test_window_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pred = _random_distribution(rng)
            label = _random_distribution(rng)
            rule = list(ScoringRule)[int(rng.integers(0, 4))]
            narrow = oracle_expected_score(rule, pred, label,
                                           QuadratureConfig(tail_width=10.0)).value
            wide = oracle_expected_score(rule, pred, label,
                                         QuadratureConfig(tail_width=20.0)).value
            assert abs(narrow - wide) < 1e-10 * max(1.0, abs(narrow))


def _entropy_rows():
    """M = 10 rows: wide member spreads with narrow members, where a fixed
    grid misses components, then draws from all four shift ranges."""
    rng = np.random.default_rng(31)
    means = [rng.uniform(-s, s, (4, 10)) for s in (20.0, 50.0, 200.0)]
    variances = [np.full((4, 10), v) for v in (0.05, 0.01, 0.01)]
    base = UniformPosteriorSpec(replicates=6, seed=31)
    for spec in [base] + [apply_shift(base, kind) for kind in ShiftKind]:
        m, v = _sample_arrays(spec)
        means.append(m)
        variances.append(v)
    return np.vstack(means), np.vstack(variances)


class TestBatchLogMixtureEntropy:
    def test_matches_oracle_entropy(self):
        means, variances = _entropy_rows()
        batched = _batch_log_mixture_entropy(means, variances)
        for m, v, h in zip(means, variances, batched):
            ens = GaussianEnsemble.from_arrays(m, v)
            assert abs(h - oracle_entropy(ScoringRule.LOG, ens)) <= 1e-9

    def test_row_blocks_are_bitwise_equal(self, monkeypatch):
        means, variances = _entropy_rows()
        whole = _batch_log_mixture_entropy(means, variances)
        monkeypatch.setattr(oracle, "_BLOCK_ELEMS", 1)  # one row per block
        assert np.array_equal(_batch_log_mixture_entropy(means, variances), whole)


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        cfg = McConfig(samples=50_000, seed=77)
        a = mc_expected_score(ScoringRule.CRPS, G01, GaussianComponent(1.0, 2.0), cfg)
        b = mc_expected_score(ScoringRule.CRPS, G01, GaussianComponent(1.0, 2.0), cfg)
        assert a == b

    def test_se_analytic_target(self):
        cfg = McConfig(samples=1_000_000, seed=13)
        res = mc_expected_score(ScoringRule.SE, G01, GaussianComponent(2.0, 5.0), cfg)
        assert res.value == pytest.approx(9.0, abs=3 * res.standard_error)

    def test_log_pair_target(self):
        cfg = McConfig(samples=1_000_000, seed=7)
        res = mc_expected_score(ScoringRule.LOG, G01, GaussianComponent(1.0, 1.0), cfg)
        assert res.value == pytest.approx(0.5 * (math.log(2 * math.pi) + 2.0),
                                          abs=3 * res.standard_error)

    def test_quadrature_vs_mc_on_log_mixtures(self):
        """50 no-closed-form cases: mixture prediction under the LOG rule."""
        rng = np.random.default_rng(31)
        cfg_q = QuadratureConfig()
        for _ in range(50):
            m = int(rng.integers(2, 5))
            pred = GaussianEnsemble.from_arrays(
                rng.uniform(-3, 3, m), rng.uniform(0.1, 4, m))
            label = GaussianComponent(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            assert expected_score(ScoringRule.LOG, pred, label) is NOT_CLOSED_FORM
            quad = oracle_expected_score(ScoringRule.LOG, pred, label, cfg_q)
            mc = mc_expected_score(ScoringRule.LOG, pred, label,
                                   McConfig(samples=100_000, seed=int(rng.integers(2**32))))
            combined = math.hypot(mc.standard_error, max(quad.error, 1e-12))
            assert quad.value == pytest.approx(mc.value, abs=4 * combined)
