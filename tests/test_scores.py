"""Realized scores, entropies, expected scores, and divergences."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ensrisk import trainer
from ensrisk.gaussians import GaussianEnsemble, abs_moment
from ensrisk.oracle import (
    crps_point_quadrature,
    mc_expected_score,
    oracle_divergence,
)
from ensrisk.estimators import (
    ApproximationId,
    EnsembleBatch,
    NotClosedForm,
    divergence,
    entropy,
    expected_score,
)
from ensrisk.scores import (
    MemberPairs,
    ScoringRule,
    _row_sum,
    gaussian_overlap,
    pairwise_abs_moment,
    pairwise_overlap,
    point_score,
    realized_scores,
)

G01 = GaussianEnsemble([0.0], [1.0])
G11 = GaussianEnsemble([1.0], [1.0])
SQRT_PI = math.sqrt(math.pi)


class TestPointScores:
    def test_crps_standard_normal_at_zero(self):
        # frozen quadrature of the defining integral: 0.2336949772551084
        assert point_score(ScoringRule.CRPS, G01, 0.0) == pytest.approx(
            0.2336949772551084, abs=1e-12)
        assert crps_point_quadrature(G01, 0.0) == pytest.approx(
            point_score(ScoringRule.CRPS, G01, 0.0), abs=1e-10)

    def test_log_direct_substitution(self):
        assert point_score(ScoringRule.LOG, G01, 1.0) == pytest.approx(
            0.5 * math.log(2 * math.pi) + 0.5, rel=1e-15)

    def test_se_ignores_variance(self):
        assert point_score(ScoringRule.SE, GaussianEnsemble([3.0], [7.0]), 5.0) == 4.0

    def test_quadratic_frozen(self):
        # -2 phi(0) plus quadrature of int p^2: -0.5157897690289881
        assert point_score(ScoringRule.QUADRATIC, G01, 0.0) == pytest.approx(
            -0.5157897690289881, abs=1e-12)

    def test_crps_scale_linearity(self):
        base = point_score(ScoringRule.CRPS, G01, 0.0)
        for sigma in (0.2, 2.0, 17.0):
            scaled = point_score(ScoringRule.CRPS, GaussianEnsemble([0.0], [sigma**2]), 0.0)
            assert scaled == pytest.approx(sigma * base, rel=1e-12)

    def test_mixture_point_score_matches_raw_integral(self):
        mix = GaussianEnsemble([0.0, 2.0], [1.0, 0.5])
        closed = point_score(ScoringRule.CRPS, mix, 0.7)
        assert closed == pytest.approx(crps_point_quadrature(mix, 0.7), abs=1e-10)

    def test_vectorized_matches_scalar(self):
        ys = np.array([-1.0, 0.0, 2.5])
        for rule in ScoringRule:
            vec = realized_scores(rule, G11.means, G11.variances, ys)
            for y, v in zip(ys, vec):
                assert point_score(rule, G11, float(y)) == pytest.approx(v, rel=1e-14)

    def test_rejects_non_finite_outcome(self):
        with pytest.raises(ValueError):
            point_score(ScoringRule.SE, G01, float("nan"))


def _log_single(mu, var, ys):
    """-log N(y; mu, var) written out."""
    return 0.5 * (math.log(2 * math.pi) + math.log(var) + (ys - mu) ** 2 / var)


class TestLogPointScoresMaxShift:
    def test_finite_forty_sigma_away(self):
        # every member density underflows to 0 out here; the shift keeps it exact
        mix = GaussianEnsemble([0.0, 0.5], [1.0, 1.0])
        ys = np.array([-40.0, 40.5, 41.0])
        got = realized_scores(ScoringRule.LOG, mix.means, mix.variances, ys)
        expected = -(np.logaddexp(-_log_single(0.0, 1.0, ys), -_log_single(0.5, 1.0, ys))
                     - math.log(2))
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    def test_identical_members_equal_single_gaussian(self):
        ys = np.array([-45.0, -3.0, 0.1, 2.0, 60.0])
        single = GaussianEnsemble([0.3], [0.8])
        single_scores = realized_scores(ScoringRule.LOG, single.means, single.variances, ys)
        for m in (1, 2, 7, 10):
            mix = GaussianEnsemble([0.3] * m, [0.8] * m)
            mixed = realized_scores(ScoringRule.LOG, mix.means, mix.variances, ys)
            assert np.array_equal(mixed, single_scores)
        np.testing.assert_allclose(single_scores, _log_single(0.3, 0.8, ys), rtol=1e-15)

    def test_agrees_with_scipy_logsumexp(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(17)
        for _ in range(60):
            m = int(rng.integers(1, 11))
            means, variances = rng.uniform(-3, 3, m), rng.uniform(0.5, 4, m)
            ys = rng.normal(0.0, 4.0, 200)
            got = realized_scores(ScoringRule.LOG, means, variances, ys)
            logcomp = -0.5 * (math.log(2 * math.pi) + np.log(variances)
                              + (ys[:, None] - means) ** 2 / variances)
            ref = -(logsumexp(logcomp, axis=-1) - math.log(m))
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))


def _draw_array(data, shape, lo, hi):
    values = data.draw(st.lists(st.floats(lo, hi), min_size=math.prod(shape),
                                max_size=math.prod(shape)))
    return np.reshape(values, shape)


@functools.cache
def _small_predictor():
    x = np.linspace(-1.0, 1.0, 30)
    return trainer.train_ensemble(x, np.sin(3.0 * x), members=3, epochs=1, seed=0)


class TestRealizedScores:
    """One kernel for every realized score, under every rule: a row gets the
    same bits alone or in a batch, and so does an outcome."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rows_match_each_row_alone_bitwise(self, data):
        n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 10))
        means = _draw_array(data, (n, m), -50.0, 50.0)
        variances = _draw_array(data, (n, m), 1e-2, 1e2)
        ys = _draw_array(data, (n,), -100.0, 100.0)
        for rule in ScoringRule:
            rows = realized_scores(rule, means, variances, ys)
            assert rows.shape == (n,)
            for i in range(n):
                alone = realized_scores(rule, means[i], variances[i], ys[i])
                assert alone.shape == () and alone.tobytes() == rows[i].tobytes(), rule

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_ensemble_matches_point_score_per_outcome(self, data):
        m, k = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 8))
        pred = GaussianEnsemble(_draw_array(data, (m,), -50.0, 50.0),
                                _draw_array(data, (m,), 1e-2, 1e2))
        ys = _draw_array(data, (k,), -100.0, 100.0)
        for rule in ScoringRule:
            got = realized_scores(rule, pred.means, pred.variances, ys)
            assert [v.hex() for v in got.tolist()] == [
                point_score(rule, pred, y).hex() for y in ys.tolist()], rule

    def test_many_outcomes_match_point_score_bitwise(self):
        """Seeded draws, enough to include doubles whose square pow() rounds
        differently from x * x: a one-outcome call squares as arrays do."""
        rng = np.random.default_rng(3)
        pred = GaussianEnsemble(rng.normal(size=4), rng.uniform(0.5, 2.0, 4))
        ys = rng.normal(0.0, 10.0, 3000)
        for rule in ScoringRule:
            got = realized_scores(rule, pred.means, pred.variances, ys)
            assert [v.hex() for v in got.tolist()] == [
                point_score(rule, pred, y).hex() for y in ys.tolist()], rule

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_ensemble_nll_is_the_mean_log_score(self, data):
        k = data.draw(st.integers(1, 20))
        xs = _draw_array(data, (k,), -2.0, 2.0)
        ys = _draw_array(data, (k,), -5.0, 5.0)
        pred = _small_predictor()
        means, variances = trainer.predict_arrays(pred, xs)
        log_scores = realized_scores(ScoringRule.LOG, means, variances, ys)
        assert trainer.ensemble_nll(pred, xs, ys) == float(np.mean(log_scores))


class TestEntropy:
    def test_gaussian_closed_forms(self):
        for mu in (-3.0, 0.0, 4.5):
            g = GaussianEnsemble([mu], [1.0])
            assert entropy(ScoringRule.CRPS, g) == pytest.approx(1 / SQRT_PI, rel=1e-14)
            assert entropy(ScoringRule.LOG, g) == pytest.approx(
                0.5 * math.log(2 * math.pi * math.e), rel=1e-14)
            assert entropy(ScoringRule.QUADRATIC, g) == pytest.approx(
                -1 / (2 * SQRT_PI), rel=1e-14)
            assert entropy(ScoringRule.SE, g) == 1.0

    def test_crps_mixture_of_identical_parts(self):
        mix = GaussianEnsemble([0.0, 0.0], [1.0, 1.0])
        assert entropy(ScoringRule.CRPS, mix) == pytest.approx(1 / SQRT_PI, rel=1e-14)

    def test_crps_mixture_frozen(self):
        # (1/8) sum_ij A(mu_ij, sigma_ij) for {N(0,1), N(3,1)}
        mix = GaussianEnsemble([0.0, 3.0], [1.0, 1.0])
        assert entropy(ScoringRule.CRPS, mix) == pytest.approx(
            1.0364062239362686, rel=1e-12)

    def test_quadratic_mixture_frozen(self):
        mix = GaussianEnsemble([0.0, 3.0], [1.0, 1.0])
        assert entropy(ScoringRule.QUADRATIC, mix) == pytest.approx(
            -0.15591368203989275, rel=1e-12)

    def test_log_mixture_has_no_closed_form(self):
        mix = GaussianEnsemble([0.0, 3.0], [1.0, 2.0])
        with pytest.raises(NotClosedForm):
            entropy(ScoringRule.LOG, mix)

    def test_se_mixture_is_total_variance(self):
        mix = GaussianEnsemble([0.0, 2.0], [1.0, 1.0])
        assert entropy(ScoringRule.SE, mix) == pytest.approx(2.0, rel=1e-14)

    def test_crps_entropy_is_half_mean_gap_monte_carlo(self):
        mix = GaussianEnsemble([-1.0, 0.5, 3.0], [0.4, 1.5, 0.9])
        rng = np.random.default_rng(7)
        n = 400_000
        idx = rng.integers(0, 3, size=(2, n))
        draws = mix.means[idx] + np.sqrt(mix.variances[idx]) * rng.standard_normal((2, n))
        gaps = np.abs(draws[0] - draws[1])
        est = 0.5 * gaps.mean()
        se = 0.5 * gaps.std(ddof=1) / math.sqrt(n)
        assert entropy(ScoringRule.CRPS, mix) == pytest.approx(est, abs=3 * se)


class TestExpectedScore:
    def test_self_score_is_entropy(self):
        for rule in ScoringRule:
            h = entropy(rule, G01)
            assert expected_score(rule, G01, G01) == pytest.approx(h, rel=1e-14)

    def test_crps_frozen_pair(self):
        # quadrature of int CRPS(P, y) q(y) dy: 0.8350928732007326
        assert expected_score(ScoringRule.CRPS, G01, G11) == pytest.approx(
            0.8350928732007326, abs=1e-10)

    def test_log_frozen_pair(self):
        # Monte-Carlo of -log p(Y), Y ~ N(1,1), 1e6 draws seed 7 gives
        # 1.91858944 +/- 0.00122; the closed form must land inside 3 se.
        closed = expected_score(ScoringRule.LOG, G01, G11)
        assert closed == pytest.approx(1.9185894428949537, abs=3 * 0.00123)
        assert closed == pytest.approx(0.5 * (math.log(2 * math.pi) + 2.0), rel=1e-14)

    def test_se_pair(self):
        assert expected_score(ScoringRule.SE, G01, GaussianEnsemble([2.0], [5.0])) == 9.0

    def test_label_mixture_linearity(self):
        mix = GaussianEnsemble([-1.0, 2.0, 0.3], [0.5, 1.5, 2.5])
        for rule in ScoringRule:
            whole = expected_score(rule, G01, mix)
            parts = [expected_score(rule, G01, GaussianEnsemble([m], [v]))
                     for m, v in zip(mix.means, mix.variances)]
            assert whole == pytest.approx(float(np.mean(parts)), rel=1e-14)

    def test_log_mixture_prediction_not_closed(self):
        mix = GaussianEnsemble([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(NotClosedForm):
            expected_score(ScoringRule.LOG, mix, G01)


class TestDivergence:
    def test_self_divergence_zero(self):
        g = GaussianEnsemble([3.0], [2.0])
        for rule in ScoringRule:
            assert divergence(rule, g, g) == pytest.approx(0.0, abs=1e-14)

    def test_log_kl_frozen(self):
        # quadrature of the KL integrand gives 1/2 exactly here
        assert divergence(ScoringRule.LOG, G01, G11) == pytest.approx(0.5, rel=1e-14)

    def test_se_mean_gap(self):
        assert divergence(ScoringRule.SE, G01, GaussianEnsemble([2.0], [5.0])) == 4.0

    def test_quadratic_frozen_against_quadrature(self):
        g04 = GaussianEnsemble([0.0], [4.0])
        closed = divergence(ScoringRule.QUADRATIC, G01, g04)
        assert closed == pytest.approx(0.06631736443026287, abs=1e-8)

    def test_crps_alternative_form(self):
        # d(P, Q) = int (F_P - F_Q)^2 dt, checked through the oracle
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = GaussianEnsemble([rng.uniform(-3, 3)], [rng.uniform(0.2, 4)])
            q = GaussianEnsemble([rng.uniform(-3, 3)], [rng.uniform(0.2, 4)])
            assert divergence(ScoringRule.CRPS, p, q) == pytest.approx(
                oracle_divergence(ScoringRule.CRPS, p, q), abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        sym_rules = (ScoringRule.CRPS, ScoringRule.QUADRATIC, ScoringRule.SE)
        for _ in range(200):
            p = GaussianEnsemble([rng.uniform(-4, 4)], [rng.uniform(0.1, 5)])
            q = GaussianEnsemble([rng.uniform(-4, 4)], [rng.uniform(0.1, 5)])
            for rule in sym_rules:
                assert divergence(rule, p, q) == pytest.approx(
                    divergence(rule, q, p), abs=1e-12 * max(1, abs(divergence(rule, p, q))))

    def test_log_asymmetry(self):
        p = GaussianEnsemble([0.0], [1.0])
        q = GaussianEnsemble([1.5], [3.0])
        assert abs(divergence(ScoringRule.LOG, p, q)
                   - divergence(ScoringRule.LOG, q, p)) > 1e-3

    def test_log_mixture_not_closed(self):
        mix = GaussianEnsemble([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(NotClosedForm):
            divergence(ScoringRule.LOG, G01, mix)
        with pytest.raises(NotClosedForm):
            divergence(ScoringRule.LOG, mix, G01)

    def test_properness_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            p = GaussianEnsemble([rng.uniform(-5, 5)], [rng.uniform(0.05, 9)])
            q = GaussianEnsemble([rng.uniform(-5, 5)], [rng.uniform(0.05, 9)])
            for rule in ScoringRule:
                assert expected_score(rule, p, q) >= entropy(rule, q) - 1e-10


class TestMonteCarloCrossChecks:
    def test_mc_matches_closed_for_log_pair(self):
        mc = mc_expected_score(ScoringRule.LOG, G01, G11, samples=200_000, seed=4)
        assert expected_score(ScoringRule.LOG, G01, G11) == pytest.approx(
            mc.value, abs=4 * mc.standard_error)

    def test_mc_mixture_prediction(self):
        mix = GaussianEnsemble([0.0, 2.0], [1.0, 0.5])
        for rule in (ScoringRule.CRPS, ScoringRule.QUADRATIC, ScoringRule.SE):
            mc = mc_expected_score(rule, mix, G11, samples=200_000, seed=9)
            assert expected_score(rule, mix, G11) == pytest.approx(
                mc.value, abs=4 * mc.standard_error)


def _full_pair_means(means, variances):
    """The three O(M^2) means over all M^2 ordered member pairs, as the
    full (n, M, M) formulas give them, with each row's largest |term|:
    CRPS E|X - X'|, QUADRATIC integral p^2 and LOG Exc(1,1)."""
    dm = means[:, :, None] - means[:, None, :]
    sv = variances[:, :, None] + variances[:, None, :]
    terms = {
        ScoringRule.CRPS: abs_moment(dm, np.sqrt(sv), check=False),
        ScoringRule.QUADRATIC: gaussian_overlap(means[:, :, None], variances[:, :, None],
                                                means[:, None, :], variances[:, None, :]),
        ScoringRule.LOG: 0.5 * ((variances[:, None, :] + dm ** 2)
                                / variances[:, :, None] - 1.0),
    }
    return {rule: (t.mean(axis=(1, 2)), np.abs(t).max(axis=(1, 2)))
            for rule, t in terms.items()}


class TestMemberPairs:
    """The kernels that evaluate each member pair i < j once, against the
    full (M, M) formulas, within a few ulps of the largest term."""

    ULPS = 8

    def _check(self, means, variances):
        batch = EnsembleBatch(means, variances)
        ba = ApproximationId.BA
        got = {ScoringRule.CRPS: batch.crps_pair_mean(),
               ScoringRule.QUADRATIC: batch.quad_pair_mean(),
               ScoringRule.LOG: batch.excess(ScoringRule.LOG, (ba, ba))}
        eps = np.finfo(float).eps
        for rule, (want, largest) in _full_pair_means(means, variances).items():
            assert np.all(np.abs(got[rule] - want) <= self.ULPS * eps * largest), rule

    @pytest.mark.parametrize("m", [1, 2, 3, 10])
    def test_matches_full_formulas(self, m):
        rng = np.random.default_rng(60 + m)
        self._check(rng.uniform(-5.0, 5.0, (40, m)), rng.uniform(0.05, 9.0, (40, m)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_full_formulas_sweep(self, data):
        m = data.draw(st.integers(2, 10))
        n = data.draw(st.integers(1, 3))
        scale = data.draw(st.floats(1e-3, 1e3))
        means = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n * m, max_size=n * m,
                                   unique=True))
        variances = data.draw(st.lists(st.floats(1e-2, 1e2), min_size=n * m,
                                       max_size=n * m))
        self._check(scale * np.reshape(means, (n, m)),
                    scale * scale * np.reshape(variances, (n, m)))

    def test_holds_no_pair_array_but_dm_and_sv(self):
        """A batch's memory grows with its (K, n) pair arrays: the layout
        keeps two, and a kernel gathers var_i or var_j when it needs them."""
        rng = np.random.default_rng(71)
        pairs = MemberPairs(rng.normal(size=(7, 5)), rng.uniform(0.2, 2.0, (7, 5)))
        held = sorted(name for name, value in vars(pairs).items()
                      if isinstance(value, np.ndarray) and value.size >= 10 * 7)
        assert held == ["dm", "sv"]
        assert pairs.dm.shape == pairs.sv.shape == (10, 7)

    def test_scalar_calls_match_batch_rows_bitwise(self):
        """The sums over pairs run in one order whatever the number of rows,
        so a row alone gets the bits it gets inside a batch."""
        rng = np.random.default_rng(70)
        means, variances = rng.normal(size=(7, 10)), rng.uniform(0.2, 2.0, (7, 10))
        for kernel in (pairwise_abs_moment, pairwise_overlap):
            rows = kernel(means, variances)
            assert rows.shape == (7,)
            for i in range(7):
                alone = kernel(means[i], variances[i])
                assert alone.shape == () and alone.tobytes() == rows[i].tobytes()


def _running_row_sum(x):
    """The rows of a (K, n) array added one after another in index order:
    the reference for ``_row_sum``."""
    out = np.zeros(x.shape[1]) if len(x) == 0 else x[0].copy()
    for row in x[1:]:
        out += row
    return out


class TestRowSum:
    """``_row_sum`` adds the rows in index order for every n, so a row of a
    pair reduction gets the same bits alone or in a batch.  This pins
    NumPy's axis-0 order: a NumPy release that changed it fails here."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_running_sum_bitwise(self, data):
        n = data.draw(st.one_of(st.just(1), st.integers(1, 2000)), label="n")
        k = data.draw(st.one_of(st.sampled_from([0, 1, 2, 8, 9, 128, 129, 1225]),
                                st.integers(0, 40_000 // n)), label="K")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # magnitudes over e^-20 .. e^20, both signs, a few exact zeros
        x = rng.choice([-1.0, 1.0], (k, n)) * np.exp(rng.uniform(-20.0, 20.0, (k, n)))
        x[rng.random((k, n)) < 0.02] = 0.0
        got = _row_sum(x)
        assert got.shape == (n,)
        assert got.tobytes() == _running_row_sum(x).tobytes()

    @pytest.mark.parametrize("k", [3, 45, 1225, 19_900])
    def test_one_column_is_a_running_sum(self, k):
        """NumPy sums one contiguous column pairwise, which can round
        differently from the running sum; ``_row_sum`` keeps the running sum,
        the bits that column gets beside others."""
        x = np.random.default_rng(k).uniform(-1.0, 1.0, (k, 1)) * 1e3
        assert _row_sum(x).tobytes() == _running_row_sum(x).tobytes()
        assert _row_sum(x).tobytes() == _row_sum(np.repeat(x, 2, axis=1))[:1].tobytes()

    def test_no_pairs_sum_to_zeros(self):
        assert _row_sum(np.empty((0, 3))).tobytes() == np.zeros(3).tobytes()
        assert _row_sum(np.empty((0, 1))).tobytes() == np.zeros(1).tobytes()
