"""The risk-estimator registry: values, identities, closed forms, matrix."""

import math

import numpy as np
import pytest

from ensrisk import estimators, scores
from ensrisk.estimators import (
    ApproximationId,
    EnsembleBatch,
    EstimatorId,
    MeasureColumn,
    NotClosedForm,
    PredictionSet,
    RiskKind,
    bayes_risk,
    default_estimators,
    divergence,
    entropy,
    excess_risk,
    expected_score,
    log_excess_ba_ens,
    log_quadrature_cells,
    measure_columns,
    measure_matrix,
    needs_mixture_entropy,
    total_risk,
)
from ensrisk.gaussians import (
    GaussianEnsemble,
    averaged_surrogate,
    moment_surrogate,
)
from ensrisk.oracle import (
    _batch_log_mixture_entropy,
    mc_expected_score,
    oracle_divergence,
    oracle_entropy,
)
from ensrisk.scores import ScoringRule

BA, ENS, MM, AV = (ApproximationId.BA, ApproximationId.ENS,
                   ApproximationId.MM, ApproximationId.AV)
SQRT_PI = math.sqrt(math.pi)


def oracle_tol(value):
    """The sweep tolerance of the oracle tests."""
    return max(1e-8, 1e-8 * abs(value))


def random_ensemble(rng, m_range=(2, 8)):
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    return GaussianEnsemble(
        rng.uniform(-5, 5, m), rng.uniform(0.05, 9, m))


def members(ens):
    """The members of ``ens``, each a one-member ensemble."""
    return [GaussianEnsemble([m], [v]) for m, v in zip(ens.means, ens.variances)]


def wide_rows(rng, n, m):
    """(n, m) means and variances over magnitudes from 1e-4 to 1e4: each row
    scales its means by its own power of ten, and each member draws its own
    variance."""
    means = rng.uniform(-1.0, 1.0, (n, m)) * 10.0 ** rng.uniform(-4.0, 4.0, (n, 1))
    return means, 10.0 ** rng.uniform(-4.0, 4.0, (n, m))


class TestEstimatorId:
    def test_labels_and_keys(self):
        est = EstimatorId(RiskKind.EXCESS, MM, ENS)
        assert est.key == "exc_3a_2"
        assert EstimatorId.parse("exc_3a_2") == est
        assert EstimatorId.parse("bayes_2") == EstimatorId(RiskKind.BAYES, ENS)

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            EstimatorId(RiskKind.TOTAL, BA, ENS)
        with pytest.raises(ValueError):
            EstimatorId(RiskKind.BAYES, BA, BA)
        with pytest.raises(ValueError):
            EstimatorId.parse("bogus_1_1")

    def test_default_set_matches_tables(self):
        assert len(default_estimators()) == 16
        assert [e.key for e in default_estimators()[:6]] == [
            "tot_1_1", "tot_2_1", "tot_3a_1", "tot_3b_1", "tot_3a_2", "tot_3b_2"]


class TestBayesRisk:
    def test_se_table_row(self):
        ens = GaussianEnsemble([0.0, 1.0], [1.0, 3.0])
        assert bayes_risk(ScoringRule.SE, ens, BA) == 2.0
        mm_var = moment_surrogate(ens).variances[0]
        assert bayes_risk(ScoringRule.SE, ens, ENS) == pytest.approx(mm_var, rel=1e-15)
        assert bayes_risk(ScoringRule.SE, ens, MM) == pytest.approx(mm_var, rel=1e-15)
        assert bayes_risk(ScoringRule.SE, ens, AV) == 2.0

    def test_crps_moment_matched(self):
        # any ensemble with mixture variance 4 has Bayes(3a) = 2 / sqrt(pi)
        ens = GaussianEnsemble([0.0, 0.0], [4.0, 4.0])
        assert bayes_risk(ScoringRule.CRPS, ens, MM) == pytest.approx(
            2.0 / SQRT_PI, rel=1e-14)

    def test_quadratic_bayesian_averaging(self):
        ens = GaussianEnsemble([5.0, -5.0], [1.0, 1.0])
        assert bayes_risk(ScoringRule.QUADRATIC, ens, BA) == pytest.approx(
            -1.0 / (2.0 * SQRT_PI), rel=1e-14)

    def test_log_mixture_not_closed(self):
        ens = GaussianEnsemble([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(NotClosedForm):
            bayes_risk(ScoringRule.LOG, ens, ENS)

    def test_agrees_with_entropy_of_the_plugin(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ens = random_ensemble(rng)
            for rule in ScoringRule:
                for approx, dist in ((BA, None), (ENS, ens),
                                     (MM, moment_surrogate(ens)),
                                     (AV, averaged_surrogate(ens))):
                    if approx is BA:
                        parts = [entropy(rule, c) for c in members(ens)]
                        want = float(np.mean(parts))
                    else:
                        try:
                            want = entropy(rule, dist)
                        except NotClosedForm:
                            with pytest.raises(NotClosedForm):
                                bayes_risk(rule, ens, approx)
                            continue
                    got = bayes_risk(rule, ens, approx)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
                    if approx is BA:
                        quad = float(np.mean([oracle_entropy(rule, c)
                                              for c in members(ens)]))
                    else:
                        quad = oracle_entropy(rule, dist)
                    assert got == pytest.approx(quad, abs=oracle_tol(quad))


class TestExcessRisk:
    def test_identical_components_give_zero(self):
        ens = GaussianEnsemble([1.3] * 3, [0.8] * 3)
        pairs = [(BA, BA), (ENS, BA), (MM, BA), (AV, BA), (MM, ENS), (AV, ENS)]
        for rule in ScoringRule:
            for pair in pairs:
                try:
                    val = excess_risk(rule, ens, pair)
                except NotClosedForm:
                    cells = log_quadrature_cells(ens)
                    key = EstimatorId(RiskKind.EXCESS, *pair).key
                    val = cells[key]
                assert val == pytest.approx(0.0, abs=1e-12)

    def test_se_hand_sum(self):
        ens = GaussianEnsemble([0.0, 2.0], [0.6, 2.2])
        assert excess_risk(ScoringRule.SE, ens, (BA, BA)) == pytest.approx(2.0, rel=1e-14)

    def test_se_identically_zero_cells(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ens = random_ensemble(rng)
            assert excess_risk(ScoringRule.SE, ens, (MM, ENS)) == 0.0
            assert excess_risk(ScoringRule.SE, ens, (AV, ENS)) == 0.0

    def test_factor_two_for_symmetric_rules(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            ens = random_ensemble(rng)
            for rule in (ScoringRule.CRPS, ScoringRule.QUADRATIC):
                e11 = excess_risk(rule, ens, (BA, BA))
                e21 = excess_risk(rule, ens, (ENS, BA))
                assert e11 == pytest.approx(2.0 * e21, rel=1e-12)

    def test_pairwise_sum_against_divergence(self):
        """Exc(1,1) from the reduced formula equals the explicit pairwise sum."""
        rng = np.random.default_rng(10)
        for _ in range(20):
            ens = random_ensemble(rng, (2, 5))
            comps = members(ens)
            for rule in ScoringRule:
                want = float(np.mean([[divergence(rule, a, b) for b in comps]
                                      for a in comps]))
                assert excess_risk(rule, ens, (BA, BA)) == pytest.approx(
                    want, rel=1e-11, abs=1e-12)

    def test_surrogate_cells_against_divergence(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ens = random_ensemble(rng, (2, 5))
            comps = members(ens)
            for approx, s in ((MM, moment_surrogate(ens)),
                              (AV, averaged_surrogate(ens))):
                for rule in ScoringRule:
                    got = excess_risk(rule, ens, (approx, BA))
                    want = float(np.mean([divergence(rule, s, c) for c in comps]))
                    assert got == pytest.approx(want, rel=1e-11, abs=1e-12)
                    quad = float(np.mean([oracle_divergence(rule, s, c) for c in comps]))
                    assert got == pytest.approx(quad, abs=oracle_tol(quad))
                for rule in (ScoringRule.CRPS, ScoringRule.QUADRATIC, ScoringRule.SE):
                    got = excess_risk(rule, ens, (approx, ENS))
                    want = divergence(rule, s, ens)
                    assert got == pytest.approx(want, rel=1e-11, abs=1e-12)
                    quad = oracle_divergence(rule, s, ens)
                    assert got == pytest.approx(quad, abs=oracle_tol(quad))

    def test_gaussian_off_the_mixture_mean_against_oracle(self):
        """Any per-row Gaussian, not only a surrogate sitting at the mixture mean."""
        rng = np.random.default_rng(19)
        ensembles = [random_ensemble(rng, (3, 3)) for _ in range(6)]
        batch = EnsembleBatch(np.stack([e.means for e in ensembles]),
                              np.stack([e.variances for e in ensembles]))
        mu = batch.mu_star + rng.uniform(-3.0, 3.0, len(ensembles))
        var = rng.uniform(0.1, 5.0, len(ensembles))
        for rule in ScoringRule:
            vs_members = batch.gaussian_vs_members(rule, mu, var)
            if rule is ScoringRule.LOG:
                with pytest.raises(NotClosedForm):
                    batch.gaussian_vs_mixture(rule, mu, var)
            else:
                vs_mixture = batch.gaussian_vs_mixture(rule, mu, var)
            for i, ens in enumerate(ensembles):
                g = GaussianEnsemble([float(mu[i])], [float(var[i])])
                quad = float(np.mean([oracle_divergence(rule, g, c)
                                      for c in members(ens)]))
                assert vs_members[i] == pytest.approx(quad, abs=oracle_tol(quad))
                if rule is not ScoringRule.LOG:
                    quad = oracle_divergence(rule, g, ens)
                    assert vs_mixture[i] == pytest.approx(quad, abs=oracle_tol(quad))

    def test_log_surrogate_reduced_forms(self):
        """The generic pair sums collapse to their simplified closed forms."""
        rng = np.random.default_rng(13)
        for _ in range(50):
            ens = random_ensemble(rng)
            mu, var = ens.means, ens.variances
            v_mm = moment_surrogate(ens).variances[0]
            v_av = averaged_surrogate(ens).variances[0]
            want_mm = 0.5 * (math.log(v_mm) - float(np.mean(np.log(var))))
            got_mm = excess_risk(ScoringRule.LOG, ens, (MM, BA))
            assert got_mm == pytest.approx(want_mm, rel=1e-10, abs=1e-12)
            want_av = 0.5 * (math.log(v_av) - float(np.mean(np.log(var)))
                             + float(np.mean((mu - mu.mean()) ** 2)) / v_av)
            got_av = excess_risk(ScoringRule.LOG, ens, (AV, BA))
            assert got_av == pytest.approx(want_av, rel=1e-10, abs=1e-12)

    def test_log_quadrature_pairs_marked(self):
        ens = GaussianEnsemble([0.0, 1.0], [1.0, 2.0])
        for pair in ((ENS, BA), (BA, ENS), (MM, ENS), (AV, ENS)):
            with pytest.raises(NotClosedForm):
                excess_risk(ScoringRule.LOG, ens, pair)

    def test_unsupported_pair_rejected(self):
        ens = GaussianEnsemble([0.0], [1.0])
        with pytest.raises(ValueError):
            excess_risk(ScoringRule.SE, ens, (ENS, ENS))


class TestIdentities:
    def test_bregman_information_identity(self):
        """Exc(2,1) = Bayes(2) - Bayes(1) and Exc(1,1) = Exc(2,1) + Exc(1,2)."""
        rng = np.random.default_rng(14)
        for _ in range(40):
            ens = random_ensemble(rng)
            for rule in ScoringRule:
                if rule is ScoringRule.LOG:
                    h_ens = oracle_entropy(rule, ens)
                    b1 = bayes_risk(rule, ens, BA)
                    e21 = h_ens - b1
                    e12 = log_excess_ba_ens(ens)
                else:
                    e21 = excess_risk(rule, ens, (ENS, BA))
                    e12 = excess_risk(rule, ens, (BA, ENS))
                    assert e21 == pytest.approx(
                        bayes_risk(rule, ens, ENS) - bayes_risk(rule, ens, BA),
                        rel=1e-12, abs=1e-13)
                e11 = excess_risk(rule, ens, (BA, BA))
                assert e11 == pytest.approx(e21 + e12, rel=1e-8, abs=1e-8)
                assert e21 >= -1e-10

    def test_total_is_mean_pairwise_expected_score(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            ens = random_ensemble(rng, (2, 5))
            comps = members(ens)
            for rule in ScoringRule:
                want = float(np.mean([[expected_score(rule, a, b) for b in comps]
                                      for a in comps]))
                assert total_risk(rule, ens, (BA, BA)) == pytest.approx(
                    want, rel=1e-11, abs=1e-12)

    def test_se_total_coincidences(self):
        ens = GaussianEnsemble([0.0, 2.0], [1.0, 1.0])
        # Tot(3b,2) = sigma_bar^2 + 0
        assert total_risk(ScoringRule.SE, ens, (AV, ENS)) == 1.0
        # Tot(2,1) = Tot(1,1) = 2 Var(mu) + sigma_bar^2
        assert total_risk(ScoringRule.SE, ens, (ENS, BA)) == pytest.approx(3.0, rel=1e-14)
        assert total_risk(ScoringRule.SE, ens, (BA, BA)) == pytest.approx(3.0, rel=1e-14)
        assert total_risk(ScoringRule.SE, ens, (MM, BA)) == pytest.approx(3.0, rel=1e-14)
        # Tot(3b,1) collapses onto Bayes(3a)
        assert total_risk(ScoringRule.SE, ens, (AV, BA)) == pytest.approx(
            bayes_risk(ScoringRule.SE, ens, MM), rel=1e-14)

    def test_entropy_orderings(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            ens = random_ensemble(rng)
            b1 = bayes_risk(ScoringRule.LOG, ens, BA)
            b2 = oracle_entropy(ScoringRule.LOG, ens)
            b3 = bayes_risk(ScoringRule.LOG, ens, MM)
            assert b1 <= b2 + 1e-8 and b2 <= b3 + 1e-8
            for rule in (ScoringRule.CRPS, ScoringRule.QUADRATIC, ScoringRule.SE):
                assert bayes_risk(rule, ens, MM) >= bayes_risk(rule, ens, BA) - 1e-10

    def test_excess_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            ens = random_ensemble(rng)
            for rule in ScoringRule:
                for pair in ((BA, BA), (ENS, BA), (MM, BA), (AV, BA),
                             (MM, ENS), (AV, ENS)):
                    try:
                        val = excess_risk(rule, ens, pair)
                    except NotClosedForm:
                        continue
                    if pair[1] is ENS and rule is ScoringRule.QUADRATIC:
                        assert val >= -1e-6
                    else:
                        assert val >= -1e-10


class TestExactRelations:
    """Relations between cells that hold in every row to the last bit."""

    # (cell, factor, source): the cell is the factor times the source cell,
    # as the formulas are written.  CRPS and QUADRATIC Tot(1,1) = Tot(2,1)
    # holds only by luck of rounding, so it is not pinned.
    TIES = [("crps_exc_1_1", 2.0, "crps_exc_2_1"),
            ("quadratic_exc_1_1", 2.0, "quadratic_exc_2_1"),
            ("se_exc_3a_1", 0.5, "se_exc_1_1"),
            ("se_exc_3b_1", 0.5, "se_exc_1_1"),
            ("se_tot_3b_1", 1.0, "se_bayes_2"),
            ("se_bayes_3a", 1.0, "se_bayes_2"),
            ("se_tot_3a_2", 1.0, "se_bayes_3a"),
            ("se_tot_3b_2", 1.0, "se_bayes_1"),
            ("se_bayes_3b", 1.0, "se_bayes_1")]

    @pytest.mark.parametrize("m", range(1, 12))
    def test_tied_cells_are_bitwise_equal(self, m):
        means, variances = wide_rows(np.random.default_rng(80 + m), 5500, m)
        columns = measure_columns(ScoringRule)
        values = EnsembleBatch(means, variances).columns(columns)
        cell = {col.name: values[:, k] for k, col in enumerate(columns)}
        for name, factor, source in self.TIES:
            assert cell[name].tobytes() == (factor * cell[source]).tobytes(), name
        for name in ("se_exc_3a_2", "se_exc_3b_2"):
            assert cell[name].tobytes() == np.zeros(len(means)).tobytes(), name

    @pytest.mark.parametrize("k", [-10, -3, 3, 10])
    def test_scaling_moves_cells_exactly(self, k):
        """Means times 2^k, variances times 4^k and H(P_ens) plus k log 2:
        the CRPS, QUADRATIC and SE cells scale bitwise by 2^k, 2^-k and 4^k;
        the LOG Bayes and Tot cells move by k log 2 and the LOG Exc cells
        stay, to within 64 ulps of the cell (at least of 1)."""
        rng = np.random.default_rng(90)
        columns = measure_columns(ScoringRule)
        factor = {ScoringRule.CRPS: 2.0 ** k, ScoringRule.QUADRATIC: 2.0 ** -k,
                  ScoringRule.SE: 4.0 ** k}
        for m in range(1, 12):
            means, variances = wide_rows(rng, 1650, m)
            plain = EnsembleBatch(means, variances)
            b1, b3 = plain.bayes(ScoringRule.LOG, BA), plain.bayes(ScoringRule.LOG, MM)
            # H(P_ens) lies between the mean member entropy and the
            # moment-matched one
            h = b1 + rng.uniform(0.0, 1.0, len(means)) * (b3 - b1)
            base = EnsembleBatch(means, variances, h).columns(columns)
            scaled = EnsembleBatch(2.0 ** k * means, 4.0 ** k * variances,
                                   h + k * math.log(2.0)).columns(columns)
            for j, col in enumerate(columns):
                if col.rule is not ScoringRule.LOG:
                    assert scaled[:, j].tobytes() == (factor[col.rule] * base[:, j]).tobytes()
                    continue
                moves = col.estimator.kind is not RiskKind.EXCESS
                want = base[:, j] + (k * math.log(2.0) if moves else 0.0)
                tol = 64 * np.finfo(float).eps * np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(scaled[:, j] - want) <= tol), (m, col.name)


class TestMixtureEntropyIsBayes2:
    """Given the rows' LOG mixture entropies H, every LOG cell composes as
    Tot = Bayes + Exc with H as Bayes(2)."""

    @staticmethod
    def _rows(rng, n, m, var_range):
        means, variances = rng.uniform(-1, 1, (n, m)), rng.uniform(*var_range, (n, m))
        return means, variances, _batch_log_mixture_entropy(means, variances, str)

    def test_tot_2_1_is_bayes_2_plus_exc_2_1_on_narrow_members(self):
        means, variances, h = self._rows(np.random.default_rng(0), 2000, 5, (1e-3, 1e-2))
        batch = EnsembleBatch(means, variances, h)
        tot = batch.total(ScoringRule.LOG, (ENS, BA))
        b1 = batch.bayes(ScoringRule.LOG, BA)
        assert batch.bayes(ScoringRule.LOG, ENS).tobytes() == h.tobytes()
        assert batch.excess(ScoringRule.LOG, (ENS, BA)).tobytes() == (h - b1).tobytes()
        assert tot.tobytes() == (h + (h - b1)).tobytes()
        # rows where H - B1 rounds, so that 2H - B1 would break the composition
        assert np.any(tot != 2.0 * h - b1)

    def test_exc_1_2_is_tot_1_1_minus_h(self):
        means, variances, h = self._rows(np.random.default_rng(1), 500, 4, (0.05, 4.0))
        batch = EnsembleBatch(means, variances, h)
        tot11 = batch.total(ScoringRule.LOG, (BA, BA))
        e12 = batch.excess(ScoringRule.LOG, (BA, ENS))
        assert e12.tobytes() == (tot11 - h).tobytes()
        e11 = batch.excess(ScoringRule.LOG, (BA, BA))
        e21 = batch.excess(ScoringRule.LOG, (ENS, BA))
        b1 = batch.bayes(ScoringRule.LOG, BA)
        ulp = np.finfo(float).eps * (np.abs(h) + np.abs(b1) + np.abs(tot11))
        assert np.all(np.abs(e11 - (e21 + e12)) <= 4.0 * ulp)

    def test_quadrature_required_cells_are_those_that_need_h(self):
        means, variances, h = self._rows(np.random.default_rng(2), 50, 3, (0.2, 2.0))
        without, with_h = EnsembleBatch(means, variances), EnsembleBatch(means, variances, h)
        for rule in ScoringRule:
            for est in default_estimators():
                try:
                    without.evaluate(rule, est)
                    raised = False
                except NotClosedForm:
                    raised = True
                assert raised == needs_mixture_entropy(rule, est), (rule, est.key)
                assert np.all(np.isfinite(with_h.evaluate(rule, est))), (rule, est.key)

    def test_h_must_have_one_value_per_row(self):
        with pytest.raises(ValueError, match="one mixture entropy per row"):
            EnsembleBatch(np.zeros((3, 2)), np.ones((3, 2)), np.ones(2))


class TestNeedsMixtureEntropy:
    def test_log_quadrature_cells(self):
        for key in ("bayes_2", "exc_2_1", "exc_3a_2", "exc_3b_2",
                    "tot_2_1", "tot_3a_2", "tot_3b_2"):
            assert needs_mixture_entropy(ScoringRule.LOG, EstimatorId.parse(key))

    def test_log_closed_cells(self):
        for key in ("tot_1_1", "tot_3a_1", "tot_3b_1", "bayes_1", "bayes_3a",
                    "bayes_3b", "exc_1_1", "exc_3a_1", "exc_3b_1"):
            assert not needs_mixture_entropy(ScoringRule.LOG, EstimatorId.parse(key))

    def test_se_zero_cells(self):
        rng = np.random.default_rng(3)
        batch = EnsembleBatch(rng.normal(size=(20, 4)), rng.uniform(0.2, 2.0, (20, 4)))
        for key in ("exc_3a_2", "exc_3b_2"):
            assert np.all(batch.evaluate(ScoringRule.SE, EstimatorId.parse(key)) == 0.0)
        assert np.all(batch.evaluate(ScoringRule.SE, EstimatorId.parse("tot_3a_2")) > 0.0)

    def test_everything_else_closed(self):
        for rule in (ScoringRule.CRPS, ScoringRule.QUADRATIC, ScoringRule.SE):
            for est in default_estimators():
                assert not needs_mixture_entropy(rule, est)

    def test_columns_are_rule_major(self):
        rules = [ScoringRule.SE, ScoringRule.CRPS]
        names = [col.name for col in measure_columns(rules)]
        assert names == [f"{rule.value}_{est.key}"
                         for rule in rules for est in default_estimators()]
        ests = [EstimatorId.parse("exc_1_1"), EstimatorId.parse("bayes_2")]
        assert [col.name for col in measure_columns(rules, ests)] == [
            "se_exc_1_1", "se_bayes_2", "crps_exc_1_1", "crps_bayes_2"]


def _prediction_set(rng, n, m=4):
    means, variances = [], []
    for _ in range(n):
        means.append(rng.normal(size=m))
        variances.append(rng.uniform(0.2, 2, m))
    return PredictionSet([f"p{i}" for i in range(n)], means, variances)


_VALID_SET = dict(ids=["a", "b"], means=[[0.0], [1.0, 2.0]],
                  variances=[[1.0], [1.0, 2.0]], targets=[0.5, None])


class TestPredictionSet:
    @pytest.mark.parametrize("change, message", [
        (dict(ids=[], means=[], variances=[], targets=None), "at least one point"),
        (dict(ids=["a", "a"]), "unique"),
        (dict(means=[[np.nan], [1.0, 2.0]]), "finite"),
        (dict(means=[[0.0], [1.0, np.inf]]), "finite"),
        (dict(variances=[[1.0], [1.0, 0.0]]), "variances > 0"),
        (dict(variances=[[-1.0], [1.0, 2.0]]), "variances > 0"),
        (dict(variances=[[1.0], [1.0]]), "equal-length"),
        (dict(means=[[], [1.0, 2.0]], variances=[[], [1.0, 2.0]]), "non-empty"),
        (dict(targets=[np.nan, None]), "target"),
        (dict(targets=[0.5, -np.inf]), "target"),
        (dict(ids=["a,b", "c"]), r"^ids\[0\]: must not contain a comma, a double quote"),
        (dict(ids=["a", "b\n"]), r"^ids\[1\]: must not contain"),
        (dict(ids=["a", ""]), r"^ids\[1\]: expected a non-empty string$"),
        (dict(ids=[0, "b"]), r"^ids\[0\]: expected a non-empty string$"),
        (dict(groups=["id", 'o"od']), r"^groups\[1\]: must not contain"),
        (dict(groups=[1, None]), r"^groups\[0\]: expected a string$"),
    ])
    def test_construction_rejects(self, change, message):
        PredictionSet(**_VALID_SET)
        with pytest.raises(ValueError, match=message):
            PredictionSet(**{**_VALID_SET, **change})

    def test_uniform_arrays_are_kept_as_views(self):
        means = np.arange(6.0).reshape(3, 2)
        ps = PredictionSet(["a", "b", "c"], means, np.ones((3, 2)))
        assert np.shares_memory(ps.means, means)
        [(rows, block_means, _)] = list(ps.blocks())
        np.testing.assert_array_equal(rows, [0, 1, 2])
        np.testing.assert_array_equal(block_means, means)


class TestMeasureMatrix:
    def test_se_cell_counts(self):
        rng = np.random.default_rng(20)
        ps = _prediction_set(rng, 1)
        matrix = measure_matrix([ScoringRule.SE], ps)
        assert matrix.values.shape == (1, 16)
        zero = [matrix.columns[k].estimator.key for k in np.flatnonzero(matrix.values[0] == 0.0)]
        assert zero == ["exc_3a_2", "exc_3b_2"]
        assert np.count_nonzero(~np.isnan(matrix.values[0])) == 16

    def test_identical_members_zero_excess(self):
        ps = PredictionSet(["only"], [[0.5] * 3], [[1.1] * 3])
        matrix = measure_matrix(list(ScoringRule), ps, use_oracle_fallback=True)
        for k, col in enumerate(matrix.columns):
            if col.estimator.kind is RiskKind.EXCESS:
                assert matrix.values[0, k] == pytest.approx(0.0, abs=1e-10)

    def test_log_cells_nan_without_fallback(self):
        rng = np.random.default_rng(24)
        ps = _prediction_set(rng, 3)
        matrix = measure_matrix([ScoringRule.LOG], ps)
        for k, col in enumerate(matrix.columns):
            isnan = np.isnan(matrix.values[:, k]).all()
            assert isnan == col.needs_mixture_entropy

    def test_oracle_fallback_matches_mc_entropy(self):
        rng = np.random.default_rng(25)
        ps = _prediction_set(rng, 1)
        matrix = measure_matrix([ScoringRule.LOG], ps, use_oracle_fallback=True)
        cell = matrix.values[0, matrix.columns.index(
            MeasureColumn(ScoringRule.LOG, EstimatorId.parse("bayes_2")))]
        ens = GaussianEnsemble(ps.means, ps.variances)
        mc = mc_expected_score(ScoringRule.LOG, ens, ens, samples=400_000, seed=5)
        assert cell == pytest.approx(mc.value, abs=4 * mc.standard_error)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            PredictionSet((), (), ())

    def test_mixed_ensemble_sizes(self):
        rng = np.random.default_rng(26)
        ps = PredictionSet(["a", "b"], [[0.0], [0.0, 1.0]], [[1.0], [1.0, 2.0]])
        matrix = measure_matrix([ScoringRule.SE], ps)
        assert not np.isnan(matrix.values).any()
        # singleton ensembles have zero excess everywhere
        for k, col in enumerate(matrix.columns):
            if col.estimator.kind is RiskKind.EXCESS:
                assert matrix.values[0, k] == pytest.approx(0.0, abs=1e-15)

    def test_interleaved_sizes_match_per_row_batches(self):
        rng = np.random.default_rng(27)
        sizes = [1, 3, 5, 3, 1, 5, 5, 3, 1, 3, 10, 2]
        means = [rng.normal(size=m) for m in sizes]
        variances = [rng.uniform(0.2, 2, m) for m in sizes]
        ps = PredictionSet([f"p{i}" for i in range(len(sizes))], means, variances)
        matrix = measure_matrix(list(ScoringRule), ps)
        for i, (mu, var) in enumerate(zip(means, variances)):
            batch = EnsembleBatch(mu[None, :], var[None, :])
            expected = [np.nan if col.needs_mixture_entropy
                        else batch.evaluate(col.rule, col.estimator)[0]
                        for col in matrix.columns]
            np.testing.assert_array_equal(matrix.values[i], expected)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_chunked_evaluation_is_bitwise_equal(self, monkeypatch, fallback):
        rng = np.random.default_rng(28)
        sizes = [(1, 3, 5)[i % 3] for i in range(40)]
        ps = PredictionSet([f"p{i}" for i in range(40)],
                           [rng.normal(size=m) for m in sizes],
                           [rng.uniform(0.2, 2, m) for m in sizes])
        whole = measure_matrix(list(ScoringRule), ps, use_oracle_fallback=fallback)
        monkeypatch.setattr(estimators, "BATCH_ELEMS", 7 * (10 + 64))  # 7 rows of M=5
        assert sorted(len(rows) for rows, _, _ in ps.blocks()) == [6, 6, 7, 7, 7, 7]
        chunked = measure_matrix(list(ScoringRule), ps, use_oracle_fallback=fallback)
        np.testing.assert_array_equal(chunked.values, whole.values)


    @pytest.mark.parametrize("fallback", [False, True])
    def test_column_subsets_get_the_bits_of_the_full_run(self, fallback):
        rng = np.random.default_rng(29)
        sizes = rng.permutation([1, 2, 3, 5, 10] * 6)
        ps = PredictionSet([f"p{i}" for i in range(len(sizes))],
                           [rng.uniform(-3.0, 3.0, m) for m in sizes],
                           [rng.uniform(0.2, 4.0, m) for m in sizes])
        full = measure_matrix(list(ScoringRule), ps, use_oracle_fallback=fallback)
        index = {col.name: k for k, col in enumerate(full.columns)}
        log, se, crps = ScoringRule.LOG, ScoringRule.SE, ScoringRule.CRPS
        for rules, keys in (([log], ["exc_1_1"]),
                            ([se, crps], ["tot_3b_2", "bayes_1"]),
                            ([log], ["exc_3a_2", "bayes_2", "tot_2_1"]),
                            (list(reversed(ScoringRule)), None)):
            ests = None if keys is None else [EstimatorId.parse(key) for key in keys]
            sub = measure_matrix(rules, ps, use_oracle_fallback=fallback, estimators=ests)
            for k, col in enumerate(sub.columns):
                j = index[col.name]
                assert sub.values[:, k].tobytes() == full.values[:, j].tobytes(), col.name
                assert sub.available[k] == full.available[j]


class TestBatchRows:
    def test_cap_counts_member_pairs_and_cells(self):
        for members in (1, 2, 10, 60, 1000):
            cap = max(1, estimators.BATCH_ELEMS // (members * (members - 1) // 2 + 64))
            assert estimators.batch_rows(members, cap) == cap
            assert estimators.batch_rows(members, cap + 1) == (cap + 2) // 2
            assert estimators.batch_rows(members, 10 * cap) == cap

    def test_rows_split_evenly(self):
        assert estimators.batch_rows(10, 4000) == 2000
        assert estimators.batch_rows(10, 1) == 1
        ps = _prediction_set(np.random.default_rng(31), 4000, 10)
        assert [len(rows) for rows, _, _ in ps.blocks()] == [2000, 2000]

    def test_measure_matrix_peak_memory_does_not_grow_with_n(self, traced_peak):
        members = 60
        cap = estimators.BATCH_ELEMS // (members * (members - 1) // 2 + 64)
        assert estimators.batch_rows(members, 10 * cap) == cap
        rng = np.random.default_rng(30)

        def peak(n):
            ps = PredictionSet([f"p{i}" for i in range(n)], rng.normal(size=(n, members)),
                               rng.uniform(0.2, 2.0, (n, members)))
            return traced_peak(lambda: measure_matrix(list(ScoringRule), ps))

        peak(2)  # imports and caches outside the measurement
        small, large = peak(cap), peak(10 * cap)
        assert large <= 1.25 * small, (small, large)


class TestBatchMemo:
    """Each shared term is computed once per batch; the cells that reuse it
    are bitwise what a fresh batch computes for them alone."""

    @staticmethod
    def _batch(seed=31, n=6, m=4):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, m)), rng.uniform(0.2, 2.0, (n, m))

    @staticmethod
    def _columns():
        return measure_columns(ScoringRule)

    def test_columns_equal_cells_on_fresh_batches(self):
        means, variances = self._batch()
        columns = self._columns()
        assert len(columns) == 64
        h_ens = np.linspace(1.0, 2.0, len(means))
        got = EnsembleBatch(means, variances, h_ens).columns(columns)
        for k, col in enumerate(columns):
            want = EnsembleBatch(means, variances, h_ens).evaluate(col.rule, col.estimator)
            assert got[:, k].tobytes() == np.asarray(want, dtype=float).tobytes(), col.name

    def test_each_kernel_runs_once_per_batch(self, monkeypatch):
        calls = {}

        def count(name):
            fn = getattr(estimators, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(estimators, name, counted)

        for name in ("pairwise_abs_moment", "pairwise_overlap",
                     "abs_moment", "gaussian_overlap"):
            count(name)
        EnsembleBatch(*self._batch()).columns(self._columns())
        # one pairwise reduction per rule; one cross mean per (rule, surrogate)
        assert calls == {"pairwise_abs_moment": 1, "pairwise_overlap": 1,
                         "abs_moment": 2, "gaussian_overlap": 2}

    def test_pair_layout_is_built_once_per_batch(self, monkeypatch):
        built = []

        class Counted(scores.MemberPairs):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(estimators, "MemberPairs", Counted)
        monkeypatch.setattr(scores, "MemberPairs", Counted)
        batch = EnsembleBatch(*self._batch(m=5), np.linspace(1.0, 2.0, 6))
        batch.columns(self._columns())
        assert len(built) == 1
        pairs = batch.member_pairs()
        assert pairs is batch.member_pairs() and pairs.dm.shape == (10, 6)
        assert pairs.dm.base.shape == (4, 10, 6) and pairs.scratch.base is pairs.dm.base
        for field in (pairs.dm, pairs.var, pairs.i, pairs.j):
            assert not field.flags.writeable and field.flags.c_contiguous

    @pytest.mark.parametrize("n, m", [(2000, 10), (52, 100), (1, 1000)])
    def test_cells_allocate_no_pair_array(self, traced_peak, n, m):
        """Once a batch's pair layout exists, its 64 cells write their
        (K, n) temporaries into its scratch rows: the memory they hold at
        once stays under 2.5 (K, n) arrays (a (K,) running sum for n = 1,
        the erf core's scratch, the (n, M) and (n,) terms), where each
        kernel allocating its own temporaries held 4 to 5."""
        means, variances = self._batch(seed=n, n=n, m=m)
        batch = EnsembleBatch(means, variances, np.linspace(1.0, 2.0, n))
        batch.member_pairs()
        columns = self._columns()

        def cells():
            for _ in batch.column_values(columns):
                pass

        pair_array = m * (m - 1) // 2 * n * 8
        assert traced_peak(cells) < 2.5 * pair_array

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 2000])
    def test_cell_sums_equal_matrix_column_sums_bitwise(self, n):
        """``shift_reports`` sums each cell of ``column_values`` as the batch
        computes it; that sum has the bits of the cell's column of
        ``columns`` summed over rows, at the edges of NumPy's pairwise-sum
        blocks (8 and 128 elements) too, so ``shift.csv`` does not move."""
        means, variances = self._batch(seed=40 + n, n=n, m=10)
        columns = self._columns()
        for h_ens in (None, np.linspace(1.0, 2.0, n)):
            want = EnsembleBatch(means, variances, h_ens).columns(columns).sum(axis=0)
            got = np.array([np.nan if values is None else values.sum() for values in
                            EnsembleBatch(means, variances, h_ens).column_values(columns)])
            assert got.tobytes() == want.tobytes()

    def test_h_ens_is_copied(self):
        means, variances = self._batch()
        h_ens = np.linspace(1.0, 2.0, len(means))
        before = h_ens.tobytes()
        batch = EnsembleBatch(means, variances, h_ens)
        batch.columns(self._columns())
        assert h_ens.flags.writeable and h_ens.tobytes() == before
        assert not np.shares_memory(batch.bayes(ScoringRule.LOG, ENS), h_ens)

    def test_cells_are_computed_once_and_read_only(self):
        means, variances = self._batch()
        keys = {est.key for est in default_estimators()} | {"exc_1_2"}
        without = EnsembleBatch(means, variances)
        with_h = EnsembleBatch(means, variances, np.linspace(1.0, 2.0, len(means)))
        for rule in ScoringRule:
            for batch in (without, with_h):
                cells = batch.cells(rule)
                assert batch.cells(rule) is cells and set(cells) == keys
                for key, values in cells.items():
                    if values is None:
                        assert batch is without and rule is ScoringRule.LOG
                        assert key == "exc_1_2" or needs_mixture_entropy(
                            rule, EstimatorId.parse(key))
                        continue
                    with pytest.raises(ValueError):
                        values[0] = 0.0
            assert sum(v is None for v in without.cells(rule).values()) == (
                8 if rule is ScoringRule.LOG else 0)
        log_cells = with_h.cells(ScoringRule.LOG)
        assert with_h.excess(ScoringRule.LOG, (BA, BA)) is log_cells["exc_1_1"]

    def test_a_gaussian_equal_to_a_surrogate_gets_its_cells(self):
        means, variances = self._batch()
        batch = EnsembleBatch(means, variances, np.linspace(1.0, 2.0, len(means)))
        for rule in ScoringRule:
            cells = batch.cells(rule)
            for approx, var in ((MM, batch.var_mm), (AV, batch.var_av)):
                mu, var = batch.mu_star.copy(), var.copy()
                vs_members = batch.gaussian_vs_members(rule, mu, var)
                vs_mixture = batch.gaussian_vs_mixture(rule, mu, var)
                assert vs_members.tobytes() == cells[f"exc_{approx.value}_1"].tobytes()
                assert vs_mixture.tobytes() == cells[f"exc_{approx.value}_2"].tobytes()
                assert vs_members.flags.writeable and vs_mixture.flags.writeable
                other = batch.gaussian_vs_members(rule, mu + 1.0, var)
                assert not np.array_equal(other, vs_members)
