"""The tie-averaged retention curve, PRR, AUROC, and Kendall's tau_b."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ensrisk import metrics
from ensrisk.metrics import (
    DEFAULT_RETENTION_GRID,
    DegenerateMetricError,
    auroc,
    kendall_tau_b,
    kendall_tau_b_pairs,
    prr,
)


class TestExpectedCurve:
    """The tie-averaged retention curve that PRR integrates."""

    def test_full_retention_is_overall_mse(self):
        errors = np.array([1.0, 4.0, 9.0, 16.0])
        for unc in ([4.0, 3.0, 2.0, 1.0], [0.0, 1.0, 1.0, 0.0]):
            curve = metrics._expected_curve(errors, np.array(unc), np.array([2, 4]))
            assert curve[-1] == pytest.approx(errors.mean(), rel=1e-15)

    def test_keep_two_smallest(self):
        errors = np.array([1.0, 4.0, 9.0, 16.0])
        unc = np.array([1.0, 2.0, 3.0, 4.0])
        curve = metrics._expected_curve(errors, unc, np.array([2, 3]))
        assert curve[0] == pytest.approx(2.5, rel=1e-15)
        assert curve[1] == pytest.approx(14.0 / 3.0, rel=1e-15)

    def test_oracle_ordering_is_monotone(self):
        rng = np.random.default_rng(0)
        errors = rng.uniform(0, 10, 200)
        ks = metrics._kept_counts(np.asarray(DEFAULT_RETENTION_GRID), 200)
        curve = metrics._expected_curve(errors, errors, ks)
        assert np.all(np.diff(curve) >= -1e-12)

    def test_ties_average_over_orderings(self):
        """Each kept count gives the mean, over every ordering of the tied
        uncertainties, of the kept errors' MSE; input order plays no part."""
        errors = np.array([5.0, 1.0, 3.0, 7.0, 2.0])
        unc = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        ks = np.arange(1, 6)
        orders = [p for p in itertools.permutations(range(5))
                  if all(unc[p[i]] <= unc[p[i + 1]] for i in range(4))]
        want = [np.mean([errors[list(p[:k])].mean() for p in orders]) for k in ks]
        got = metrics._expected_curve(errors, unc, ks)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        flipped = metrics._expected_curve(errors[::-1], unc[::-1], ks)
        np.testing.assert_allclose(flipped, want, rtol=1e-14)

    def test_prr_input_validation(self):
        with pytest.raises(ValueError):
            prr([1.0], [1.0])
        with pytest.raises(ValueError):
            prr([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            prr([1.0, 2.0], [1.0, np.nan])
        with pytest.raises(ValueError):
            prr([1.0, np.inf], [1.0, 2.0])


class TestPrr:
    def test_perfect_ranking_is_zero(self):
        rng = np.random.default_rng(1)
        errors = rng.uniform(0, 5, 100)
        assert prr(errors, errors) == 0.0

    def test_constant_uncertainty_is_one(self):
        rng = np.random.default_rng(2)
        errors = rng.uniform(0, 5, 100)
        assert prr(errors, np.zeros(100)) == 1.0
        assert prr(errors, np.full(100, 3.7)) == 1.0

    def test_anti_ranking_frozen(self):
        # brute-force curve computation on errors {1,4,9,16} gives 39/22
        errors = np.array([1.0, 4.0, 9.0, 16.0])
        assert prr(errors, -errors) == pytest.approx(1.7727272727272727, rel=1e-12)
        assert prr(errors, -errors) > 1.0

    def test_matches_independent_brute_force(self):
        rng = np.random.default_rng(3)
        errors = rng.uniform(0, 4, 37)
        unc = rng.normal(size=37)
        grid = np.asarray(DEFAULT_RETENTION_GRID)

        def brute_curve(keys):
            order = np.argsort(keys, kind="stable")
            out = []
            for r in grid:
                k = max(1, min(37, math.ceil(r * 37 - 1e-9)))
                out.append(errors[order[:k]].mean())
            return np.array(out)

        # no ties here, so stable prefix curves equal the expected-tie curves
        auc = lambda c: np.trapezoid(c, grid)
        a_unc, a_or = auc(brute_curve(unc)), auc(brute_curve(errors))
        a_rand = auc(np.full(len(grid), errors.mean()))
        want = (a_unc - a_or) / (a_rand - a_or)
        assert prr(errors, unc) == pytest.approx(want, rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        errors = rng.uniform(0, 4, 60)
        unc = rng.normal(size=60)
        base = prr(errors, unc)
        assert prr(errors, np.exp(unc)) == pytest.approx(base, rel=1e-12)
        assert prr(errors, 3.0 * unc + 11.0) == pytest.approx(base, rel=1e-12)

    def test_degenerate_errors_rejected(self):
        with pytest.raises(DegenerateMetricError):
            prr(np.full(10, 2.0), np.arange(10.0))

    def test_expected_curve_equals_per_retention_loop(self):
        """The vectorized tie-averaged curve is the same float at each
        retention as the scalar formula evaluated one kept count at a time."""
        rng = np.random.default_rng(11)
        errors = rng.uniform(0, 4, 97)
        unc = rng.integers(0, 6, 97).astype(float)
        ks = metrics._kept_counts(np.asarray(DEFAULT_RETENTION_GRID), 97)
        order = np.argsort(unc, kind="stable")
        prefix = np.concatenate([[0.0], np.cumsum(errors[order])])
        sorted_unc = unc[order].tolist()
        want = []
        for k in ks:
            value = sorted_unc[k - 1]
            s, e = sorted_unc.index(value), 97 - sorted_unc[::-1].index(value)
            mean_g = (prefix[e] - prefix[s]) / (e - s)
            want.append(prefix[s] / k + ((k - s) / k) * mean_g)
        assert metrics._expected_curve(errors, unc, ks).tolist() == want

    def test_many_columns_equal_one_column_calls(self):
        """One call over many columns gives the same floats as separate
        one-column calls, ties and constant columns included."""
        rng = np.random.default_rng(12)
        errors = rng.uniform(0, 4, 90)
        columns = np.column_stack([rng.normal(size=90),
                                   rng.integers(0, 4, 90).astype(float),
                                   np.zeros(90), -errors, errors])
        got = prr(errors, columns)
        assert got.tolist() == [prr(errors, u) for u in columns.T]
        assert prr(errors, columns[:, :0]).shape == (0,)
        with pytest.raises(ValueError):
            prr(errors, np.ones((89, 2)))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2], [0.3, 0.4]) == 1.0

    def test_identical_multisets(self):
        assert auroc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.5

    def test_brute_force_pairs(self):
        # 2 wins of 4 pairs
        assert auroc([0.1, 0.4], [0.2, 0.3]) == 0.5

    def test_complement_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=rng.integers(2, 30))
            b = rng.normal(size=rng.integers(2, 30))
            assert auroc(a, b) == 1.0 - auroc(b, a)

    def test_matches_quadratic_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.integers(0, 6, size=rng.integers(2, 25)).astype(float)
            b = rng.integers(0, 6, size=rng.integers(2, 25)).astype(float)
            wins = sum(1.0 if y > x else (0.5 if y == x else 0.0)
                       for x in a for y in b)
            assert auroc(a, b) == pytest.approx(wins / (len(a) * len(b)), abs=1e-12)

    def test_exact_against_pure_python_counting(self):
        """Tie-heavy inputs: twice the Mann-Whitney count from all pairs in
        integers, rounded once onto the 2^-53 grid, is the same float."""
        rng = np.random.default_rng(10)
        for _ in range(200):
            a = rng.integers(0, int(rng.integers(1, 12)), rng.integers(1, 80)).astype(float)
            b = rng.integers(0, int(rng.integers(1, 12)), rng.integers(1, 80)).astype(float)
            if rng.random() < 0.3:
                b = np.round(rng.normal(size=len(b)), 1)
            twice_u = sum(2 * (y > x) + (y == x) for x in a.tolist() for y in b.tolist())
            expected = round(Fraction(twice_u, 2 * len(a) * len(b)) * 2**53) / 2**53
            assert auroc(a, b) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            auroc([], [1.0])
        with pytest.raises(ValueError):
            auroc([1.0], [float("nan")])


def brute_tau_b(a, b):
    n = len(a)
    concordant = discordant = 0
    ties_a = ties_b = 0
    for i, j in itertools.combinations(range(n), 2):
        da, db = a[i] - a[j], b[i] - b[j]
        if da == 0 and db == 0:
            ties_a += 1
            ties_b += 1
        elif da == 0:
            ties_a += 1
        elif db == 0:
            ties_b += 1
        elif da * db > 0:
            concordant += 1
        else:
            discordant += 1
    n0 = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt((n0 - ties_a) * (n0 - ties_b))


def _knight_tau_b(a, b):
    """Knight's counting in pure Python: merge-sort inversions and tie runs,
    exact integers throughout."""
    def inversions(values):
        arr, count, width = list(values), 0, 1
        while width < len(arr):
            for lo in range(0, len(arr), 2 * width):
                left = arr[lo:lo + width]
                right = arr[lo + width:lo + 2 * width]
                merged, i = [], 0
                for v in right:
                    while i < len(left) and left[i] <= v:
                        merged.append(left[i])
                        i += 1
                    count += len(left) - i
                    merged.append(v)
                arr[lo:lo + 2 * width] = merged + left[i:]
            width *= 2
        return count

    def tie_pairs(sorted_values):
        runs = [len(list(grp)) for _, grp in itertools.groupby(sorted_values)]
        return sum(r * (r - 1) // 2 for r in runs)

    pairs = sorted(zip(a, b))
    a_sorted = [p[0] for p in pairs]
    b_sorted = [p[1] for p in pairs]
    n0 = len(a) * (len(a) - 1) // 2
    t_a, t_b, t_ab = tie_pairs(a_sorted), tie_pairs(sorted(b_sorted)), tie_pairs(pairs)
    c_minus_d = n0 - t_a - t_b + t_ab - 2 * inversions(b_sorted)
    return c_minus_d / math.sqrt((n0 - t_a) * (n0 - t_b))


class TestKendallTauB:
    def test_identical_lists(self):
        assert kendall_tau_b([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_reversed_lists(self):
        assert kendall_tau_b([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_tied_example(self):
        # brute force over all 6 pairs: C=5, D=0, t_a=1 -> 5 / sqrt(30)
        assert kendall_tau_b([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(
            5.0 / math.sqrt(30.0), rel=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 10, 40).astype(float)
        b = rng.integers(0, 10, 40).astype(float)
        assert kendall_tau_b(a, b) == pytest.approx(kendall_tau_b(b, a), abs=1e-15)

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.integers(0, 8, 50).astype(float)
            b = rng.integers(0, 8, 50).astype(float)
            assert kendall_tau_b(a, b) == pytest.approx(brute_tau_b(a, b), abs=1e-12)

    def test_exact_against_pure_python_counting(self):
        """Tie-heavy inputs up to n = 300: the same integers, so the same
        float, and symmetric bit for bit."""
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 301))
            a = rng.integers(0, int(rng.integers(2, 12)), n).astype(float)
            b = rng.integers(0, int(rng.integers(2, 12)), n).astype(float)
            if rng.random() < 0.3:
                b = np.round(rng.normal(size=n), 1)
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            expected = _knight_tau_b(a.tolist(), b.tolist())
            assert kendall_tau_b(a, b) == expected
            assert kendall_tau_b(b, a) == expected

    def test_all_ties_rejected(self):
        with pytest.raises(DegenerateMetricError):
            kendall_tau_b([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=30))
    def test_perfect_concordance_with_matching_ties(self, values):
        # a strictly increasing transform of a list correlates perfectly,
        # whatever the tie structure (integer grid keeps the map injective)
        a = [float(v) for v in values]
        b = [3.0 * x + 1.0 for x in a]
        if len(set(a)) < 2:
            return
        assert kendall_tau_b(a, b) == 1.0


def _tie_heavy_columns(draw, n, c):
    levels = draw(st.lists(st.integers(1, 6), min_size=c, max_size=c))
    return np.array([[draw(st.integers(0, lv - 1)) for lv in levels]
                     for _ in range(n)], dtype=float)


class TestKendallTauBPairs:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_exact_against_pure_python_and_one_pair_calls(self, data):
        n = data.draw(st.integers(2, 70))
        c = data.draw(st.integers(1, 5))
        cols = _tie_heavy_columns(data.draw, n, c)
        pairs = list(itertools.product(range(c), repeat=2))
        got = kendall_tau_b_pairs(cols, pairs)
        for (a, b), tau in zip(pairs, got):
            if len(set(cols[:, a])) < 2 or len(set(cols[:, b])) < 2:
                assert math.isnan(tau)
                continue
            assert tau == _knight_tau_b(cols[:, a].tolist(), cols[:, b].tolist())
            assert tau == kendall_tau_b(cols[:, a], cols[:, b])

    def test_independent_of_block_budget(self, monkeypatch):
        rng = np.random.default_rng(13)
        cols = rng.integers(0, 5, (120, 6)).astype(float)
        cols[:, 5] = np.round(rng.normal(size=120), 1)
        pairs = list(itertools.combinations_with_replacement(range(6), 2))
        default = kendall_tau_b_pairs(cols, pairs)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK_ELEMENTS", 1)
        assert kendall_tau_b_pairs(cols, pairs).tobytes() == default.tobytes()

    def test_self_pairs_exactly_one(self):
        rng = np.random.default_rng(14)
        cols = np.column_stack([rng.normal(size=300), rng.integers(0, 3, 300),
                                np.round(rng.normal(size=300), 1)])
        assert kendall_tau_b_pairs(cols, [(k, k) for k in range(3)]).tolist() \
            == [1.0, 1.0, 1.0]

    def test_entirely_tied_column_is_nan(self):
        cols = np.column_stack([np.arange(8.0), np.full(8, 2.5), np.arange(8.0) % 3])
        got = kendall_tau_b_pairs(cols, [(0, 1), (1, 2), (1, 1), (0, 2)])
        assert np.isnan(got[:3]).all() and np.isfinite(got[3])

    def test_only_named_columns_are_read(self):
        cols = np.column_stack([np.arange(5.0), np.full(5, np.nan), -np.arange(5.0)])
        assert kendall_tau_b_pairs(cols, [(0, 2)]).tolist() == [-1.0]
        with pytest.raises(ValueError, match="finite"):
            kendall_tau_b_pairs(cols, [(0, 1)])

    def test_tied_column_renders_na_in_both_tables(self, tmp_path):
        from ensrisk.cli import main
        from ensrisk.dataio import save_prediction_set
        from ensrisk.estimators import PredictionSet

        # members with equal means: the SE excess column is entirely tied
        # at zero (halves keep the mean exact)
        rng = np.random.default_rng(15)
        means = np.repeat(0.5 * rng.integers(-6, 6, (20, 1)), 3, axis=1)
        ps = PredictionSet([f"p{i}" for i in range(20)], means,
                           rng.uniform(0.2, 2.0, (20, 3)))
        save_prediction_set(ps, str(tmp_path / "preds.json"))
        out = tmp_path / "corr"
        assert main(["correlate", "--input", str(tmp_path / "preds.json"),
                     "--rules", "se", "--output-dir", str(out)]) == 0
        for name, col in (("correlate_estimators.csv", 1), ("correlate_rules.csv", 0)):
            with open(out / name) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            exc = [r for r in rows if r[col] == "exc_1_1"]
            assert exc and all(r[3] == "NA" for r in exc)
            diagonal = [r for r in rows if r[col] == "tot_1_1" and r[1] == r[2]]
            assert diagonal and all(float(r[3]) == 1.0 for r in diagonal)

    def test_product_beyond_int64_matches_python_ints(self):
        """At n = 1e5, (n0 - t_a)(n0 - t_b) exceeds 2^63; the kernel forms it
        in Python ints, as the pure-Python counting does."""
        n = 100_000
        rng = np.random.default_rng(16)
        a = rng.integers(0, 1000, n).astype(float)
        b = a + rng.integers(0, 5000, n)
        n0 = n * (n - 1) // 2
        assert (n0 - n * n // 1000) ** 2 > 2**63
        want = _knight_tau_b(a.tolist(), b.tolist())
        assert kendall_tau_b_pairs(np.column_stack((a, b)), [(0, 1)]).tolist() == [want]


class TestMeasureEquivalenceRanks:
    """Exact rank identities between estimator columns (the structural facts
    behind the measure-correlation analysis)."""

    def _matrix(self, n=150, seed=30):
        from ensrisk.estimators import measure_matrix, PredictionSet
        from ensrisk.scores import ScoringRule

        rng = np.random.default_rng(seed)
        means, variances = [], []
        for _ in range(n):
            m = 6
            means.append(rng.uniform(-3, 3, m))
            variances.append(rng.uniform(0.1, 4, m))
        ps = PredictionSet([f"p{i}" for i in range(n)], means, variances)
        return measure_matrix(list(ScoringRule), ps)

    def test_total_and_excess_rank_identities(self):
        from ensrisk.estimators import EstimatorId
        from ensrisk.scores import ScoringRule

        matrix = self._matrix()
        for rule in (ScoringRule.CRPS, ScoringRule.QUADRATIC, ScoringRule.SE):
            t11 = matrix.column(rule, EstimatorId.parse("tot_1_1"))
            t21 = matrix.column(rule, EstimatorId.parse("tot_2_1"))
            assert kendall_tau_b(t11, t21) == 1.0
            e11 = matrix.column(rule, EstimatorId.parse("exc_1_1"))
            e21 = matrix.column(rule, EstimatorId.parse("exc_2_1"))
            assert kendall_tau_b(e11, e21) == 1.0

    def test_surrogate_bayes_ranks_agree_across_rules(self):
        from ensrisk.estimators import EstimatorId
        from ensrisk.scores import ScoringRule

        matrix = self._matrix()
        for key in ("bayes_3a", "bayes_3b"):
            cols = [matrix.column(rule, EstimatorId.parse(key))
                    for rule in ScoringRule]
            for other in cols[1:]:
                assert kendall_tau_b(cols[0], other) == 1.0
