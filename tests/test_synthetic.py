"""Posterior samplers, shift classification, and the two-curve generator."""

import math
import re

import numpy as np
import pytest

from ensrisk import estimators, synthetic
from ensrisk.estimators import EnsembleBatch, EstimatorId, measure_columns
from ensrisk.scores import ScoringRule
from ensrisk.synthetic import (
    ShiftKind,
    UniformPosteriorSpec,
    _classify,
    _sample_arrays,
    apply_shift,
    shift_report,
    shift_reports,
    two_curve_arrays,
    two_curve_mu1,
    two_curve_mu2,
    two_curve_pi,
    two_curve_sigma,
)


class TestUniformPosterior:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            UniformPosteriorSpec(mean_low=1.0, mean_high=0.0)
        with pytest.raises(ValueError):
            UniformPosteriorSpec(var_low=0.0, var_high=1.0)
        with pytest.raises(ValueError):
            UniformPosteriorSpec(members=0)

    def test_collapsed_mean_range(self):
        spec = UniformPosteriorSpec(mean_low=0.7, mean_high=0.7, members=5,
                                    replicates=10, seed=1)
        means, _ = _sample_arrays(spec)
        np.testing.assert_array_equal(means, np.full((10, 5), 0.7))

    def test_deterministic(self):
        spec = UniformPosteriorSpec(members=4, replicates=20, seed=9)
        a = _sample_arrays(spec)
        b = _sample_arrays(spec)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_mean_of_means_clt(self):
        spec = UniformPosteriorSpec(members=1, replicates=100_000, seed=3)
        draws = _sample_arrays(spec)[0].ravel()
        se = math.sqrt(4.0 / 12.0 / len(draws))  # U(-1,1) variance is 1/3
        assert abs(draws.mean()) < 3 * se

    def test_ranges_respected(self):
        spec = UniformPosteriorSpec(members=6, replicates=50, seed=4)
        means, variances = _sample_arrays(spec)
        assert means.shape == variances.shape == (50, 6)
        assert np.all((means >= -1) & (means <= 1))
        assert np.all((variances >= 1) & (variances <= 2))

    @pytest.mark.parametrize("members", [1, 7])
    def test_blocks_concatenate_to_the_whole_draw(self, members):
        spec = UniformPosteriorSpec(members=members, replicates=1003, seed=12)
        whole = _sample_arrays(spec)
        blocks = [_sample_arrays(spec, start, start + 97) for start in range(0, 1003, 97)]
        assert [len(m) for m, _ in blocks] == [97] * 10 + [33]
        for k, part in enumerate(zip(*blocks)):
            assert np.concatenate(part).tobytes() == whole[k].tobytes()


class TestApplyShift:
    def test_target_ranges(self):
        base = UniformPosteriorSpec()
        assert apply_shift(base, ShiftKind.MEAN_LOCATION).mean_low == 1.0
        assert apply_shift(base, ShiftKind.MEAN_LOCATION).mean_high == 3.0
        assert apply_shift(base, ShiftKind.VARIANCE_LOCATION).var_low == 2.0
        assert apply_shift(base, ShiftKind.VARIANCE_LOCATION).var_high == 3.0
        assert apply_shift(base, ShiftKind.MEAN_SCALE).mean_low == -2.0
        assert apply_shift(base, ShiftKind.VARIANCE_SCALE).var_low == 0.5
        assert apply_shift(base, ShiftKind.VARIANCE_SCALE).var_high == 2.5

    def test_idempotent(self):
        base = UniformPosteriorSpec()
        once = apply_shift(base, ShiftKind.MEAN_LOCATION)
        assert apply_shift(once, ShiftKind.MEAN_LOCATION) == once

    def test_other_fields_unchanged(self):
        base = UniformPosteriorSpec(members=7, replicates=11, seed=5)
        shifted = apply_shift(base, ShiftKind.VARIANCE_SCALE)
        assert (shifted.members, shifted.replicates, shifted.seed) == (7, 11, 5)
        assert (shifted.mean_low, shifted.mean_high) == (-1.0, 1.0)


class TestShiftReport:
    def test_mean_location_all_flat(self):
        base = UniformPosteriorSpec(members=5, replicates=4000, seed=0)
        report = shift_report(list(ScoringRule), base, ShiftKind.MEAN_LOCATION)
        for row in report.rows:
            assert row.direction in ("flat", "unavailable")

    def test_variance_location_bayes_up(self):
        base = UniformPosteriorSpec(members=5, replicates=4000, seed=0)
        report = shift_report(list(ScoringRule), base, ShiftKind.VARIANCE_LOCATION)
        for row in report.rows:
            if row.estimator.key.startswith("bayes") and row.direction != "unavailable":
                assert row.direction == "up"

    def test_variance_scale_se_bayes_ba_flat(self):
        base = UniformPosteriorSpec(members=5, replicates=20_000, seed=0)
        report = shift_report([ScoringRule.SE], base, ShiftKind.VARIANCE_SCALE)
        assert report.direction(ScoringRule.SE, EstimatorId.parse("bayes_1")) == "flat"

    def test_oracle_fallback_fills_log_cells(self):
        base = UniformPosteriorSpec(members=3, replicates=300, seed=2)
        report = shift_report([ScoringRule.LOG], base, ShiftKind.MEAN_LOCATION,
                              oracle_fallback=True)
        assert all(row.direction != "unavailable" for row in report.rows)
        assert all(row.direction == "flat" for row in report.rows)


def _bits(report):
    """A report's rows with the means as exact bit patterns (NaN included)."""
    return [(r.rule, r.estimator, r.direction, float(r.base_mean).hex(),
             float(r.shifted_mean).hex()) for r in report.rows]


class TestShiftReports:
    @pytest.mark.parametrize("fallback", [False, True])
    def test_equals_one_report_per_kind(self, fallback):
        base = UniformPosteriorSpec(members=4, replicates=300, seed=2)
        reports = shift_reports(list(ScoringRule), base, list(ShiftKind),
                                oracle_fallback=fallback)
        assert [r.kind for r in reports] == list(ShiftKind)
        for report in reports:
            alone = shift_report(list(ScoringRule), base, report.kind,
                                 oracle_fallback=fallback)
            assert _bits(report) == _bits(alone)
            assert len(report.rows) == 64

    def test_base_is_sampled_and_evaluated_once(self, monkeypatch):
        calls = {}

        def count(name):
            fn = getattr(synthetic, name)

            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            monkeypatch.setattr(synthetic, name, counted)

        count("_sample_arrays")
        count("_batch_log_mixture_entropy")
        kinds = list(ShiftKind)
        base = UniformPosteriorSpec(members=3, replicates=200, seed=1)
        shift_reports([ScoringRule.LOG], base, kinds, oracle_fallback=True)
        assert calls == {"_sample_arrays": 1 + len(kinds),
                         "_batch_log_mixture_entropy": 1 + len(kinds)}


class TestBatchedReplicates:
    """``shift_reports`` samples and evaluates the replicates one batch at a
    time (``estimators.batch_rows``)."""

    def test_many_batches_match_one(self, monkeypatch):
        base = UniformPosteriorSpec(members=6, replicates=500, seed=7)
        kinds = list(ShiftKind)
        one = shift_reports(list(ScoringRule), base, kinds)
        assert estimators.batch_rows(6, 500) == 500
        monkeypatch.setattr(estimators, "BATCH_ELEMS", 160 * (15 + 64))
        assert estimators.batch_rows(6, 500) == 125
        drawn = []
        sample = synthetic._sample_arrays
        monkeypatch.setattr(synthetic, "_sample_arrays",
                            lambda *args: drawn.append(args[1:]) or sample(*args))
        many = shift_reports(list(ScoringRule), base, kinds)
        assert drawn == [(0, 125), (125, 250), (250, 375), (375, 500)] * (1 + len(kinds))
        for a, b in zip(one, many):
            for r, s in zip(a.rows, b.rows):
                assert s.direction == r.direction, (a.kind, r.estimator.key)
                np.testing.assert_allclose([s.base_mean, s.shifted_mean],
                                           [r.base_mean, r.shifted_mean], rtol=1e-15, atol=0.0,
                                           err_msg=f"{a.kind} {r.rule} {r.estimator.key}")

    def test_cells_equal_per_replicate_stay_exactly_flat(self, monkeypatch):
        """Base and shifted replicates share their uniforms, so a cell the
        shift leaves bitwise unchanged on every replicate has the same batch
        sums and comes out 0.0 apart however the replicates are batched.
        (A cell equal only up to rounding may be exactly flat in one
        batching and ulps apart in another.)"""
        base = UniformPosteriorSpec(members=6, replicates=500, seed=7)
        columns = measure_columns(list(ScoringRule))
        per_replicate = EnsembleBatch(*_sample_arrays(base)).columns(columns)
        monkeypatch.setattr(estimators, "BATCH_ELEMS", 160 * (15 + 64))
        for report in shift_reports(list(ScoringRule), base, list(ShiftKind)):
            shifted = EnsembleBatch(*_sample_arrays(apply_shift(base, report.kind)))
            same = [k for k, values in enumerate(shifted.columns(columns).T)
                    if values.tobytes() == per_replicate[:, k].tobytes()]
            assert same, report.kind
            for k in same:
                row = report.rows[k]
                assert row.base_mean == row.shifted_mean or math.isnan(row.base_mean)

    def test_peak_memory_does_not_grow_with_replicates(self, traced_peak):
        def peak(replicates):
            base = UniformPosteriorSpec(members=10, replicates=replicates, seed=1)
            return traced_peak(lambda: shift_reports(list(ScoringRule), base,
                                                     [ShiftKind.MEAN_SCALE]))

        peak(10)  # imports and caches outside the measurement
        small, large = peak(4_000), peak(40_000)
        assert large <= 1.25 * small, (small, large)

    def test_closed_form_batch_holds_only_what_it_reads(self, traced_peak):
        """One all-rules batch of 2 000 M=10 replicates, evaluated for the
        base and the shifted spec: the pair layout is one (4, K, n) block
        that the pair kernels fill in place, and each cell is summed as it
        is computed, with no (rows, 64) matrix.  It peaked at 6.6 MiB with
        var_i and var_j kept and the matrix filled, at 5.0 MiB without, and
        at 4.8 MiB with the kernels' temporaries in the block."""
        base = UniformPosteriorSpec(members=10, replicates=2_000, seed=1)
        assert estimators.batch_rows(10, 2_000) == 2_000

        def run():
            shift_reports(list(ScoringRule), base, [ShiftKind.MEAN_SCALE])

        run()  # imports and caches outside the measurement
        assert traced_peak(run) <= 5.5 * 2**20


class TestFlatThreshold:
    @pytest.mark.parametrize("threshold", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_non_finite_or_negative(self, threshold):
        base = UniformPosteriorSpec(members=3, replicates=10, seed=0)
        with pytest.raises(ValueError, match="flat threshold"):
            shift_report([ScoringRule.SE], base, ShiftKind.MEAN_LOCATION,
                         flat_threshold=threshold)

    def test_unchanged_mean_is_flat_at_zero_threshold(self):
        base = UniformPosteriorSpec(members=5, replicates=500, seed=0)
        report = shift_report([ScoringRule.SE], base, ShiftKind.MEAN_LOCATION,
                              flat_threshold=0.0)
        unchanged = [r for r in report.rows if r.base_mean == r.shifted_mean]
        assert unchanged and all(r.direction == "flat" for r in unchanged)
        assert all(r.direction != "flat" for r in report.rows
                   if r.base_mean != r.shifted_mean)

    def test_huge_threshold_is_silent(self):
        """A threshold whose product with a base mean overflows classifies as
        a finite huge one does, with no NumPy overflow warning."""
        base = UniformPosteriorSpec(members=3, replicates=50, seed=0)
        kinds = list(ShiftKind)
        huge = shift_reports(list(ScoringRule), base, kinds, flat_threshold=1e308)
        large = shift_reports(list(ScoringRule), base, kinds, flat_threshold=1e300)
        assert ([r.direction for rep in huge for r in rep.rows]
                == [r.direction for rep in large for r in rep.rows])

    def test_classify_zero_delta(self):
        assert _classify(2.0, 2.0, 0.0) == "flat"
        assert _classify(0.0, 0.0, 0.0) == "flat"
        assert _classify(2.0, 2.0 + 1e-9, 0.0) == "up"
        assert _classify(2.0, 1.9, 0.01) == "down"


class TestTwoCurveGenerator:
    def test_curve_values_at_zero(self):
        assert two_curve_pi(0.0) == 0.5
        assert two_curve_mu2(0.0) == -1.2
        assert two_curve_sigma(0.0) == pytest.approx(0.19, rel=1e-15)
        assert two_curve_mu1(0.0) == 0.0

    def test_deterministic(self):
        a = two_curve_arrays(100, -4, 4, seed=6)
        b = two_curve_arrays(100, -4, 4, seed=6)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        xs, ys, comp = a
        assert len(xs) == len(ys) == len(comp) == 100
        assert set(comp.tolist()) <= {1, 2}
        assert np.all(np.isfinite(ys))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            two_curve_arrays(0, -4, 4, seed=0)

    @pytest.mark.parametrize("x_low,x_high", [
        (4.0, -4.0), (-4.0, math.inf), (-math.inf, 4.0), (-1e308, 1e308), (math.nan, 4.0)])
    def test_rejects_an_empty_or_infinite_range(self, x_low, x_high):
        """Each end is named; a range whose width overflows would otherwise
        reach NumPy's uniform sampler and raise OverflowError."""
        with pytest.raises(ValueError, match=re.escape(f"x_low={x_low}, x_high={x_high}")):
            two_curve_arrays(10, x_low, x_high, seed=0)

    def test_pi_overflow_is_exactly_zero_and_silent(self):
        """exp(1.2 x) overflows past x = 591; pi is then its limit 0, with no
        RuntimeWarning (warnings are errors under this suite)."""
        assert two_curve_pi(np.array([600.0, 1000.0])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("x0", [-3.0, 0.0, 3.0])
    def test_component_frequency_matches_mixing_weight(self, x0):
        n = 100_000
        _, _, comp = two_curve_arrays(n, x0 - 1e-9, x0 + 1e-9, seed=int(abs(x0)) + 10)
        p_hat = float(np.mean(comp == 1))
        p = float(two_curve_pi(x0))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) < 3 * se

    @pytest.mark.parametrize("x0", [-3.0, 0.0, 3.0])
    def test_residual_spread_matches_sigma(self, x0):
        n = 100_000
        xs, ys, comp = two_curve_arrays(n, x0 - 1e-9, x0 + 1e-9, seed=int(abs(x0)) + 20)
        mus = np.where(comp == 1, two_curve_mu1(xs), two_curve_mu2(xs))
        resid = ys - mus
        sig = float(two_curve_sigma(x0))
        # se of a Gaussian sd estimate: sigma / sqrt(2 n)
        assert abs(resid.std(ddof=1) - sig) < 3 * sig / math.sqrt(2 * n)
