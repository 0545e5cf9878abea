"""The quadrature/Monte-Carlo oracle itself."""

import math
import warnings

import numpy as np
import pytest

from ensrisk import oracle
from ensrisk.gaussians import GaussianEnsemble
from ensrisk.oracle import (
    ConvergenceError,
    _batch_log_mixture_entropy,
    adaptive_quadrature,
    mc_expected_score,
    oracle_entropy,
    oracle_expected_score,
)
from ensrisk.estimators import (
    ApproximationId,
    Availability,
    EnsembleBatch,
    MeasureColumn,
    NotClosedForm,
    bayes_risk,
    default_estimators,
    entropy,
    expected_score,
    log_excess_ba_ens,
    log_quadrature_cells,
)
from ensrisk.scores import ScoringRule
from ensrisk.synthetic import ShiftKind, UniformPosteriorSpec, _sample_arrays, apply_shift

G01 = GaussianEnsemble([0.0], [1.0])


def _random_distribution(rng, max_members=3):
    m = int(rng.integers(1, max_members + 1))
    return GaussianEnsemble(
        rng.uniform(-4, 4, m), rng.uniform(0.05, 6, m))


def _unreachable_tolerance(monkeypatch):
    """Make every integral fail: a tolerance below any error estimate, and
    no second round of bisection."""
    monkeypatch.setattr(oracle, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(oracle, "_REL_TOL", 1e-300)
    monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 1)


class TestConfigs:
    def test_mc_config_validation(self):
        label = GaussianEnsemble([1.0], [2.0])
        with pytest.raises(ValueError, match="samples must be >= 1000"):
            mc_expected_score(ScoringRule.SE, G01, label, samples=10)
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            mc_expected_score(ScoringRule.SE, G01, label, samples=1000, seed=-1)
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            mc_expected_score(ScoringRule.SE, G01, label, samples=1000, seed=2**64)


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

    def test_convergence_error_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(oracle, "_REL_TOL", 1e-14)
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(ConvergenceError) as info:
            adaptive_quadrature(lambda t: np.abs(np.sin(40 * t)) ** 0.3, 0.0, 10.0)
        assert math.isfinite(info.value.best)
        assert info.value.error > 0


class TestOracleAgainstClosedForms:
    def test_trivial_se_pair(self):
        res = oracle_expected_score(ScoringRule.SE, G01, GaussianEnsemble([2.0], [5.0]))
        assert res.value == pytest.approx(9.0, abs=1e-10)

    def test_equivalence_sweep(self):
        """Quadrature vs closed forms on random (rule, pred, label) configs."""
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 200:
            rule = list(ScoringRule)[int(rng.integers(0, 4))]
            pred = _random_distribution(rng)
            label = _random_distribution(rng)
            try:
                closed = expected_score(rule, pred, label)
            except NotClosedForm:
                continue
            quad = oracle_expected_score(rule, pred, label).value
            assert quad == pytest.approx(closed, abs=max(1e-8, 1e-8 * abs(closed)))
            checked += 1

    def test_entropy_sweep(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            dist = _random_distribution(rng)
            for rule in ScoringRule:
                try:
                    closed = entropy(rule, dist)
                except NotClosedForm:
                    continue
                quad = oracle_entropy(rule, dist)
                assert quad == pytest.approx(closed, abs=max(1e-8, 1e-8 * abs(closed)))

    def test_log_mixture_entropy_between_bounds(self):
        # no closed form, but Shannon entropy of the mixture is bracketed by
        # mean member entropy and the moment-matched Gaussian entropy
        mix = GaussianEnsemble([0.0, 2.5], [0.5, 1.5])
        h = oracle_entropy(ScoringRule.LOG, mix)
        lo = float(np.mean([entropy(ScoringRule.LOG, GaussianEnsemble([m], [v]))
                            for m, v in zip(mix.means, mix.variances)]))
        from ensrisk.gaussians import moment_surrogate
        hi = entropy(ScoringRule.LOG, moment_surrogate(mix))
        assert lo - 1e-10 <= h <= hi + 1e-10

    def test_window_invariance(self, monkeypatch):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pred = _random_distribution(rng)
            label = _random_distribution(rng)
            rule = list(ScoringRule)[int(rng.integers(0, 4))]
            narrow = oracle_expected_score(rule, pred, label).value
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_TAIL_WIDTH", 20.0)
                wide = oracle_expected_score(rule, pred, label).value
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
            ens = GaussianEnsemble(m, v)
            assert abs(h - oracle_entropy(ScoringRule.LOG, ens)) <= 1e-9

    def test_row_blocks_are_bitwise_equal(self, monkeypatch):
        means, variances = _entropy_rows()
        whole = _batch_log_mixture_entropy(means, variances)
        monkeypatch.setattr(oracle, "_BLOCK_ELEMS", 1)  # one row per block
        assert np.array_equal(_batch_log_mixture_entropy(means, variances), whole)


def _member_loop_log_integrand(t, mu, var):
    """-p log p with the mixture density summed member by member, in member
    order, each term in the same steps as ``_pdf``."""
    total = 0.0
    for m_k, v_k in zip(mu, var):
        inv_sig = 1.0 / np.sqrt(v_k)
        z = (t - m_k) * inv_sig
        dens = -0.5 * z * z
        with np.errstate(under="ignore"):
            dens = np.exp(dens)
        total = total + dens * (oracle._INV_SQRT_2PI * inv_sig)
    p = total / len(mu)
    return -p * np.log(np.maximum(p, 1e-300))


# M=10 evenly spaced equal-variance members on [-half, half]: (half, variance)
_SEPARATED = [(5.0, 1e-6), (20.0, 1e-6), (1000.0, 0.01), (200.0, 1e-4)]
_MISSES_A_COMPONENT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: the seed panels miss narrow, separated members, "
           "and the error estimate does not see it")


def _separated_mixture(half, variance):
    """Means, variances and exact LOG entropy log M + 1/2 log(2 pi e var) of a
    mixture whose members do not overlap to double precision."""
    means, variances = np.linspace(-half, half, 10), np.full(10, variance)
    return means, variances, math.log(10) + 0.5 * math.log(2 * math.pi * math.e * variance)


class TestSeparatedMixtureEntropy:
    """Both LOG mixture-entropy paths against the exact entropy of separated
    members.  Each case fails today without a ConvergenceError."""

    @_MISSES_A_COMPONENT
    @pytest.mark.parametrize("half, variance", _SEPARATED)
    def test_batch_log_mixture_entropy(self, half, variance):
        means, variances, exact = _separated_mixture(half, variance)
        got = _batch_log_mixture_entropy(means[None, :], variances[None, :])[0]
        assert abs(got - exact) <= 1e-8

    @_MISSES_A_COMPONENT
    @pytest.mark.parametrize("half, variance", _SEPARATED)
    def test_oracle_entropy(self, half, variance):
        means, variances, exact = _separated_mixture(half, variance)
        got = oracle_entropy(ScoringRule.LOG, GaussianEnsemble(means, variances))
        assert abs(got - exact) <= 1e-8


class TestSeparatedMixtureClosedEntropy:
    """The other rules' ``oracle_entropy`` against their closed Bayes(2) on
    the same separated mixtures.  CRPS agrees; QUAD and SE fail today
    without a ConvergenceError."""

    @pytest.mark.parametrize("rule", [
        ScoringRule.CRPS,
        pytest.param(ScoringRule.QUADRATIC, marks=_MISSES_A_COMPONENT),
        pytest.param(ScoringRule.SE, marks=_MISSES_A_COMPONENT)])
    @pytest.mark.parametrize("half, variance", _SEPARATED)
    def test_oracle_entropy(self, rule, half, variance):
        means, variances, _ = _separated_mixture(half, variance)
        ens = GaussianEnsemble(means, variances)
        closed = bayes_risk(rule, ens, ApproximationId.ENS)
        assert abs(oracle_entropy(rule, ens) - closed) <= 1e-8 * abs(closed)


class TestMemberSumOrder:
    def test_m10_entropies_equal_a_member_loop_bitwise(self):
        """Summed pairwise, as NumPy sums an F-ordered (M, N, P) slab over
        M >= 8 members, the densities differ from the member-order sum in
        their last bits, and so do some of these entropies."""
        rng = np.random.default_rng(61)
        means, variances = rng.uniform(-6, 6, (300, 10)), rng.uniform(0.05, 4, (300, 10))
        lo, hi = oracle._window((means, variances))
        loop = oracle._integrate(
            [oracle._Family(_member_loop_log_integrand, (means, variances), lo, hi)])
        got = _batch_log_mixture_entropy(means, variances)
        assert [x.hex() for x in got] == [x.hex() for x in loop.value]


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = mc_expected_score(ScoringRule.CRPS, G01, GaussianEnsemble([1.0], [2.0]),
                              samples=50_000, seed=77)
        b = mc_expected_score(ScoringRule.CRPS, G01, GaussianEnsemble([1.0], [2.0]),
                              samples=50_000, seed=77)
        assert a == b

    def test_se_analytic_target(self):
        res = mc_expected_score(ScoringRule.SE, G01, GaussianEnsemble([2.0], [5.0]),
                                samples=1_000_000, seed=13)
        assert res.value == pytest.approx(9.0, abs=3 * res.standard_error)

    def test_log_pair_target(self):
        res = mc_expected_score(ScoringRule.LOG, G01, GaussianEnsemble([1.0], [1.0]),
                                samples=1_000_000, seed=7)
        assert res.value == pytest.approx(0.5 * (math.log(2 * math.pi) + 2.0),
                                          abs=3 * res.standard_error)

    def test_quadrature_vs_mc_on_log_mixtures(self):
        """50 no-closed-form cases: mixture prediction under the LOG rule."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            pred = GaussianEnsemble(
                rng.uniform(-3, 3, m), rng.uniform(0.1, 4, m))
            label = GaussianEnsemble([rng.uniform(-3, 3)], [rng.uniform(0.1, 4)])
            with pytest.raises(NotClosedForm):
                expected_score(ScoringRule.LOG, pred, label)
            quad = oracle_expected_score(ScoringRule.LOG, pred, label)
            mc = mc_expected_score(ScoringRule.LOG, pred, label,
                                   samples=100_000, seed=int(rng.integers(2**32)))
            combined = math.hypot(mc.standard_error, max(quad.error, 1e-12))
            assert quad.value == pytest.approx(mc.value, abs=4 * combined)


def _engine_families():
    """Six integral families of different integrands and member counts (up
    to M=10, where a pairwise sum over members would differ from the
    member-order one), one with knots and one that cannot converge in a few
    dozen subdivisions."""
    rng = np.random.default_rng(43)
    mu, var = rng.uniform(-4, 4, (5, 3)), rng.uniform(0.05, 6, (5, 3))
    mp, vp = rng.uniform(-4, 4, (4, 2)), rng.uniform(0.05, 6, (4, 2))
    mq, vq = rng.uniform(-4, 4, (4, 1)), rng.uniform(0.05, 6, (4, 1))
    ms, vs = rng.uniform(-4, 4, (3, 4)), rng.uniform(0.05, 6, (3, 4))
    mt, vt = rng.uniform(-4, 4, (4, 10)), rng.uniform(0.05, 6, (4, 10))
    return [
        oracle._Family(oracle._log_integrand, (mu, var),
                       *oracle._window((mu, var))),
        oracle._Family(oracle._log_integrand, (mt, vt),
                       *oracle._window((mt, vt))),
        oracle._Family(oracle._crps_integrand, (mp, vp, mq, vq),
                       *oracle._window((mp, vp), (mq, vq))),
        oracle._Family(oracle._centred_integrand, (ms, vs, rng.uniform(-1, 1, 3)),
                       *oracle._window((ms, vs))),
        oracle._Family(lambda t: np.abs(t - 0.3), (), np.array([-1.0, -2.0]),
                       np.array([1.0, 2.0]), knots=np.array([[0.3, 0.3], [np.nan, 5.0]])),
        oracle._Family(lambda t: np.abs(np.sin(40 * t)) ** 0.3, (),
                       np.array([0.0]), np.array([10.0])),
    ]


class TestEngine:
    def test_batch_equals_each_integral_alone(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 40)
        families = _engine_families()
        batch = oracle._integrate(families)
        failed = batch.failed()
        assert failed.any() and not failed.all()
        alone = []
        for fam in families:
            for k in range(len(fam.lo)):
                one = fam._replace(
                    params=tuple(p[k:k + 1] for p in fam.params),
                    lo=fam.lo[k:k + 1], hi=fam.hi[k:k + 1],
                    knots=None if fam.knots is None else fam.knots[k:k + 1])
                alone.append(oracle._integrate([one]))
        for field in ("value", "error", "tol", "splits"):
            assert np.array_equal(getattr(batch, field),
                                  np.concatenate([getattr(r, field) for r in alone]))

    def test_failed_integral_leaves_the_others_intact(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 40)
        families = _engine_families()
        with_failure = oracle._integrate(families)
        without = oracle._integrate(families[:-1])
        assert with_failure.failed()[-1] and not without.failed().any()
        assert np.array_equal(with_failure.value[:-1], without.value)
        assert np.array_equal(with_failure.error[:-1], without.error)

    def test_rule_sums_run_along_each_panel(self):
        """A panel's K15 and G7 sums are those of its values as one
        contiguous row, in NumPy's summation order for such a row, whatever
        the layout the integrand returns them in."""
        rng = np.random.default_rng(5)
        lo = rng.uniform(-3.0, 0.0, 40)
        hi = lo + rng.uniform(0.1, 3.0, 40)

        def f(t):
            return np.exp(np.sin(7.0 * t)) * 1e3 + t

        fam = oracle._Family(f, (), lo, hi)
        value, error = oracle._evaluate(oracle._member_major([fam]), np.array([0, 40]),
                                        np.arange(40), lo, hi)
        for k in range(40):
            half = 0.5 * (hi[k] - lo[k])
            fx = f(0.5 * (lo[k] + hi[k]) + half * oracle._K15_NODES)
            k15 = half * (fx * oracle._K15_WEIGHTS).sum()
            g7 = half * (fx[1:14:2] * oracle._G7_WEIGHTS).sum()
            assert (value[k].hex(), error[k].hex()) == (k15.hex(), abs(k15 - g7).hex()), k

    def test_knots_seed_the_panels_like_linspace(self):
        owner, lo, hi = oracle._seed_panels(np.array([-1.0, 0.0]), np.array([2.0, 1.0]),
                                            np.array([[0.5, 0.5, 7.0], [np.nan, 0.25, -1.0]]))
        first = np.concatenate([np.linspace(-1.0, 0.5, 13)[:-1], np.linspace(0.5, 2.0, 13)])
        second = np.concatenate([np.linspace(0.0, 0.25, 13)[:-1], np.linspace(0.25, 1.0, 13)])
        assert np.array_equal(owner, np.repeat([0, 1], 24))
        assert np.array_equal(lo, np.concatenate([first[:-1], second[:-1]]))
        assert np.array_equal(hi, np.concatenate([first[1:], second[1:]]))


class TestBatchEntropyConvergence:
    def test_failure_names_the_row(self, monkeypatch):
        means = np.array([[0.0, 1.0], [-200.0, 200.0], [0.5, 0.0]])
        variances = np.array([[1.0, 2.0], [0.01, 0.01], [1.0, 1.0]])
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 4)
        lo, hi = oracle._window((means, variances))
        res = oracle._integrate(
            [oracle._Family(oracle._log_integrand, (means, variances), lo, hi)])
        assert list(res.failed()) == [False, True, False]
        with pytest.raises(ConvergenceError) as info:
            _batch_log_mixture_entropy(means, variances)
        assert info.value.row == 1
        assert str(info.value).startswith("quadrature error")


class TestSubdivisionLimit:
    def test_message_names_the_limit_next_to_the_count(self, monkeypatch):
        _unreachable_tolerance(monkeypatch)
        with pytest.raises(ConvergenceError) as info:
            adaptive_quadrature(lambda t: np.exp(-t * t), -5.0, 5.0)
        # the limit is checked before each round; the one round run splits
        # every seed panel, so the count overshoots it
        assert "after 24 subdivisions (limit 1, checked before each round" in str(info.value)


_MIX = GaussianEnsemble([0.0, 2.5], [0.5, 1.5])
_ENTRY_POINTS = {
    "adaptive_quadrature": lambda: adaptive_quadrature(lambda t: np.exp(-t * t), -5.0, 5.0),
    "crps_point_quadrature": lambda: oracle.crps_point_quadrature(_MIX, 0.7),
    "_batch_log_mixture_entropy": lambda: _batch_log_mixture_entropy(
        _MIX.means[None, :], _MIX.variances[None, :]),
    "log_quadrature_cells": lambda: log_quadrature_cells(_MIX),
    "log_excess_ba_ens": lambda: log_excess_ba_ens(_MIX),
    **{f"oracle_entropy_{rule.value}": lambda rule=rule: oracle_entropy(rule, _MIX)
       for rule in ScoringRule},
    **{f"oracle_expected_score_{rule.value}":
       lambda rule=rule: oracle_expected_score(rule, _MIX, G01) for rule in ScoringRule},
    **{f"oracle_divergence_{rule.value}":
       lambda rule=rule: oracle.oracle_divergence(rule, _MIX, G01) for rule in ScoringRule},
}


class TestModuleTolerances:
    """Every entry point integrates at the module constants, read when it
    runs: made unreachable, each one fails (``run_oracle_check`` in
    ``TestOracleCheckAccounting``)."""

    @pytest.mark.parametrize("name", _ENTRY_POINTS)
    def test_entry_point_raises(self, monkeypatch, name):
        _unreachable_tolerance(monkeypatch)
        with pytest.raises(ConvergenceError):
            _ENTRY_POINTS[name]()


class TestOracleCheckAccounting:
    def test_unreachable_tolerance_charges_every_cell(self, monkeypatch):
        _unreachable_tolerance(monkeypatch)
        rows, passed, _ = oracle.run_oracle_check(6, 11)
        assert not passed
        assert len(rows) == 64
        assert all(c.convergence_failures == 6 for c in rows)

    def test_closed_cells_equal_one_batch_per_trial(self):
        rng = np.random.default_rng(12)
        ensembles = [GaussianEnsemble(rng.uniform(-5, 5, m), rng.uniform(0.05, 9, m))
                     for m in (3, 1, 5, 3, 2, 5, 3)]
        columns = tuple(MeasureColumn(rule, est)
                        for rule in ScoringRule for est in default_estimators())
        quads = np.zeros((len(ensembles), len(columns)))
        quads[3, [col.rule is ScoringRule.LOG for col in columns]] = np.nan
        got = oracle._closed_cells(ensembles, quads, columns)
        for i, ens in enumerate(ensembles):
            batch = EnsembleBatch(ens.means[None, :], ens.variances[None, :])
            fallback = log_quadrature_cells(ens)
            for k, col in enumerate(columns):
                if col.availability is not Availability.QUADRATURE_REQUIRED:
                    want = float(batch.evaluate(col.rule, col.estimator)[0])
                elif i == 3:
                    want = math.nan  # its LOG integrals did not converge
                else:
                    want = fallback[col.estimator.key]
                assert float(got[i, k]).hex() == want.hex(), (i, col.name)

    def test_failed_member_pair_divergence_charges_its_trial_and_rule(self, monkeypatch):
        real = oracle._oracle_tables
        failed = []

        def one_failed_divergence(rules, dists, pairs):
            tables = real(rules, dists, pairs)
            if not failed:
                # the first pair is the first two members of the first
                # trial with more than one member
                p, q = pairs[0]
                assert len(dists[p][0]) == len(dists[q][0]) == 1
                crps = tables[ScoringRule.CRPS]
                k = crps.divergence.parts[0]  # its one integral, used by CRPS alone
                crps.raw.error[k] = 2.0 * crps.raw.tol[k]
                failed.append(k)
            return tables

        monkeypatch.setattr(oracle, "_oracle_tables", one_failed_divergence)
        rows, passed, _ = oracle.run_oracle_check(6, 11)
        assert failed and not passed
        assert len(rows) == 64
        for c in rows:
            assert c.convergence_failures == (1 if c.rule is ScoringRule.CRPS else 0), c

    def test_failure_is_charged_to_its_rule_only(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 3)
        monkeypatch.setattr(oracle, "_REL_TOL", 1e-12)
        rows, passed, _ = oracle.run_oracle_check(6, 11)
        assert not passed
        failures = {(c.rule, c.estimator.key): c.convergence_failures for c in rows}
        for (rule, _), n in failures.items():
            assert n == (1 if rule is ScoringRule.SE else 0)


class TestOracleCheckFailsClosed:
    @pytest.mark.parametrize("column, value", [(0, math.nan), (5, math.inf), (5, -math.inf)])
    def test_nonfinite_closed_cell_fails_and_is_named(self, monkeypatch, column, value):
        columns = EnsembleBatch.columns

        def broken(self, cols):
            out = columns(self, cols)
            out[:, column] = value
            return out

        monkeypatch.setattr(EnsembleBatch, "columns", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, passed, worst = oracle.run_oracle_check(3, 0)
        assert not passed and worst == math.inf
        assert [k for k, c in enumerate(rows) if c.nonfinite_closed] == [column]
        assert rows[column].nonfinite_closed == 3
        assert all(math.isfinite(c.max_abs_dev) and math.isfinite(c.max_rel_dev)
                   for c in rows)

    def test_each_column_perturbed_alone_fails_alone(self):
        """Mutation test of the verdict: every one of the 64 columns, moved
        by 3e-6 relative (+1e-8 for the identically-zero SE columns), fails
        the check, and no other row changes.  At seed 0 the first trial
        alone already catches every column; 20 trials are checked."""
        rel_tol, abs_floor = oracle._CHECK_REL_TOL, oracle._CHECK_ABS_FLOOR
        columns, closed, quad = oracle._check_cells(20, 0)
        base, passed, _ = oracle._verdict(columns, closed, quad, rel_tol, abs_floor)
        assert passed
        for k, col in enumerate(columns):
            mutant = closed.copy()
            if col.availability is Availability.IDENTICALLY_ZERO:
                mutant[:, k] += 1e-8
            else:
                mutant[:, k] *= 1.0 + 3e-6
            rows, passed, _ = oracle._verdict(columns, mutant, quad, rel_tol, abs_floor)
            assert not passed, col.name
            assert [j for j, row in enumerate(rows) if row != base[j]] == [k], col.name
            assert rows[k].max_rel_dev > rel_tol, col.name


class TestAgainstMpmath:
    """The engine against mpmath's tanh-sinh quadrature at 30 digits, over
    the real line split at every component mean.  Degree 5 keeps the run
    short; on these mixtures it agrees with the uncapped degree to float
    precision."""

    def test_log_entropy_and_crps_divergence(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(53)
        with mpmath.workdps(30):
            c = 1 / mpmath.sqrt(mpmath.pi)

            def members(means, variances):  # (mu, 1 / (sigma sqrt 2)) pairs
                return [(mpmath.mpf(float(m)), 1 / mpmath.sqrt(2 * mpmath.mpf(float(v))))
                        for m, v in zip(means, variances)]

            def pdf(t, mix):
                return c * mpmath.fsum(k * mpmath.exp(-((t - m) * k) ** 2) for m, k in mix) / len(mix)

            def cdf(t, mix):
                return mpmath.fsum(mpmath.erfc((m - t) * k) for m, k in mix) / (2 * len(mix))

            def neg_p_log_p(t, mix):
                p = pdf(t, mix)
                return -p * mpmath.log(p) if p > 0 else mpmath.mpf(0)

            for _ in range(10):
                m, n = (int(x) for x in rng.integers(1, 4, 2))
                pm, pv = rng.uniform(-4, 4, m), rng.uniform(0.05, 6, m)
                qm, qv = rng.uniform(-4, 4, n), rng.uniform(0.05, 6, n)
                p, q = members(pm, pv), members(qm, qv)
                h = mpmath.quad(lambda t: neg_p_log_p(t, p),
                                [-mpmath.inf, *sorted(pm), mpmath.inf], maxdegree=5)
                d = mpmath.quad(lambda t: (cdf(t, p) - cdf(t, q)) ** 2,
                                [-mpmath.inf, *sorted({*pm, *qm}), mpmath.inf], maxdegree=5)
                got_h = _batch_log_mixture_entropy(pm[None, :], pv[None, :])[0]
                got_d = oracle.oracle_divergence(ScoringRule.CRPS,
                                                 GaussianEnsemble(pm, pv),
                                                 GaussianEnsemble(qm, qv))
                assert abs(got_h - float(h)) <= 1e-12
                assert abs(got_d - float(d)) <= 1e-12
