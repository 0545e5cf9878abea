"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else.  Everything is deterministic
(fixed seeds throughout), so a green run is reproducible bit for bit.
"""

import itertools
import math
import time

import numpy as np

from ensrisk.cli import run_oracle_check
from ensrisk.estimators import (
    ApproximationId,
    EnsembleBatch,
    EstimatorId,
    PredictionSet,
    RiskKind,
    bayes_risk,
    excess_risk,
    log_excess_ba_ens,
    measure_matrix,
)
from ensrisk.gaussians import GaussianEnsemble, averaged_surrogate, moment_surrogate
from ensrisk.metrics import auroc, kendall_tau_b, prr
from ensrisk.oracle import oracle_entropy
from ensrisk.scores import ScoringRule
from ensrisk.synthetic import ShiftKind, UniformPosteriorSpec, shift_report, two_curve_arrays
from ensrisk.trainer import (
    Mlp,
    active_learning_loop,
    natural_from_moments,
    nll_natural,
    nll_standard,
    predict_arrays,
    train_ensemble,
)

BA, ENS, MM, AV = (ApproximationId.BA, ApproximationId.ENS,
                   ApproximationId.MM, ApproximationId.AV)
EXC_11 = EstimatorId(RiskKind.EXCESS, BA, BA)


def report(number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number:2d} {tag}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def random_ensemble(rng, m_lo=2, m_hi=8):
    m = int(rng.integers(m_lo, m_hi + 1))
    return GaussianEnsemble(
        rng.uniform(-5, 5, m), rng.uniform(0.05, 9, m))


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    rows, passed, worst = run_oracle_check(trials=200, seed=0)
    elapsed = time.monotonic() - start
    report(1, "oracle-check --trials 200 within 1e-6 relative",
           passed and elapsed < 120.0,
           f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_identity_suite():
    rng = np.random.default_rng(2024)
    ok = True
    detail = ""
    for trial in range(500):
        ens = random_ensemble(rng)
        means, variances = ens.means, ens.variances
        # (e) law of total variance
        mm, av = moment_surrogate(ens), averaged_surrogate(ens)
        pop_var = float(np.mean((means - means.mean()) ** 2))
        if not math.isclose(mm.variances[0], av.variances[0] + pop_var, rel_tol=1e-12):
            ok, detail = False, f"(e) trial {trial}"
            break
        # (d) SE zero cells, exact
        if excess_risk(ScoringRule.SE, ens, (MM, ENS)) != 0.0 \
                or excess_risk(ScoringRule.SE, ens, (AV, ENS)) != 0.0:
            ok, detail = False, f"(d) trial {trial}"
            break
        h_log_ens = oracle_entropy(ScoringRule.LOG, ens)
        for rule in ScoringRule:
            e11 = excess_risk(rule, ens, (BA, BA))
            if rule is ScoringRule.LOG:
                b1 = bayes_risk(rule, ens, BA)
                e21 = h_log_ens - b1
                e12 = log_excess_ba_ens(ens)
                b_ens = h_log_ens
            else:
                e21 = excess_risk(rule, ens, (ENS, BA))
                e12 = excess_risk(rule, ens, (BA, ENS))
                b_ens = bayes_risk(rule, ens, ENS)
            # (a) factor two for the symmetric-kernel rules
            if rule in (ScoringRule.CRPS, ScoringRule.QUADRATIC):
                if abs(e11 - 2.0 * e21) > 1e-12 * max(1.0, abs(e11)):
                    ok, detail = False, f"(a) {rule.value} trial {trial}"
                    break
            # (b) decomposition of the pairwise Bregman divergence
            if abs(e11 - (e21 + e12)) > 1e-8 * max(1.0, abs(e11)):
                ok, detail = False, f"(b) {rule.value} trial {trial}"
                break
            # (c) Bregman information identity, nonnegative
            b1 = bayes_risk(rule, ens, BA)
            if abs(e21 - (b_ens - b1)) > 1e-8 or e21 < -1e-10:
                ok, detail = False, f"(c) {rule.value} trial {trial}"
                break
        if not ok:
            break
    report(2, "identity suite on 500 random ensembles (a)-(e)", ok, detail)


def test_criterion_03_entropy_orderings():
    rng = np.random.default_rng(3033)
    violations = 0
    for _ in range(1000):
        ens = random_ensemble(rng)
        b1 = bayes_risk(ScoringRule.LOG, ens, BA)
        b2 = oracle_entropy(ScoringRule.LOG, ens)
        b3 = bayes_risk(ScoringRule.LOG, ens, MM)
        if not (b1 <= b2 + 1e-8 and b2 <= b3 + 1e-8):
            violations += 1
        for rule in (ScoringRule.CRPS, ScoringRule.QUADRATIC, ScoringRule.SE):
            if bayes_risk(rule, ens, MM) < bayes_risk(rule, ens, BA) - 1e-10:
                violations += 1
    report(3, "entropy orderings on 1000 random ensembles",
           violations == 0, f"{violations} violations")


def test_criterion_04_posterior_shift_rows():
    start = time.monotonic()
    base = UniformPosteriorSpec(members=10, replicates=100_000, seed=0)
    rules = list(ScoringRule)
    ml = shift_report(rules, base, ShiftKind.MEAN_LOCATION)
    ml_ok = all(r.direction == "flat" for r in ml.rows if r.direction != "unavailable")
    vl = shift_report(rules, base, ShiftKind.VARIANCE_LOCATION)
    vl_ok = all(r.direction == "up" for r in vl.rows
                if r.estimator.key.startswith("bayes") and r.direction != "unavailable")
    vs = shift_report([ScoringRule.SE], base, ShiftKind.VARIANCE_SCALE)
    vs_ok = vs.direction(ScoringRule.SE, EstimatorId.parse("bayes_1")) == "flat"
    elapsed = time.monotonic() - start
    report(4, "posterior-shift rows at 1e5 replicates",
           ml_ok and vl_ok and vs_ok and elapsed < 60.0,
           f"{elapsed:.1f}s")


def test_criterion_05_structural_rank_facts():
    rng = np.random.default_rng(55)
    means, variances = [], []
    for i in range(120):
        means.append(rng.uniform(-3, 3, 6))
        variances.append(rng.uniform(0.1, 4, 6))
    ps = PredictionSet([f"p{i}" for i in range(120)], means, variances)
    matrix = measure_matrix(list(ScoringRule), ps)
    ok = True
    for rule in (ScoringRule.CRPS, ScoringRule.QUADRATIC, ScoringRule.SE):
        for a, b in (("tot_1_1", "tot_2_1"), ("exc_1_1", "exc_2_1")):
            tau = kendall_tau_b(matrix.column(rule, EstimatorId.parse(a)),
                                matrix.column(rule, EstimatorId.parse(b)))
            ok = ok and tau == 1.0
    for key in ("bayes_3a", "bayes_3b"):
        cols = [matrix.column(rule, EstimatorId.parse(key)) for rule in ScoringRule]
        for other in cols[1:]:
            ok = ok and kendall_tau_b(cols[0], other) == 1.0
    report(5, "structural rank facts (tau_b exactly 1)", ok)


def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(66)
    mu = rng.normal(size=200)
    sigma2 = rng.uniform(0.05, 10, size=200)
    y = rng.normal(size=200)
    eta1, eta2 = natural_from_moments(mu, sigma2)
    equiv = float(np.max(np.abs(nll_natural(eta1, eta2, y)
                                - nll_standard(mu, sigma2, y))))

    x = rng.normal(size=(32, 1))
    t = rng.normal(size=32)
    worst = 0.0
    for point in range(10):
        net = Mlp.from_generators(x.shape[1], np.random.default_rng(660 + point))
        _, grad = net.loss_and_gradients(x, t)[:2]
        theta = net.params.copy()
        h = 1e-5
        fd = np.empty_like(theta)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            net.params[...] = up
            lu = net.loss_and_gradients(x, t)[0]
            net.params[...] = down
            ld = net.loss_and_gradients(x, t)[0]
            fd[i] = (lu - ld) / (2 * h)
        net.params[...] = theta
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
        worst = max(worst, float(rel.max()))
    report(6, "natural-NLL gradients vs central differences",
           worst < 1e-4 and equiv < 1e-12,
           f"worst grad rel {worst:.2e}, loss equiv {equiv:.2e}")


def test_criterion_07_extrapolation_excess():
    start = time.monotonic()
    wins = 0
    for seed in range(5):
        xs, ys, _ = two_curve_arrays(1200, -4.0, 4.0, seed)
        pred = train_ensemble(xs, ys, 10, epochs=100, seed=seed)
        grid = np.linspace(-7.0, 7.0, 281)
        means, variances = predict_arrays(pred, grid)
        exc = EnsembleBatch(means, variances).excess(ScoringRule.LOG, (BA, BA))
        cut = float(np.abs(xs).max()) + 1.0
        extrap = float(exc[np.abs(grid) > cut].mean())
        insup = float(exc[np.abs(grid) < 2.0].mean())
        wins += extrap > insup
    elapsed = time.monotonic() - start
    report(7, "LOG excess risk rises off the training support (>= 4/5 seeds)",
           wins >= 4 and elapsed < 180.0, f"{wins}/5 seeds, {elapsed:.1f}s")


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(88)
    errors = rng.uniform(0, 5, 100)
    ok = prr(errors, errors) == 0.0 and prr(errors, np.full(100, 2.0)) == 1.0
    for _ in range(50):
        a = rng.integers(0, 7, size=int(rng.integers(2, 40))).astype(float)
        b = rng.integers(0, 7, size=int(rng.integers(2, 40))).astype(float)
        wins = sum(1.0 if y > x else (0.5 if y == x else 0.0) for x in a for y in b)
        ok = ok and abs(auroc(a, b) - wins / (len(a) * len(b))) <= 1e-12
    for _ in range(50):
        n = int(rng.integers(3, 40))
        a = rng.integers(0, 6, size=n).astype(float)
        b = rng.integers(0, 6, size=n).astype(float)
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        conc = disc = t_a = t_b = 0
        for i, j in itertools.combinations(range(n), 2):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0:
                t_a += 1
            if db == 0:
                t_b += 1
            if da * db > 0:
                conc += 1
            elif da * db < 0:
                disc += 1
        n0 = n * (n - 1) // 2
        brute = (conc - disc) / math.sqrt((n0 - t_a) * (n0 - t_b))
        ok = ok and abs(kendall_tau_b(a, b) - brute) <= 1e-12
    report(8, "metric oracles (PRR endpoints, AUROC and tau_b brute force)", ok)


def test_criterion_09_ood_sanity():
    wins = {rule: 0 for rule in (ScoringRule.CRPS, ScoringRule.LOG, ScoringRule.SE)}
    for seed in range(5):
        xs, ys, _ = two_curve_arrays(1200, -4.0, 4.0, seed)
        pred = train_ensemble(xs, ys, 10, epochs=100, seed=seed)
        id_x = two_curve_arrays(500, -4.0, 4.0, seed + 100)[0]
        ood_x = np.random.default_rng(seed + 200).uniform(8.0, 12.0, 500)
        mi, vi = predict_arrays(pred, id_x)
        mo, vo = predict_arrays(pred, ood_x)
        for rule in wins:
            score_id = EnsembleBatch(mi, vi).excess(rule, (BA, BA))
            score_ood = EnsembleBatch(mo, vo).excess(rule, (BA, BA))
            if auroc(score_id, score_ood) > 0.9:
                wins[rule] += 1
    ok = all(w >= 4 for w in wins.values())
    report(9, "Exc(1,1) AUROC > 0.9 on the shifted input block (>= 4/5 seeds)",
           ok, ", ".join(f"{r.value}: {w}/5" for r, w in wins.items()))


def test_criterion_10_active_learning_trend():
    """Softmax acquisition with LOG Exc(1,1) vs paired Random baselines.

    Uniform pool on the two-curve task, random initial subset, softmax
    acquisition without replacement, fresh ensemble per iteration.  At desk
    scale this comparison is a near-tie; the requirement is mean final NLL
    <= Random with no margin, which this pinned configuration satisfies.
    """
    start = time.monotonic()
    finals = {"measure": [], "random": []}
    for seed in range(5):
        pool_x, pool_y, _ = two_curve_arrays(1200, -4.0, 4.0, seed)
        held_x, held_y, _ = two_curve_arrays(800, -4.0, 4.0, seed + 1000)
        init = np.random.default_rng([seed, 7]).choice(1200, size=60, replace=False)
        for name, measure in (("measure", (ScoringRule.LOG, EXC_11)),
                              ("random", None)):
            res = active_learning_loop(pool_x, pool_y, init, measure,
                                       iterations=6, batch=30, members=10,
                                       heldout_x=held_x, heldout_y=held_y,
                                       epochs=150, seed=seed)
            finals[name].append(res.nll_trajectory[-1])
    mean_measure = float(np.mean(finals["measure"]))
    mean_random = float(np.mean(finals["random"]))
    elapsed = time.monotonic() - start
    report(10, "active learning: LOG Exc(1,1) <= Random (mean final NLL)",
           mean_measure <= mean_random and elapsed < 600.0,
           f"measure {mean_measure:.4f} vs random {mean_random:.4f}, {elapsed:.0f}s")
