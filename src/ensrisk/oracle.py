"""Independent numerical verification of the closed forms.

Expected scores, entropies, and divergences of Gaussian mixtures are
recomputed here straight from their defining integrals with an adaptive
Gauss-Kronrod scheme, plus a seeded Monte-Carlo estimator as a second,
stochastic route.  The quadrature primitives never call the closed-form
mixture expressions they are meant to check; the only shared code is the
elementary density/CDF evaluation.  The oracle check at the end of the module
(``run_oracle_check``) is where the two meet: it assembles every estimator
cell from the primitives and compares it with ``EnsembleBatch``.

The adaptive scheme bisects the interval carrying the largest error, where
the local error is estimated from the difference between the embedded
7-point Gauss and 15-point Kronrod rules.  The integration window is
[min_i(mu_i - w sigma_i), max_i(mu_i + w sigma_i)] with w = tail_width;
Gaussian tails beyond 8 sigma contribute less than 1e-15 to every integrand
used here.

The LOG cells that ``--oracle-fallback`` fills take their mixture entropies
from ``_batch_log_mixture_entropy``: the scheme's first pass on many mixtures
at once, with ``oracle_entropy`` for the rows it cannot settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .estimators import (
    Availability,
    EnsembleBatch,
    EstimatorId,
    availability,
    default_estimators,
)
from .gaussians import (
    GaussianComponent,
    GaussianEnsemble,
    averaged_surrogate,
    moment_surrogate,
)
from .scores import Distribution, ScoringRule, mixture_parameters, point_scores

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Nodes and weights of the 15-point Kronrod extension of 7-point Gauss on
# [-1, 1] (the classic QUADPACK pair).  Nodes are symmetric about 0.
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 lives on the odd Kronrod nodes (indices 1, 3, ..., 13).
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_INITIAL_PANELS = 24
# (row, node, member) integrand elements per block: bounds the batch's memory.
_BLOCK_ELEMS = 2**17


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000
    tail_width: float = 10.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.tail_width < 8.0:
            raise ValueError("tail_width must be >= 8")


@dataclass(frozen=True)
class McConfig:
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1000:
            raise ValueError("samples must be >= 1000")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


class QuadResult(NamedTuple):
    value: float
    error: float


class McResult(NamedTuple):
    value: float
    standard_error: float


class ConvergenceError(RuntimeError):
    """Quadrature tolerance was not reached; carries the best estimate."""

    def __init__(self, best: float, error: float, message: str):
        super().__init__(message)
        self.best = best
        self.error = error


def _panel_estimates(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Kronrod value and Gauss/Kronrod error estimate for each panel."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid[:, None] + half[:, None] * _K15_NODES[None, :]
    fx = f(xs.ravel()).reshape(xs.shape)
    k15 = half * (fx @ _K15_WEIGHTS)
    g7 = half * (fx[:, 1:14:2] @ _G7_WEIGHTS)
    # |K15 - G7| grossly overestimates the Kronrod error on smooth panels,
    # which only costs a few extra bisections; never sharpen it downward.
    return k15, np.abs(k15 - g7)


def adaptive_quadrature(f: Callable, lo: float, hi: float,
                        cfg: QuadratureConfig | None = None,
                        knots: tuple[float, ...] = ()) -> QuadResult:
    """Integrate a vectorized integrand over [lo, hi] to the configured
    tolerance, bisecting the worst panel until convergence.

    ``knots`` forces initial panel boundaries (use it for kinked
    integrands such as the raw CRPS pointwise form).
    """
    cfg = cfg or QuadratureConfig()
    pts = [lo, hi]
    pts.extend(k for k in knots if lo < k < hi)
    pts = sorted(set(pts))
    # Seed with enough uniform panels that no component can hide between nodes.
    edges = []
    n_init = max(2, math.ceil(_INITIAL_PANELS / (len(pts) - 1)))
    for a, b in zip(pts[:-1], pts[1:]):
        edges.extend(np.linspace(a, b, n_init + 1)[:-1])
    edges.append(hi)
    edges = np.asarray(edges)
    lo_arr, hi_arr = edges[:-1], edges[1:]

    values, errors = _panel_estimates(f, lo_arr, hi_arr)
    splits = 0
    while True:
        total = float(values.sum())
        total_err = float(errors.sum())
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if total_err <= tol:
            return QuadResult(total, total_err)
        if splits >= cfg.max_subdivisions:
            raise ConvergenceError(
                total, total_err,
                f"quadrature error {total_err:.3e} above tolerance {tol:.3e} "
                f"after {splits} subdivisions",
            )
        # Bisect every panel whose error exceeds its fair share of the budget.
        worst = errors > max(tol / (2 * len(errors)), 1e-300)
        if not np.any(worst):
            worst = errors == errors.max()
        n_split = int(np.count_nonzero(worst))
        splits += n_split
        mids = 0.5 * (lo_arr[worst] + hi_arr[worst])
        new_lo = np.concatenate([lo_arr[~worst], lo_arr[worst], mids])
        new_hi = np.concatenate([hi_arr[~worst], mids, hi_arr[worst]])
        new_vals, new_errs = _panel_estimates(f, new_lo[-2 * n_split:],
                                              new_hi[-2 * n_split:])
        values = np.concatenate([values[~worst], new_vals])
        errors = np.concatenate([errors[~worst], new_errs])
        lo_arr, hi_arr = new_lo, new_hi


def _window(dists: tuple[Distribution, ...], width: float) -> tuple[float, float]:
    lo, hi = math.inf, -math.inf
    for d in dists:
        means, variances = mixture_parameters(d)
        sig = np.sqrt(variances)
        lo = min(lo, float(np.min(means - width * sig)))
        hi = max(hi, float(np.max(means + width * sig)))
    return lo, hi


def _density(dist: Distribution) -> Callable:
    means, variances = mixture_parameters(dist)
    inv_sig = 1.0 / np.sqrt(variances)

    def pdf(ts):
        z = (ts[:, None] - means[None, :]) * inv_sig[None, :]
        with np.errstate(under="ignore"):
            comp = _INV_SQRT_2PI * inv_sig[None, :] * np.exp(-0.5 * z * z)
        return comp.mean(axis=1)

    return pdf


def _cdf(dist: Distribution) -> Callable:
    from scipy.special import erfc

    means, variances = mixture_parameters(dist)
    inv_sig = 1.0 / np.sqrt(variances)

    def cdf(ts):
        z = (ts[:, None] - means[None, :]) * inv_sig[None, :]
        return (0.5 * erfc(-z / _SQRT_2)).mean(axis=1)

    return cdf


def _log_density(dist: Distribution) -> Callable:
    """Exact log-density via logsumexp; immune to the underflow that makes
    log(density) bottom out at log(1e-300) far from the mixture."""
    from scipy.special import logsumexp

    means, variances = mixture_parameters(dist)
    log_norm = -0.5 * (math.log(2.0 * math.pi) + np.log(variances))
    log_m = math.log(len(means))

    def logpdf(ts):
        z2 = (ts[:, None] - means[None, :]) ** 2 / variances[None, :]
        return logsumexp(log_norm[None, :] - 0.5 * z2, axis=1) - log_m

    return logpdf


def _mean_of(dist: Distribution, cfg: QuadratureConfig) -> float:
    lo, hi = _window((dist,), cfg.tail_width)
    pdf = _density(dist)
    return adaptive_quadrature(lambda t: t * pdf(t), lo, hi, cfg).value


def oracle_entropy(rule: ScoringRule, p: Distribution,
                   cfg: QuadratureConfig | None = None) -> float:
    """H(P) recomputed from the defining integral.

    CRPS uses H(P) = integral F (1 - F) dt, which equals (1/2) E|X - X'|;
    LOG is the Shannon entropy -integral p log p (this is the value the
    estimator registry requests for its quadrature-required cells); QUAD is
    -integral p^2; SE integrates the centered second moment.
    """
    cfg = cfg or QuadratureConfig()
    lo, hi = _window((p,), cfg.tail_width)
    if rule is ScoringRule.CRPS:
        cdf = _cdf(p)
        return adaptive_quadrature(lambda t: cdf(t) * (1.0 - cdf(t)), lo, hi, cfg).value
    if rule is ScoringRule.LOG:
        logpdf = _log_density(p)

        def integrand(t):
            lp = logpdf(t)
            with np.errstate(under="ignore"):
                dens = np.exp(lp)
            # 0 * log 0 := 0 falls out on its own: exp underflows first
            return -dens * lp

        return adaptive_quadrature(integrand, lo, hi, cfg).value
    if rule is ScoringRule.QUADRATIC:
        pdf = _density(p)
        return -adaptive_quadrature(lambda t: pdf(t) ** 2, lo, hi, cfg).value
    if rule is ScoringRule.SE:
        pdf = _density(p)
        mean = _mean_of(p, cfg)
        return adaptive_quadrature(lambda t: (t - mean) ** 2 * pdf(t), lo, hi, cfg).value
    raise ValueError(f"unknown rule {rule!r}")


def _batch_log_mixture_entropy(means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """LOG H(P) of each row's mixture of (n, M) members, by the first pass of
    ``oracle_entropy`` (same window, initial panels, G7/K15 error estimate
    and tolerance) on all rows at once with the plain density in the
    integrand; rows whose first pass misses the tolerance get the full pass."""
    cfg = QuadratureConfig()
    sig = np.sqrt(variances)
    edges = np.linspace((means - cfg.tail_width * sig).min(axis=1),
                        (means + cfg.tail_width * sig).max(axis=1),
                        _INITIAL_PANELS + 1, axis=1)
    h, err = np.empty(len(means)), np.empty(len(means))
    step = max(1, _BLOCK_ELEMS // (_INITIAL_PANELS * len(_K15_NODES) * means.shape[1]))
    for start in range(0, len(means), step):
        blk = slice(start, start + step)
        mu, inv_sig = means[blk, None, :], 1.0 / sig[blk, None, :]

        def integrand(ts):
            z = (ts.reshape(len(mu), -1, 1) - mu) * inv_sig
            with np.errstate(under="ignore"):
                dens = _INV_SQRT_2PI * (inv_sig * np.exp(-0.5 * z * z)).mean(axis=2)
            return -dens * np.log(np.maximum(dens, 1e-300))

        values, errors = _panel_estimates(integrand, edges[blk, :-1].ravel(),
                                          edges[blk, 1:].ravel())
        h[blk] = values.reshape(-1, _INITIAL_PANELS).sum(axis=1)
        err[blk] = errors.reshape(-1, _INITIAL_PANELS).sum(axis=1)
    for i in np.flatnonzero(err > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(h))):
        h[i] = oracle_entropy(ScoringRule.LOG,
                              GaussianEnsemble.from_arrays(means[i], variances[i]), cfg)
    return h


def oracle_expected_score(rule: ScoringRule, pred: Distribution,
                          label: Distribution,
                          cfg: QuadratureConfig | None = None) -> QuadResult:
    """S(pred, label) by numerical integration of the defining expectation.

    The CRPS route goes through d(P, Q) = integral (F_P - F_Q)^2 dt plus the
    label entropy, avoiding the kinked pointwise integrand entirely.
    """
    cfg = cfg or QuadratureConfig()
    lo, hi = _window((pred, label), cfg.tail_width)

    if rule is ScoringRule.CRPS:
        f_p, f_q = _cdf(pred), _cdf(label)
        div = adaptive_quadrature(lambda t: (f_p(t) - f_q(t)) ** 2, lo, hi, cfg)
        ent = adaptive_quadrature(lambda t: f_q(t) * (1.0 - f_q(t)), lo, hi, cfg)
        return QuadResult(div.value + ent.value, div.error + ent.error)

    q_pdf = _density(label)

    if rule is ScoringRule.LOG:
        p_logpdf = _log_density(pred)

        def integrand(t):
            return -q_pdf(t) * p_logpdf(t)

        res = adaptive_quadrature(integrand, lo, hi, cfg)
        return QuadResult(res.value, res.error)

    if rule is ScoringRule.QUADRATIC:
        p_pdf = _density(pred)
        norm = adaptive_quadrature(lambda t: p_pdf(t) ** 2, lo, hi, cfg)
        cross = adaptive_quadrature(lambda t: p_pdf(t) * q_pdf(t), lo, hi, cfg)
        return QuadResult(-2.0 * cross.value + norm.value,
                          2.0 * cross.error + norm.error)

    if rule is ScoringRule.SE:
        pred_mean = _mean_of(pred, cfg)
        res = adaptive_quadrature(lambda t: (t - pred_mean) ** 2 * q_pdf(t),
                                  lo, hi, cfg)
        return QuadResult(res.value, res.error)

    raise ValueError(f"unknown rule {rule!r}")


def oracle_divergence(rule: ScoringRule, pred: Distribution,
                      label: Distribution,
                      cfg: QuadratureConfig | None = None) -> float:
    """d(pred, label) = S(pred, label) - H(label), both sides by quadrature."""
    cfg = cfg or QuadratureConfig()
    if rule is ScoringRule.CRPS:
        lo, hi = _window((pred, label), cfg.tail_width)
        f_p, f_q = _cdf(pred), _cdf(label)
        return adaptive_quadrature(lambda t: (f_p(t) - f_q(t)) ** 2, lo, hi, cfg).value
    score = oracle_expected_score(rule, pred, label, cfg).value
    return score - oracle_entropy(rule, label, cfg)


def _sample_mixture(dist: Distribution, n: int, rng: np.random.Generator) -> np.ndarray:
    means, variances = mixture_parameters(dist)
    idx = rng.integers(0, len(means), size=n)
    return means[idx] + np.sqrt(variances[idx]) * rng.standard_normal(n)


def mc_expected_score(rule: ScoringRule, pred: Distribution, label: Distribution,
                      cfg: McConfig | None = None) -> McResult:
    """Monte-Carlo estimate of S(pred, label), deterministic given the seed.

    Only the label is sampled; the pointwise score of the (possibly mixture)
    prediction is evaluated in closed form, so no sampling noise enters on
    the prediction side.
    """
    cfg = cfg or McConfig()
    rng = np.random.default_rng(cfg.seed)
    ys = _sample_mixture(label, cfg.samples, rng)
    scores = point_scores(rule, pred, ys)
    value = float(np.mean(scores))
    stderr = float(np.std(scores, ddof=1) / math.sqrt(cfg.samples))
    return McResult(value, stderr)


def crps_point_quadrature(pred: Distribution, y: float,
                          cfg: QuadratureConfig | None = None) -> float:
    """CRPS(pred, y) from the raw integral, with a knot at the kink."""
    cfg = cfg or QuadratureConfig()
    lo, hi = _window((pred, GaussianComponent(y, 1.0)), cfg.tail_width)
    f_p = _cdf(pred)

    def integrand(t):
        return (f_p(t) - (y <= t)) ** 2

    return adaptive_quadrature(integrand, lo, hi, cfg, knots=(y,)).value


# -- oracle-check: closed forms against quadrature ------------------------------

@dataclass
class _CellCheck:
    rule: ScoringRule
    estimator: EstimatorId
    max_abs_dev: float = 0.0
    max_rel_dev: float = 0.0
    convergence_failures: int = 0


def _quadrature_cells(rule: ScoringRule, ens: GaussianEnsemble,
                      cfg: QuadratureConfig) -> dict[str, float]:
    """Assemble every estimator cell from per-pair quadrature primitives."""
    comps = ens.components
    mm = moment_surrogate(ens)
    av = averaged_surrogate(ens)
    h_members = [oracle_entropy(rule, c, cfg) for c in comps]
    h_mix = oracle_entropy(rule, ens, cfg)
    h_mm = oracle_entropy(rule, mm, cfg)
    h_av = oracle_entropy(rule, av, cfg)

    def div(pred, label, h_label):
        if rule is ScoringRule.CRPS:
            return oracle_divergence(rule, pred, label, cfg)
        return oracle_expected_score(rule, pred, label, cfg).value - h_label

    d_pairs = [div(a, b, h_members[j])
               for a in comps for j, b in enumerate(comps)]
    d_ens_member = [div(ens, c, h_members[j]) for j, c in enumerate(comps)]
    d_mm_member = [div(mm, c, h_members[j]) for j, c in enumerate(comps)]
    d_av_member = [div(av, c, h_members[j]) for j, c in enumerate(comps)]
    d_mm_ens = div(mm, ens, h_mix)
    d_av_ens = div(av, ens, h_mix)

    bayes = {
        "1": float(np.mean(h_members)), "2": h_mix, "3a": h_mm, "3b": h_av,
    }
    exc = {
        "1_1": float(np.mean(d_pairs)),
        "2_1": float(np.mean(d_ens_member)),
        "3a_1": float(np.mean(d_mm_member)),
        "3b_1": float(np.mean(d_av_member)),
        "3a_2": d_mm_ens,
        "3b_2": d_av_ens,
    }
    cells = {f"bayes_{k}": v for k, v in bayes.items()}
    cells.update({f"exc_{k}": v for k, v in exc.items()})
    for pair, value in exc.items():
        alpha = pair.split("_")[0]
        cells[f"tot_{pair}"] = bayes[alpha] + value
    return cells


def run_oracle_check(trials: int, seed: int,
                     cfg: QuadratureConfig | None = None,
                     rel_tol: float = 1e-6, abs_floor: float = 1e-9):
    """Compare every ClosedForm (and IdenticallyZero) cell to quadrature.

    Returns (rows, passed, worst_rel): one row per (rule, estimator) with
    the worst deviation over all trials.  A cell passes when
    |closed - quad| <= max(rel_tol * |closed|, abs_floor).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = cfg or QuadratureConfig()
    rng = np.random.default_rng(seed)
    checks = {(rule, est.key): _CellCheck(rule, est)
              for rule in ScoringRule for est in default_estimators()}
    passed = True
    for _ in range(trials):
        m = int(rng.integers(1, 6))
        means = rng.uniform(-5.0, 5.0, size=m)
        variances = rng.uniform(0.05, 9.0, size=m)
        ens = GaussianEnsemble.from_arrays(means, variances)
        batch = EnsembleBatch(means[None, :], variances[None, :])
        for rule in ScoringRule:
            try:
                quad = _quadrature_cells(rule, ens, cfg)
            except ConvergenceError:
                for est in default_estimators():
                    checks[(rule, est.key)].convergence_failures += 1
                passed = False
                continue
            for est in default_estimators():
                avail = availability(rule, est)
                if avail is Availability.QUADRATURE_REQUIRED:
                    continue
                closed = float(batch.evaluate(rule, est)[0])
                dev = abs(closed - quad[est.key])
                cell = checks[(rule, est.key)]
                cell.max_abs_dev = max(cell.max_abs_dev, dev)
                cell.max_rel_dev = max(cell.max_rel_dev,
                                       dev / max(abs(closed), abs_floor / rel_tol))
                if dev > max(rel_tol * abs(closed), abs_floor):
                    passed = False
    rows = [c for c in checks.values()]
    worst = max(c.max_rel_dev for c in rows)
    return rows, passed, worst
