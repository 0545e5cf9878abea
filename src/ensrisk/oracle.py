"""Independent numerical verification of the closed forms.

Expected scores, entropies, and divergences of Gaussian mixtures are
recomputed here straight from their defining integrals with an adaptive
Gauss-Kronrod scheme, plus a seeded Monte-Carlo estimator as a second,
stochastic route.  The quadrature never calls the closed-form mixture
expressions it is meant to check; the only shared code is the elementary
density/CDF evaluation.  The oracle check at the end of the module
(``run_oracle_check``) is where the two meet: it assembles every estimator
cell from the integrals and compares it with ``EnsembleBatch``.

All quadrature runs through one engine, ``_integrate``, which works on K
integrals at once while each keeps its own state and rules: its own window
and knots, seeded with ``_INITIAL_PANELS`` panels; the local error estimated
from the difference between the embedded 7-point Gauss and 15-point Kronrod
rules; every panel whose error exceeds its fair share of the tolerance
max(abs_tol, rel_tol |total|) bisected, until that tolerance is met or
``max_subdivisions`` is reached.  That limit is checked before each round of
bisection and a round may bisect many panels, so an integral that fails can
report up to one round's bisections more than the limit.  Integrals run in
consecutive groups of a few dozen; each round evaluates the new panels of
all unconverged integrals of a group together, in blocks of at most
``_BLOCK_ELEMS`` integrand elements, and no integral's result depends on the
others in its batch.  A K=1 call is one integral run alone, as
``adaptive_quadrature`` runs it.

Entropies, expected scores and divergences are built from the integrals in
one place, ``_oracle_tables``, for any set of distributions and ordered
pairs of them: ``oracle_entropy`` is its one-distribution call,
``oracle_expected_score`` and ``oracle_divergence`` its one-pair calls, and
``run_oracle_check`` passes ``_CHECK_TRIALS`` trials at a time through it.
``_batch_log_mixture_entropy`` (the LOG mixture entropies behind
``--oracle-fallback``) runs all its rows in one engine call.

Each integrand is written once, over stacked mixture parameters of one
size.  The integration window is [min_i(mu_i - w sigma_i),
max_i(mu_i + w sigma_i)] with w = tail_width; Gaussian tails beyond 8 sigma
contribute less than 1e-15 to every integrand used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .estimators import (
    EnsembleBatch,
    EstimatorId,
    MeasureColumn,
    availability,
    default_estimators,
)
from .gaussians import GaussianEnsemble, _ndtr, averaged_surrogate, moment_surrogate
from .scores import (
    Distribution,
    ScoringRule,
    log_mean_exp,
    mixture_parameters,
    point_scores,
)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)

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
# (panel, node, member) integrand elements per block: bounds the engine's memory.
_BLOCK_ELEMS = 2**15


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits of every oracle integral.

    An integral converges when its error estimate is at most
    max(abs_tol, rel_tol |value|).  ``max_subdivisions`` is checked before
    each round of bisection: no new round starts once an integral has made
    that many bisections, but the round that crosses the limit bisects every
    panel above its share of the tolerance, so the final count can exceed
    it by up to one round.  ``tail_width`` is the window half-width in
    member standard deviations.
    """

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
    """Quadrature tolerance was not reached; carries the best estimate and
    ``row``, the failed integral's index among those integrated together
    (for the batched LOG mixture entropy, the row of its mixture)."""

    def __init__(self, best: float, error: float, message: str, row: int | None = None):
        super().__init__(message)
        self.best = best
        self.error = error
        self.row = row


# -- the engine ------------------------------------------------------------------

class _Family(NamedTuple):
    """K integrals of one integrand over stacked parameters.

    ``integrand(t, *rows)`` gets the (P, 15) nodes of P panels and, for each
    array in ``params`` (K leading rows), the rows of the integrals owning
    them.  ``knots`` (K, J), NaN for none, are forced panel boundaries.
    """

    integrand: Callable
    params: tuple
    lo: np.ndarray
    hi: np.ndarray
    knots: np.ndarray | None = None


class _Integrals(NamedTuple):
    """Per-integral results of one engine call; ``limit`` is the
    ``max_subdivisions`` each integral ran under."""

    value: np.ndarray
    error: np.ndarray
    tol: np.ndarray
    splits: np.ndarray
    limit: np.ndarray

    def failed(self) -> np.ndarray:
        return ~(self.error <= self.tol)

    def raise_failure(self, ids=None) -> None:
        """Raise ConvergenceError for the first of the integrals ``ids``
        (default all) that did not converge."""
        ids = np.arange(len(self.value)) if ids is None else np.asarray(ids)
        bad = ids[self.failed()[ids]]
        if bad.size:
            k = int(bad[0])
            raise ConvergenceError(
                float(self.value[k]), float(self.error[k]),
                f"quadrature error {self.error[k]:.3e} above tolerance {self.tol[k]:.3e} "
                f"after {self.splits[k]} subdivisions (limit {self.limit[k]}, "
                f"checked before each round of bisection)", row=k)


def _seed_panels(lo: np.ndarray, hi: np.ndarray, knots: np.ndarray | None):
    """Initial panels (owner, left, right), owners ascending: each window is
    cut at the knots strictly inside it, and each piece into
    max(2, ceil(_INITIAL_PANELS / pieces)) equal panels, as np.linspace
    spaces them."""
    if knots is None:
        knots = np.empty((len(lo), 0))
    inner = np.where((knots > lo[:, None]) & (knots < hi[:, None]), knots, np.nan)
    inner.sort(axis=1)
    inner[:, 1:][inner[:, 1:] == inner[:, :-1]] = np.nan  # a repeated knot
    pts = np.sort(np.column_stack([lo, inner, hi]), axis=1)  # NaNs sort last
    owner, piece = np.nonzero(~np.isnan(pts[:, 1:]))
    pieces = np.bincount(owner, minlength=len(lo))
    n = np.maximum(2, -(-_INITIAL_PANELS // pieces))[owner]  # panels per piece
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)  # panel within its piece
    a = np.repeat(pts[owner, piece], n)
    b = np.repeat(pts[owner, piece + 1], n)
    m = np.repeat(n, n)
    step = (b - a) / m
    return np.repeat(owner, n), a + j * step, np.where(j + 1 < m, a + (j + 1) * step, b)


def _evaluate(families, first, owner, lo, hi):
    """Kronrod value and |K15 - G7| error estimate of each panel (owners
    ascending); ``first`` holds each family's first integral id."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    value, error = np.empty(len(owner)), np.empty(len(owner))
    cuts = np.searchsorted(owner, first)
    for fam, start, end, base in zip(families, cuts[:-1], cuts[1:], first):
        if start == end:  # no live panels this round
            continue
        # members one node touches, which sizes the blocks
        width = max((p.shape[-1] for p in fam.params if p.ndim == 2), default=1)
        step = max(1, _BLOCK_ELEMS // (len(_K15_NODES) * width))
        for s in range(start, end, step):
            blk = slice(s, min(s + step, end))
            rows = owner[blk] - base
            fx = fam.integrand(mid[blk, None] + half[blk, None] * _K15_NODES,
                               *(p[rows] for p in fam.params))
            k15 = half[blk] * (fx * _K15_WEIGHTS).sum(axis=1)
            g7 = half[blk] * (fx[:, 1:14:2] * _G7_WEIGHTS).sum(axis=1)
            value[blk] = k15
            # |K15 - G7| grossly overestimates the Kronrod error on smooth
            # panels, which only costs a few extra bisections; never sharpen it.
            error[blk] = np.abs(k15 - g7)
    return value, error


def _integrate(families: list[_Family], cfg: QuadratureConfig) -> _Integrals:
    """Integrate every integral of ``families`` (ids in family order) to the
    configured tolerance, bisecting each one's worst panels until it
    converges or runs out of subdivisions.

    Integrals run in consecutive groups whose initial nodes fit the
    ``_BLOCK_ELEMS`` budget, which bounds the panel state as the blocks
    bound the integrand's temporaries.  Each integral's panels stay
    contiguous, in the order one integral run alone would keep them (kept
    panels, then left halves, then right halves), and every sum over them is
    a per-integral segment sum, so each result is bitwise the same as in a
    K=1 call.
    """
    first = np.cumsum([0] + [len(f.lo) for f in families])
    n = int(first[-1])
    out = _Integrals(np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan),
                     np.zeros(n, dtype=np.int64), np.full(n, cfg.max_subdivisions))
    group = max(1, _BLOCK_ELEMS // (_INITIAL_PANELS * len(_K15_NODES)))
    for start in range(0, n, group):
        _refine(families, first, start, min(start + group, n), cfg, out)
    return out


def _refine(families, first, start: int, stop: int, cfg: QuadratureConfig,
            out: _Integrals) -> None:
    """Run integrals ``start`` to ``stop - 1`` to the end, into ``out``."""
    seeds = []
    for fam, base in zip(families, first):
        r0, r1 = max(start - base, 0), min(stop - base, len(fam.lo))
        if r0 < r1:
            o, a, b = _seed_panels(fam.lo[r0:r1], fam.hi[r0:r1],
                                   None if fam.knots is None else fam.knots[r0:r1])
            seeds.append((o + base + r0, a, b))
    owner, lo, hi = (np.concatenate(x) for x in zip(*seeds))
    val, err = _evaluate(families, first, owner, lo, hi)
    while True:
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        ids, counts = owner[starts], np.diff(starts, append=owner.size)
        total = np.add.reduceat(val, starts)
        total_err = np.add.reduceat(err, starts)
        need = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        # A NaN error is not above tolerance: it stops here, and fails.
        stop_now = ~(total_err > need) | (out.splits[ids] >= cfg.max_subdivisions)
        if stop_now.any():
            done = ids[stop_now]
            out.value[done], out.error[done] = total[stop_now], total_err[stop_now]
            out.tol[done] = need[stop_now]
            if stop_now.all():
                return
            live = np.repeat(~stop_now, counts)
            owner, lo, hi, val, err = owner[live], lo[live], hi[live], val[live], err[live]
            ids, counts, need = ids[~stop_now], counts[~stop_now], need[~stop_now]
            starts = np.cumsum(counts) - counts
        # Bisect every panel whose error exceeds its fair share of the budget,
        # or the worst panel where none does.
        worst = err > np.repeat(np.maximum(need / (2 * counts), 1e-300), counts)
        n_split = np.add.reduceat(worst.astype(np.int64), starts)
        if not n_split.all():
            top = np.repeat(np.maximum.reduceat(err, starts), counts)
            worst |= np.repeat(n_split == 0, counts) & (err == top)
            n_split = np.add.reduceat(worst.astype(np.int64), starts)
        out.splits[ids] += n_split
        # New layout: each integral's kept panels, its left halves, its right halves.
        kept, split = np.flatnonzero(~worst), np.flatnonzero(worst)
        src = np.concatenate([kept, split, split])
        order = np.argsort(owner[src], kind="stable")
        part = order - len(kept)  # < 0 kept, then left halves, then right halves
        src = src[order]
        owner, lo, hi, val, err = owner[src], lo[src], hi[src], val[src], err[src]
        fresh = part >= 0
        left = part[fresh] < len(split)
        a, b = lo[fresh], hi[fresh]
        mid = 0.5 * (a + b)
        lo[fresh] = a = np.where(left, a, mid)
        hi[fresh] = b = np.where(left, mid, b)
        val[fresh], err[fresh] = _evaluate(families, first, owner[fresh], a, b)


def adaptive_quadrature(f: Callable, lo: float, hi: float,
                        cfg: QuadratureConfig | None = None,
                        knots: tuple[float, ...] = ()) -> QuadResult:
    """Integrate a vectorized integrand over [lo, hi] to the configured
    tolerance, bisecting the worst panels until convergence.

    ``knots`` forces initial panel boundaries (use it for kinked
    integrands such as the raw CRPS pointwise form).
    """
    cfg = cfg or QuadratureConfig()
    family = _Family(lambda t: f(t.ravel()).reshape(t.shape), (),
                     np.array([lo], dtype=float), np.array([hi], dtype=float),
                     knots=np.array(knots, dtype=float).reshape(1, -1))
    res = _integrate([family], cfg)
    res.raise_failure()
    return QuadResult(float(res.value[0]), float(res.error[0]))


# -- integrands over stacked mixtures ---------------------------------------------
#
# t is (P, N) nodes; mu, var (and q_mu, q_var) are (P, M) member parameters
# of the mixture each panel integrates; every integrand returns (P, N).
# Member terms are laid out (M, P, N), so the sums over members run over
# whole slabs instead of short rows.

def _pdf(t, mu, var):
    inv_sig = (1.0 / np.sqrt(var)).T[:, :, None]
    z = t - mu.T[:, :, None]
    z *= inv_sig
    dens = -0.5 * z
    dens *= z
    with np.errstate(under="ignore"):
        np.exp(dens, out=dens)
    dens *= _INV_SQRT_2PI * inv_sig
    return dens.mean(axis=0)


def _cdf(t, mu, var):
    z = t - mu.T[:, :, None]
    z *= (1.0 / np.sqrt(var)).T[:, :, None]
    return _ndtr(z).mean(axis=0)


def _log_pdf(t, mu, var):
    """Exact log-density; immune to the underflow that makes log(density)
    bottom out far from the mixture."""
    x = t - mu.T[:, :, None]
    np.square(x, out=x)
    x /= var.T[:, :, None]
    x *= -0.5
    x += (-0.5 * (_LOG_2PI + np.log(var))).T[:, :, None]
    return log_mean_exp(x, axis=0)


def _crps_integrand(t, mu, var, q_mu=None, q_var=None):
    """F (1 - F) (the CRPS entropy), or (F_p - F_q)^2 (the divergence)."""
    f = _cdf(t, mu, var)
    return f * (1.0 - f) if q_mu is None else (f - _cdf(t, q_mu, q_var)) ** 2


def _log_integrand(t, mu, var, q_mu=None, q_var=None):
    """-q log p (the LOG expected score), with q = p the entropy.

    log p comes from the shifted log-density, exact where p underflows but
    q does not; with q = p the plain density is enough, since wherever p
    underflows the integrand is 0 (0 log 0 := 0)."""
    if q_mu is None:
        p = _pdf(t, mu, var)
        return -p * np.log(np.maximum(p, 1e-300))
    return -_pdf(t, q_mu, q_var) * _log_pdf(t, mu, var)


def _quad_integrand(t, mu, var, q_mu=None, q_var=None):
    """p q, with q = p the squared density norm."""
    p = _pdf(t, mu, var)
    return p * p if q_mu is None else p * _pdf(t, q_mu, q_var)


def _mean_integrand(t, mu, var):
    return t * _pdf(t, mu, var)


def _centred_integrand(t, mu, var, center):
    """(t - c)^2 p: the SE entropy for c the mean of p, the score otherwise."""
    return (t - center[:, None]) ** 2 * _pdf(t, mu, var)


_SCORE_INTEGRAND = {
    ScoringRule.CRPS: _crps_integrand,
    ScoringRule.LOG: _log_integrand,
    ScoringRule.QUADRATIC: _quad_integrand,
}


def _window(width: float, *members) -> tuple:
    """Integration window over the (means, variances) of one or more
    mixtures, along the last axis."""
    lo = np.min([np.min(mu - width * np.sqrt(var), axis=-1) for mu, var in members], axis=0)
    hi = np.max([np.max(mu + width * np.sqrt(var), axis=-1) for mu, var in members], axis=0)
    return lo, hi


def _integrate_jobs(jobs, dists, cfg: QuadratureConfig) -> list[_Integrals]:
    """Integrate jobs (integrand, refs, extra, lo, hi) in one engine call.

    A job is K integrals whose parameters are the members of the
    distributions ``refs`` (K, r) (ids into ``dists``, a list of (means,
    variances)), followed by ``extra`` (K,) when it is given; its rows are
    stacked into one family per combination of member counts.  Returns one
    result per job, in row order.
    """
    sizes = np.array([len(mu) for mu, _ in dists])
    stacks, pos = {}, np.empty(len(dists), dtype=np.int64)
    for size in np.unique(sizes):
        ids = np.flatnonzero(sizes == size)
        pos[ids] = np.arange(len(ids))
        stacks[size] = tuple(np.array([dists[d][i] for d in ids]) for i in (0, 1))
    families, placed = [], []
    for j, (f, refs, extra, lo, hi) in enumerate(jobs):
        combos, combo_of = np.unique(sizes[refs], axis=0, return_inverse=True)
        for c, combo in enumerate(combos):
            rows = np.flatnonzero(combo_of.ravel() == c)
            params = [stack[pos[refs[rows, col]]]
                      for col, size in enumerate(combo) for stack in stacks[size]]
            if extra is not None:
                params.append(extra[rows])
            families.append(_Family(f, tuple(params), lo[rows], hi[rows]))
            placed.append((j, rows))
    res = _integrate(families, cfg)
    out = [_Integrals(*(np.empty(len(job[1]), dtype=x.dtype) for x in res)) for job in jobs]
    start = 0
    for j, rows in placed:
        for dst, src in zip(out[j], res):
            dst[rows] = src[start:start + len(rows)]
        start += len(rows)
    return out


class _Quantity(NamedTuple):
    """Values built from engine integrals; row k of ``parts`` holds the ids
    of the integrals value k is made of."""

    value: np.ndarray
    error: np.ndarray
    parts: np.ndarray


class _Table(NamedTuple):
    """One rule's oracle values: the entropy H(d) of each distribution, and
    the expected score S(p, q) and divergence d(p, q) of each ordered pair,
    over the integrals ``raw`` they are built from."""

    entropy: _Quantity
    score: _Quantity
    divergence: _Quantity
    raw: _Integrals

    def failed(self, q: _Quantity) -> np.ndarray:
        return self.raw.failed()[q.parts].any(axis=1)

    def result(self, q: _Quantity, k: int) -> QuadResult:
        """Value k of ``q``; raises ConvergenceError for its first integral
        that did not converge."""
        self.raw.raise_failure(q.parts[k])
        return QuadResult(float(q.value[k]), float(q.error[k]))


def _oracle_tables(rules, dists, pairs, cfg: QuadratureConfig) -> dict:
    """{rule: _Table} for the distributions ``dists`` ((means, variances)
    each) and the ordered ``pairs`` (p, q) of ids into them.

    Each distribution's self terms (F (1 - F), -p log p, p^2, its mean and
    centred second moment) are integrated once over its own window and
    reused by every pair; each pair's cross term over the union of the two
    windows.  Then per rule, with X the cross term and A the self term:
    CRPS has H = A, S = X + A(q), d = X; LOG H = A, S = X; QUAD H = -A,
    S = -2 X + A(p); SE centres both moments on the mean of the first
    distribution (itself, or the prediction p).  Otherwise d = S - H(q).
    One engine call runs every integral, two when SE is among the rules.
    """
    for rule in rules:
        if rule is not ScoringRule.SE and rule not in _SCORE_INTEGRAND:
            raise ValueError(f"unknown rule {rule!r}")
    p_of, q_of = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    lo, hi = np.array([_window(cfg.tail_width, d) for d in dists]).T
    pair_lo, pair_hi = np.minimum(lo[p_of], lo[q_of]), np.maximum(hi[p_of], hi[q_of])
    own, pair = np.arange(len(dists))[:, None], np.column_stack([p_of, q_of])
    scored = [r for r in rules if r in _SCORE_INTEGRAND]
    jobs = ([(_SCORE_INTEGRAND[r], own, None, lo, hi) for r in scored]
            + [(_SCORE_INTEGRAND[r], pair, None, pair_lo, pair_hi) for r in scored])
    if ScoringRule.SE in rules:
        jobs.append((_mean_integrand, own, None, lo, hi))
    raw = _integrate_jobs(jobs, dists, cfg)
    if ScoringRule.SE in rules:
        means = raw[-1].value
        raw += _integrate_jobs(
            [(_centred_integrand, own, means, lo, hi),
             (_centred_integrand, q_of[:, None], means[p_of], pair_lo, pair_hi)],
            dists, cfg)
    first = np.cumsum([0] + [len(r.value) for r in raw])
    ids = [start + np.arange(len(r.value)) for start, r in zip(first, raw)]
    flat = _Integrals(*(np.concatenate(x) for x in zip(*raw)))
    v, e = flat.value, flat.error

    def quantity(value, error, *parts):
        return _Quantity(value, error, np.column_stack(parts))

    tables = {}
    for rule in rules:
        if rule is ScoringRule.SE:
            mean, c_own, c_pair = ids[-3:]
            h = quantity(v[c_own], e[c_own], c_own, mean)
            score = quantity(v[c_pair], e[c_pair], c_pair, mean[p_of])
        else:
            a = ids[scored.index(rule)]
            x = ids[len(scored) + scored.index(rule)]
            h = quantity(-v[a] if rule is ScoringRule.QUADRATIC else v[a], e[a], a)
            if rule is ScoringRule.CRPS:
                score = quantity(v[x] + v[a][q_of], e[x] + e[a][q_of], x, a[q_of])
            elif rule is ScoringRule.LOG:
                score = quantity(v[x], e[x], x)
            else:
                score = quantity(-2.0 * v[x] + v[a][p_of], 2.0 * e[x] + e[a][p_of], x, a[p_of])
        if rule is ScoringRule.CRPS:
            div = quantity(v[x], e[x], x)
        else:
            div = quantity(score.value - h.value[q_of], score.error + h.error[q_of],
                           score.parts, h.parts[q_of])
        tables[rule] = _Table(h, score, div, flat)
    return tables


def oracle_entropy(rule: ScoringRule, p: Distribution,
                   cfg: QuadratureConfig | None = None) -> float:
    """H(P) recomputed from the defining integral.

    CRPS uses H(P) = integral F (1 - F) dt, which equals (1/2) E|X - X'|;
    LOG is the Shannon entropy -integral p log p (this is the value the
    estimator registry requests for its quadrature-required cells); QUAD is
    -integral p^2; SE integrates the centered second moment.
    """
    table = _oracle_tables([rule], [mixture_parameters(p)], [], cfg or QuadratureConfig())[rule]
    return table.result(table.entropy, 0).value


def _batch_log_mixture_entropy(means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """LOG H(P) of each row's mixture of (n, M) members: ``oracle_entropy``
    run on all rows in one engine call.  Raises ConvergenceError whose
    ``row`` is the first row that misses the tolerance."""
    cfg = QuadratureConfig()
    lo, hi = _window(cfg.tail_width, (means, variances))
    res = _integrate([_Family(_log_integrand, (means, variances), lo, hi)], cfg)
    res.raise_failure()
    return res.value


def oracle_expected_score(rule: ScoringRule, pred: Distribution,
                          label: Distribution,
                          cfg: QuadratureConfig | None = None) -> QuadResult:
    """S(pred, label) by numerical integration of the defining expectation.

    The CRPS route goes through d(P, Q) = integral (F_P - F_Q)^2 dt plus the
    label entropy, avoiding the kinked pointwise integrand entirely.
    """
    table = _oracle_tables([rule], [mixture_parameters(pred), mixture_parameters(label)],
                           [(0, 1)], cfg or QuadratureConfig())[rule]
    return table.result(table.score, 0)


def oracle_divergence(rule: ScoringRule, pred: Distribution,
                      label: Distribution,
                      cfg: QuadratureConfig | None = None) -> float:
    """d(pred, label) = S(pred, label) - H(label), both sides by quadrature."""
    table = _oracle_tables([rule], [mixture_parameters(pred), mixture_parameters(label)],
                           [(0, 1)], cfg or QuadratureConfig())[rule]
    return table.result(table.divergence, 0).value


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
    mu, var = mixture_parameters(pred)
    lo, hi = _window(cfg.tail_width, (mu, var), (np.array([y]), np.ones(1)))

    def integrand(t):
        return (_cdf(t[None, :], mu[None, :], var[None, :])[0] - (y <= t)) ** 2

    return adaptive_quadrature(integrand, lo, hi, cfg, knots=(y,)).value


# -- oracle-check: closed forms against quadrature ------------------------------

@dataclass
class _CellCheck:
    rule: ScoringRule
    estimator: EstimatorId
    max_abs_dev: float = 0.0
    max_rel_dev: float = 0.0
    convergence_failures: int = 0


def _cells(h, div, comps, ens, mm, av) -> dict[str, float]:
    """Every estimator cell of one rule from the entropies ``h[d]`` and the
    divergences ``div(pred, label)`` of the member, mixture and surrogate
    distributions."""
    bayes = {"1": float(np.mean(h[comps])), "2": h[ens], "3a": h[mm], "3b": h[av]}
    exc = {
        "1_1": float(np.mean([div(a, b) for a in comps for b in comps])),
        "2_1": float(np.mean([div(ens, c) for c in comps])),
        "3a_1": float(np.mean([div(mm, c) for c in comps])),
        "3b_1": float(np.mean([div(av, c) for c in comps])),
        "3a_2": div(mm, ens),
        "3b_2": div(av, ens),
    }
    cells = {f"bayes_{k}": v for k, v in bayes.items()}
    cells.update({f"exc_{k}": v for k, v in exc.items()})
    for pair, value in exc.items():
        alpha = pair.split("_")[0]
        cells[f"tot_{pair}"] = bayes[alpha] + value
    return cells


def _quadrature_cells(ensembles, cfg: QuadratureConfig) -> list[dict]:
    """Per ensemble, {rule: cells} assembled from quadrature, with None for
    a rule whose integrals did not all converge.

    The distinct distributions of all ensembles (members, mixtures and
    surrogates) and the ordered pairs of distinct ones that the cells use go
    through ``_oracle_tables`` together, so every integral is run once.
    """
    index: dict = {}   # (means, variances) bytes -> distribution id
    dists = []         # id -> (means, variances)
    trials = []        # per ensemble: (member ids, mixture id, mm id, av id)
    for ens in ensembles:
        ids = []
        for d in (*ens.components, ens, moment_surrogate(ens), averaged_surrogate(ens)):
            mu, var = mixture_parameters(d)
            ids.append(index.setdefault((mu.tobytes(), var.tobytes()), len(index)))
            if len(dists) < len(index):
                dists.append((mu, var))
        trials.append((ids[:-3], *ids[-3:]))

    def trial_pairs(comps, ens, mm, av):
        return ([(a, b) for a in comps for b in comps]
                + [(p, c) for p in (ens, mm, av) for c in comps] + [(mm, ens), (av, ens)])

    pairs = list(dict.fromkeys(pq for t in trials for pq in trial_pairs(*t) if pq[0] != pq[1]))
    pair_id = {pq: k for k, pq in enumerate(pairs)}
    tables = {rule: (t.entropy.value, t.divergence.value,
                     t.failed(t.entropy), t.failed(t.divergence))
              for rule, t in _oracle_tables(ScoringRule, dists, pairs, cfg).items()}
    out = []
    for comps, ens, mm, av in trials:
        ids = [*comps, ens, mm, av]
        used = [pair_id[pq] for pq in trial_pairs(comps, ens, mm, av) if pq[0] != pq[1]]
        per_rule = {}
        for rule, (h, div, h_bad, div_bad) in tables.items():
            if h_bad[ids].any() or div_bad[used].any():
                per_rule[rule] = None
            else:
                per_rule[rule] = _cells(
                    h, lambda p, q, div=div: 0.0 if p == q else div[pair_id[(p, q)]],
                    comps, ens, mm, av)
        out.append(per_rule)
    return out


def _closed_cells(ensembles, quads, columns, cfg: QuadratureConfig) -> np.ndarray:
    """(trials, columns) values of the ``MeasureColumn``s from one
    ``EnsembleBatch`` per ensemble size.  The LOG cells that need quadrature
    come from each mixture's ``oracle_entropy`` plus closed forms, as
    ``--oracle-fallback`` fills them; they are NaN for a trial whose LOG
    integrals in ``quads`` did not converge."""
    sizes = np.array([ens.size for ens in ensembles])
    out = np.empty((len(ensembles), len(columns)))
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        h_ens = np.array([np.nan if quads[r][ScoringRule.LOG] is None
                          else oracle_entropy(ScoringRule.LOG, ensembles[r], cfg)
                          for r in rows])
        batch = EnsembleBatch(np.array([ensembles[r].means for r in rows]),
                              np.array([ensembles[r].variances for r in rows]))
        out[rows] = batch.columns(columns, h_ens)
    return out


# Trials drawn and integrated together by ``run_oracle_check``: bounds its
# memory, which would otherwise grow with the trial count.
_CHECK_TRIALS = 40


def run_oracle_check(trials: int, seed: int,
                     cfg: QuadratureConfig | None = None,
                     rel_tol: float = 1e-6, abs_floor: float = 1e-9):
    """Compare every estimator cell to quadrature.

    ClosedForm and IdenticallyZero cells come from ``EnsembleBatch``; the
    seven LOG cells that need quadrature from one mixture-entropy integral
    plus closed forms, as ``--oracle-fallback`` fills them.  Returns (rows,
    passed, worst_rel): one row per (rule, estimator) with the worst
    deviation over all trials.  A cell passes when |closed - quad| <=
    max(rel_tol * |closed|, abs_floor); a trial whose integrals for a rule
    did not converge counts as a convergence failure of every cell of that
    rule.  Trials are drawn, integrated and evaluated ``_CHECK_TRIALS`` at a
    time, with one ``EnsembleBatch`` per ensemble size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = cfg or QuadratureConfig()
    rng = np.random.default_rng(seed)
    columns = tuple(MeasureColumn(rule, est, availability(rule, est))
                    for rule in ScoringRule for est in default_estimators())
    checks = [_CellCheck(col.rule, col.estimator) for col in columns]
    passed = True
    for start in range(0, trials, _CHECK_TRIALS):
        ensembles = []
        for _ in range(min(_CHECK_TRIALS, trials - start)):
            m = int(rng.integers(1, 6))
            ensembles.append(GaussianEnsemble.from_arrays(rng.uniform(-5.0, 5.0, size=m),
                                                          rng.uniform(0.05, 9.0, size=m)))
        quads = _quadrature_cells(ensembles, cfg)
        for quad_by_rule, closed_row in zip(quads, _closed_cells(ensembles, quads, columns, cfg)):
            for col, cell, closed in zip(columns, checks, closed_row.tolist()):
                quad = quad_by_rule[col.rule]
                if quad is None:
                    cell.convergence_failures += 1
                    passed = False
                    continue
                dev = abs(closed - quad[col.estimator.key])
                cell.max_abs_dev = max(cell.max_abs_dev, dev)
                cell.max_rel_dev = max(cell.max_rel_dev,
                                       dev / max(abs(closed), abs_floor / rel_tol))
                if dev > max(rel_tol * abs(closed), abs_floor):
                    passed = False
    worst = max(c.max_rel_dev for c in checks)
    return checks, passed, worst
