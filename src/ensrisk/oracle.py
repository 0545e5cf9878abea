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
max(_ABS_TOL, _REL_TOL |total|) bisected, until that tolerance is met or
``_MAX_SUBDIVISIONS`` is reached.  That limit is checked before each round of
bisection and a round may bisect many panels, so an integral that fails can
report up to one round's bisections more than the limit.  Integrals run in
consecutive groups of ``_BLOCK_ELEMS // _INITIAL_PANELS``, which bounds the
panel state; each round evaluates the new panels of all unconverged
integrals of a group together, family by family, in blocks of at most
``_BLOCK_ELEMS`` integrand elements, and no integral's result depends on the
others in its batch.  A K=1 call is one integral run alone, as
``adaptive_quadrature`` runs it.

The integrands work member-major: a block's nodes are a (15, P) array, one
column per panel, and each member's parameters a row of P, so every member
term is a C-ordered (M, 15, P) slab whose elementwise steps run over long
contiguous rows.  Sums over members add slab after slab in member order, and
each panel's K15 and G7 sums run over its 15 values as one contiguous row.

Entropies, expected scores and divergences are built from the integrals in
one place, ``_oracle_tables``, for any set of distributions and ordered
pairs of them: ``oracle_entropy`` is its one-distribution call,
``oracle_expected_score`` and ``oracle_divergence`` its one-pair calls, and
``run_oracle_check`` passes ``_CHECK_TRIALS`` trials at a time through it.
``_batch_log_mixture_entropy`` (the LOG mixture entropies behind
``--oracle-fallback``) runs all its rows in one engine call.

Each integrand is written once, over stacked mixture parameters of one
size.  The integration window is [min_i(mu_i - w sigma_i),
max_i(mu_i + w sigma_i)] with w = _TAIL_WIDTH; Gaussian tails beyond 8 sigma
contribute less than 1e-15 to every integrand used here.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .estimators import EnsembleBatch, EstimatorId, distinct_sizes, measure_columns
from .gaussians import GaussianEnsemble, _ndtr, averaged_surrogate, moment_surrogate
from .scores import ScoringRule, log_mean_exp, realized_scores

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
# (member, node, panel) integrand elements per block: bounds the engine's memory.
_BLOCK_ELEMS = 2**15
# Every oracle integral converges when its error estimate is at most
# max(_ABS_TOL, _REL_TOL |value|); no round of bisection starts once it has
# made _MAX_SUBDIVISIONS bisections, though the round that crosses the limit
# can exceed it by up to one round; its window reaches _TAIL_WIDTH member
# standard deviations past the outermost members.  Read at call time.
_ABS_TOL, _REL_TOL, _MAX_SUBDIVISIONS, _TAIL_WIDTH = 1e-10, 1e-9, 2000, 10.0


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

    ``integrand(t, *rows)`` gets the (15, P) nodes of P panels and, for each
    array in ``params`` (K leading rows), the rows of the integrals owning
    them, member-major: an (M, P) C-ordered array for a (K, M) parameter, a
    (P,) one for a (K,) parameter.  It returns the (15, P) values.
    ``knots`` (K, J), NaN for none, are forced panel boundaries.
    """

    integrand: Callable
    params: tuple
    lo: np.ndarray
    hi: np.ndarray
    knots: np.ndarray | None = None


class _Integrals(NamedTuple):
    """Per-integral results of one engine call, all run under
    ``_MAX_SUBDIVISIONS``."""

    value: np.ndarray
    error: np.ndarray
    tol: np.ndarray
    splits: np.ndarray

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
                f"after {self.splits[k]} subdivisions (limit {_MAX_SUBDIVISIONS}, "
                f"checked before each round of bisection)", row=k)


def _seed_panels(lo: np.ndarray, hi: np.ndarray, knots: np.ndarray | None):
    """Initial panels (owner, left, right), owners ascending: each window is
    cut at the knots strictly inside it, and each piece into
    max(2, ceil(_INITIAL_PANELS / pieces)) equal panels, as np.linspace
    spaces them."""
    if knots is None:
        pts = np.column_stack([lo, hi])
    else:
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


def _member_major(families):
    """Per family: its integrand, its parameters transposed once to C-ordered
    (M, K) arrays (K-leading 1-D ones as they are), and the panels per block
    that keep a block's (member, node, panel) slabs within ``_BLOCK_ELEMS``."""
    out = []
    for fam in families:
        # members one node touches, which sizes the blocks
        width = max((p.shape[-1] for p in fam.params if p.ndim == 2), default=1)
        out.append((fam.integrand, tuple(np.ascontiguousarray(p.T) for p in fam.params),
                    max(1, _BLOCK_ELEMS // (len(_K15_NODES) * width))))
    return out


def _evaluate(families, first, owner, lo, hi):
    """Kronrod value and |K15 - G7| error estimate of each panel (owners
    ascending); ``families`` come from ``_member_major`` and ``first`` holds
    each one's first integral id."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    value, error = np.empty(len(owner)), np.empty(len(owner))
    cuts = np.searchsorted(owner, first)
    for f in np.flatnonzero(cuts[1:] > cuts[:-1]):  # families with live panels
        integrand, params, step = families[f]
        start, end, base = cuts[f], cuts[f + 1], first[f]
        for s in range(start, end, step):
            blk = slice(s, min(s + step, end))
            rows = owner[blk] - base
            # np.take keeps the gathered (M, P) rows C-ordered, so every sum
            # over members runs slab by slab, in member order
            fx = integrand(mid[blk] + half[blk] * _K15_NODES[:, None],
                           *(np.take(p, rows, axis=-1) for p in params))
            fx = np.ascontiguousarray(fx.T)  # (P, 15): the rule sums run along rows
            k15 = half[blk] * (fx * _K15_WEIGHTS).sum(axis=1)
            g7 = half[blk] * (fx[:, 1:14:2] * _G7_WEIGHTS).sum(axis=1)
            value[blk] = k15
            # |K15 - G7| grossly overestimates the Kronrod error on smooth
            # panels, which only costs a few extra bisections; never sharpen it.
            error[blk] = np.abs(k15 - g7)
    return value, error


def _integrate(families: list[_Family]) -> _Integrals:
    """Integrate every integral of ``families`` (ids in family order) to the
    module tolerance, bisecting each one's worst panels until it
    converges or runs out of subdivisions.

    Integrals run in consecutive groups of ``_BLOCK_ELEMS // _INITIAL_PANELS``,
    which bounds the panel state as the blocks bound the integrand's
    temporaries.  Each integral's panels stay contiguous, in the order one
    integral run alone would keep them (kept panels, then left halves, then
    right halves), and every sum over them is a per-integral segment sum, so
    each result is bitwise the same as in a K=1 call.
    """
    first = np.cumsum([0] + [len(f.lo) for f in families])
    n = int(first[-1])
    out = _Integrals(np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan),
                     np.zeros(n, dtype=np.int64))
    layout = _member_major(families)
    group = max(1, _BLOCK_ELEMS // _INITIAL_PANELS)
    for start in range(0, n, group):
        _refine(families, layout, first, start, min(start + group, n), out)
    return out


def _refine(families, layout, first, start: int, stop: int, out: _Integrals) -> None:
    """Run integrals ``start`` to ``stop - 1`` to the end, into ``out``."""
    seeds = []
    for fam, base in zip(families, first):
        r0, r1 = max(start - base, 0), min(stop - base, len(fam.lo))
        if r0 < r1:
            o, a, b = _seed_panels(fam.lo[r0:r1], fam.hi[r0:r1],
                                   None if fam.knots is None else fam.knots[r0:r1])
            seeds.append((o + base + r0, a, b))
    owner, lo, hi = (np.concatenate(x) for x in zip(*seeds))
    val, err = _evaluate(layout, first, owner, lo, hi)
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    ids, counts = owner[starts], np.diff(starts, append=owner.size)
    while True:
        total = np.add.reduceat(val, starts)
        total_err = np.add.reduceat(err, starts)
        need = np.maximum(_ABS_TOL, _REL_TOL * np.abs(total))
        # A NaN error is not above tolerance: it stops here, and fails.
        stop_now = ~(total_err > need) | (out.splits[ids] >= _MAX_SUBDIVISIONS)
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
        counts = counts + n_split  # each split panel becomes two
        starts = np.cumsum(counts) - counts
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
        val[fresh], err[fresh] = _evaluate(layout, first, owner[fresh], a, b)


def adaptive_quadrature(f: Callable, lo: float, hi: float,
                        knots: tuple[float, ...] = ()) -> QuadResult:
    """Integrate a vectorized integrand over [lo, hi] to the module
    tolerance, bisecting the worst panels until convergence.

    ``knots`` forces initial panel boundaries (use it for kinked
    integrands such as the raw CRPS pointwise form).
    """
    family = _Family(lambda t: f(t.ravel()).reshape(t.shape), (),
                     np.array([lo], dtype=float), np.array([hi], dtype=float),
                     knots=np.array(knots, dtype=float).reshape(1, -1))
    res = _integrate([family])
    res.raise_failure()
    return QuadResult(float(res.value[0]), float(res.error[0]))


# -- integrands over stacked mixtures ---------------------------------------------
#
# t is (N, P) nodes, one column per panel; mu, var (and q_mu, q_var) are (M, P)
# member parameters of the mixture each panel integrates, one C-ordered row per
# member; every integrand returns (N, P).  Member terms are laid out as
# C-ordered (M, N, P) slabs, so each elementwise step runs over whole rows of
# P panels and each sum over members adds slab after slab, in member order.

def _pdf(t, mu, var):
    inv_sig = (1.0 / np.sqrt(var))[:, None, :]
    z = t - mu[:, None, :]
    z *= inv_sig
    # in place, so one slab per block: glibc hands a second temporary slab
    # back to the OS and faults it in again on every block
    np.square(z, out=z)
    z *= -0.5
    with np.errstate(under="ignore"):
        np.exp(z, out=z)
    z *= _INV_SQRT_2PI * inv_sig
    return z.mean(axis=0)


def _cdf(t, mu, var):
    z = t - mu[:, None, :]
    z *= (1.0 / np.sqrt(var))[:, None, :]
    return _ndtr(z).mean(axis=0)


def _log_pdf(t, mu, var):
    """Exact log-density; immune to the underflow that makes log(density)
    bottom out far from the mixture."""
    x = t - mu[:, None, :]
    np.square(x, out=x)
    x /= var[:, None, :]
    x *= -0.5
    x += (-0.5 * (_LOG_2PI + np.log(var)))[:, None, :]
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
    return (t - center) ** 2 * _pdf(t, mu, var)


_SCORE_INTEGRAND = {
    ScoringRule.CRPS: _crps_integrand,
    ScoringRule.LOG: _log_integrand,
    ScoringRule.QUADRATIC: _quad_integrand,
}


def _window(*members) -> tuple:
    """Integration window over the (means, variances) of one or more
    mixtures, along the last axis."""
    lo = np.min([np.min(mu - _TAIL_WIDTH * np.sqrt(var), axis=-1) for mu, var in members], axis=0)
    hi = np.max([np.max(mu + _TAIL_WIDTH * np.sqrt(var), axis=-1) for mu, var in members], axis=0)
    return lo, hi


class _Stacked(NamedTuple):
    """Distributions stacked by member count: distribution d is row
    ``pos[d]`` of ``members[size[d]]``, a (means, variances) pair of
    (n, size) arrays, and integrates over [``lo[d]``, ``hi[d]``]."""

    size: np.ndarray
    pos: np.ndarray
    members: dict
    lo: np.ndarray
    hi: np.ndarray


def _stack(dists) -> _Stacked:
    """Stack ``dists`` ((means, variances) each) by member count, with
    their windows."""
    size = np.array([len(mu) for mu, _ in dists], dtype=np.int64)
    pos = np.empty(len(dists), dtype=np.int64)
    lo, hi = np.empty(len(dists)), np.empty(len(dists))
    members = {}
    for m in distinct_sizes(size):
        ids = np.flatnonzero(size == m)
        pos[ids] = np.arange(len(ids))
        members[m] = tuple(np.array([dists[d][i] for d in ids]) for i in (0, 1))
        lo[ids], hi[ids] = _window(members[m])
    return _Stacked(size, pos, members, lo, hi)


def _integrate_jobs(jobs, dists: _Stacked) -> _Integrals:
    """Integrate jobs (integrand, refs, extra, lo, hi) in one engine call.

    A job is K integrals whose parameters are the members of the
    distributions ``refs`` (K, r) (ids into ``dists``), followed by
    ``extra`` (K,) when it is given; its rows are stacked into one family
    per combination of member counts.  Returns the results of every job's
    rows, job after job.
    """
    families, where, start = [], [], 0
    for f, refs, extra, lo, hi in jobs:
        if len(refs):
            size_of = dists.size[refs]
            order = np.lexsort(size_of.T[::-1])  # by member counts, rows ascending
            combo = size_of[order]
            cuts = np.flatnonzero((combo[1:] != combo[:-1]).any(axis=1)) + 1
            for rows in np.split(order, cuts):
                params = [stack[dists.pos[refs[rows, col]]]
                          for col, m in enumerate(size_of[rows[0]]) for stack in dists.members[m]]
                if extra is not None:
                    params.append(extra[rows])
                families.append(_Family(f, tuple(params), lo[rows], hi[rows]))
                where.append(start + rows)
        start += len(refs)
    res = _integrate(families)
    where = np.concatenate(where)
    out = _Integrals(*(np.empty_like(x) for x in res))
    for dst, src in zip(out, res):
        dst[where] = src
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


def _oracle_tables(rules, dists, pairs) -> dict:
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
    pair = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    p_of, q_of = pair.T
    stacked = _stack(dists)
    lo, hi = stacked.lo, stacked.hi
    pair_lo, pair_hi = np.minimum(lo[p_of], lo[q_of]), np.maximum(hi[p_of], hi[q_of])
    own = np.arange(len(dists))[:, None]
    scored = [r for r in rules if r in _SCORE_INTEGRAND]
    jobs = ([(_SCORE_INTEGRAND[r], own, None, lo, hi) for r in scored]
            + [(_SCORE_INTEGRAND[r], pair, None, pair_lo, pair_hi) for r in scored])
    if ScoringRule.SE in rules:
        jobs.append((_mean_integrand, own, None, lo, hi))
    flat = _integrate_jobs(jobs, stacked)
    if ScoringRule.SE in rules:
        means = flat.value[-len(dists):]
        centred = [(_centred_integrand, own, means, lo, hi),
                   (_centred_integrand, q_of[:, None], means[p_of], pair_lo, pair_hi)]
        flat = _Integrals(*(np.concatenate(x) for x in
                            zip(flat, _integrate_jobs(centred, stacked))))
        jobs += centred
    first = np.cumsum([0] + [len(job[1]) for job in jobs])
    ids = [np.arange(a, b) for a, b in zip(first[:-1], first[1:])]
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


def oracle_entropy(rule: ScoringRule, p: GaussianEnsemble) -> float:
    """H(P) recomputed from the defining integral.

    CRPS uses H(P) = integral F (1 - F) dt, which equals (1/2) E|X - X'|;
    LOG is the Shannon entropy -integral p log p (this is the value the
    estimator registry requests for its quadrature-required cells); QUAD is
    -integral p^2; SE integrates the centered second moment.
    """
    table = _oracle_tables([rule], [(p.means, p.variances)], [])[rule]
    return table.result(table.entropy, 0).value


def _batch_log_mixture_entropy(means: np.ndarray, variances: np.ndarray,
                               row_name: Callable[[int], str]) -> np.ndarray:
    """LOG H(P) of each row's mixture of (n, M) members: ``oracle_entropy``
    run on all rows in one engine call.  The first row that misses the
    tolerance raises ConvergenceError with its ``row``, labelled
    ``"{row_name(row)}: LOG mixture entropy: quadrature error ..."``."""
    lo, hi = _window((means, variances))
    res = _integrate([_Family(_log_integrand, (means, variances), lo, hi)])
    try:
        res.raise_failure()
    except ConvergenceError as exc:
        raise ConvergenceError(exc.best, exc.error,
                               f"{row_name(exc.row)}: LOG mixture entropy: {exc}",
                               exc.row) from exc
    return res.value


def oracle_expected_score(rule: ScoringRule, pred: GaussianEnsemble,
                          label: GaussianEnsemble) -> QuadResult:
    """S(pred, label) by numerical integration of the defining expectation.

    The CRPS route goes through d(P, Q) = integral (F_P - F_Q)^2 dt plus the
    label entropy, avoiding the kinked pointwise integrand entirely.
    """
    table = _oracle_tables([rule], [(pred.means, pred.variances), (label.means, label.variances)],
                           [(0, 1)])[rule]
    return table.result(table.score, 0)


def oracle_divergence(rule: ScoringRule, pred: GaussianEnsemble,
                      label: GaussianEnsemble) -> float:
    """d(pred, label) = S(pred, label) - H(label), both sides by quadrature."""
    table = _oracle_tables([rule], [(pred.means, pred.variances), (label.means, label.variances)],
                           [(0, 1)])[rule]
    return table.result(table.divergence, 0).value


def _sample_mixture(dist: GaussianEnsemble, n: int, rng: np.random.Generator) -> np.ndarray:
    means, variances = dist.means, dist.variances
    idx = rng.integers(0, len(means), size=n)
    return means[idx] + np.sqrt(variances[idx]) * rng.standard_normal(n)


def mc_expected_score(rule: ScoringRule, pred: GaussianEnsemble, label: GaussianEnsemble,
                      samples: int = 100_000, seed: int = 0) -> McResult:
    """Monte-Carlo estimate of S(pred, label) from ``samples`` >= 1000 draws,
    deterministic given the unsigned 64-bit ``seed``.

    Only the label is sampled; the realized score of the (possibly mixture)
    prediction is evaluated in closed form, so no sampling noise enters on
    the prediction side.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    ys = _sample_mixture(label, samples, np.random.default_rng(seed))
    scores = realized_scores(rule, pred.means, pred.variances, ys)
    value = float(np.mean(scores))
    stderr = float(np.std(scores, ddof=1) / math.sqrt(samples))
    return McResult(value, stderr)


def crps_point_quadrature(pred: GaussianEnsemble, y: float) -> float:
    """CRPS(pred, y) from the raw integral, with a knot at the kink."""
    mu, var = pred.means, pred.variances
    lo, hi = _window((mu, var), (np.array([y]), np.ones(1)))

    def integrand(t):
        return (_cdf(t[None, :], mu[:, None], var[:, None])[0] - (y <= t)) ** 2

    return adaptive_quadrature(integrand, lo, hi, knots=(y,)).value


# -- oracle-check: closed forms against quadrature ------------------------------

class _CellCheck(NamedTuple):
    rule: ScoringRule
    estimator: EstimatorId
    max_abs_dev: float
    max_rel_dev: float
    convergence_failures: int
    nonfinite_closed: int


def _cells(h, div, comps, ens, mm, av) -> np.ndarray:
    """One rule's 16 estimator cells, in ``default_estimators()`` order, from
    the entropies ``h[d]`` and the divergences ``div(pred, label)`` of the
    member, mixture and surrogate distributions."""
    bayes = np.array([np.mean(h[comps]), h[ens], h[mm], h[av]])  # 1, 2, 3a, 3b
    exc = np.array([np.mean([div(a, b) for a in comps for b in comps]),
                    *(np.mean([div(p, c) for c in comps]) for p in (ens, mm, av)),
                    div(mm, ens), div(av, ens)])  # the pairs of SUPPORTED_PAIRS
    return np.concatenate([bayes[[0, 1, 2, 3, 2, 3]] + exc, bayes, exc])


def _quadrature_cells(ensembles) -> np.ndarray:
    """(trials, 64) cells assembled from quadrature, in the order of
    ``measure_columns(ScoringRule)``.  A rule whose integrals for a trial did
    not all converge is NaN in every cell of that trial.

    The distinct distributions of all ensembles (members, mixtures and
    surrogates) and the ordered pairs of distinct ones that the cells use go
    through ``_oracle_tables`` together, so every integral is run once.
    """
    index: dict = {}   # (means, variances) bytes -> distribution id
    dists = []         # id -> (means, variances)
    trials = []        # per ensemble: (member ids, mixture id, mm id, av id)
    for ens in ensembles:
        parts = [(ens.means[i:i + 1], ens.variances[i:i + 1]) for i in range(ens.size)]
        parts += [(d.means, d.variances)
                  for d in (ens, moment_surrogate(ens), averaged_surrogate(ens))]
        ids = []
        for mu, var in parts:
            ids.append(index.setdefault((mu.tobytes(), var.tobytes()), len(index)))
            if len(dists) < len(index):
                dists.append((mu, var))
        trials.append((ids[:-3], *ids[-3:]))

    def trial_pairs(comps, ens, mm, av):
        return ([(a, b) for a in comps for b in comps]
                + [(p, c) for p in (ens, mm, av) for c in comps] + [(mm, ens), (av, ens)])

    pairs = list(dict.fromkeys(pq for t in trials for pq in trial_pairs(*t) if pq[0] != pq[1]))
    pair_id = {pq: k for k, pq in enumerate(pairs)}
    # per rule: each entropy and divergence, NaN where its integrals failed
    tables = [(np.where(t.failed(t.entropy), np.nan, t.entropy.value),
               np.where(t.failed(t.divergence), np.nan, t.divergence.value))
              for t in _oracle_tables(ScoringRule, dists, pairs).values()]
    out = np.array([np.concatenate([
        _cells(h, lambda p, q, div=div: 0.0 if p == q else div[pair_id[p, q]], *trial)
        for h, div in tables]) for trial in trials])
    # a failed value makes NaN only the cells built from it; charge its whole rule
    by_rule = out.reshape(len(trials), len(tables), -1)
    by_rule[np.isnan(by_rule).any(axis=2)] = np.nan
    return out


def _closed_cells(ensembles, quads, columns) -> np.ndarray:
    """(trials, columns) values of the ``MeasureColumn``s from one
    ``EnsembleBatch`` per ensemble size.  The cells that need H(P_ens) come
    from each mixture's ``oracle_entropy`` plus closed forms, as
    ``--oracle-fallback`` fills them; they are NaN for a trial whose LOG
    cells in ``quads``, the (trials, columns) quadrature cells, are NaN."""
    log_failed = np.isnan(quads[:, [col.rule is ScoringRule.LOG for col in columns]]).any(axis=1)
    sizes = np.array([ens.size for ens in ensembles])
    out = np.empty((len(ensembles), len(columns)))
    for size in distinct_sizes(sizes):
        rows = np.flatnonzero(sizes == size)
        h_ens = np.array([np.nan if log_failed[r]
                          else oracle_entropy(ScoringRule.LOG, ensembles[r])
                          for r in rows])
        batch = EnsembleBatch(np.array([ensembles[r].means for r in rows]),
                              np.array([ensembles[r].variances for r in rows]), h_ens)
        out[rows] = batch.columns(columns)
    return out


# Trials drawn and integrated together by ``run_oracle_check``: bounds its
# memory, which would otherwise grow with the trial count.
_CHECK_TRIALS = 40
_CHECK_REL_TOL, _CHECK_ABS_FLOOR = 1e-6, 1e-9


def run_oracle_check(trials: int, seed: int):
    """Compare every estimator cell to quadrature: ``_verdict`` on the cells
    of ``_check_cells``, at relative tolerance 1e-6 with an absolute floor
    of 1e-9.  Returns (rows, passed, worst_rel)."""
    return _verdict(*_check_cells(trials, seed), _CHECK_REL_TOL, _CHECK_ABS_FLOOR)


def _check_cells(trials: int, seed: int):
    """(columns, closed, quad): the 64 columns of
    ``measure_columns(ScoringRule)`` and the (trials, 64) closed and
    quadrature cells of ``trials`` random ensembles.

    Closed cells come from ``EnsembleBatch``; the seven that need H(P_ens)
    from one mixture-entropy integral plus closed forms, as
    ``--oracle-fallback`` fills them.  Trials are
    drawn and integrated ``_CHECK_TRIALS`` at a time, with one
    ``EnsembleBatch`` per ensemble size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    columns = measure_columns(ScoringRule)
    closed, quad = [], []
    for start in range(0, trials, _CHECK_TRIALS):
        ensembles = []
        for _ in range(min(_CHECK_TRIALS, trials - start)):
            m = int(rng.integers(1, 6))
            ensembles.append(GaussianEnsemble(rng.uniform(-5.0, 5.0, size=m),
                                              rng.uniform(0.05, 9.0, size=m)))
        quad.append(_quadrature_cells(ensembles))
        closed.append(_closed_cells(ensembles, quad[-1], columns))
    return columns, np.concatenate(closed), np.concatenate(quad)


def _verdict(columns, closed, quad, rel_tol: float, abs_floor: float):
    """(rows, passed, worst_rel) of the (trials, columns) ``closed`` cells
    against ``quad``: one ``_CellCheck`` per column with its worst deviation
    over the trials.

    A cell passes when |closed - quad| <= max(rel_tol * |closed|,
    abs_floor).  A NaN quadrature cell (its rule's integrals did not
    converge for that trial) is a convergence failure; a closed cell that is
    not finite where the quadrature converged fails and is counted in
    ``nonfinite_closed``.  The maxima skip both, and ``worst_rel`` is inf
    when any closed cell is not finite.
    """
    failed = np.isnan(quad)
    nonfinite = ~(failed | np.isfinite(closed))
    compared = ~(failed | nonfinite)
    dev = np.abs(np.subtract(closed, quad, out=np.zeros_like(quad), where=compared))
    rel = np.divide(dev, np.maximum(np.abs(closed), abs_floor / rel_tol),
                    out=np.zeros_like(dev), where=compared)
    tol = np.maximum(rel_tol * np.abs(closed), abs_floor)
    passed = bool(compared.all() and np.all(dev <= tol))
    max_rel = rel.max(axis=0)
    checks = [_CellCheck(col.rule, col.estimator, *cell) for col, *cell in zip(
        columns, dev.max(axis=0).tolist(), max_rel.tolist(),
        failed.sum(axis=0).tolist(), nonfinite.sum(axis=0).tolist())]
    return checks, passed, math.inf if nonfinite.any() else float(max_rel.max())
