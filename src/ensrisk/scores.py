"""The four scoring rules, their pointwise scores, and the pairwise kernels.

The scoring rules are

    CRPS(P, y)  = integral (F_P(t) - 1{y <= t})^2 dt
    LOG(P, y)   = -log p(y)
    QUAD(P, y)  = -2 p(y) + integral p(t)^2 dt
    SE(P, y)    = (y - E_P[Y])^2

SE is proper but not strictly proper (any distribution with the same mean
scores identically); that property is documented, not enforced.

Point scores are closed-form for single Gaussians and uniform Gaussian
mixtures under all four rules.  Entropies, expected scores and divergences
are assembled from the pairwise kernels here by the batched closed-form
layer in ``estimators``.

The pairwise kernels return means over all M^2 ordered member pairs, but
evaluate each unordered pair i < j once, on the (pair, row) layout
``MemberPairs``, with the diagonal in closed form.  Their sums over pairs
run in a fixed order, so a row gets the same bits alone or in a batch.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .gaussians import GaussianEnsemble, abs_moment

_LOG_2PI = math.log(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ScoringRule(Enum):
    CRPS = "crps"
    LOG = "log"
    QUADRATIC = "quadratic"
    SE = "se"


# -- shared pairwise kernels -------------------------------------------------

def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum of the rows of a (K, n) array, added in index order whatever n.

    ``x.sum(axis=0)`` adds the rows in turn for n >= 2 but pairwise for
    n == 1, so one row would not get the bits it gets inside a larger batch.
    """
    out = np.zeros(x.shape[1]) if len(x) == 0 else x[0].copy()
    for row in x[1:]:
        out += row
    return out


class MemberPairs:
    """The unordered member pairs i < j of n ensembles of M members, in
    (pair, row) layout: K = M(M-1)/2 pairs on the leading axis.

    ``dm`` holds mu_i - mu_j, ``sv`` var_i + var_j, and ``var_i``/``var_j``
    the two variances, each a C-ordered (K, n) array; ``var`` is the
    (M, n) member variances for the diagonal terms.  They are built with row
    gathers on the transposed (M, n) member arrays and are read-only.  Input
    shape (..., M); the reductions return the leading shape (...).
    """

    def __init__(self, means: np.ndarray, variances: np.ndarray):
        means = np.asarray(means, dtype=float)
        self.shape = means.shape[:-1]
        self.size = m = means.shape[-1]
        mt = np.ascontiguousarray(means.reshape(-1, m).T)
        self.var = np.ascontiguousarray(np.asarray(variances, dtype=float).reshape(-1, m).T)
        i, j = np.triu_indices(m, 1)
        self.dm = mt[i] - mt[j]
        self.var_i, self.var_j = self.var[i], self.var[j]
        self.sv = self.var_i + self.var_j
        for a in (self.var, self.dm, self.var_i, self.var_j, self.sv):
            a.flags.writeable = False

    def pair_sum(self, terms: np.ndarray) -> np.ndarray:
        """sum_{i<j} of (K, n) pair ``terms``, in a fixed order."""
        return _row_sum(terms).reshape(self.shape)

    def ordered_mean(self, terms: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
        """mean_ij over all M^2 ordered pairs of a symmetric kernel, from its
        (K, n) values on the pairs i < j and its (M, n) diagonal."""
        total = 2.0 * _row_sum(terms) + _row_sum(diagonal)
        return (total / (self.size * self.size)).reshape(self.shape)


def pairwise_abs_moment(means: np.ndarray, variances: np.ndarray,
                        pairs: MemberPairs | None = None) -> np.ndarray:
    """mean_ij A(mu_i - mu_j, sqrt(var_i + var_j)) = E|X - X'| over the
    trailing axis, evaluated once per pair i < j.

    Input shape (..., M); output (...).  ``pairs`` is the layout of these
    same parameters, if the caller has built it.  The parameters must
    already be finite with variances > 0: ``abs_moment``'s checks are
    skipped.
    """
    pairs = MemberPairs(means, variances) if pairs is None else pairs
    terms = abs_moment(pairs.dm, np.sqrt(pairs.sv), check=False)
    # A(0, s) = 2 s phi(0), as abs_moment evaluates it
    diagonal = np.sqrt(2.0 * pairs.var) * (2.0 * _INV_SQRT_2PI)
    return pairs.ordered_mean(terms, diagonal)


def gaussian_overlap(mu_a, var_a, mu_b, var_b):
    """N(mu_a | mu_b, var_a + var_b): the integral of the two densities.

    Underflows silently to 0 for |mu_a - mu_b| >> sqrt(var_a + var_b); the
    true value there is below 1e-300, so 0 is the correctly rounded result.
    """
    sv = np.asarray(var_a, dtype=float) + np.asarray(var_b, dtype=float)
    dm = np.asarray(mu_a, dtype=float) - np.asarray(mu_b, dtype=float)
    with np.errstate(under="ignore"):
        out = _INV_SQRT_2PI / np.sqrt(sv) * np.exp(-0.5 * dm * dm / sv)
    return out if out.ndim else float(out)


def pairwise_overlap(means: np.ndarray, variances: np.ndarray,
                     pairs: MemberPairs | None = None) -> np.ndarray:
    """mean_ij N(mu_i | mu_j, var_i + var_j) = integral p^2 over the
    trailing axis, evaluated once per pair i < j; shapes and ``pairs`` as
    for ``pairwise_abs_moment``."""
    pairs = MemberPairs(means, variances) if pairs is None else pairs
    # gaussian_overlap's arithmetic, in place on the (K, n) layout
    terms = np.multiply(pairs.dm, -0.5)
    terms *= pairs.dm
    terms /= pairs.sv
    with np.errstate(under="ignore"):
        np.exp(terms, out=terms)
    scale = np.sqrt(pairs.sv)
    np.divide(_INV_SQRT_2PI, scale, out=scale)
    terms *= scale
    return pairs.ordered_mean(terms, _INV_SQRT_2PI / np.sqrt(2.0 * pairs.var))


def log_mean_exp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(mean(exp(x))) over ``axis``, shifted by the maximum so that it
    stays exact where every exp(x) underflows (the log-density of a uniform
    mixture from its members' log-densities)."""
    top = np.max(x, axis=axis, keepdims=True)
    top[np.isneginf(top)] = 0.0  # all terms are exp(-inf) = 0: the result is -inf
    shifted = x - top
    with np.errstate(under="ignore", divide="ignore"):
        np.exp(shifted, out=shifted)
        return np.log(np.mean(shifted, axis=axis)) + np.squeeze(top, axis)


# -- point scores ------------------------------------------------------------

def point_scores(rule: ScoringRule, pred: GaussianEnsemble, ys) -> np.ndarray:
    """Vectorized S(pred, y) over an array of outcomes.

    Mixture predictions are fully supported: all four rules have closed
    pointwise forms for uniform Gaussian mixtures.
    """
    ys = np.asarray(ys, dtype=float)
    if not np.all(np.isfinite(ys)):
        raise ValueError("outcomes must be finite")
    means, variances = pred.means, pred.variances

    if rule is ScoringRule.CRPS:
        # CRPS(P_ens, y) = mean_i E|X_i - y| - (1/2) mean_ij E|X_i - X_j'|
        spread = 0.5 * float(pairwise_abs_moment(means, variances))
        sigmas = np.sqrt(variances)
        closeness = np.mean(
            abs_moment(means[None, :] - ys[..., None], sigmas[None, :]), axis=-1
        )
        return closeness - spread

    if rule is ScoringRule.LOG:
        sigmas2 = variances
        z2 = (ys[..., None] - means[None, :]) ** 2 / sigmas2[None, :]
        logcomp = -0.5 * (_LOG_2PI + np.log(sigmas2)[None, :] + z2)
        return -log_mean_exp(logcomp)

    if rule is ScoringRule.QUADRATIC:
        norm = float(pairwise_overlap(means, variances))
        dens = np.mean(
            gaussian_overlap(ys[..., None], 0.0, means[None, :], variances[None, :]),
            axis=-1,
        )
        return -2.0 * dens + norm

    if rule is ScoringRule.SE:
        mu_star = float(np.mean(means))
        return (ys - mu_star) ** 2

    raise ValueError(f"unknown rule {rule!r}")


def point_score(rule: ScoringRule, pred: GaussianEnsemble, y: float) -> float:
    """S(pred, y) for one outcome."""
    return float(np.atleast_1d(point_scores(rule, pred, np.array([float(y)])))[0])
