"""The four scoring rules, their realized scores, and the pairwise kernels.

The scoring rules are

    CRPS(P, y)  = integral (F_P(t) - 1{y <= t})^2 dt
    LOG(P, y)   = -log p(y)
    QUAD(P, y)  = -2 p(y) + integral p(t)^2 dt
    SE(P, y)    = (y - E_P[Y])^2

SE is proper but not strictly proper (any distribution with the same mean
scores identically); that property is documented, not enforced.

The realized score S(P, y) is closed-form for uniform Gaussian mixtures
under all four rules, and ``realized_scores`` is the one place it is
evaluated: batched over ensembles and outcomes, it gives the held-out NLL of
the trainer, the squared error behind selective prediction and the
Monte-Carlo oracle's samples.  Entropies, expected scores and divergences
are assembled from the pairwise kernels here by the batched closed-form
layer in ``estimators``.

The pairwise kernels return means over all M^2 ordered member pairs, but
evaluate each unordered pair i < j once, on the (pair, row) layout
``MemberPairs``, with the diagonal in closed form.  The layout is one block
of pair storage, allocated once per batch, and the kernels write every
(pair, row) temporary into its scratch rows in place.  Their sums over
pairs run in a fixed order, so a row gets the same bits alone or in a
batch.
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
    n == 1, where a running sum keeps the order instead, so one row gets the
    bits it gets inside a larger batch.
    """
    if len(x) == 0:
        return np.zeros(x.shape[1])
    if x.shape[1] == 1:
        return np.cumsum(x[:, 0])[-1:]
    return x.sum(axis=0)


class MemberPairs:
    """The unordered member pairs i < j of n ensembles of M members, in
    (pair, row) layout: K = M(M-1)/2 pairs on the leading axis.

    All the pair storage of a batch is one C-ordered (4, K, n) block,
    allocated here.  Its first row is ``dm``, mu_i - mu_j, read-only; the
    other three are ``scratch``, where each pair kernel writes its (K, n)
    temporaries in place (var_i + var_j too, gathered by ``var_sum``), so
    evaluating a batch's cells allocates no further pair-sized array.  The
    kernels run one at a time and reduce their terms before they return,
    so they share the scratch rows.  ``var`` is the (M, n) member variances
    for the diagonal terms, and ``i``/``j`` the (K,) member indices of the
    pairs.  ``dm``, ``var``, ``i`` and ``j`` are read-only.  Input shape
    (..., M); the reductions return the leading shape (...).
    """

    def __init__(self, means: np.ndarray, variances: np.ndarray):
        means = np.asarray(means, dtype=float)
        self.shape = means.shape[:-1]
        self.size = m = means.shape[-1]
        mt = np.ascontiguousarray(means.reshape(-1, m).T)
        self.var = np.ascontiguousarray(np.asarray(variances, dtype=float).reshape(-1, m).T)
        self.i, self.j = np.triu_indices(m, 1)
        block = np.empty((4, len(self.i), mt.shape[1]))
        self.dm, self.scratch = block[0], block[1:]
        # the indices come from triu_indices, so "clip" never clips; it lets
        # np.take write into ``out`` directly instead of through a buffer
        np.take(mt, self.i, axis=0, out=self.dm, mode="clip")
        self.dm -= np.take(mt, self.j, axis=0, out=self.scratch[0], mode="clip")
        for a in (self.var, self.dm, self.i, self.j):
            a.flags.writeable = False

    def take_var(self, index: np.ndarray, out: np.ndarray) -> np.ndarray:
        """var_index of each pair, for ``index`` either ``i`` or ``j``,
        gathered into the (K, n) ``out``."""
        return np.take(self.var, index, axis=0, out=out, mode="clip")

    def var_sum(self, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """var_i + var_j into ``out``, gathering var_j into ``tmp``."""
        self.take_var(self.i, out)
        out += self.take_var(self.j, tmp)
        return out

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
    same parameters, if the caller has built it; its scratch rows are
    overwritten.  The parameters must already be finite with variances > 0:
    ``abs_moment``'s checks are skipped.
    """
    pairs = MemberPairs(means, variances) if pairs is None else pairs
    sigma, terms, _ = pairs.scratch
    np.sqrt(pairs.var_sum(sigma, terms), out=sigma)
    abs_moment(pairs.dm, sigma, check=False, out=terms)
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
    sv, terms, _ = pairs.scratch
    pairs.var_sum(sv, terms)
    # gaussian_overlap's arithmetic, in place in the scratch rows
    np.multiply(pairs.dm, -0.5, out=terms)
    terms *= pairs.dm
    terms /= sv
    with np.errstate(under="ignore"):
        np.exp(terms, out=terms)
    scale = np.sqrt(sv, out=sv)
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


# -- realized scores ----------------------------------------------------------

def realized_scores(rule: ScoringRule, means, variances, ys) -> np.ndarray:
    """S(P, y): the score each ensemble gets for its outcome.

    ``means`` and ``variances`` are (..., M) member arrays and ``ys``
    broadcasts over their leading shape (...): one (M,) ensemble scores an
    array of outcomes, and (n, M) rows each score their own outcome of an
    (n,) array.  Every rule has a closed form for a uniform Gaussian
    mixture, and each row is reduced on its own, so a row gets the same bits
    alone or in a batch.  The outcomes must be finite; the members must
    already be finite with variances > 0, which is not re-checked.
    """
    ys = np.asarray(ys, dtype=float)
    if not np.all(np.isfinite(ys)):
        raise ValueError("outcomes must be finite")
    y = ys[..., None]

    if rule is ScoringRule.CRPS:
        # CRPS(P_ens, y) = mean_i E|X_i - y| - (1/2) mean_ij E|X_i - X_j'|
        spread = 0.5 * pairwise_abs_moment(means, variances)
        return np.mean(abs_moment(means - y, np.sqrt(variances)), axis=-1) - spread

    if rule is ScoringRule.LOG:
        z2 = (y - means) ** 2 / variances
        return -log_mean_exp(-0.5 * (_LOG_2PI + np.log(variances) + z2))

    if rule is ScoringRule.QUADRATIC:
        dens = np.mean(gaussian_overlap(y, 0.0, means, variances), axis=-1)
        return -2.0 * dens + pairwise_overlap(means, variances)

    if rule is ScoringRule.SE:
        # np.square, not ** 2: a NumPy scalar's ** 2 is pow(), which can
        # round differently from the product an array's ** 2 computes
        return np.square(ys - np.mean(means, axis=-1))

    raise ValueError(f"unknown rule {rule!r}")


def point_score(rule: ScoringRule, pred: GaussianEnsemble, y: float) -> float:
    """S(pred, y) for one outcome."""
    return float(realized_scores(rule, pred.means, pred.variances, y))
