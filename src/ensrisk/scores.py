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
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Union

import numpy as np

from .gaussians import GaussianComponent, GaussianEnsemble, abs_moment

_SQRT_PI = math.sqrt(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ScoringRule(Enum):
    CRPS = "crps"
    LOG = "log"
    QUADRATIC = "quadratic"
    SE = "se"


Distribution = Union[GaussianComponent, GaussianEnsemble]


def mixture_parameters(dist: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """Means and variances of ``dist`` as arrays (length 1 for non-mixtures)."""
    if isinstance(dist, GaussianEnsemble):
        return dist.means, dist.variances
    if isinstance(dist, GaussianComponent):
        return np.array([dist.mean]), np.array([dist.variance])
    raise TypeError(f"not a distribution: {dist!r}")


# -- shared pairwise kernels -------------------------------------------------

def pairwise_abs_moment(means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """A(mu_i - mu_j, sqrt(var_i + var_j)) over the trailing axis.

    Input shape (..., M); output (..., M, M).  The parameters must already be
    finite with variances > 0: ``abs_moment``'s checks are skipped.
    """
    dm = means[..., :, None] - means[..., None, :]
    sv = np.sqrt(variances[..., :, None] + variances[..., None, :])
    return abs_moment(dm, sv, check=False)


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


def pairwise_overlap(means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """N(mu_i | mu_j, var_i + var_j) over the trailing axis; (..., M, M)."""
    return gaussian_overlap(
        means[..., :, None], variances[..., :, None],
        means[..., None, :], variances[..., None, :],
    )


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


def _sq_density_norm(means: np.ndarray, variances: np.ndarray) -> float:
    """integral p(t)^2 dt for the uniform mixture with these parameters."""
    m = len(means)
    if m == 1:
        return float(1.0 / (2.0 * _SQRT_PI * math.sqrt(variances[0])))
    return float(np.mean(pairwise_overlap(means, variances)))


# -- point scores ------------------------------------------------------------

def point_scores(rule: ScoringRule, pred: Distribution, ys) -> np.ndarray:
    """Vectorized S(pred, y) over an array of outcomes.

    Mixture predictions are fully supported: all four rules have closed
    pointwise forms for uniform Gaussian mixtures.
    """
    ys = np.asarray(ys, dtype=float)
    if not np.all(np.isfinite(ys)):
        raise ValueError("outcomes must be finite")
    means, variances = mixture_parameters(pred)

    if rule is ScoringRule.CRPS:
        if len(means) == 1:
            # CRPS(N(mu, sigma^2), y) = E|X - y| - (1/2) E|X - X'|
            sigma = math.sqrt(float(variances[0]))
            return abs_moment(ys - means[0], sigma, check=False) - sigma / _SQRT_PI
        # CRPS(P_ens, y) = mean_i E|X_i - y| - (1/2) mean_ij E|X_i - X_j'|
        spread = 0.5 * float(np.mean(pairwise_abs_moment(means, variances)))
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
        norm = _sq_density_norm(means, variances)
        dens = np.mean(
            gaussian_overlap(ys[..., None], 0.0, means[None, :], variances[None, :]),
            axis=-1,
        )
        return -2.0 * dens + norm

    if rule is ScoringRule.SE:
        mu_star = float(np.mean(means))
        return (ys - mu_star) ** 2

    raise ValueError(f"unknown rule {rule!r}")


def point_score(rule: ScoringRule, pred: Distribution, y: float) -> float:
    """S(pred, y) for one outcome."""
    return float(np.atleast_1d(point_scores(rule, pred, np.array([float(y)])))[0])
