"""Gaussian building blocks shared by every scoring rule.

An ensemble member is a single Gaussian N(mu_i, sigma_i^2); an ensemble is
the uniform mixture of its M members.  Two single-Gaussian stand-ins for the
mixture are provided, both returned as plain components: the moment-matched
surrogate (exact mixture mean and variance) and the averaged-variance
surrogate (mixture mean, mean member variance).  All closed forms downstream
are assembled from the scalar special functions defined here, in particular

    A(mu, sigma) = 2 sigma phi(mu/sigma) + mu (2 Phi(mu/sigma) - 1),

which equals E|X| for X ~ N(mu, sigma^2) and is the kernel of every CRPS
expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

# Below this, sigma is treated as an exact point mass so mu/sigma never
# produces 0/0; the analytic limit of A is |mu|.
DEGENERATE_SIGMA = 1e-300


def _as_finite_array(name: str, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def std_normal_pdf(z):
    """Standard normal density phi(z) = exp(-z^2/2) / sqrt(2 pi).

    Accepts scalars or arrays; rejects non-finite input.
    """
    arr = _as_finite_array("z", z)
    with np.errstate(over="ignore", under="ignore"):
        out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return _scalar_or_array(out)


def std_normal_cdf(z):
    """Standard normal CDF Phi(z), computed as erfc(-z/sqrt(2)) / 2.

    The complementary error function keeps full relative accuracy in the
    lower tail, so Phi(-z) = 1 - Phi(z) holds to better than 1e-15 over the
    usable range.
    """
    from scipy.special import erfc

    arr = _as_finite_array("z", z)
    out = 0.5 * erfc(-arr / _SQRT_2)
    return _scalar_or_array(out)


def abs_moment(mu, sigma):
    """E|X| for X ~ N(mu, sigma^2), i.e. A(mu, sigma).

    sigma must be nonnegative; values at or below ``DEGENERATE_SIGMA`` are
    treated as a point mass at mu, returning |mu| exactly.
    """
    from scipy.special import erfc

    mu_arr = _as_finite_array("mu", mu)
    sig_arr = _as_finite_array("sigma", sigma)
    if np.any(sig_arr < 0.0):
        raise ValueError("sigma must be nonnegative")
    mu_b, sig_b = np.broadcast_arrays(mu_arr, sig_arr)
    degenerate = sig_b <= DEGENERATE_SIGMA
    safe_sig = np.where(degenerate, 1.0, sig_b)
    with np.errstate(over="ignore", under="ignore"):
        z = mu_b / safe_sig
        a = 2.0 * safe_sig * (_INV_SQRT_2PI * np.exp(-0.5 * z * z))
        a += mu_b * (2.0 * (0.5 * erfc(-z / _SQRT_2)) - 1.0)
    out = np.where(degenerate, np.abs(mu_b), a)
    return _scalar_or_array(out)


@dataclass(frozen=True)
class GaussianComponent:
    """One ensemble member N(mean, variance), variance strictly positive."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("mean and variance must be finite")
        if self.variance <= 0.0:
            raise ValueError(f"variance must be > 0, got {self.variance}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class GaussianEnsemble:
    """Uniform mixture of M Gaussian members (the posterior predictive).

    Weights are fixed at 1/M; there is deliberately no weight field.
    """

    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValueError("ensemble needs at least one component")
        if not all(isinstance(c, GaussianComponent) for c in comps):
            raise TypeError("components must be GaussianComponent instances")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_arrays(cls, means, variances) -> "GaussianEnsemble":
        means = np.atleast_1d(np.asarray(means, dtype=float))
        variances = np.atleast_1d(np.asarray(variances, dtype=float))
        if means.shape != variances.shape or means.ndim != 1:
            raise ValueError("means and variances must be 1-d arrays of equal length")
        return cls(tuple(GaussianComponent(float(m), float(v))
                         for m, v in zip(means, variances)))

    @property
    def size(self) -> int:
        return len(self.components)

    @property
    def means(self) -> np.ndarray:
        return np.array([c.mean for c in self.components])

    @property
    def variances(self) -> np.ndarray:
        return np.array([c.variance for c in self.components])


def mixture_mean_variance(means: np.ndarray, variances: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the uniform mixture, via the shifted form.

    The variance is accumulated as mean(variances) + mean((mu - mu*)^2),
    which is algebraically the law-of-total-variance expression but never
    cancels catastrophically for large shared means.
    """
    mu_star = float(np.mean(means))
    var_star = float(np.mean(variances) + np.mean((means - mu_star) ** 2))
    return mu_star, var_star


def moment_surrogate(ens: GaussianEnsemble) -> GaussianComponent:
    """Moment-matched single-Gaussian stand-in for the ensemble mixture."""
    mu_star, var_star = mixture_mean_variance(ens.means, ens.variances)
    return GaussianComponent(mu_star, var_star)


def averaged_surrogate(ens: GaussianEnsemble) -> GaussianComponent:
    """Averaged-variance single-Gaussian stand-in for the ensemble mixture."""
    return GaussianComponent(float(np.mean(ens.means)), float(np.mean(ens.variances)))
