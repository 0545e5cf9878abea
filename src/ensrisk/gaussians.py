"""Gaussian building blocks shared by every scoring rule.

An ensemble member is a single Gaussian N(mu_i, sigma_i^2); an ensemble is
the uniform mixture of its M members, held by ``GaussianEnsemble`` as two
read-only arrays of means and variances.  That is the one distribution
type: a single Gaussian is a one-member ensemble.  Two single-Gaussian
stand-ins for the mixture are provided, both returned as one-member
ensembles: the moment-matched surrogate (exact mixture mean and variance)
and the averaged-variance surrogate (mixture mean, mean member variance).
All closed forms downstream are assembled from the scalar special functions
defined here, in particular

    A(mu, sigma) = 2 sigma phi(mu/sigma) + mu (2 Phi(mu/sigma) - 1),

which equals E|X| for X ~ N(mu, sigma^2) and is the kernel of every CRPS
expression.  A and Phi (and through Phi the oracle's CDF) share one erf/erfc
core: a blocked NumPy port of the Cephes rational approximations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Below this, sigma is treated as an exact point mass and A is its analytic
# limit |mu|, whatever mu/sigma (0/0 or an overflow) gave.
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
    """Standard normal CDF Phi(z) = erfc(-z/sqrt(2)) / 2.

    erfc is the Cephes ndtr.c form (Moshier 1989, after Cody 1969), with
    exp(-z^2/2) taken from an exact split of z^2, so Phi keeps its relative
    accuracy (within 10 ulp) down the lower tail until it underflows, and
    Phi(-z) = 1 - Phi(z) holds to better than 1e-15 over the usable range.
    """
    return _scalar_or_array(_ndtr(_as_finite_array("z", z)))


def abs_moment(mu, sigma, *, check=True, out=None):
    """E|X| for X ~ N(mu, sigma^2), i.e. A(mu, sigma).

    Evaluated in the fused form A = 2 sigma phi(z) + |mu| erf(|z|/sqrt(2)),
    z = mu/sigma, where one exp(-z^2/2) serves both phi and the erfc branch
    of the Cephes core (ndtr.c; Moshier 1989, after Cody 1969).  sigma must
    be nonnegative; values at or below ``DEGENERATE_SIGMA`` are treated as a
    point mass at mu, returning |mu| exactly.  Callers whose parameters are
    already validated pass ``check=False`` to skip the finite and sign
    checks, two full passes over the inputs.  ``out``, a float array of the
    broadcast shape that overlaps neither input, receives the values and is
    returned.
    """
    if check:
        mu = _as_finite_array("mu", mu)
        sigma = _as_finite_array("sigma", sigma)
        if np.any(sigma < 0.0):
            raise ValueError("sigma must be nonnegative")
    return _scalar_or_array(_blocked(_abs_moment_block, mu, sigma, out=out))


# -- the erf core -------------------------------------------------------------
#
# Rational approximations of Cephes ndtr.c (S. L. Moshier, 1989, after
# W. J. Cody, Math. Comp. 23(107), 1969), coefficients highest power first:
#
#   erf(x)  = x T(x^2) / U(x^2)        on |x| < 1,
#   erfc(x) = exp(-x^2) P(x) / Q(x)    on 1 <= x < 8,
#   erfc(x) = exp(-x^2) R(x) / S(x)    on x >= 8,
#
# and erfc(x) = 0 once x^2 > MAXLOG.  U, Q and S are monic, their leading 1
# left out.  Inputs run through in blocks of ``_BLOCK`` elements, evaluated
# in place in preallocated scratch: T/U on the whole block, P/Q and R/S on
# the elements with |x| >= 1 (resp. >= 8) gathered out of it.  The gathers
# pass mode="clip": their indices come from ``np.flatnonzero`` and are
# always in range, and under the default mode="raise" ``np.take`` fills a
# buffer and copies it into ``out`` instead of writing there directly.

_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)

_SQRT_HALF = math.sqrt(0.5)
_TWO_INV_SQRT_2PI = 2.0 * _INV_SQRT_2PI
# Clears the low 27 of the 52 mantissa bits: the rest squares exactly.
_HIGH_BITS = np.int64(-(1 << 27))

# Elements per block: the six scratch rows take 0.8 MB, inside a 2 MB L2
# cache, and the fixed cost of the ~60 ufunc calls per block is spread over
# enough elements.  Of 4096-32768, 16384 was fastest on a 2-CPU Xeon with
# AVX-512.
_BLOCK = 16384
_SCRATCH_ROWS = 6


def _horner(x, coef, out=None, monic=False):
    """The polynomial with coefficients ``coef`` (highest power first, the
    leading 1 left out when ``monic``) at x, evaluated in place in ``out``."""
    out = np.empty_like(x) if out is None else out
    if monic:
        np.add(x, coef[0], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[2 - monic:]:
        out *= x
        out += c
    return out


def _erf_small(x, w, out, tmp):
    """x T(x^2) / U(x^2) into ``out``: erf(x) where |x| < 1."""
    np.multiply(x, x, out=w)
    _horner(w, _T, out)
    _horner(w, _U, tmp, monic=True)
    out *= x
    out /= tmp
    return out


def _erfc_tail(x, e, out, tmp):
    """erfc(x) for x >= 1 into ``out``, given e = exp(-x^2)."""
    _horner(x, _P, out)
    _horner(x, _Q, tmp, monic=True)
    out *= e
    out /= tmp
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        xf = x[far]
        out[far] = e[far] * _horner(xf, _R) / _horner(xf, _S, monic=True)
    np.multiply(x, x, out=tmp)
    np.copyto(out, 0.0, where=tmp > _MAXLOG)
    return out


def _exp_neg_square(v, s, out, hi, tmp):
    """exp(-s v^2) into ``out`` for s = 1 or 1/2, with v^2 split exactly as
    hi^2 + (v - hi)(v + hi), hi the top 26 bits of v.  Rounding v^2 instead
    would cost up to s v^2 ulp of the result."""
    np.bitwise_and(v.view(np.int64), _HIGH_BITS, out=hi.view(np.int64))
    np.subtract(v, hi, out=out)
    np.add(v, hi, out=tmp)
    out *= tmp
    out *= -s
    np.multiply(hi, hi, out=tmp)
    tmp *= -s
    np.exp(tmp, out=tmp)
    np.exp(out, out=out)
    out *= tmp
    return out


def _blocked(kernel, *operands, out=None) -> np.ndarray:
    """``kernel(scratch, *blocks, out)`` over the broadcast ``operands``, at
    most ``_BLOCK`` elements at a time; returns the (float) output array,
    ``out`` itself when given (it must not overlap an operand)."""
    it = np.nditer([*operands, out], flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"]] * len(operands) + [["writeonly", "allocate"]],
                   op_dtypes=[np.float64] * (len(operands) + 1), buffersize=_BLOCK)
    with it, np.errstate(all="ignore"):
        scratch = np.empty((_SCRATCH_ROWS, max(1, min(_BLOCK, it.itersize))))
        for *blocks, block_out in it:
            kernel(scratch[:, :block_out.shape[0]], *blocks, block_out)
        return it.operands[-1] if out is None else out


def _erfc_block(scratch, u, out, cdf):
    """erfc(u) into ``out``; with ``cdf``, Phi(u) = erfc(-u/sqrt 2) / 2."""
    a, x, w, r, e, hi = scratch
    np.abs(u, out=a)
    if cdf:
        np.multiply(a, _SQRT_HALF, out=x)
    else:
        x = a
    _erf_small(x, w, r, e)
    np.copysign(r, u, out=r)
    if cdf:
        np.add(1.0, r, out=out)
        out *= 0.5
    else:
        np.subtract(1.0, r, out=out)
    big = np.flatnonzero(x >= 1.0)
    if big.size:
        # the gathered elements reuse the rows the small range is done with
        n = big.size
        ub = np.take(u, big, out=w[:n], mode="clip")
        xb = np.abs(ub, out=r[:n])
        _exp_neg_square(xb, 0.5 if cdf else 1.0, e[:n], hi[:n], a[:n])
        if cdf:
            xb *= _SQRT_HALF
        tail = _erfc_tail(xb, e[:n], hi[:n], a[:n])
        tail = np.where(ub > 0.0 if cdf else ub < 0.0, 2.0 - tail, tail)
        if cdf:
            tail *= 0.5
        out[big] = tail


def _erfc(x) -> np.ndarray:
    """erfc(x) for finite x: the core on its own scale, where its accuracy
    is tested."""
    return _blocked(functools.partial(_erfc_block, cdf=False), x)


def _ndtr(z) -> np.ndarray:
    """Phi(z) for finite z, by the Cephes core."""
    return _blocked(functools.partial(_erfc_block, cdf=True), z)


def _abs_moment_block(scratch, mu, sigma, out):
    """A(mu, sigma) into ``out``."""
    z, a, x, w, r, e = scratch
    np.divide(mu, sigma, out=z)
    np.abs(z, out=a)
    np.multiply(a, _SQRT_HALF, out=x)
    _erf_small(x, w, r, e)
    # e = exp(-z^2/2), shared by phi(z) and the erfc branch
    np.multiply(a, a, out=e)
    e *= -0.5
    np.exp(e, out=e)
    big = np.flatnonzero(x >= 1.0)
    if big.size:
        # the gathered elements reuse the rows the small range is done with
        n = big.size
        tail = _erfc_tail(np.take(x, big, out=z[:n], mode="clip"),
                          np.take(e, big, out=a[:n], mode="clip"), w[:n], x[:n])
        np.subtract(1.0, tail, out=tail)
        r[big] = tail
    # A = |mu| erf(|z|/sqrt 2) + 2 sigma phi(z), never below its bound |mu|
    # (the rounded sum can fall an ulp short where erf rounds towards 1)
    np.abs(mu, out=w)
    np.multiply(w, r, out=out)
    e *= sigma
    e *= _TWO_INV_SQRT_2PI
    out += e
    np.maximum(out, w, out=out)
    degenerate = sigma <= DEGENERATE_SIGMA
    if degenerate.any():
        np.copyto(out, w, where=degenerate)


@dataclass(frozen=True, eq=False)
class GaussianEnsemble:
    """Uniform mixture of M Gaussian members N(means[i], variances[i]), the
    posterior predictive; M = 1 is a single Gaussian.

    ``means`` and ``variances`` are read-only 1-d float copies of the
    inputs, checked once here.  Weights are fixed at 1/M; there is
    deliberately no weight field.
    """

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        means = np.array(self.means, dtype=float)
        variances = np.array(self.variances, dtype=float)
        if means.ndim != 1 or means.shape != variances.shape or not means.size:
            raise ValueError("means and variances must be non-empty 1-d arrays of equal length")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
            raise ValueError("means and variances must be finite")
        if np.any(variances <= 0.0):
            raise ValueError("variances must be > 0")
        for name, arr in (("means", means), ("variances", variances)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return len(self.means)


def moment_surrogate(ens: GaussianEnsemble) -> GaussianEnsemble:
    """Moment-matched single-Gaussian stand-in for the ensemble mixture.

    The variance is accumulated as mean(variances) + mean((mu - mu*)^2),
    which is algebraically the law-of-total-variance expression but never
    cancels catastrophically for large shared means.
    """
    mu_star = np.mean(ens.means)
    var_star = np.mean(ens.variances) + np.mean((ens.means - mu_star) ** 2)
    return GaussianEnsemble([mu_star], [var_star])


def averaged_surrogate(ens: GaussianEnsemble) -> GaussianEnsemble:
    """Averaged-variance single-Gaussian stand-in for the ensemble mixture."""
    return GaussianEnsemble([np.mean(ens.means)], [np.mean(ens.variances)])
