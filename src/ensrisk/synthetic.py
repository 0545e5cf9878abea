"""Synthetic posteriors and data generators for the desk-scale experiments.

Two generators live here.  The first draws closed-form posteriors with
uniform ranges over predicted means and variances, applies one of four
location/scale shifts to those ranges, and classifies how every estimator
responds (up / down / flat at a relative threshold).  Because the shifted
spec reuses the seed, base and shifted replicates share the underlying
uniform draws, so a shift that leaves a measure bitwise unchanged on every
replicate (one that reads only the variances, under a mean shift) comes out
exactly flat rather than flat-up-to-noise, however the replicates are
batched.  A measure invariant only up to rounding (through differences of
shifted means) comes out flat within ulps.

The second is the heteroscedastic two-curve regression task used for the
training experiments:

    pi(x)    = 1 / (1 + exp(1.2 x))            (weight of curve 1)
    mu_1(x)  = x/3 + 1.2 sin(0.8 x)
    mu_2(x)  = x/3 - 1.2 cos(0.8 x)
    sigma(x) = 0.12 + 0.28 (0.5 + 0.5 sin(0.7 x))^2

with y = mu_k(x) + sigma(x) eps, eps ~ N(0,1), k drawn according to pi(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .estimators import (
    EnsembleBatch,
    EstimatorId,
    _batch_log_mixture_entropy,
    batch_rows,
    measure_columns,
)
from .scores import ScoringRule


@dataclass(frozen=True)
class UniformPosteriorSpec:
    """Closed-form posterior: mu ~ U(mean range), sigma^2 ~ U(var range)."""

    mean_low: float = -1.0
    mean_high: float = 1.0
    var_low: float = 1.0
    var_high: float = 2.0
    members: int = 10
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        # A collapsed mean range (low == high) is allowed: it pins every
        # predicted mean to one value, which some sanity checks rely on.
        if self.mean_low > self.mean_high:
            raise ValueError("mean_low must be <= mean_high")
        if not (0.0 < self.var_low <= self.var_high):
            raise ValueError("variance range must satisfy 0 < low <= high")
        if self.members < 1 or self.replicates < 1:
            raise ValueError("members and replicates must be >= 1")


class ShiftKind(Enum):
    MEAN_LOCATION = "mean-location"
    VARIANCE_LOCATION = "variance-location"
    MEAN_SCALE = "mean-scale"
    VARIANCE_SCALE = "variance-scale"


# Shifted target ranges; applying a shift replaces the range outright,
# so repeated application is idempotent.
_SHIFTED_RANGES = {
    ShiftKind.MEAN_LOCATION: ("mean", (1.0, 3.0)),
    ShiftKind.VARIANCE_LOCATION: ("var", (2.0, 3.0)),
    ShiftKind.MEAN_SCALE: ("mean", (-2.0, 2.0)),
    ShiftKind.VARIANCE_SCALE: ("var", (0.5, 2.5)),
}


def apply_shift(spec: UniformPosteriorSpec, kind: ShiftKind) -> UniformPosteriorSpec:
    """Return the spec with the shifted range substituted."""
    which, (lo, hi) = _SHIFTED_RANGES[kind]
    if which == "mean":
        return replace(spec, mean_low=lo, mean_high=hi)
    return replace(spec, var_low=lo, var_high=hi)


def _sample_arrays(spec: UniformPosteriorSpec, start: int = 0,
                   stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Replicates ``start`` to ``stop - 1`` (all by default) of the spec's
    (replicates, members) mean and variance draws, deterministic in seed.

    Means are drawn before variances so that two specs sharing a seed share
    the underlying uniforms (common random numbers across shifts).  Each
    uniform is one PCG64 step, so a block is drawn after advancing the
    generator past the draws before it, and blocks are bitwise the rows of
    the whole draw."""
    stop = spec.replicates if stop is None else min(stop, spec.replicates)
    shape = (stop - start, spec.members)
    mean_rng = np.random.default_rng(spec.seed)
    mean_rng.bit_generator.advance(start * spec.members)
    var_rng = np.random.default_rng(spec.seed)
    var_rng.bit_generator.advance((spec.replicates + start) * spec.members)
    means = spec.mean_low + (spec.mean_high - spec.mean_low) * mean_rng.random(shape)
    variances = spec.var_low + (spec.var_high - spec.var_low) * var_rng.random(shape)
    return means, variances


@dataclass(frozen=True)
class ShiftRow:
    rule: ScoringRule
    estimator: EstimatorId
    base_mean: float
    shifted_mean: float
    direction: str  # up | down | flat | unavailable


@dataclass(frozen=True)
class ShiftReport:
    kind: ShiftKind
    rows: tuple[ShiftRow, ...]

    def direction(self, rule: ScoringRule, est: EstimatorId) -> str:
        for row in self.rows:
            if row.rule is rule and row.estimator == est:
                return row.direction
        raise KeyError(f"no row for ({rule}, {est.key})")


def _classify(base: float, shifted: float, threshold: float) -> str:
    delta = shifted - base
    if delta == 0.0:
        return "flat"
    if abs(base) > 1e-12:
        if abs(delta) < threshold * abs(base):
            return "flat"
    elif abs(delta) < 1e-12:
        return "flat"
    return "up" if delta > 0 else "down"


def _column_means(name: str, spec: UniformPosteriorSpec, columns, fill: bool) -> np.ndarray:
    """Mean of every column over the spec's replicates, each batch of
    ``batch_rows`` replicates sampled just before it is evaluated and each
    of its cells summed as the batch computes it, so peak memory grows
    neither with the replicates nor with the columns; ``name`` labels the
    replicates in a ConvergenceError."""
    sums = np.zeros(len(columns))
    step = batch_rows(spec.members, spec.replicates)
    for start in range(0, spec.replicates, step):
        m, v = _sample_arrays(spec, start, start + step)
        h_ens = _batch_log_mixture_entropy(
            m, v, lambda row: f"{name} replicate {start + row}") if fill else None
        sums += [math.nan if values is None else values.sum()
                 for values in EnsembleBatch(m, v, h_ens).column_values(columns)]
    return sums / spec.replicates


def shift_reports(rules: Sequence[ScoringRule], base: UniformPosteriorSpec,
                  kinds: Sequence[ShiftKind], flat_threshold: float = 0.01,
                  oracle_fallback: bool = False) -> tuple[ShiftReport, ...]:
    """One ``ShiftReport`` per kind, in order: the mean of every measure
    under the base posterior against its mean under the shifted one.

    The base spec is sampled and evaluated once for all kinds, and each
    shifted spec once.  Direction is flat when the mean is unchanged or
    changes by less than ``flat_threshold`` (finite, >= 0) relative to the
    base mean (absolute guard 1e-12 for measures at zero).
    Cells that need H(P_ens) report 'unavailable' unless the fallback is on,
    which fills them from ``_batch_log_mixture_entropy`` (the oracle, loaded
    only then) as ``measure_matrix`` does; a replicate whose entropy does
    not converge raises ConvergenceError naming it (``base replicate N`` or
    ``shifted replicate N``).
    """
    if not (math.isfinite(flat_threshold) and flat_threshold >= 0.0):
        raise ValueError(f"flat threshold must be finite and >= 0, got {flat_threshold}")
    columns = measure_columns(rules)
    fill = oracle_fallback and any(col.needs_mixture_entropy for col in columns)
    base_means = _column_means("base", base, columns, fill)
    reports = []
    for kind in kinds:
        shifted_means = _column_means("shifted", apply_shift(base, kind), columns, fill)
        rows = tuple(
            ShiftRow(col.rule, col.estimator, b, s,
                     "unavailable" if math.isnan(b) else _classify(b, s, flat_threshold))
            for col, b, s in zip(columns, base_means.tolist(), shifted_means.tolist()))
        reports.append(ShiftReport(kind, rows))
    return tuple(reports)


def shift_report(rules: Sequence[ScoringRule], base: UniformPosteriorSpec,
                 kind: ShiftKind, flat_threshold: float = 0.01,
                 oracle_fallback: bool = False) -> ShiftReport:
    """``shift_reports`` for one kind."""
    return shift_reports(rules, base, [kind], flat_threshold, oracle_fallback)[0]


# -- two-curve regression data -------------------------------------------------

def two_curve_pi(x):
    """Mixing weight of curve 1."""
    # exp(1.2 x) overflows only for x > 591, where pi(x) rounds to its limit
    # 0 anyway and 1 / (1 + inf) is exactly 0, so the warning is dropped.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(1.2 * np.asarray(x, dtype=float)))


def two_curve_mu1(x):
    x = np.asarray(x, dtype=float)
    return x / 3.0 + 1.2 * np.sin(0.8 * x)


def two_curve_mu2(x):
    x = np.asarray(x, dtype=float)
    return x / 3.0 - 1.2 * np.cos(0.8 * x)


def two_curve_sigma(x):
    x = np.asarray(x, dtype=float)
    return 0.12 + 0.28 * (0.5 + 0.5 * np.sin(0.7 * x)) ** 2


def two_curve_arrays(n: int, x_low: float = -4.0, x_high: float = 4.0,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, component) arrays from the two-curve generator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (x_low < x_high and math.isfinite(x_high - x_low)):
        raise ValueError(f"x range must be finite with x_low < x_high, "
                         f"got x_low={x_low}, x_high={x_high}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(x_low, x_high, size=n)
    pick_first = rng.random(n) < two_curve_pi(xs)
    eps = rng.standard_normal(n)
    mus = np.where(pick_first, two_curve_mu1(xs), two_curve_mu2(xs))
    ys = mus + eps * two_curve_sigma(xs)
    return xs, ys, np.where(pick_first, 1, 2)

