"""Downstream evaluation metrics: selective prediction, OOD detection, and
rank correlation between uncertainty measures.

All of these are rank-based: any strictly increasing transform of an
uncertainty column leaves PRR, AUROC, and Kendall's tau_b unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np


class DegenerateMetricError(ValueError):
    """The metric is undefined on this input (e.g. all values tied)."""


def _paired_arrays(a, b, n_min=2):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d arrays of equal length")
    if len(a) < n_min:
        raise ValueError(f"need at least {n_min} entries")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("inputs must be finite")
    return a, b


def _kept_counts(grid: np.ndarray, n: int) -> np.ndarray:
    # ceil(r * n) with a guard against float crumbs at exact integers
    return np.clip(np.ceil(grid * n - 1e-9).astype(int), 1, n)


@dataclass(frozen=True)
class RetentionCurve:
    """MSE over the lowest-uncertainty fraction r of the data, r on a grid."""

    retentions: tuple[float, ...]
    mse: tuple[float, ...]


def _validated_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("retention grid needs at least two points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("retention grid must be strictly ascending")
    if grid[0] < 0.5 - 1e-12 or grid[-1] > 1.0 + 1e-12:
        raise ValueError("retention grid must lie within [0.5, 1]")
    return grid


def retention_curve(squared_errors, uncertainty, grid) -> RetentionCurve:
    """MSE over the ceil(r n) lowest-uncertainty points at each retention r.

    Ties in the uncertainty are broken by stable original order.
    """
    errors, unc = _paired_arrays(squared_errors, uncertainty)
    grid = _validated_grid(grid)
    order = np.argsort(unc, kind="stable")
    prefix = np.concatenate([[0.0], np.cumsum(errors[order])])
    ks = _kept_counts(grid, len(errors))
    return RetentionCurve(tuple(float(r) for r in grid),
                          tuple(float(prefix[k] / k) for k in ks))


DEFAULT_RETENTION_GRID = tuple(np.linspace(0.5, 1.0, 51))


def _expected_curve(errors: np.ndarray, uncertainty: np.ndarray,
                    ks: np.ndarray) -> np.ndarray:
    """Retention MSEs averaged over the orderings of tied uncertainties.

    Within a tie group every point is kept with equal probability, so a
    partially kept group contributes its mean error per kept slot.  This is
    what makes a constant uncertainty column reproduce the random baseline
    identically instead of leaking the input order into the curve.
    """
    order = np.argsort(uncertainty, kind="stable")
    err_sorted = errors[order]
    unc_sorted = uncertainty[order]
    prefix = np.concatenate([[0.0], np.cumsum(err_sorted)])
    n = len(errors)
    starts = np.concatenate([[0], np.nonzero(np.diff(unc_sorted))[0] + 1])
    ends = np.concatenate([starts[1:], [n]])
    group_of = np.repeat(np.arange(len(starts)), ends - starts)
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        g = group_of[k - 1]
        s, e = starts[g], ends[g]
        mean_g = (prefix[e] - prefix[s]) / (e - s)
        out[i] = prefix[s] / k + ((k - s) / k) * mean_g
    return out


def prr(squared_errors, uncertainty, grid=None) -> float:
    """Prediction-reject ratio over retentions in [0.5, 1].

    PRR = (AUC_unc - AUC_oracle) / (AUC_random - AUC_oracle), where the
    oracle ranks by the true squared error and the random baseline is the
    analytic constant-MSE curve (the expectation over orderings, not a
    sampled permutation).  0 is a perfect ranking, 1 matches the random
    baseline, values above 1 are actively misleading rankings.
    """
    errors, unc = _paired_arrays(squared_errors, uncertainty)
    grid = _validated_grid(DEFAULT_RETENTION_GRID if grid is None else grid)
    ks = _kept_counts(grid, len(errors))
    curve_unc = _expected_curve(errors, unc, ks)
    curve_oracle = _expected_curve(errors, errors, ks)
    overall = float(np.cumsum(errors)[-1] / len(errors))
    curve_random = np.full(len(ks), overall)
    auc_unc = np.trapezoid(curve_unc, grid)
    auc_oracle = np.trapezoid(curve_oracle, grid)
    auc_random = np.trapezoid(curve_random, grid)
    denom = auc_random - auc_oracle
    if denom == 0.0:
        raise DegenerateMetricError(
            "PRR undefined: oracle and random retention areas coincide")
    return float((auc_unc - auc_oracle) / denom)


def auroc(in_scores, out_scores) -> float:
    """Mann-Whitney AUROC: P(out > in) + P(out = in) / 2.

    Computed from midranks in O(n log n), with exact tie handling and no
    binning.  The Mann-Whitney count is a half-integer, so the ratio is
    formed in integer arithmetic and rounded once onto a 2^-53 grid; that
    makes auroc(a, b) and 1 - auroc(b, a) exact complements.
    """
    ins = np.asarray(in_scores, dtype=float)
    outs = np.asarray(out_scores, dtype=float)
    if ins.ndim != 1 or outs.ndim != 1 or len(ins) == 0 or len(outs) == 0:
        raise ValueError("both score lists must be non-empty 1-d arrays")
    if not (np.all(np.isfinite(ins)) and np.all(np.isfinite(outs))):
        raise ValueError("scores must be finite")
    combined = np.concatenate([ins, outs])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty(len(combined))
    sorted_vals = combined[order]
    # midranks: average the 1-based rank over each tied run
    starts = np.concatenate([[0], np.nonzero(np.diff(sorted_vals))[0] + 1])
    ends = np.concatenate([starts[1:], [len(combined)]])
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    u_out = float(np.sum(ranks[len(ins):])) - 0.5 * len(outs) * (len(outs) + 1)
    twice_u = round(2.0 * u_out)  # exact: midrank sums are half-integers
    denom = len(ins) * len(outs)
    numerator, remainder = divmod(twice_u << 52, denom)
    if 2 * remainder > denom or (2 * remainder == denom and numerator % 2 == 1):
        numerator += 1
    return numerator / 2.0**53


def _pairs_within(group_sizes: np.ndarray) -> int:
    return int(np.sum(group_sizes * (group_sizes - 1) // 2))


def _tie_pairs(*sorted_keys: np.ndarray) -> int:
    """Pairs equal in every key; the keys are sorted so ties are adjacent."""
    n = len(sorted_keys[0])
    same = np.ones(n - 1, dtype=bool)
    for key in sorted_keys:
        same &= key[1:] == key[:-1]
    starts = np.flatnonzero(np.concatenate([[True], ~same]))
    return _pairs_within(np.diff(np.append(starts, n)))


def _count_inversions(ranks: np.ndarray) -> int:
    """Pairs (i < j) with ranks[i] > ranks[j], by bottom-up merge levels.

    At each level every sorted left half is searched for the entries of its
    right half; offsetting each block by ``block * span`` keeps all left
    halves in one sorted array, so a level is one searchsorted and one sort.
    """
    n = len(ranks)
    span = int(ranks.max()) + 1
    arr = ranks.astype(np.int64)
    pos = np.arange(n)
    inversions = 0
    width = 1
    while width < n:
        block = pos // (2 * width)
        keyed = block * span + arr
        right = pos % (2 * width) >= width
        left_keys = keyed[~right]
        not_greater = np.searchsorted(left_keys, keyed[right], side="right")
        inversions += int(np.sum((block[right] + 1) * width - not_greater))
        # timsort merges the two sorted runs of each block in linear time
        arr = np.sort(keyed, kind="stable") - block * span
        width *= 2
    return inversions


def kendall_tau_b(a, b) -> float:
    """Kendall's tau_b rank correlation with tie correction.

    Uses Knight's O(n log n) counting with exact integer arithmetic, so a
    perfectly concordant pair of rankings returns 1.0 exactly.
    """
    a, b = _paired_arrays(a, b)
    n = len(a)
    order = np.lexsort((b, a))
    a_sorted = a[order]
    b_sorted = b[order]
    _, b_ranks = np.unique(b_sorted, return_inverse=True)
    n0 = n * (n - 1) // 2
    t_a = _tie_pairs(a_sorted)
    t_b = _pairs_within(np.bincount(b_ranks))
    t_ab = _tie_pairs(a_sorted, b_sorted)
    discordant = _count_inversions(b_ranks)
    if n0 == t_a or n0 == t_b:
        raise DegenerateMetricError("tau_b undefined: one list is entirely tied")
    c_minus_d = n0 - t_a - t_b + t_ab - 2 * discordant
    return c_minus_d / math.sqrt((n0 - t_a) * (n0 - t_b))
