"""Downstream evaluation metrics: selective prediction, OOD detection, and
rank correlation between uncertainty measures.

All of these are rank-based: any strictly increasing transform of an
uncertainty column leaves PRR, AUROC, and Kendall's tau_b unchanged.

Many columns are scored against the same data, so the shared work is done
once: ``prr`` takes many uncertainty columns and computes the oracle and
random-baseline areas of the errors once for all of them, and
``kendall_tau_b_pairs`` ranks each column once and counts the discordances
of many column pairs in one exact kernel (``kendall_tau_b`` is its
one-pair call).
"""

from __future__ import annotations

import math

import numpy as np


class DegenerateMetricError(ValueError):
    """The metric is undefined on this input (e.g. all values tied)."""


def _paired_arrays(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d arrays of equal length")
    if len(a) < 2:
        raise ValueError("need at least 2 entries")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("inputs must be finite")
    return a, b


def _kept_counts(grid: np.ndarray, n: int) -> np.ndarray:
    # ceil(r * n) with a guard against float crumbs at exact integers
    return np.clip(np.ceil(grid * n - 1e-9).astype(int), 1, n)


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
    g = group_of[ks - 1]
    s, e = starts[g], ends[g]
    mean_g = (prefix[e] - prefix[s]) / (e - s)
    return prefix[s] / ks + ((ks - s) / ks) * mean_g


def prr(squared_errors, uncertainty):
    """Prediction-reject ratio over the retentions ``DEFAULT_RETENTION_GRID``,
    51 evenly spaced in [0.5, 1], on the tie-averaged retention curve
    (``_expected_curve``).

    PRR = (AUC_unc - AUC_oracle) / (AUC_random - AUC_oracle), where the
    oracle ranks by the true squared error and the random baseline is the
    analytic constant-MSE curve (the expectation over orderings, not a
    sampled permutation).  0 is a perfect ranking, 1 matches the random
    baseline, values above 1 are actively misleading rankings.

    ``uncertainty`` is one column of n values, giving a float, or an (n, C)
    array of C columns, giving an array of C ratios: the oracle and random
    areas depend only on the errors, so they are computed once per call.
    """
    unc = np.asarray(uncertainty, dtype=float)
    columns = [_paired_arrays(squared_errors, u)
               for u in (unc.T if unc.ndim == 2 else [unc])]
    if not columns:
        return np.empty(0)
    errors = columns[0][0]
    grid = np.asarray(DEFAULT_RETENTION_GRID)
    ks = _kept_counts(grid, len(errors))
    auc_oracle = np.trapezoid(_expected_curve(errors, errors, ks), grid)
    overall = float(np.cumsum(errors)[-1] / len(errors))
    denom = np.trapezoid(np.full(len(ks), overall), grid) - auc_oracle
    if denom == 0.0:
        raise DegenerateMetricError(
            "PRR undefined: oracle and random retention areas coincide")
    ratios = [float((np.trapezoid(_expected_curve(errors, u, ks), grid)
                     - auc_oracle) / denom) for _, u in columns]
    return np.array(ratios) if unc.ndim == 2 else ratios[0]


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


# Elements of one (pairs, n) block of the pairs kernel: bounds its
# temporaries however many pairs are asked for.
_PAIR_BLOCK_ELEMENTS = 1 << 16


def _tie_pairs(sorted_rows: np.ndarray) -> np.ndarray:
    """Pairs of equal entries in each row of an array sorted along its rows.

    Each entry counts the earlier entries of its run of equal values, so a
    run of length L contributes L(L-1)/2."""
    pos = np.arange(1, sorted_rows.shape[1])
    same = sorted_rows[:, 1:] == sorted_rows[:, :-1]
    run_start = np.maximum.accumulate(np.where(same, 0, pos), axis=1)
    return (pos - run_start).sum(axis=1)


def _dense_ranks(columns: np.ndarray,
                 used: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(len(used), n) 0-based dense ranks of the used columns of an (n, C)
    array (equal values share a rank), and each one's tie pairs.  The
    columns go through in blocks of about ``_PAIR_BLOCK_ELEMENTS`` entries,
    so no copy of all of them is made."""
    n = columns.shape[0]
    ranks = np.empty((len(used), n), dtype=np.int64)
    ties = np.empty(len(used), dtype=np.int64)
    step = max(1, _PAIR_BLOCK_ELEMENTS // n)
    for lo in range(0, len(used), step):
        rows = np.ascontiguousarray(columns[:, used[lo:lo + step]].T)
        if not np.all(np.isfinite(rows)):
            raise ValueError("inputs must be finite")
        order = np.argsort(rows, axis=1)
        ranked = np.take_along_axis(rows, order, axis=1)
        new_value = np.zeros(ranked.shape, dtype=np.int64)
        new_value[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        np.put_along_axis(ranks[lo:lo + step], order,
                          np.cumsum(new_value, axis=1), axis=1)
        ties[lo:lo + step] = _tie_pairs(ranked)
    return ranks, ties


def _count_inversions(values: np.ndarray) -> np.ndarray:
    """Pairs (i < j) with values[i] > values[j] in each row, by bottom-up
    merge levels; the values are integers in [0, n).

    At each level every entry is keyed (block, value, half): the half flag
    in the low bit puts a left-half entry before a right-half entry of equal
    value, so one in-place sort of each row merges every block of the
    level.  A right-half entry at sorted position p of block k, with r
    right-half entries before it in the row, is passed by (k + 1) w - p + r
    left-half entries of its block; r runs over 0..R-1 in every row."""
    n = values.shape[1]
    pos = np.arange(n)
    inversions = np.zeros(len(values), dtype=np.int64)
    keys = 2 * values
    block = np.zeros(n, dtype=np.int64)
    width = 1
    while width < n:
        # move each entry from the last level's block to this one's and set
        # its half flag; each half keeps the order the last level sorted
        level_block = pos // (2 * width)
        right = pos % (2 * width) >= width
        keys += (level_block - block) * (2 * n) + right
        block = level_block
        keys.sort(axis=1)
        n_right = int(np.count_nonzero(right))
        inversions += (keys & 1) @ ((block + 1) * width - pos) \
            + n_right * (n_right - 1) // 2
        keys &= ~1
        width *= 2
    return inversions


def kendall_tau_b_pairs(columns, pairs) -> np.ndarray:
    """Kendall's tau_b between the columns of each pair, NaN for a pair with
    an entirely tied column.

    ``columns`` is an (n, C) array and ``pairs`` a sequence of column index
    pairs; only the columns named in a pair are read (and must be finite).
    Knight's O(n log n) counting (Knight 1966, JASA 61(314)): each such
    column is dense-ranked and its ties counted once; for each pair one
    sort on the key ``rank_a * n + rank_b`` gives the joint ties as its
    equal runs and the b-ranks in (a, b) order, whose inversions are the
    discordant pairs.
    Pairs go through in blocks of about ``_PAIR_BLOCK_ELEMENTS`` entries.
    Every count is an exact integer and the final ratio is formed from
    Python ints, so a pair and its swap give the same float and a column
    with itself gives exactly 1.0."""
    cols = np.asarray(columns, dtype=float)
    if cols.ndim != 2 or cols.shape[0] < 2:
        raise ValueError("columns must be an (n, C) array with n >= 2")
    used, pairs = np.unique(np.asarray(pairs, dtype=np.intp), return_inverse=True)
    pairs = pairs.reshape(-1, 2)
    n = cols.shape[0]
    ranks, ties = _dense_ranks(cols, used)
    ties = ties.tolist()
    n0 = n * (n - 1) // 2
    out = np.empty(len(pairs))
    step = max(1, _PAIR_BLOCK_ELEMENTS // n)
    for lo in range(0, len(pairs), step):
        block = pairs[lo:lo + step]
        keys = np.sort(ranks[block[:, 0]] * n + ranks[block[:, 1]], axis=1)
        joint = _tie_pairs(keys).tolist()
        discordant = _count_inversions(keys % n).tolist()
        for k, (a, b) in enumerate(block.tolist()):
            t_a, t_b = ties[a], ties[b]
            if n0 == t_a or n0 == t_b:
                out[lo + k] = np.nan
                continue
            c_minus_d = n0 - t_a - t_b + joint[k] - 2 * discordant[k]
            out[lo + k] = c_minus_d / math.sqrt((n0 - t_a) * (n0 - t_b))
    return out


def kendall_tau_b(a, b) -> float:
    """Kendall's tau_b rank correlation with tie correction: the one-pair
    call of ``kendall_tau_b_pairs``, so a perfectly concordant pair of
    rankings returns 1.0 exactly."""
    a, b = _paired_arrays(a, b)
    tau = kendall_tau_b_pairs(np.column_stack((a, b)), [(0, 1)])[0]
    if math.isnan(tau):
        raise DegenerateMetricError("tau_b undefined: one list is entirely tied")
    return float(tau)
