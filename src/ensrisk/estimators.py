"""The risk-estimator registry: every Bayes, excess, and total risk cell.

Estimator naming follows the experiment tables: approximation 1 averages the
risk over ensemble members (Bayesian averaging, BA), 2 plugs in the full
mixture (ENS), 3a plugs in the moment-matched surrogate (MM), and 3b the
averaged-variance surrogate (AV).  A total or excess estimator carries a
pair (alpha, beta): alpha is the prediction-side approximation, beta the
label-side one, and divergences are evaluated as d(approx_alpha,
approx_beta) with the prediction in the first slot.

Total risk composes as Tot(alpha, beta) = Bayes(alpha) + Exc(alpha, beta).
This is the composition under which the SE-score coincidences hold:
Tot(3b,2) collapses onto Bayes(3b), Tot(3b,1) onto Bayes(3a), and Tot(1,1),
Tot(2,1), Tot(3a,1) agree in exact arithmetic (see the identity tests) but
not bitwise: on 2000 M=10 rows (means U(-1, 1), variances U(1, 2)) SE
Tot(1,1) differs from Tot(2,1) in the last bits on 803 rows and from
Tot(3a,1) on 555, while CRPS and QUAD Tot(1,1) = Tot(2,1) bitwise on all
of them.  ROADMAP item 3 would tie each such cell by construction.

Every cell composes this way, the LOG ones too: the one term without a
closed form is the mixture's Shannon entropy H(P_ens), which is LOG
Bayes(2).  ``needs_mixture_entropy`` flags the seven LOG cells built on it;
given H (from the oracle module), ``EnsembleBatch`` evaluates them like any
other cell.  The SE cells Exc(3a,2) and Exc(3b,2) are identically zero
because both surrogates share the mixture mean.

``EnsembleBatch`` is the closed-form layer: it is the only place a risk,
entropy or divergence formula is written.  The scalar functions below it
(``entropy``, ``expected_score``, ``divergence`` and the three risks) are thin
wrappers that run a batch of one row (one per label component for
``expected_score``).  A missing closed form raises ``NotClosedForm``, in
the batch and through every wrapper, e.g. ``bayes_risk(ScoringRule.LOG,
ens, ApproximationId.ENS)`` for a mixture's Shannon entropy.

``PredictionSet`` keeps all points' members in flat arrays with per-point
offsets; the prediction-set loader builds that layout directly
(``PredictionSet.from_flat``), and everyone else reads it through
``PredictionSet.blocks()``, (k, M) arrays per ensemble size in batches
that ``batch_rows`` sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .gaussians import GaussianEnsemble
from .scores import (
    MemberPairs,
    ScoringRule,
    abs_moment,
    gaussian_overlap,
    pairwise_abs_moment,
    pairwise_overlap,
)

_SQRT_PI = math.sqrt(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


class ApproximationId(Enum):
    """How a risk slot is approximated from the ensemble."""

    BA = "1"       # Bayesian averaging over members
    ENS = "2"      # posterior predictive mixture
    MM = "3a"      # moment-matched Gaussian surrogate
    AV = "3b"      # averaged-variance Gaussian surrogate


class RiskKind(Enum):
    TOTAL = "tot"
    BAYES = "bayes"
    EXCESS = "exc"


# The pairs the experiments use; (BA, ENS) is additionally accepted by
# excess_risk for the identity checks but is not a registry cell.
SUPPORTED_PAIRS = (
    (ApproximationId.BA, ApproximationId.BA),
    (ApproximationId.ENS, ApproximationId.BA),
    (ApproximationId.MM, ApproximationId.BA),
    (ApproximationId.AV, ApproximationId.BA),
    (ApproximationId.MM, ApproximationId.ENS),
    (ApproximationId.AV, ApproximationId.ENS),
)


@dataclass(frozen=True)
class EstimatorId:
    """One cell of the risk matrix: kind plus its approximation indices."""

    kind: RiskKind
    first: ApproximationId
    second: Optional[ApproximationId] = None

    def __post_init__(self):
        if self.kind is RiskKind.BAYES:
            if self.second is not None:
                raise ValueError("Bayes estimators carry a single index")
        else:
            if (self.first, self.second) not in SUPPORTED_PAIRS:
                raise ValueError(
                    f"unsupported pair ({self.first}, {self.second}); "
                    f"supported: {[(a.value, b.value) for a, b in SUPPORTED_PAIRS]}"
                )

    @property
    def key(self) -> str:
        """Machine name, e.g. tot_3a_2 / bayes_1 / exc_1_1."""
        if self.kind is RiskKind.BAYES:
            return f"bayes_{self.first.value}"
        return f"{self.kind.value}_{self.first.value}_{self.second.value}"

    @classmethod
    def parse(cls, key: str) -> "EstimatorId":
        parts = key.strip().lower().split("_")
        by_label = {a.value: a for a in ApproximationId}
        try:
            if parts[0] == "bayes" and len(parts) == 2:
                return cls(RiskKind.BAYES, by_label[parts[1]])
            if parts[0] in ("tot", "exc") and len(parts) == 3:
                kind = RiskKind.TOTAL if parts[0] == "tot" else RiskKind.EXCESS
                return cls(kind, by_label[parts[1]], by_label[parts[2]])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"cannot parse estimator key {key!r}") from exc
        raise ValueError(f"cannot parse estimator key {key!r}")


def default_estimators() -> tuple[EstimatorId, ...]:
    """The 16 columns of the experiment tables, in table order."""
    tot = [EstimatorId(RiskKind.TOTAL, a, b) for a, b in SUPPORTED_PAIRS]
    bay = [EstimatorId(RiskKind.BAYES, a) for a in ApproximationId]
    exc = [EstimatorId(RiskKind.EXCESS, a, b) for a, b in SUPPORTED_PAIRS]
    return tuple(tot + bay + exc)


def needs_mixture_entropy(rule: ScoringRule, est: EstimatorId) -> bool:
    """Whether the cell is built on H(P_ens), which has no closed form: a
    LOG cell that uses P_ens on either side."""
    return rule is ScoringRule.LOG and ApproximationId.ENS in (est.first, est.second)


class NotClosedForm(ValueError):
    """The requested result has no closed form (the '-' table cells);
    callers that need the number anyway hand it to the oracle module."""


class EnsembleBatch:
    """Closed-form estimator evaluation over a stack of ensembles.

    ``means`` and ``variances`` have shape (n, M); every estimator comes
    back as an (n,) array.  Each term the cells share is computed once per
    batch and cached for its lifetime:

    - ``member_pairs``, the (pair, row) layout of the M(M-1)/2 member pairs
      i < j behind every O(M^2) term;
    - the pairwise reductions ``crps_pair_mean`` and ``quad_pair_mean`` (the
      means over member pairs behind the CRPS and quadratic mixtures);
    - ``excess(rule, pair)``, which the Tot(pair) cell reuses, so the LOG
      pairwise KL mean of Exc(1,1) is computed once;
    - the mean cross kernel between each surrogate and the members (CRPS
      E|S - X_j|, QUADRATIC overlap), shared by the (s,1) and (s,2) cells.

    ``h_ens``, the (n,) LOG mixture entropies H(P_ens) of the rows, is LOG
    Bayes(2); the seven LOG cells built on it raise NotClosedForm without it.

    Cached arrays come back read-only, so a caller cannot change a later
    cell through them.  A batch is bounded by the caller (``batch_rows``),
    and so is its cache.
    """

    def __init__(self, means, variances, h_ens=None):
        means = np.asarray(means, dtype=float)
        variances = np.asarray(variances, dtype=float)
        if means.ndim != 2 or means.shape != variances.shape:
            raise ValueError("means and variances must be (n, M) arrays of equal shape")
        if h_ens is not None:
            h_ens = np.asarray(h_ens, dtype=float)
            if h_ens.shape != means.shape[:1]:
                raise ValueError("h_ens must hold one mixture entropy per row")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
            raise ValueError("ensemble parameters must be finite")
        if np.any(variances <= 0.0):
            raise ValueError("variances must be > 0")
        self.means = means
        self.variances = variances
        self.sigmas = np.sqrt(variances)
        self.mu_star = means.mean(axis=1)
        self.pop_var = ((means - self.mu_star[:, None]) ** 2).mean(axis=1)
        self.var_av = variances.mean(axis=1)
        self.var_mm = self.var_av + self.pop_var
        self.h_ens = h_ens
        self._memo: dict[tuple, np.ndarray] = {}

    @property
    def size(self) -> int:
        return self.means.shape[1]

    def _cached(self, key: tuple, compute):
        """``compute()`` once per key for the life of the batch; an array
        comes back read-only."""
        if key not in self._memo:
            value = compute()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._memo[key] = value
        return self._memo[key]

    def member_pairs(self) -> MemberPairs:
        """The (pair, row) layout of the member pairs i < j (read-only)."""
        return self._cached(("layout",), lambda: MemberPairs(self.means, self.variances))

    def crps_pair_mean(self) -> np.ndarray:
        """mean_ij A(mu_i - mu_j, sqrt(var_i + var_j)) = E|X - X'|."""
        return self._cached(("pairs", ScoringRule.CRPS), lambda: pairwise_abs_moment(
            self.means, self.variances, self.member_pairs()))

    def quad_pair_mean(self) -> np.ndarray:
        """mean_ij N(mu_i | mu_j, var_i + var_j) = integral p_ens^2."""
        return self._cached(("pairs", ScoringRule.QUADRATIC), lambda: pairwise_overlap(
            self.means, self.variances, self.member_pairs()))

    def _surrogate(self, approx: ApproximationId) -> tuple[np.ndarray, np.ndarray]:
        if approx is ApproximationId.MM:
            return self.mu_star, self.var_mm
        if approx is ApproximationId.AV:
            return self.mu_star, self.var_av
        raise ValueError(f"not a surrogate: {approx}")

    # -- Bayes risks ---------------------------------------------------------

    def bayes(self, rule: ScoringRule, approx: ApproximationId) -> np.ndarray:
        if rule is ScoringRule.CRPS:
            if approx is ApproximationId.BA:
                return self.sigmas.mean(axis=1) / _SQRT_PI
            if approx is ApproximationId.ENS:
                return 0.5 * self.crps_pair_mean()
            return np.sqrt(self._surrogate(approx)[1]) / _SQRT_PI
        if rule is ScoringRule.LOG:
            if approx is ApproximationId.BA:
                return 0.5 * (_LOG_2PI + 1.0 + np.log(self.variances)).mean(axis=1)
            if approx is ApproximationId.ENS:
                if self.h_ens is None:
                    raise NotClosedForm("LOG Bayes(2) has no closed form")
                return self.h_ens.copy()
            return 0.5 * (_LOG_2PI + 1.0 + np.log(self._surrogate(approx)[1]))
        if rule is ScoringRule.QUADRATIC:
            if approx is ApproximationId.BA:
                return -(1.0 / self.sigmas).mean(axis=1) / (2.0 * _SQRT_PI)
            if approx is ApproximationId.ENS:
                return -self.quad_pair_mean()
            return -1.0 / (2.0 * _SQRT_PI * np.sqrt(self._surrogate(approx)[1]))
        if rule is ScoringRule.SE:
            if approx in (ApproximationId.BA, ApproximationId.AV):
                return self.var_av.copy()
            return self.var_mm.copy()
        raise ValueError(f"unknown rule {rule!r}")

    # -- excess risks ----------------------------------------------------------

    def _cross_mean(self, rule, mu, var) -> np.ndarray:
        """mean_j of the cross kernel between N(mu, var) and member j: the
        CRPS abs_moment E|Y - X_j| or the QUADRATIC overlap integral.  For the
        batch's own surrogates it is computed once per rule and shared by
        their (s,1) and (s,2) cells."""
        def compute():
            mu_b, var_b = mu[:, None], var[:, None]
            if rule is ScoringRule.CRPS:
                cross = abs_moment(mu_b - self.means, np.sqrt(var_b + self.variances),
                                   check=False)
            else:
                cross = gaussian_overlap(mu_b, var_b, self.means, self.variances)
            return cross.mean(axis=1)

        for approx in (ApproximationId.MM, ApproximationId.AV):
            if mu is self.mu_star and var is self._surrogate(approx)[1]:
                return self._cached(("cross", rule, approx), compute)
        return compute()

    def gaussian_vs_members(self, rule, mu, var) -> np.ndarray:
        """mean_j d(N(mu, var), P_j) for one Gaussian per row, shape (n,).

        With a surrogate as the Gaussian these are the (3a,1) / (3b,1) cells.
        """
        if rule is ScoringRule.CRPS:
            return (self._cross_mean(rule, mu, var)
                    - (np.sqrt(var) + self.sigmas.mean(axis=1)) / _SQRT_PI)
        if rule is ScoringRule.LOG:
            mu_b, var_b = mu[:, None], var[:, None]
            kl = 0.5 * (np.log(var_b / self.variances) - 1.0
                        + (self.variances + (mu_b - self.means) ** 2) / var_b)
            return kl.mean(axis=1)
        if rule is ScoringRule.QUADRATIC:
            return (0.5 / (_SQRT_PI * np.sqrt(var))
                    + (0.5 / (_SQRT_PI * self.sigmas)).mean(axis=1)
                    - 2.0 * self._cross_mean(rule, mu, var))
        if rule is ScoringRule.SE:
            return ((mu[:, None] - self.means) ** 2).mean(axis=1)
        raise ValueError(f"unknown rule {rule!r}")

    def gaussian_vs_mixture(self, rule, mu, var) -> np.ndarray:
        """d(N(mu, var), P_ens) for one Gaussian per row, shape (n,).

        With a surrogate as the Gaussian these are the (3a,2) / (3b,2) cells.
        """
        if rule is ScoringRule.SE:
            # Exactly 0.0 for the surrogates, which sit at the mixture mean.
            return (mu - self.mu_star) ** 2
        if rule is ScoringRule.CRPS:
            return (self._cross_mean(rule, mu, var) - np.sqrt(var) / _SQRT_PI
                    - 0.5 * self.crps_pair_mean())
        if rule is ScoringRule.QUADRATIC:
            return (0.5 / (_SQRT_PI * np.sqrt(var))
                    + self.quad_pair_mean() - 2.0 * self._cross_mean(rule, mu, var))
        if rule is ScoringRule.LOG:
            # mean_j LS(N(mu, var), P_j) - H(P_ens)
            cross = 0.5 * (_LOG_2PI + np.log(var)[:, None]
                           + (self.variances + (mu[:, None] - self.means) ** 2)
                           / var[:, None]).mean(axis=1)
            return cross - self.bayes(rule, ApproximationId.ENS)
        raise ValueError(f"unknown rule {rule!r}")

    def excess(self, rule: ScoringRule,
               pair: tuple[ApproximationId, ApproximationId]) -> np.ndarray:
        """Exc(pair) per row; computed once per (rule, pair), read-only."""
        return self._cached(("excess", rule, tuple(pair)), lambda: self._excess(rule, pair))

    def _excess(self, rule: ScoringRule,
                pair: tuple[ApproximationId, ApproximationId]) -> np.ndarray:
        first, second = pair
        ba, ens = ApproximationId.BA, ApproximationId.ENS

        if pair == (ba, ba):
            if rule is ScoringRule.CRPS:
                return (self.crps_pair_mean()
                        - 2.0 * self.sigmas.mean(axis=1) / _SQRT_PI)
            if rule is ScoringRule.LOG:
                # mean_ij KL(P_j || P_i): the log-variance terms cancel
                # between (i, j) and (j, i), and the diagonal is 0; var_i and
                # var_j are gathered in turn into one buffer
                pairs = self.member_pairs()
                d2 = pairs.dm * pairs.dm
                var = np.take(pairs.var, pairs.j, axis=0)
                kl = var + d2
                np.take(pairs.var, pairs.i, axis=0, out=var)
                kl /= var
                kl -= 1.0
                d2 += var
                np.take(pairs.var, pairs.j, axis=0, out=var)
                d2 /= var
                d2 -= 1.0
                kl += d2
                return pairs.pair_sum(kl) / (2.0 * self.size ** 2)
            if rule is ScoringRule.QUADRATIC:
                return ((1.0 / self.sigmas).mean(axis=1) / _SQRT_PI
                        - 2.0 * self.quad_pair_mean())
            if rule is ScoringRule.SE:
                return 2.0 * self.pop_var
            raise ValueError(f"unknown rule {rule!r}")

        if pair == (ba, ens) and rule is ScoringRule.LOG:
            # mean_j KL(P_ens || P_j) = Tot(1,1) - H(P_ens): LOG's two
            # orientations differ, so it has no Bregman shortcut
            return self.total(rule, (ba, ba)) - self.bayes(rule, ens)
        if pair in ((ens, ba), (ba, ens)):
            # Bregman information: equals Bayes(2) - Bayes(1) for every rule,
            # and the two orientations coincide for symmetric divergences.
            return self.bayes(rule, ens) - self.bayes(rule, ba)

        if second is ba:
            return self.gaussian_vs_members(rule, *self._surrogate(first))
        if second is ens:
            return self.gaussian_vs_mixture(rule, *self._surrogate(first))
        raise ValueError(f"unsupported pair {pair!r}")

    def total(self, rule: ScoringRule,
              pair: tuple[ApproximationId, ApproximationId]) -> np.ndarray:
        return self.bayes(rule, pair[0]) + self.excess(rule, pair)

    def evaluate(self, rule: ScoringRule, est: EstimatorId) -> np.ndarray:
        if est.kind is RiskKind.BAYES:
            return self.bayes(rule, est.first)
        if est.kind is RiskKind.EXCESS:
            return self.excess(rule, (est.first, est.second))
        return self.total(rule, (est.first, est.second))

    def column_values(self, columns):
        """The (n,) values of each ``MeasureColumn`` in turn, computed as
        they are asked for; None for one that needs H(P_ens) when the batch
        holds no ``h_ens``."""
        for col in columns:
            if self.h_ens is not None or not col.needs_mixture_entropy:
                yield self.evaluate(col.rule, col.estimator)
            else:
                yield None

    def columns(self, columns) -> np.ndarray:
        """Fortran-ordered (n, len(columns)) ``column_values``, NaN for a
        column without values."""
        out = np.full((len(self.means), len(columns)), np.nan, order="F")
        for k, values in enumerate(self.column_values(columns)):
            if values is not None:
                out[:, k] = values
        return out


# -- scalar wrappers -----------------------------------------------------------

def _as_batch(dist: GaussianEnsemble, h_ens=None) -> EnsembleBatch:
    return EnsembleBatch(dist.means[None, :], dist.variances[None, :],
                         None if h_ens is None else [h_ens])


def bayes_risk(rule: ScoringRule, ens: GaussianEnsemble, approx: ApproximationId):
    """Bayes-risk (aleatoric) estimate; (LOG, ENS) raises NotClosedForm."""
    return float(_as_batch(ens).bayes(rule, approx)[0])


def excess_risk(rule: ScoringRule, ens: GaussianEnsemble,
                pair: tuple[ApproximationId, ApproximationId]):
    """Excess-risk (epistemic) estimate for one approximation pair.

    Accepts the six registry pairs plus (BA, ENS), which exists only for the
    identity Exc(1,1) = Exc(2,1) + Exc(1,2).
    """
    allowed = set(SUPPORTED_PAIRS) | {(ApproximationId.BA, ApproximationId.ENS)}
    if tuple(pair) not in allowed:
        raise ValueError(f"unsupported pair {pair!r}")
    return float(_as_batch(ens).excess(rule, tuple(pair))[0])


def total_risk(rule: ScoringRule, ens: GaussianEnsemble,
               pair: tuple[ApproximationId, ApproximationId]):
    """Total risk Tot(alpha, beta) = Bayes(alpha) + Exc(alpha, beta)."""
    if tuple(pair) not in SUPPORTED_PAIRS:
        raise ValueError(f"unsupported pair {pair!r}")
    return float(_as_batch(ens).total(rule, tuple(pair))[0])


def entropy(rule: ScoringRule, p: GaussianEnsemble):
    """H(P) = S(P, P), the minimum attainable expected score.

    Gaussian inputs are always closed-form.  For M >= 2 mixtures: CRPS and
    QUADRATIC have exact mixture entropies, SE uses the mixture variance,
    and LOG (Shannon entropy of a mixture) raises NotClosedForm.
    """
    batch = _as_batch(p)
    approx = ApproximationId.BA if batch.size == 1 else ApproximationId.ENS
    return float(batch.bayes(rule, approx)[0])


def _divergences_to(rule: ScoringRule, pred: GaussianEnsemble,
                    mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """d(pred, N(mu_k, var_k)) for every k."""
    p_means, p_vars = pred.means, pred.variances
    k = len(mu)
    if len(p_means) == 1:
        labels = EnsembleBatch(mu[:, None], var[:, None])
        return labels.gaussian_vs_members(rule, np.repeat(p_means, k),
                                          np.repeat(p_vars, k))
    # d(P_ens, N_k) = d(N_k, P_ens) for the symmetric rules; LOG raises here.
    preds = EnsembleBatch(np.tile(p_means, (k, 1)), np.tile(p_vars, (k, 1)))
    return preds.gaussian_vs_mixture(rule, mu, var)


def expected_score(rule: ScoringRule, pred: GaussianEnsemble, label: GaussianEnsemble):
    """S(pred, label) = E_{Y ~ label} S(pred, Y).

    Mixture labels expand by linearity of the expectation:
    S(pred, Q) = mean_k [H(Q_k) + d(pred, Q_k)].  A mixture in the
    prediction slot is closed-form for CRPS, QUADRATIC and SE, but not for
    LOG (log of a sum): that combination raises NotClosedForm.
    """
    mu, var = label.means, label.variances
    h = EnsembleBatch(mu[:, None], var[:, None]).bayes(rule, ApproximationId.BA)
    return float(np.mean(h + _divergences_to(rule, pred, mu, var)))


def divergence(rule: ScoringRule, pred: GaussianEnsemble, label: GaussianEnsemble):
    """d(pred, label) = S(pred, label) - H(label), the excess of predicting
    ``pred`` when ``label`` is true.  Nonnegative for proper rules.

    CRPS, QUADRATIC and SE divergences are symmetric and closed-form for
    mixtures on both sides.  LOG divergence is KL(label || pred); it is
    closed only when both sides are single Gaussians, and raises
    NotClosedForm otherwise.
    """
    if pred.size == 1:
        batch = _as_batch(label)
        vs = batch.gaussian_vs_members if batch.size == 1 else batch.gaussian_vs_mixture
        return float(vs(rule, pred.means, pred.variances)[0])
    return expected_score(rule, pred, label) - entropy(rule, label)


def log_quadrature_cells(ens: GaussianEnsemble) -> dict[str, float]:
    """The seven LOG cells that need quadrature, from one mixture-entropy
    integral per ensemble (everything else about them is closed-form)."""
    from .oracle import oracle_entropy

    batch = _as_batch(ens, oracle_entropy(ScoringRule.LOG, ens))
    return {est.key: float(batch.evaluate(ScoringRule.LOG, est)[0])
            for est in default_estimators() if needs_mixture_entropy(ScoringRule.LOG, est)}


def log_excess_ba_ens(ens: GaussianEnsemble) -> float:
    """LOG Exc(1,2) = Tot(1,1) - H(P_ens); oracle-assisted."""
    from .oracle import oracle_entropy

    batch = _as_batch(ens, oracle_entropy(ScoringRule.LOG, ens))
    return float(batch.excess(ScoringRule.LOG, (ApproximationId.BA, ApproximationId.ENS))[0])


# -- prediction sets and the measure matrix ----------------------------------

# Elements per EnsembleBatch in measure_matrix and shift_reports, a row of M
# members counting its M(M-1)/2 member pairs and its 64 output cells: it
# bounds the (pair, row) temporaries, so peak memory grows with neither n nor
# M.  Each batch has a fixed cost of 1-1.5 ms (ufunc dispatch for every
# cell), so a smaller budget costs time: 2**17 made ``shift`` slower.
BATCH_ELEMS = 2**18


def batch_rows(members: int, n: int) -> int:
    """Rows per batch for n >= 1 rows of ``members`` members: the fewest
    batches ``BATCH_ELEMS`` allows, with the rows split as evenly as
    possible (the last batch may be smaller)."""
    cap = max(1, BATCH_ELEMS // (members * (members - 1) // 2 + 64))
    batches = -(-n // cap)
    return -(-n // batches)


def _flatten(rows) -> tuple[np.ndarray, np.ndarray]:
    """Flat values (a view of a contiguous (n, M) array) and (n+1,) offsets."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return (np.asarray(rows, dtype=float).ravel(),
                np.arange(len(rows) + 1) * rows.shape[1])
    sizes = [len(r) for r in rows]
    flat = np.fromiter(chain.from_iterable(rows), float, sum(sizes))
    return flat, np.concatenate(([0], np.cumsum(sizes)))


def _unique_ids(ids) -> tuple:
    ids = tuple(ids)
    if not ids:
        raise ValueError("prediction set must contain at least one point")
    if len(set(ids)) != len(ids):
        raise ValueError("point ids must be unique")
    return ids


# Characters that would break an unquoted CSV cell; ids and groups are
# written into CSVs as they are.
_CSV_SPECIAL = (",", '"', "\r", "\n")


def _first_bad_label(labels, optional: bool) -> tuple[int, str]:
    """The index of the first label ``PredictionSet`` refuses, with its
    fault (len(labels) if there is none): an id must be a non-empty string,
    a group (``optional``) a string or None, and neither may hold a
    character of ``_CSV_SPECIAL``.  The constructor and the loader both read
    this rule."""
    if optional:
        ok, fault = [g is None or isinstance(g, str) for g in labels], "expected a string"
    else:
        ok = [isinstance(i, str) and i != "" for i in labels]
        fault = "expected a non-empty string"
    bad = ok.index(False) if not all(ok) else len(ok)
    strings = [s or "" for s in labels[:bad]]
    text = "".join(strings)  # one scan of their join finds none in the common case
    if any(c in text for c in _CSV_SPECIAL):
        return (next(i for i, s in enumerate(strings) if any(c in s for c in _CSV_SPECIAL)),
                "must not contain a comma, a double quote or a line break")
    return bad, fault


def distinct_sizes(sizes) -> np.ndarray:
    """The distinct values of the non-negative ints ``sizes``, ascending, as
    ``np.unique`` gives them but without its masked-array check, which
    imports ``numpy.ma`` (about 10 ms per process)."""
    return np.flatnonzero(np.bincount(sizes))


class PredictionSet:
    """The unit of I/O for all downstream metrics: n points' Gaussian
    ensembles with optional targets and group tags, held as arrays.

    Point i is ``ids[i]`` with members ``means[offsets[i]:offsets[i+1]]``
    (likewise ``variances``); ``target_values[i]`` is NaN and
    ``group_labels[i]`` None where it has none.  Built from (n, M) member
    arrays or n ragged rows, with None for a missing target or group; ids
    and groups obey the loader's rule (``_first_bad_label``), so every set
    built here saves, loads and writes CSV rows intact.
    """

    def __init__(self, ids, means, variances, targets=None, groups=None):
        self.ids = _unique_ids(ids)
        n = len(self.ids)
        self.means, self.offsets = _flatten(means)
        self.variances, var_offsets = _flatten(variances)
        if (len(self.offsets) != n + 1 or not np.array_equal(self.offsets, var_offsets)
                or np.any(np.diff(self.offsets) < 1)):
            raise ValueError("need one non-empty row of means and an equal-length "
                             "row of variances per point")
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.variances))
                and np.all(self.variances > 0.0)):
            raise ValueError("need finite means and variances > 0")
        targets = [None] * n if targets is None else list(targets)
        self.target_values = np.array(targets, dtype=float)  # None -> NaN
        given = np.array([t is not None for t in targets], dtype=bool)
        if len(targets) != n or not np.all(np.isfinite(self.target_values[given])):
            raise ValueError("need one finite target (or None) per point")
        self.group_labels = (None,) * n if groups is None else tuple(groups)
        if len(self.group_labels) != n:
            raise ValueError("need one group (or None) per point")
        for name, labels, optional in (("ids", self.ids, False),
                                       ("groups", self.group_labels, True)):
            i, fault = _first_bad_label(labels, optional)
            if i < n:
                raise ValueError(f"{name}[{i}]: {fault}")

    @classmethod
    def from_flat(cls, ids, means, variances, offsets, target_values, group_labels):
        """A set over its flat layout as a loader that has already checked
        every member, target and group builds it: float ``means`` and
        ``variances``, (n+1,) ``offsets``, NaN for a missing target and None
        for a missing group.  Only the ids are checked here."""
        self = cls.__new__(cls)
        self.ids = _unique_ids(ids)
        self.means, self.variances, self.offsets = means, variances, offsets
        self.target_values, self.group_labels = target_values, tuple(group_labels)
        return self

    def __len__(self) -> int:
        return len(self.ids)

    def targets(self) -> np.ndarray:
        if np.any(np.isnan(self.target_values)):
            raise ValueError("prediction set has points without targets")
        return self.target_values.copy()

    def groups(self) -> list[str]:
        if any(g is None for g in self.group_labels):
            raise ValueError("prediction set has points without group labels")
        return list(self.group_labels)

    def blocks(self):
        """Yield (rows, means, variances) for the points of each ensemble
        size M, ``batch_rows(M, n_M)`` points at a time: ``rows`` are their
        indices (ascending) and the member arrays are (len(rows), M)."""
        sizes = np.diff(self.offsets)
        for size in distinct_sizes(sizes):
            rows_of_size = np.flatnonzero(sizes == size)
            step = batch_rows(size, len(rows_of_size))
            for lo in range(0, len(rows_of_size), step):
                rows = rows_of_size[lo:lo + step]
                members = self.offsets[rows][:, None] + np.arange(size)
                yield rows, self.means[members], self.variances[members]


@dataclass(frozen=True)
class MeasureColumn:
    rule: ScoringRule
    estimator: EstimatorId

    @property
    def needs_mixture_entropy(self) -> bool:
        return needs_mixture_entropy(self.rule, self.estimator)

    @property
    def name(self) -> str:
        return f"{self.rule.value}_{self.estimator.key}"


def measure_columns(rules: Sequence[ScoringRule],
                    estimators: Sequence[EstimatorId] | None = None
                    ) -> tuple[MeasureColumn, ...]:
    """The columns of every rule in turn, each with ``estimators`` (the 16
    of ``default_estimators()`` by default) in order."""
    ests = default_estimators() if estimators is None else tuple(estimators)
    return tuple(MeasureColumn(rule, est) for rule in rules for est in ests)


@dataclass(frozen=True)
class MeasureMatrix:
    """Per-point values of every requested (rule, estimator) cell.

    ``available[k]`` is False for a column nobody computed (one that needs
    H(P_ens), without the oracle fallback): all its cells are NaN.  Every
    cell of an available column is finite."""

    columns: tuple[MeasureColumn, ...]
    values: np.ndarray
    available: np.ndarray


def _batch_log_mixture_entropy(means: np.ndarray, variances: np.ndarray,
                               row_name) -> np.ndarray:
    """The LOG mixture entropies H(P_ens) of (n, M) rows that fill the
    ``--oracle-fallback`` cells of ``measure_matrix`` and
    ``synthetic.shift_reports``: ``oracle._batch_log_mixture_entropy``, the
    oracle imported only here, so a run without the fallback never loads it.
    ``synthetic`` imports this function itself, so the benchmark's one
    timing shim on it covers both callers."""
    from .oracle import _batch_log_mixture_entropy as oracle_entropies

    return oracle_entropies(means, variances, row_name)


def measure_matrix(rules: Sequence[ScoringRule], points: PredictionSet,
                   use_oracle_fallback: bool = False,
                   estimators: Sequence[EstimatorId] | None = None) -> MeasureMatrix:
    """Evaluate every estimator for every point, in ``measure_columns`` order.

    Each ``points.blocks()`` batch runs through ``EnsembleBatch.columns`` in
    one shot, so peak memory is the (n, columns) result plus one batch of
    ``BATCH_ELEMS``.  Cells that need H(P_ens) stay NaN unless
    ``use_oracle_fallback`` is set; then the batch's mixture entropies come
    from ``_batch_log_mixture_entropy``, as in ``shift_reports``; a point
    whose entropy does not converge raises ConvergenceError naming it
    (``point <id>``).
    A cell of an available column that overflows to +-inf or NaN raises
    ValueError naming the first such column and its first such point; NumPy's
    overflow and invalid-value warnings are silenced while the blocks are
    evaluated, so that error is the one report."""
    columns = measure_columns(rules, estimators)
    fill = use_oracle_fallback and any(col.needs_mixture_entropy for col in columns)
    values = np.empty((len(points), len(columns)))
    for rows, means, variances in points.blocks():
        # a cell that overflows is reported below, once, by column and point
        with np.errstate(over="ignore", invalid="ignore"):
            h_ens = None
            if fill:
                h_ens = _batch_log_mixture_entropy(
                    means, variances, lambda row: f"point {points.ids[rows[row]]}")
            values[rows] = EnsembleBatch(means, variances, h_ens).columns(columns)
    available = np.array([fill or not col.needs_mixture_entropy for col in columns],
                         dtype=bool)
    bad = ~np.isfinite(values)
    bad[:, ~available] = False
    if bad.any():
        k = int(np.flatnonzero(bad.any(axis=0))[0])
        i = int(np.flatnonzero(bad[:, k])[0])
        what = "infinite" if np.isinf(values[i, k]) else "not finite"
        raise ValueError(f"measure column {columns[k].name} is {what} "
                         f"at point {points.ids[i]!r}")
    return MeasureMatrix(columns, values, available)
