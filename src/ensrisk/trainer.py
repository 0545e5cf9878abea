"""Desk-scale heteroscedastic MLP deep ensembles, trained by hand.

Each member is a small fully connected SiLU network whose two output heads
parameterize a Gaussian through its natural parameters eta1 = mu / sigma^2
and eta2 = -1 / (2 sigma^2).  Negativity of eta2 is enforced smoothly via
eta2 = -softplus(raw) - 1e-6, which also bounds the recovered variance.
Training minimizes the natural-parameterization negative log-likelihood

    L = -(eta1 y + eta2 y^2) - eta1^2 / (4 eta2) - log(-2 eta2) / 2
        + log(2 pi) / 2,

whose gradient in (eta1, eta2) is the moment mismatch (E[Y] - y,
E[Y^2] - y^2).  Backpropagation is written out manually so the
finite-difference check in the test suite audits the whole chain; the same
constant log(2 pi)/2 is kept in both NLL variants so they agree exactly
under reparameterization.

The M members of an ensemble are one ``Mlp`` whose parameters carry a
leading member axis, so each minibatch is one stacked forward, backward and
Adam step for all of them.  Member m keeps its own ``default_rng([seed,
m])`` stream for its initialization and its minibatch order.  The stacked
objective is the sum over members of each member's mean NLL; the members
share no parameters, so its gradient block m is exactly member m's own
gradient, and every member trains bit for bit as it would alone.

A training step is bound by NumPy call overhead, not arithmetic, so the
stack keeps every parameter in one contiguous vector (layer views on top),
backpropagation fills one gradient vector of the same layout, and Adam
updates the flat (parameters, m, v) vectors in one pass of ufuncs.  Each
epoch's permuted minibatches are gathered once.  The step works in place
but keeps the textbook expressions' evaluation order, so the trained
weights are the same bits as a per-array implementation gives, and each
member's mean NLL is summed per epoch to detect divergence.

Inputs and targets are z-scored from the training split and the
standardization is inverted at prediction time, which these narrow networks
need for stable NLL training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimators import (
    Availability,
    EnsembleBatch,
    PredictionSet,
    availability,
)
from .scores import ScoringRule, realized_scores

_LOG_2PI = math.log(2.0 * math.pi)
_ETA2_MARGIN = 1e-6
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba (2015)
_LEARNING_RATE, _BATCH_SIZE = 1e-3, 64
_HIDDEN_WIDTHS = (8, 8)


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss)."""


# -- losses --------------------------------------------------------------------

def nll_standard(mu, sigma2, y):
    """Gaussian NLL in (mu, sigma^2), including the log(2 pi)/2 constant."""
    mu, sigma2, y = (np.asarray(v, dtype=float) for v in (mu, sigma2, y))
    if np.any(sigma2 <= 0.0):
        raise ValueError("sigma2 must be > 0")
    out = 0.5 * (_LOG_2PI + np.log(sigma2)) + (y - mu) ** 2 / (2.0 * sigma2)
    return float(out) if out.ndim == 0 else out


def nll_natural(eta1, eta2, y):
    """Gaussian NLL in natural parameters; equals ``nll_standard`` under
    eta1 = mu / sigma^2, eta2 = -1 / (2 sigma^2)."""
    eta1, eta2, y = (np.asarray(v, dtype=float) for v in (eta1, eta2, y))
    if np.any(eta2 >= 0.0):
        raise ValueError("eta2 must be < 0")
    out = -(eta1 * y + eta2 * y * y) - eta1 * eta1 / (4.0 * eta2) \
        - 0.5 * np.log(-2.0 * eta2) + 0.5 * _LOG_2PI
    return float(out) if out.ndim == 0 else out


def natural_from_moments(mu, sigma2):
    mu, sigma2 = np.asarray(mu, dtype=float), np.asarray(sigma2, dtype=float)
    return mu / sigma2, -0.5 / sigma2


def moments_from_natural(eta1, eta2):
    eta1, eta2 = np.asarray(eta1, dtype=float), np.asarray(eta2, dtype=float)
    sigma2 = -0.5 / eta2
    return eta1 * sigma2, sigma2


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


# -- the network ---------------------------------------------------------------

class Mlp:
    """M ensemble members stacked on a leading axis: dense layers plus the
    two natural-parameter heads.

    Every parameter lives in one contiguous float64 vector ``params``, laid
    out as all weights then all biases, layer by layer; ``weights`` (M,
    fan_in, fan_out) and ``biases`` (M, fan_out) are reshaped views of it.
    ``Mlp(input_dim, members)``, with ``_HIDDEN_WIDTHS`` hidden layers, starts
    from zeros; ``Mlp.from_generators`` draws a random initialization.
    """

    def __init__(self, input_dim: int, members: int = 1):
        if members < 1:
            raise ValueError("an Mlp needs at least one member")
        dims = [input_dim, *_HIDDEN_WIDTHS, 2]
        self._shapes = ([(members, i, o) for i, o in zip(dims[:-1], dims[1:])]
                        + [(members, o) for o in dims[1:]])
        self.params = np.zeros(sum(math.prod(s) for s in self._shapes))
        self.weights, self.biases = self.layer_views(self.params)
        self._grad = np.empty_like(self.params)
        self._grad_weights, self._grad_biases = self.layer_views(self._grad)

    @classmethod
    def from_generators(cls, input_dim: int, *rngs: np.random.Generator) -> "Mlp":
        """One member per generator, each drawing its weights layer by layer
        from N(0, 1 / fan_in); biases start at zero.
        ``from_generators(input_dim, rng)`` is a one-member stack."""
        net = cls(input_dim, len(rngs))
        for w in net.weights:
            fan_in, fan_out = w.shape[1:]
            scale = 1.0 / math.sqrt(fan_in)
            for m, rng in enumerate(rngs):
                w[m] = rng.normal(0.0, scale, size=(fan_in, fan_out))
        return net

    def layer_views(self, vec: np.ndarray) -> tuple[list, list]:
        """(weights, biases) views of a vector laid out like ``params``."""
        views, offset = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(vec[offset:offset + size].reshape(shape))
            offset += size
        layers = len(self._shapes) // 2
        return views[:layers], views[layers:]

    def _forward(self, x):
        """Head outputs (M, n, 2) plus the pre-activations, sigmoids and
        layer inputs that backpropagation reads."""
        a = x
        pre, sig, post = [], [], [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = np.matmul(a, w)
            z += b[:, None, :]
            s = _sigmoid(z)
            a = z * s
            pre.append(z)
            sig.append(s)
            post.append(a)
        out = np.matmul(a, self.weights[-1])
        out += self.biases[-1][:, None, :]
        return out, pre, sig, post

    def forward(self, x: np.ndarray):
        """Natural parameters, (M, n) each, for a shared (n, input_dim) batch
        or a per-member (M, n, input_dim) one."""
        out = self._forward(x)[0]
        return out[..., 0], _eta2(out[..., 1])

    def loss_and_gradients(self, x: np.ndarray, y: np.ndarray):
        """Sum over members of each member's mean natural NLL over its batch,
        its gradient, and the (M,) member means.

        The gradient is a new vector laid out like ``params``, copied from
        the buffer the backward pass writes into.  Members are
        independent, so gradient block m is member m's own gradient.  The
        in-place steps round exactly as the textbook expressions do: IEEE +
        and * commute and negation is exact, so only the grouping has to be
        kept.
        """
        n = y.shape[-1]
        out, pre, sig, post = self._forward(x)
        eta1 = out[..., 0]
        raw = out[..., 1]
        eta2 = _eta2(raw)
        member_loss = np.mean(nll_natural(eta1, eta2, y), axis=-1)
        # dL/deta are the moment mismatches of the predicted Gaussian; the
        # eta2 column is chained through eta2 = -softplus(raw) - margin
        neg_y = np.negative(y)
        two_eta2 = 2.0 * eta2
        head = np.empty(out.shape)
        d_eta1, d_eta2 = head[..., 0], head[..., 1]
        np.divide(eta1, two_eta2, out=d_eta1)
        np.subtract(neg_y, d_eta1, out=d_eta1)
        d_eta1 /= n
        t = 4.0 * eta2
        t *= eta2
        np.divide(eta1 * eta1, t, out=t)
        np.multiply(neg_y, y, out=d_eta2)
        d_eta2 += t
        np.divide(1.0, two_eta2, out=t)
        d_eta2 -= t
        d_eta2 /= n
        s = _sigmoid(raw)
        np.negative(s, out=s)
        d_eta2 *= s

        delta = head
        for layer in reversed(range(len(self.weights))):
            np.matmul(post[layer].swapaxes(-1, -2), delta, out=self._grad_weights[layer])
            np.add.reduce(delta, axis=-2, out=self._grad_biases[layer])
            if layer > 0:
                delta = np.matmul(delta, self.weights[layer].swapaxes(-1, -2))
                z, s = pre[layer - 1], sig[layer - 1]
                g = np.subtract(1.0, s)  # SiLU': s (1 + z (1 - s))
                g *= z
                g += 1.0
                g *= s
                delta *= g
        return float(member_loss.sum()), self._grad.copy(), member_loss


def _eta2(raw):
    """eta2 = -softplus(raw) - margin, in place over softplus(raw)."""
    eta2 = _softplus(raw)
    np.negative(eta2, out=eta2)
    eta2 -= _ETA2_MARGIN
    return eta2


class _AdamState:
    """Adam moments and step scratch, laid out like the parameter vector."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step = np.empty(size)
        self.denom = np.empty(size)
        self.t = 0


def _adam_step(params: np.ndarray, grad: np.ndarray, state: _AdamState):
    """One Adam update of the flat ``params``, in place, with the fixed
    learning rate 1e-3, beta1 = 0.9, beta2 = 0.999 and eps = 1e-8.
    Each line is one ufunc of the textbook expression p -= lr (m / bc1) /
    (sqrt(v / bc2) + eps), evaluated in that order."""
    state.t += 1
    bc1 = 1.0 - _ADAM_BETA1 ** state.t
    bc2 = 1.0 - _ADAM_BETA2 ** state.t
    m, v, step, denom = state.m, state.v, state.step, state.denom
    m *= _ADAM_BETA1
    np.multiply(grad, 1.0 - _ADAM_BETA1, out=step)
    m += step
    v *= _ADAM_BETA2
    np.multiply(grad, 1.0 - _ADAM_BETA2, out=step)
    step *= grad
    v += step
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += _ADAM_EPS
    np.divide(m, bc1, out=step)
    step *= _LEARNING_RATE
    step /= denom
    params -= step


@dataclass(frozen=True)
class EnsemblePredictor:
    """M trained members, stacked in one network, plus the normalization
    applied around them."""

    net: Mlp
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float

    @property
    def size(self) -> int:
        return len(self.net.weights[0])


def _standardize_stats(values: np.ndarray, name: str):
    """Finite mean and scale (the std, or 1 where it is 0) of ``values``."""
    with np.errstate(over="ignore"):
        mean = values.mean(axis=0)
        scale = values.std(axis=0)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale))):
        raise ValueError(f"the training {name} are too widely spread to standardize")
    return mean, np.where(scale > 0.0, scale, 1.0)


def _as_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"the targets must be 1-D, one per input row, not shape {y.shape}")
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.size == 0 or len(x) != len(y):
        raise ValueError("data must be non-empty (n, d) inputs with n targets")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")
    return x, y


def train_ensemble(x, y, members: int, epochs: int, seed: int) -> EnsemblePredictor:
    """Train M members from independent initializations (seed + index).

    The input width is that of ``x``'s rows.  Member m draws its
    initialization and minibatch order from its own ``default_rng([seed,
    m])`` stream; all members take one stacked step per minibatch.
    Deterministic given ``seed``; raises TrainingError, naming the
    lowest-index member, if a member's mean NLL over an epoch is non-finite.
    """
    if members < 1 or epochs < 1:
        raise ValueError("members and epochs must be >= 1")
    x, y = _as_xy(x, y)
    x_mean, x_scale = _standardize_stats(x, "inputs")
    y_mean, y_scale = _standardize_stats(y, "targets")
    xs = (x - x_mean) / x_scale
    ys = (y - y_mean) / y_scale

    rngs = [np.random.default_rng([seed, idx]) for idx in range(members)]
    net = Mlp.from_generators(x.shape[1], *rngs)
    state = _AdamState(net.params.size)
    n = len(ys)
    for epoch in range(epochs):
        perm = np.stack([rng.permutation(n) for rng in rngs])
        x_epoch, y_epoch = xs[perm], ys[perm]
        epoch_loss = np.zeros(members)
        for lo in range(0, n, _BATCH_SIZE):
            hi = lo + _BATCH_SIZE
            _, grad, member_loss = net.loss_and_gradients(x_epoch[:, lo:hi],
                                                          y_epoch[:, lo:hi])
            epoch_loss += member_loss
            _adam_step(net.params, grad, state)
        finite = np.isfinite(epoch_loss)
        if not finite.all():
            raise TrainingError(f"member {int(np.argmin(finite))} diverged "
                                f"at epoch {epoch} (non-finite loss)")
    return EnsemblePredictor(net, x_mean, x_scale, float(y_mean), float(y_scale))


def predict_arrays(pred: EnsemblePredictor, xs) -> tuple[np.ndarray, np.ndarray]:
    """Per-point member means and variances in original units; (n, M) each."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.shape[1] != pred.net.weights[0].shape[1]:
        raise ValueError("input width does not match the trained network's")
    xn = (xs - pred.x_mean) / pred.x_scale
    eta1, eta2 = pred.net.forward(xn)
    mu, var = moments_from_natural(eta1, eta2)
    means = np.ascontiguousarray((mu * pred.y_scale + pred.y_mean).T)
    variances = np.ascontiguousarray((var * pred.y_scale ** 2).T)
    return means, variances


def predict(pred: EnsemblePredictor, xs, targets=None,
            group: Optional[str] = None) -> PredictionSet:
    """Per-point Gaussian ensembles for a batch of inputs, ids "0", "1", ..."""
    means, variances = predict_arrays(pred, xs)
    n = len(means)
    groups = None if group is None else [group] * n
    return PredictionSet([str(i) for i in range(n)], means, variances, targets, groups)


def ensemble_nll(pred: EnsemblePredictor, xs, ys) -> float:
    """Mean negative log-likelihood of the ensemble mixture on held-out
    data: the mean realized LOG score."""
    means, variances = predict_arrays(pred, xs)
    ys = np.asarray(ys, dtype=float)
    if ys.shape != means.shape[:1]:
        raise ValueError(f"need one held-out target per input, not shape {ys.shape}")
    return float(np.mean(realized_scores(ScoringRule.LOG, means, variances, ys)))


# -- checkpoints -----------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(pred: EnsemblePredictor, path: str) -> None:
    """Write the predictor as versioned JSON (weights in full precision)."""
    import json

    from .dataio import atomic_write

    doc = {
        "format_version": CHECKPOINT_VERSION,
        "spec": {
            "input_dim": pred.net.weights[0].shape[1],
            "hidden_widths": list(_HIDDEN_WIDTHS),
            "activation": "silu",
        },
        "normalization": {
            "x_mean": pred.x_mean.tolist(),
            "x_scale": pred.x_scale.tolist(),
            "y_mean": pred.y_mean,
            "y_scale": pred.y_scale,
        },
        "members": [
            {
                "weights": [w[m].tolist() for w in pred.net.weights],
                "biases": [b[m].tolist() for b in pred.net.biases],
            }
            for m in range(pred.size)
        ],
    }
    atomic_write(path, json.dumps(doc) + "\n")


def load_checkpoint(path: str) -> EnsemblePredictor:
    import json

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('format_version')}")
    spec = doc["spec"]
    if spec["activation"] != "silu":
        raise ValueError(f"unsupported checkpoint activation {spec['activation']!r}")
    if tuple(spec["hidden_widths"]) != _HIDDEN_WIDTHS:
        raise ValueError(f"unsupported checkpoint hidden widths {spec['hidden_widths']}")
    entries = doc["members"]
    net = Mlp(spec["input_dim"], len(entries))
    stored = (*zip(*(e["weights"] for e in entries)), *zip(*(e["biases"] for e in entries)))
    views = (*net.weights, *net.biases)
    if len(stored) != len(views):
        raise ValueError("checkpoint layers do not match its spec")
    for view, layer in zip(views, stored):
        layer = np.array(layer, dtype=float)
        if layer.shape != view.shape:
            raise ValueError("checkpoint layers do not match its spec")
        view[...] = layer
    norm = doc["normalization"]
    return EnsemblePredictor(net, np.asarray(norm["x_mean"], dtype=float),
                             np.asarray(norm["x_scale"], dtype=float),
                             float(norm["y_mean"]), float(norm["y_scale"]))


# -- active learning -------------------------------------------------------------

@dataclass(frozen=True)
class ActiveLearningResult:
    """Held-out NLL after each training round, plus acquisition bookkeeping."""

    nll_trajectory: tuple[float, ...]
    acquired: tuple[int, ...]
    truncated: bool


def _derived_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([seed, salt]).generate_state(1, np.uint64)[0])


def active_learning_loop(pool_x, pool_y, initial_indices, measure,
                         iterations: int, batch: int,
                         members: int, heldout_x, heldout_y,
                         epochs: int, seed: int) -> ActiveLearningResult:
    """Softmax acquisition over an uncertainty measure, without replacement.

    ``measure`` is a (rule, EstimatorId) pair evaluated in closed form on
    the pool predictions, or None for the Random baseline.  Each iteration
    trains a fresh ensemble, records held-out NLL, then moves ``batch``
    pool points into the training set by sampling from softmax(score); a
    final ensemble is trained after the last acquisition, so the trajectory
    has iterations + 1 entries.  The pool must be disjoint from the
    held-out data; an exhausted pool stops the loop early with the
    truncation flag set.
    """
    pool_x, pool_y = _as_xy(pool_x, pool_y)
    if iterations < 1 or batch < 1:
        raise ValueError("iterations and batch must be >= 1")
    if measure is not None:
        rule, est = measure
        if availability(rule, est) is Availability.QUADRATURE_REQUIRED:
            raise ValueError(f"acquisition measure {rule.value}:{est.key} "
                             "is not available in closed form")

    train_idx = sorted(set(int(i) for i in initial_indices))
    if not train_idx:
        raise ValueError("initial index set must be non-empty")
    outside = [i for i in train_idx if not 0 <= i < len(pool_y)]
    if outside:
        raise ValueError(f"initial index {outside[0]} is outside the pool "
                         f"of {len(pool_y)} points")
    remaining = sorted(set(range(len(pool_y))) - set(train_idx))
    acq_rng = np.random.default_rng([seed, 0xACC])
    trajectory = []
    acquired: list[int] = []
    truncated = False

    for it in range(iterations + 1):
        predictor = train_ensemble(pool_x[train_idx], pool_y[train_idx],
                                   members, epochs, _derived_seed(seed, it))
        trajectory.append(ensemble_nll(predictor, heldout_x, heldout_y))
        if it == iterations:
            break
        if not remaining:
            truncated = True
            break
        take = min(batch, len(remaining))
        if take < batch:
            truncated = True
        if measure is None:
            chosen = acq_rng.choice(len(remaining), size=take, replace=False)
        else:
            means, variances = predict_arrays(predictor, pool_x[remaining])
            scores = EnsembleBatch(means, variances).evaluate(rule, est)
            # Gumbel top-k == sampling without replacement from
            # softmax(scores); unlike exponentiating, it cannot underflow
            # when one region dominates the scores.
            u = acq_rng.random(len(remaining))
            gumbel = -np.log(-np.log(np.clip(u, 1e-300, 1.0 - 1e-16)))
            keys = scores + gumbel
            chosen = np.argpartition(-keys, take - 1)[:take]
        picked = [remaining[i] for i in sorted(chosen)]
        acquired.extend(picked)
        picked_set = set(picked)
        train_idx = sorted(set(train_idx) | picked_set)
        remaining = [i for i in remaining if i not in picked_set]

    return ActiveLearningResult(tuple(trajectory), tuple(acquired), truncated)
