"""Losses, manual backpropagation, training, and the acquisition loop."""

import math

import numpy as np
import pytest

from ensrisk.estimators import ApproximationId, EstimatorId, RiskKind
from ensrisk import trainer
from ensrisk.scores import ScoringRule
from ensrisk.synthetic import two_curve_arrays, two_curve_sigma
from ensrisk.trainer import (
    Activation,
    Mlp,
    MlpSpec,
    TrainConfig,
    TrainingError,
    _sigmoid,
    _standardize_stats,
    active_learning_loop,
    load_checkpoint,
    moments_from_natural,
    natural_from_moments,
    nll_natural,
    nll_standard,
    predict,
    predict_arrays,
    save_checkpoint,
    train_ensemble,
)

BA = ApproximationId.BA
EXC_11 = EstimatorId(RiskKind.EXCESS, BA, BA)


class TestLosses:
    def test_standard_values(self):
        assert nll_standard(0.0, 1.0, 1.0) == pytest.approx(
            0.5 * math.log(2 * math.pi) + 0.5, rel=1e-15)
        # residual term vanishes at y = mu
        assert nll_standard(2.0, 3.0, 2.0) == pytest.approx(
            0.5 * math.log(2 * math.pi * 3.0), rel=1e-15)
        # direct evaluation, equals -log N(2; 0, 4) from the density
        assert nll_standard(0.0, 4.0, 2.0) == pytest.approx(
            0.5 * math.log(8 * math.pi) + 0.5, rel=1e-14)

    def test_natural_maps_to_standard(self):
        assert nll_natural(0.0, -0.5, 1.0) == pytest.approx(
            nll_standard(0.0, 1.0, 1.0), rel=1e-15)

    def test_reparameterization_identity(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=100)
        sigma2 = rng.uniform(0.05, 10, size=100)
        y = rng.normal(size=100)
        eta1, eta2 = natural_from_moments(mu, sigma2)
        diff = np.abs(nll_natural(eta1, eta2, y) - nll_standard(mu, sigma2, y))
        assert diff.max() < 1e-12
        mu2, s2 = moments_from_natural(eta1, eta2)
        np.testing.assert_allclose(mu2, mu, rtol=1e-12)
        np.testing.assert_allclose(s2, sigma2, rtol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nll_standard(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            nll_natural(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            nll_natural(0.0, 0.5, 1.0)

    def test_head_gradients_against_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(100):
            eta1 = rng.uniform(-2, 2)
            eta2 = rng.uniform(-3, -0.1)
            y = rng.uniform(-2, 2)
            a1 = -y - eta1 / (2 * eta2)
            a2 = -y * y + eta1**2 / (4 * eta2**2) - 1 / (2 * eta2)
            f1 = (nll_natural(eta1 + h, eta2, y) - nll_natural(eta1 - h, eta2, y)) / (2 * h)
            f2 = (nll_natural(eta1, eta2 + h, y) - nll_natural(eta1, eta2 - h, y)) / (2 * h)
            for a, f in ((a1, f1), (a2, f2)):
                assert abs(a - f) / max(abs(a), abs(f), 1e-3) < 1e-6


class TestBackpropagation:
    @pytest.mark.parametrize("activation", [Activation.SILU, Activation.RELU])
    def test_network_gradients_match_finite_differences(self, activation):
        spec = MlpSpec(input_dim=2, hidden_widths=(6, 5), activation=activation)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(24, 2))
        y = rng.normal(size=24)
        for point in range(10):
            net = Mlp.from_generators(spec, np.random.default_rng(100 + point))
            _, grad = net.gradient_vector(x, y)
            theta = net.parameter_vector()
            h = 1e-5
            fd = np.empty_like(theta)
            for i in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                net.set_parameter_vector(up)
                lu, _, _ = net.loss_and_gradients(x, y)
                net.set_parameter_vector(down)
                ld, _, _ = net.loss_and_gradients(x, y)
                fd[i] = (lu - ld) / (2 * h)
            net.set_parameter_vector(theta)
            rel = np.abs(grad - fd) / np.maximum(
                np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
            assert rel.max() < 1e-4

    def test_stacked_gradients_match_finite_differences(self):
        """The summed objective of a 3-member stack on per-member batches,
        and each gradient block equal to its member trained alone."""
        spec = MlpSpec(input_dim=2, hidden_widths=(5, 4))
        rng = np.random.default_rng(20)
        x = rng.normal(size=(3, 20, 2))
        y = rng.normal(size=(3, 20))
        net = Mlp.from_generators(spec, *(np.random.default_rng(200 + m) for m in range(3)))
        _, grad = net.gradient_vector(x, y)
        theta = net.parameter_vector()
        h = 1e-5
        fd = np.empty_like(theta)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            net.set_parameter_vector(up)
            lu, _, _ = net.loss_and_gradients(x, y)
            net.set_parameter_vector(down)
            ld, _, _ = net.loss_and_gradients(x, y)
            fd[i] = (lu - ld) / (2 * h)
        net.set_parameter_vector(theta)
        rel = np.abs(grad - fd) / np.maximum(
            np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
        assert rel.max() < 1e-4

        _, grad, _ = net.loss_and_gradients(x, y)
        gw, gb = net.layer_views(grad)
        for m in range(3):
            single = Mlp.from_generators(spec, np.random.default_rng(200 + m))
            sw, sb = single.layer_views(single.loss_and_gradients(x[m], y[m])[1])
            for stacked, alone in zip((*gw, *gb), (*sw, *sb)):
                np.testing.assert_array_equal(stacked[m], alone[0])

    def test_sigmoid_matches_masked_form(self):
        mags = np.logspace(-300, 5, 4001)
        x = np.concatenate([-mags, [-np.inf, -0.0, 0.0, np.inf], mags])
        masked = np.empty_like(x)
        pos = x >= 0
        masked[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        masked[~pos] = ex / (1.0 + ex)
        np.testing.assert_array_equal(_sigmoid(x), masked)

    def test_eta2_always_negative(self):
        spec = MlpSpec()
        net = Mlp.from_generators(spec, np.random.default_rng(3))
        xs = np.linspace(-50, 50, 1000)[:, None]
        _, eta2 = net.forward(xs)
        assert np.all(eta2 < 0.0)


class TestTraining:
    def test_constant_target_fit(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(300, 1))
        y = np.full(300, 3.0)
        pred = train_ensemble(x, y, 3, MlpSpec(), TrainConfig(epochs=150, seed=4))
        means, variances = predict_arrays(pred, x)
        assert np.all(np.abs(means - 3.0) < 0.05)
        assert np.all(variances > 0)

    def test_single_member(self):
        x, y, _ = two_curve_arrays(200, -4, 4, seed=5)
        pred = train_ensemble(x, y, 1, MlpSpec(), TrainConfig(epochs=5, seed=5))
        ps = predict(pred, x[:4])
        assert np.all(np.diff(ps.offsets) == 1)

    def test_bitwise_determinism(self):
        x, y, _ = two_curve_arrays(300, -4, 4, seed=6)
        cfg = TrainConfig(epochs=15, seed=6)
        a = train_ensemble(x, y, 2, MlpSpec(), cfg)
        b = train_ensemble(x, y, 2, MlpSpec(), cfg)
        grid = np.linspace(-5, 5, 50)
        ma, va = predict_arrays(a, grid)
        mb, vb = predict_arrays(b, grid)
        np.testing.assert_array_equal(ma, mb)
        np.testing.assert_array_equal(va, vb)

    def test_variance_tracks_generator_in_support(self):
        from ensrisk.synthetic import two_curve_mu1, two_curve_mu2, two_curve_pi

        x, y, _ = two_curve_arrays(1200, -4, 4, seed=7)
        pred = train_ensemble(x, y, 10, MlpSpec(), TrainConfig(epochs=100, seed=7))
        # the single-Gaussian members should reproduce the full conditional
        # spread, which adds the curve-separation term to the noise floor;
        # the narrow dip where the curves cross (x ~ -1) gets smoothed over
        # by the width-8 net, so it is excluded from the factor-2 box
        grid = np.array([-2.0, -0.3, 0.0, 1.5, 2.0])
        _, variances = predict_arrays(pred, grid)
        pi = two_curve_pi(grid)
        gap = two_curve_mu1(grid) - two_curve_mu2(grid)
        true_var = two_curve_sigma(grid) ** 2 + pi * (1 - pi) * gap**2
        ratio = variances.mean(axis=1) / true_var
        assert np.all(ratio < 2.0) and np.all(ratio > 0.5)
        wide = np.linspace(-2.0, 2.0, 41)
        _, var_wide = predict_arrays(pred, wide)
        pi_w = two_curve_pi(wide)
        gap_w = two_curve_mu1(wide) - two_curve_mu2(wide)
        true_w = two_curve_sigma(wide) ** 2 + pi_w * (1 - pi_w) * gap_w**2
        geo_mean = float(np.exp(np.mean(np.log(var_wide.mean(axis=1) / true_w))))
        assert 0.5 < geo_mean < 2.0

    def test_positive_variance_on_extrapolation_grid(self):
        x, y, _ = two_curve_arrays(300, -4, 4, seed=8)
        pred = train_ensemble(x, y, 2, MlpSpec(), TrainConfig(epochs=10, seed=8))
        grid = np.linspace(-40, 40, 1000)
        _, variances = predict_arrays(pred, grid)
        assert np.all(variances > 0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            train_ensemble(np.empty((0, 1)), np.empty(0), 2)
        with pytest.raises(ValueError):
            train_ensemble(np.zeros((5, 3)), np.zeros(5), 2, MlpSpec(input_dim=1))

    def test_divergence_detection(self):
        x, y, _ = two_curve_arrays(100, -4, 4, seed=9)
        # a learning rate at float-overflow scale drives activations to inf
        # and the loss to NaN on the next batch
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="member 0"):
            train_ensemble(x, y, 1, MlpSpec(),
                           TrainConfig(epochs=3, seed=9, learning_rate=1e300))


    def test_divergence_names_the_member(self, monkeypatch):
        class SecondMemberBlowsUp(Mlp):
            @classmethod
            def from_generators(cls, spec, *rngs):
                net = super().from_generators(spec, *rngs)
                net.weights[0][1] *= 1e300
                return net

        monkeypatch.setattr(trainer, "Mlp", SecondMemberBlowsUp)
        x, y, _ = two_curve_arrays(100, -4, 4, seed=9)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingError, match="member 1 diverged at epoch 0"):
            train_ensemble(x, y, 2, MlpSpec(), TrainConfig(epochs=3, seed=9))

    def test_divergence_names_the_member_and_a_later_epoch(self, monkeypatch):
        """A NaN written into member 2's head after the second step of epoch
        2 (four steps an epoch) poisons that member's loss from the next
        step on, and only that member's."""
        nets = []

        class Recorded(Mlp):
            def __init__(self, spec, members):
                super().__init__(spec, members)
                nets.append(self)

        adam = trainer._adam_step

        def poisoned(params, grad, state, cfg):
            adam(params, grad, state, cfg)
            if state.t == 10:
                nets[0].biases[-1][2, 1] = np.nan

        monkeypatch.setattr(trainer, "Mlp", Recorded)
        monkeypatch.setattr(trainer, "_adam_step", poisoned)
        x, y, _ = two_curve_arrays(100, -4, 4, seed=9)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingError, match="member 2 diverged at epoch 2 "):
            train_ensemble(x, y, 3, MlpSpec(), TrainConfig(epochs=5, seed=9, batch_size=32))

    @pytest.mark.parametrize("bad", [dict(beta1=1.0), dict(beta2=1.0),
                                     dict(beta1=-0.5), dict(beta2=1.5),
                                     dict(eps=0.0), dict(eps=-1e-8)])
    def test_invalid_adam_constants_rejected(self, bad):
        with pytest.raises(ValueError, match="Adam"):
            TrainConfig(**bad)


def _masked_sigmoid(x):
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _reference_loss_and_gradients(net, x, y):
    """The textbook backward pass, one fresh array per layer and term:
    (loss, weight gradients, bias gradients)."""
    relu = net.spec.activation is Activation.RELU
    n = y.shape[-1]
    a, pre, sig, post = x, [], [], [x]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = np.matmul(a, w) + b[:, None, :]
        s = None if relu else _masked_sigmoid(z)
        a = np.maximum(z, 0.0) if relu else z * s
        pre.append(z)
        sig.append(s)
        post.append(a)
    out = np.matmul(a, net.weights[-1]) + net.biases[-1][:, None, :]
    eta1, raw = out[..., 0], out[..., 1]
    eta2 = -np.logaddexp(0.0, raw) - 1e-6
    loss = float(np.sum(np.mean(nll_natural(eta1, eta2, y), axis=-1)))
    d_eta1 = (-y - eta1 / (2.0 * eta2)) / n
    d_eta2 = (-y * y + eta1 * eta1 / (4.0 * eta2 * eta2) - 1.0 / (2.0 * eta2)) / n
    delta = np.stack([d_eta1, d_eta2 * (-_masked_sigmoid(raw))], axis=-1)
    gw, gb = [None] * len(net.weights), [None] * len(net.biases)
    for layer in reversed(range(len(net.weights))):
        gw[layer] = np.matmul(post[layer].swapaxes(-1, -2), delta)
        gb[layer] = delta.sum(axis=-2)
        if layer > 0:
            z, s = pre[layer - 1], sig[layer - 1]
            act_grad = (z > 0.0).astype(float) if relu else s * (1.0 + z * (1.0 - s))
            delta = np.matmul(delta, net.weights[layer].swapaxes(-1, -2)) * act_grad
    return loss, gw, gb


def _reference_adam(params, grads, state, cfg):
    """Adam on a list of arrays, one at a time; ``state`` is (m, v, [t])."""
    m_list, v_list, t = state
    t[0] += 1
    bc1 = 1.0 - cfg.beta1 ** t[0]
    bc2 = 1.0 - cfg.beta2 ** t[0]
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def _per_member_reference(x, y, members, spec, cfg):
    """Training with one network and one per-array Adam state per member, in
    turn, through the reference backward pass."""
    x_mean, x_scale = _standardize_stats(x)
    y_mean, y_scale = _standardize_stats(y)
    xs = (x - x_mean) / x_scale
    ys = (y - y_mean) / y_scale
    nets = []
    for idx in range(members):
        rng = np.random.default_rng([cfg.seed, idx])
        net = Mlp.from_generators(spec, rng)
        params = [*net.weights, *net.biases]
        state = ([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params], [0])
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(ys))
            for lo in range(0, len(ys), cfg.batch_size):
                sel = perm[lo:lo + cfg.batch_size]
                _, gw, gb = _reference_loss_and_gradients(net, xs[sel], ys[sel])
                _reference_adam(params, [*gw, *gb], state, cfg)
        nets.append(net)
    return nets


class TestStackedTraining:
    @pytest.mark.parametrize("spec", [
        MlpSpec(),
        MlpSpec(input_dim=2, hidden_widths=(6, 5), activation=Activation.RELU),
    ], ids=["silu", "relu"])
    def test_matches_per_member_loop_bitwise(self, spec):
        rng = np.random.default_rng(21)
        n = 203  # not a multiple of the batch size
        x = rng.uniform(-4, 4, size=(n, spec.input_dim))
        y = np.sin(x.sum(axis=1)) + 0.3 * rng.normal(size=n)
        cfg = TrainConfig(epochs=8, seed=21, batch_size=64)
        pred = train_ensemble(x, y, 3, spec, cfg)
        reference = _per_member_reference(x, y, 3, spec, cfg)
        assert pred.size == 3
        for m, net in enumerate(reference):
            for stacked, alone in zip((*pred.net.weights, *pred.net.biases),
                                      (*net.weights, *net.biases)):
                np.testing.assert_array_equal(stacked[m], alone[0])


class TestFlatParameters:
    def _net(self):
        spec = MlpSpec(input_dim=2, hidden_widths=(5, 4))
        return Mlp.from_generators(spec, *(np.random.default_rng(30 + m) for m in range(3)))

    def test_layers_sit_in_parameter_vector_order(self):
        net = self._net()
        layers = (*net.weights, *net.biases)
        assert net.params.flags.c_contiguous
        assert all(np.shares_memory(p, net.params) for p in layers)
        np.testing.assert_array_equal(net.parameter_vector(),
                                      np.concatenate([p.ravel() for p in layers]))

    def test_set_parameter_vector_writes_through_the_views(self):
        net = self._net()
        layers = (*net.weights, *net.biases)
        theta = np.arange(net.params.size, dtype=float)
        net.set_parameter_vector(theta)
        assert all(a is b for a, b in zip(layers, (*net.weights, *net.biases)))
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in layers]), theta)
        with pytest.raises(ValueError, match="wrong length"):
            net.set_parameter_vector(theta[:-1])

    def test_gradient_blocks_follow_the_parameter_layout(self):
        net = self._net()
        rng = np.random.default_rng(31)
        x, y = rng.normal(size=(3, 12, 2)), rng.normal(size=(3, 12))
        _, grad, member_loss = net.loss_and_gradients(x, y)
        _, gw, gb = _reference_loss_and_gradients(net, x, y)
        np.testing.assert_array_equal(grad, np.concatenate([g.ravel() for g in (*gw, *gb)]))
        np.testing.assert_array_equal(
            member_loss, np.mean(nll_natural(*net.forward(x), y), axis=-1))

    def test_gradient_is_a_new_vector_each_call(self):
        net = self._net()
        rng = np.random.default_rng(33)
        x, y = rng.normal(size=(3, 12, 2)), rng.normal(size=(3, 12))
        _, first, _ = net.loss_and_gradients(x, y)
        kept = first.copy()
        _, second, _ = net.loss_and_gradients(2.0 * x, y)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, net.params)
        np.testing.assert_array_equal(first, kept)

    def test_member_count_gives_a_zero_stack(self):
        net = Mlp(MlpSpec(input_dim=2, hidden_widths=(5, 4)), 3)
        assert [w.shape for w in net.weights] == [(3, 2, 5), (3, 5, 4), (3, 4, 2)]
        assert [b.shape for b in net.biases] == [(3, 5), (3, 4), (3, 2)]
        assert not net.params.any()
        with pytest.raises(ValueError, match="at least one member"):
            Mlp(MlpSpec(), 0)

    def test_loaded_checkpoint_is_flat(self, tmp_path):
        x, y, _ = two_curve_arrays(120, -4, 4, seed=32)
        pred = train_ensemble(x, y, 3, MlpSpec(), TrainConfig(epochs=3, seed=32))
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(pred, path)
        net = load_checkpoint(path).net
        assert all(np.shares_memory(p, net.params) for p in (*net.weights, *net.biases))
        np.testing.assert_array_equal(net.parameter_vector(), pred.net.parameter_vector())
        rng = np.random.default_rng(32)
        xb, yb = rng.normal(size=(3, 16, 1)), rng.normal(size=(3, 16))
        want_loss, want = pred.net.gradient_vector(xb, yb)
        got_loss, got = net.gradient_vector(xb, yb)
        assert got_loss == want_loss
        np.testing.assert_array_equal(got, want)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        x, y, _ = two_curve_arrays(200, -4, 4, seed=10)
        pred = train_ensemble(x, y, 2, MlpSpec(), TrainConfig(epochs=5, seed=10))
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(pred, path)
        loaded = load_checkpoint(path)
        grid = np.linspace(-4, 4, 20)
        m1, v1 = predict_arrays(pred, grid)
        m2, v2 = predict_arrays(loaded, grid)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)

    def test_layers_that_do_not_match_the_spec_rejected(self, tmp_path):
        import json

        x, y, _ = two_curve_arrays(100, -4, 4, seed=10)
        pred = train_ensemble(x, y, 2, MlpSpec(), TrainConfig(epochs=1, seed=10))
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(pred, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["spec"]["hidden_widths"] = [8, 7]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match="checkpoint layers do not match its spec"):
            load_checkpoint(path)


class TestActiveLearning:
    def _pool(self, seed, n=300):
        return two_curve_arrays(n, -4, 4, seed=seed)

    def test_pool_exhaustion_truncates(self):
        x, y, _ = self._pool(11, n=60)
        hx, hy, _ = self._pool(12, n=50)
        res = active_learning_loop(x, y, range(10), None, 5, 30, 1, hx, hy,
                                   MlpSpec(), TrainConfig(epochs=3, seed=11))
        assert res.truncated
        assert len(res.nll_trajectory) <= 6

    def test_batch_equals_pool(self):
        x, y, _ = self._pool(13, n=80)
        hx, hy, _ = self._pool(14, n=50)
        res = active_learning_loop(x, y, range(10), None, 1, 70, 1, hx, hy,
                                   MlpSpec(), TrainConfig(epochs=3, seed=13))
        assert not res.truncated
        assert len(res.acquired) == 70
        assert len(res.nll_trajectory) == 2

    def test_constant_measure_reduces_to_uniform(self):
        """SE Exc(3a,2) is identically zero, so softmax acquisition must
        sample exactly like the random baseline's uniform draws."""
        x, y, _ = self._pool(15, n=120)
        hx, hy, _ = self._pool(16, n=50)
        zero_measure = (ScoringRule.SE, EstimatorId.parse("exc_3a_2"))
        res = active_learning_loop(x, y, range(20), zero_measure, 2, 10, 1,
                                   hx, hy, MlpSpec(), TrainConfig(epochs=3, seed=15))
        assert len(set(res.acquired)) == 20

    def test_quadrature_measure_rejected(self):
        x, y, _ = self._pool(17, n=80)
        with pytest.raises(ValueError):
            active_learning_loop(x, y, range(10),
                                 (ScoringRule.LOG, EstimatorId.parse("bayes_2")),
                                 1, 10, 1, x, y, MlpSpec(), TrainConfig(epochs=2, seed=17))

    @pytest.mark.parametrize("initial", [[-1, 0, 1], [0, 1, 30]], ids=["negative", "past-end"])
    def test_initial_index_outside_pool_rejected(self, initial):
        x, y, _ = self._pool(20, n=30)
        bad = min(initial) if min(initial) < 0 else max(initial)
        with pytest.raises(ValueError, match=f"initial index {bad} is outside the pool of 30"):
            active_learning_loop(x, y, initial, None, 1, 5, 1, x, y,
                                 MlpSpec(), TrainConfig(epochs=1, seed=20))

    def test_trajectory_deterministic(self):
        x, y, _ = self._pool(18, n=150)
        hx, hy, _ = self._pool(19, n=60)
        cfg = TrainConfig(epochs=4, seed=18)
        a = active_learning_loop(x, y, range(15), (ScoringRule.LOG, EXC_11),
                                 2, 10, 2, hx, hy, MlpSpec(), cfg)
        b = active_learning_loop(x, y, range(15), (ScoringRule.LOG, EXC_11),
                                 2, 10, 2, hx, hy, MlpSpec(), cfg)
        assert a == b
