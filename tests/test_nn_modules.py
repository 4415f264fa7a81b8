"""Tests for Module/Parameter plumbing, layers, activations, losses, optimisers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    BatchNorm2d,
    Conv2d,
    CosineAnnealingLR,
    CrossEntropyLoss,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    Linear,
    MSELoss,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    StepLR,
    Tanh,
    top1_accuracy,
)
from harness import reference_nn
from repro.nn import functional as F
from repro.nn.metrics import classification_report, confusion_matrix, topk_accuracy


# --------------------------------------------------------------------- #
# Module plumbing
# --------------------------------------------------------------------- #
class TestModulePlumbing:
    def test_parameter_registration_and_traversal(self):
        model = Sequential(Conv2d(1, 2, 3, rng=0), ReLU(), Flatten(), Linear(8, 4, rng=0))
        names = [name for name, _ in model.named_parameters()]
        assert "0.weight" in names and "3.bias" in names
        assert model.num_parameters() == sum(p.size for p in model.parameters())

    def test_named_modules_and_children(self):
        model = Sequential(ReLU(), Sequential(ReLU()))
        names = [name for name, _ in model.named_modules()]
        assert "" in names and "1.0" in names
        assert len(list(model.children())) == 2

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5, rng=0), ReLU())
        model.eval()
        assert not model.training and not model[0].training
        model.train()
        assert model[0].training

    def test_forward_hook_fires_and_removes(self):
        layer = Linear(3, 2, rng=0)
        calls = []
        handle = layer.register_forward_hook(lambda m, x, y: calls.append(y.shape))
        layer(np.zeros((4, 3)))
        assert calls == [(4, 2)]
        handle.remove()
        layer(np.zeros((4, 3)))
        assert len(calls) == 1

    def test_state_dict_round_trip(self):
        a = Sequential(Conv2d(1, 2, 3, rng=1), BatchNorm2d(2), Flatten(), Linear(8, 3, rng=1))
        b = Sequential(Conv2d(1, 2, 3, rng=2), BatchNorm2d(2), Flatten(), Linear(8, 3, rng=2))
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        a.eval(); b.eval()
        assert not np.allclose(a(x), b(x))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(x), b(x))

    def test_state_dict_strict_mismatch(self):
        model = Linear(3, 2, rng=0)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": model.weight.data})  # missing bias
        with pytest.raises(ValueError):
            model.load_state_dict({"weight": np.zeros((5, 5)), "bias": model.bias.data})

    def test_zero_grad(self):
        layer = Linear(3, 2, rng=0)
        layer.weight.grad += 1.0
        layer.zero_grad()
        assert np.all(layer.weight.grad == 0.0)

    def test_sequential_indexing(self):
        model = Sequential(ReLU(), Identity())
        assert len(model) == 2
        assert isinstance(model[1], Identity)

    def test_backward_not_implemented_message(self):
        class Dummy(Module):
            def forward(self, x):
                return x

        with pytest.raises(NotImplementedError):
            Dummy().backward(np.zeros(3))


# --------------------------------------------------------------------- #
# Layers: analytic vs numerical gradients
# --------------------------------------------------------------------- #
def _numeric_param_grad(model, param, x, upstream, eps=1e-6):
    """Central-difference gradient of sum(model(x) * upstream) w.r.t. param[0...]."""
    flat = param.data.ravel()
    grads = np.zeros_like(flat)
    for i in range(min(flat.size, 6)):  # spot-check a few entries
        original = flat[i]
        flat[i] = original + eps
        plus = float(np.sum(model(x) * upstream))
        flat[i] = original - eps
        minus = float(np.sum(model(x) * upstream))
        flat[i] = original
        grads[i] = (plus - minus) / (2 * eps)
    return grads


class TestLayerGradients:
    @pytest.mark.parametrize("layer_factory,x_shape", [
        (lambda: Conv2d(2, 3, 3, padding=1, rng=0), (2, 2, 5, 5)),
        (lambda: Linear(6, 4, rng=0), (3, 6)),
        (lambda: BatchNorm2d(3), (4, 3, 5, 5)),
    ])
    def test_parameter_gradients(self, rng, layer_factory, x_shape):
        layer = layer_factory()
        layer.train()
        x = rng.normal(size=x_shape)
        out = layer(x)
        upstream = rng.normal(size=out.shape)
        layer.zero_grad()
        layer(x)  # refresh the cache, then backprop
        layer.backward(upstream)
        for name, param in layer.named_parameters():
            numeric = _numeric_param_grad(layer, param, x, upstream)
            analytic = param.grad.ravel()[: numeric.size]
            np.testing.assert_allclose(analytic[:6], numeric[:6], rtol=2e-3, atol=1e-5)

    @pytest.mark.parametrize("module,x_shape", [
        (ReLU(), (3, 4)),
        (LeakyReLU(0.1), (3, 4)),
        (Sigmoid(), (3, 4)),
        (Tanh(), (3, 4)),
        (MaxPool2d(2), (2, 2, 4, 4)),
        (GlobalAvgPool2d(), (2, 3, 4, 4)),
        (Flatten(), (2, 3, 4, 4)),
    ])
    def test_input_gradients(self, rng, module, x_shape):
        x = rng.normal(size=x_shape)
        out = module(x)
        upstream = rng.normal(size=out.shape)
        analytic = module.backward(upstream)

        eps = 1e-6
        flat_x = x.ravel()
        for i in range(0, flat_x.size, max(1, flat_x.size // 5)):
            original = flat_x[i]
            flat_x[i] = original + eps
            plus = float(np.sum(module(x) * upstream))
            flat_x[i] = original - eps
            minus = float(np.sum(module(x) * upstream))
            flat_x[i] = original
            module(x)  # restore cache
            numeric = (plus - minus) / (2 * eps)
            assert analytic.ravel()[i] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_conv_errors_without_forward(self):
        layer = Conv2d(1, 1, 3, rng=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 3, 3)))

    def test_conv_output_shape_helper(self):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=0)
        assert layer.output_shape((32, 32)) == (16, 16)

    def test_dropout_eval_is_identity_and_train_scales(self, rng):
        x = rng.normal(size=(64, 64))
        drop = Dropout(0.5, rng=0)
        drop.eval()
        np.testing.assert_array_equal(drop(x), x)
        drop.train()
        out = drop(x)
        kept = out != 0
        # Inverted dropout rescales survivors by 1/keep.
        np.testing.assert_allclose(out[kept], x[kept] * 2.0)

    def test_dropout_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = rng.normal(loc=3.0, size=(8, 2, 4, 4))
        bn.train()
        for _ in range(30):
            bn(x)
        bn.eval()
        out = bn(x)
        assert abs(out.mean()) < 0.5  # roughly normalised using running stats
        with pytest.raises(ValueError):
            bn(rng.normal(size=(2, 3, 4, 4)))


def _channels_last(x):
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.tobytes() == expected.tobytes()


class TestBatchNormReference:
    """BatchNorm2d equals ``np.var`` and the textbook formulas bit for bit."""

    @pytest.mark.parametrize("grad_layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("x_layout", ["nchw", "channels_last"])
    def test_training_and_eval_match_reference(self, rng, x_layout, grad_layout):
        bn, reference = BatchNorm2d(3), BatchNorm2d(3)
        for layer in (bn, reference):
            layer.weight.data[:] = [0.5, 1.5, -2.0]
            layer.bias.data[:] = [0.1, -0.3, 0.0]
        for _ in range(2):  # the second step starts from updated running stats
            x = rng.normal(loc=0.7, scale=2.0, size=(4, 3, 5, 6))
            grad_out = rng.normal(size=x.shape)
            if x_layout == "channels_last":
                x = _channels_last(x)
            if grad_layout == "channels_last":
                grad_out = _channels_last(grad_out)

            _assert_same_array(bn(x), reference_nn.batchnorm_forward(reference, x))
            _assert_same_array(bn._cache[0], reference._cache[0])  # x_hat
            assert bn._cache[1].tobytes() == reference._cache[1].tobytes()  # std_inv
            for name in ("running_mean", "running_var"):
                assert bn._buffers[name].tobytes() == reference._buffers[name].tobytes()

            _assert_same_array(
                bn.backward(grad_out), reference_nn.batchnorm_backward(reference, grad_out)
            )
            assert bn.weight.grad.tobytes() == reference.weight.grad.tobytes()
            assert bn.bias.grad.tobytes() == reference.bias.grad.tobytes()

        bn.eval()
        reference.eval()
        _assert_same_array(bn(x), reference_nn.batchnorm_forward(reference, x))


def _training_layers():
    return [
        (Conv2d(2, 3, 3, padding=1, rng=0), (2, 2, 5, 5)),
        (Linear(6, 4, rng=0), (3, 6)),
        (BatchNorm2d(3), (4, 3, 5, 5)),
        (ReLU(), (3, 4)),
        (LeakyReLU(0.1), (3, 4)),
        (Sigmoid(), (3, 4)),
        (Tanh(), (3, 4)),
        (MaxPool2d(2), (2, 2, 4, 4)),
        (Dropout(0.5, rng=0), (3, 4)),
    ]


class TestTrainingCaches:
    @pytest.mark.parametrize("layer,x_shape", _training_layers())
    def test_backward_drops_the_cache_it_consumes(self, rng, layer, x_shape):
        x = rng.normal(size=x_shape)
        out = layer(x)
        assert reference_nn.held_arrays(layer)  # the training forward cached
        layer.backward(np.ones_like(out))
        assert reference_nn.held_arrays(layer) == []
        with pytest.raises(RuntimeError, match="before a training forward"):
            layer.backward(np.ones_like(out))

    @pytest.mark.parametrize("layer,x_shape", _training_layers())
    def test_eval_forward_stores_nothing(self, rng, layer, x_shape):
        layer.eval()
        layer(rng.normal(size=x_shape))
        assert reference_nn.held_arrays(layer) == []

    def test_conv_on_its_own_returns_its_input_grad(self, rng):
        conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=0)
        x = rng.normal(size=(2, 3, 7, 7))
        upstream = rng.normal(size=(2, 4, 4, 4))
        _, cols, _ = F.conv2d_forward(x, conv.weight.data, conv.bias.data, 2, 1)
        expected = reference_nn.conv2d_backward(upstream, x.shape, cols, conv.weight.data, 2, 1)

        conv(x)
        _assert_same_array(conv.backward(upstream), expected[0])
        conv(x)
        conv.discard_input_grad()
        assert conv.backward(upstream) is None
        conv(x)  # the next forward needs its input gradient again
        _assert_same_array(conv.backward(upstream), expected[0])
        np.testing.assert_array_equal(conv.weight.grad, 3 * expected[1])
        np.testing.assert_array_equal(conv.bias.grad, 3 * expected[2])


# --------------------------------------------------------------------- #
# Losses
# --------------------------------------------------------------------- #
class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.normal(size=(5, 4))
        labels = np.array([0, 1, 2, 3, 1])
        loss = CrossEntropyLoss()
        value = loss(logits, labels)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(5), labels]))
        assert value == pytest.approx(expected)

    def test_cross_entropy_gradient_numerical(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        loss = CrossEntropyLoss(label_smoothing=0.1)
        loss(logits, labels)
        grad = loss.backward()
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (2, 3)]:
            lp = logits.copy(); lp[idx] += eps
            lm = logits.copy(); lm[idx] -= eps
            numeric = (loss(lp, labels) - loss(lm, labels)) / (2 * eps)
            assert grad[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_cross_entropy_validation(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss(label_smoothing=1.0)
        with pytest.raises(ValueError):
            CrossEntropyLoss()(np.zeros((2, 3, 4)), np.zeros(2, dtype=int))
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()

    def test_mse_loss(self, rng):
        predictions = rng.normal(size=(4, 3))
        targets = rng.normal(size=(4, 3))
        loss = MSELoss()
        assert loss(predictions, targets) == pytest.approx(np.mean((predictions - targets) ** 2))
        grad = loss.backward()
        np.testing.assert_allclose(grad, 2 * (predictions - targets) / predictions.size)
        with pytest.raises(ValueError):
            loss(predictions, targets[:2])


# --------------------------------------------------------------------- #
# Optimisers and schedules
# --------------------------------------------------------------------- #
class TestOptim:
    def _quadratic_params(self):
        return [Parameter(np.array([5.0, -3.0]))]

    def test_sgd_converges_on_quadratic(self):
        params = self._quadratic_params()
        opt = SGD(params, lr=0.1, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            params[0].grad += 2 * params[0].data
            opt.step()
        assert np.abs(params[0].data).max() < 1e-3

    def test_adam_converges_on_quadratic(self):
        params = self._quadratic_params()
        opt = Adam(params, lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            params[0].grad += 2 * params[0].data
            opt.step()
        assert np.abs(params[0].data).max() < 1e-2

    def test_sgd_weight_decay_shrinks_weights(self):
        params = [Parameter(np.array([1.0]))]
        opt = SGD(params, lr=0.1, weight_decay=0.5)
        opt.step()  # zero gradient, only decay
        assert params[0].data[0] < 1.0

    def test_optimizer_validation(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD(self._quadratic_params(), lr=-1)
        with pytest.raises(ValueError):
            SGD(self._quadratic_params(), lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD(self._quadratic_params(), lr=0.1, nesterov=True)
        with pytest.raises(ValueError):
            Adam(self._quadratic_params(), lr=0.1, betas=(1.2, 0.9))

    def test_step_lr_schedule(self):
        opt = SGD(self._quadratic_params(), lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = [sched.step() for _ in range(4)]
        assert lrs == pytest.approx([1.0, 0.1, 0.1, 0.01])

    def test_cosine_schedule_endpoints(self):
        opt = SGD(self._quadratic_params(), lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10, eta_min=0.0)
        values = [sched.step() for _ in range(10)]
        assert values[-1] == pytest.approx(0.0, abs=1e-12)
        assert values[0] < 1.0


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_top1_and_topk(self):
        logits = np.array([[0.1, 0.9, 0.0], [0.8, 0.1, 0.1], [0.2, 0.3, 0.5]])
        labels = np.array([1, 0, 1])
        assert top1_accuracy(logits, labels) == pytest.approx(2 / 3)
        assert topk_accuracy(logits, labels, k=2) == pytest.approx(1.0)
        assert top1_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0

    def test_metric_validation(self):
        with pytest.raises(ValueError):
            top1_accuracy(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            topk_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), k=0)

    def test_confusion_matrix_and_report(self):
        predictions = np.array([0, 1, 1, 2, 2, 2])
        labels = np.array([0, 1, 2, 2, 2, 0])
        matrix = confusion_matrix(predictions, labels, 3)
        assert matrix[2, 2] == 2 and matrix[0, 2] == 1
        report = classification_report(predictions, labels, 3)
        assert 0.0 <= report["macro_f1"] <= 1.0
        assert report["accuracy"] == pytest.approx(4 / 6)
