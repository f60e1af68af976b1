"""Tests of losses, metrics and optimizers."""

import numpy as np
import pytest

from repro.nn import Adam, CrossEntropyLoss, Linear, MSELoss, SGD, Sequential, ReLU
from repro.nn.losses import accuracy, confusion_matrix
from repro.nn.module import Parameter
from repro.nn.optim import Optimizer
from repro.tensor import Tensor


class TestCrossEntropy:
    def test_uniform_logits_give_log_num_classes(self):
        loss_fn = CrossEntropyLoss()
        logits = Tensor(np.zeros((4, 5)), requires_grad=True)
        loss = loss_fn(logits, np.array([0, 1, 2, 3]))
        assert np.isclose(loss.item(), np.log(5))

    def test_perfect_prediction_low_loss(self):
        loss_fn = CrossEntropyLoss()
        logits = np.full((3, 4), -20.0)
        targets = np.array([0, 1, 2])
        logits[np.arange(3), targets] = 20.0
        loss = loss_fn(Tensor(logits, requires_grad=True), targets)
        assert loss.item() < 1e-6

    def test_gradient_matches_softmax_minus_onehot(self):
        loss_fn = CrossEntropyLoss()
        logits = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
        targets = np.array([1, 2])
        loss = loss_fn(logits, targets)
        loss.backward()
        softmax = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        one_hot = np.zeros((2, 3))
        one_hot[np.arange(2), targets] = 1
        np.testing.assert_allclose(logits.grad, (softmax - one_hot) / 2, atol=1e-10)

    def test_label_smoothing_raises_min_loss(self):
        smooth = CrossEntropyLoss(label_smoothing=0.2)
        sharp = CrossEntropyLoss()
        logits = np.full((2, 4), -20.0)
        targets = np.array([0, 1])
        logits[np.arange(2), targets] = 20.0
        assert smooth(Tensor(logits), targets).item() > sharp(Tensor(logits), targets).item()

    def test_shape_mismatch_raises(self):
        loss_fn = CrossEntropyLoss()
        with pytest.raises(ValueError):
            loss_fn(Tensor(np.zeros((3, 2))), np.array([0, 1]))

    def test_invalid_smoothing_raises(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss(label_smoothing=1.0)


class TestMSEAndMetrics:
    def test_mse_value(self):
        loss = MSELoss()(Tensor(np.array([1.0, 2.0])), np.array([0.0, 0.0]))
        assert np.isclose(loss.item(), 2.5)

    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 1.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_with_tensor_input(self):
        logits = Tensor(np.array([[1.0, 0.0]]))
        assert accuracy(logits, np.array([0])) == 1.0

    def test_confusion_matrix(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 1.0]])
        matrix = confusion_matrix(logits, np.array([0, 1, 1]), num_classes=2)
        np.testing.assert_array_equal(matrix, [[1, 0], [1, 1]])


def _quadratic_problem():
    """Simple convex problem: minimise ||w - target||^2."""
    target = np.array([1.0, -2.0, 3.0])
    w = Parameter(np.zeros(3))

    def loss_fn():
        diff = w - Tensor(target)
        return (diff * diff).sum()

    return w, target, loss_fn


class TestSGD:
    def test_converges_on_quadratic(self):
        w, target, loss_fn = _quadratic_problem()
        opt = SGD([w], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss_fn().backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-3)

    def test_momentum_converges_faster_than_plain(self):
        losses = {}
        for momentum in (0.0, 0.9):
            w, target, loss_fn = _quadratic_problem()
            opt = SGD([w], lr=0.02, momentum=momentum)
            for _ in range(40):
                opt.zero_grad()
                loss_fn().backward()
                opt.step()
            losses[momentum] = float(((w.data - target) ** 2).sum())
        assert losses[0.9] < losses[0.0]

    def test_weight_decay_shrinks_weights(self):
        w = Parameter(np.array([10.0]))
        opt = SGD([w], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (w * 0.0).sum().backward()  # zero data gradient
        opt.step()
        assert w.data[0] < 10.0

    def test_invalid_momentum_raises(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.5)

    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_grad_clipping_bounds_norm(self):
        w = Parameter(np.array([1.0, 1.0]))
        opt = SGD([w], lr=0.1)
        opt.zero_grad()
        (w * 100.0).sum().backward()
        norm = opt.clip_grad_norm(1.0)
        assert norm > 1.0
        assert np.sqrt((w.grad ** 2).sum()) <= 1.0 + 1e-9


class TestAdam:
    def test_converges_on_quadratic(self):
        w, target, loss_fn = _quadratic_problem()
        opt = Adam([w], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            loss_fn().backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-2)

    def test_invalid_betas_raise(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.2, 0.9))

    def test_trains_small_classifier(self):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        x = rng.normal(size=(20, 4))
        y = (x[:, 0] > 0).astype(int)
        loss_fn = CrossEntropyLoss()
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(60):
            opt.zero_grad()
            loss = loss_fn(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        assert accuracy(model(Tensor(x)), y) >= 0.9
