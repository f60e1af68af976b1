"""Tests of the trainable layers: Linear, Conv2d, BatchNorm2d, pooling."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
)
from repro.nn import init
from gradcheck import gradcheck
from repro.tensor import Tensor


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(6, 4, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 6))))
        assert out.shape == (3, 4)

    def test_forward_matches_manual(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(5, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradcheck(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        ok, err = gradcheck(lambda x: layer(x), [x])
        assert ok, err

    def test_weight_gradients_flow(self, rng):
        layer = Linear(4, 3, rng=rng)
        layer(Tensor(rng.normal(size=(2, 4)))).sum().backward()
        assert layer.weight.grad is not None and layer.weight.grad.any()
        assert layer.bias.grad is not None


class TestConv2dLayer:
    def test_forward_shape(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_output_shape_helper(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        assert layer.output_shape(8, 8) == (8, 4, 4)

    def test_depthwise_parameter_count(self, rng):
        layer = Conv2d(6, 6, 3, groups=6, bias=False, rng=rng)
        assert layer.weight.shape == (6, 1, 3, 3)

    def test_invalid_groups_raises(self, rng):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, groups=2, rng=rng)

    def test_weight_gradients_flow(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, rng=rng)
        layer(Tensor(rng.normal(size=(1, 2, 5, 5)))).sum().backward()
        assert layer.weight.grad is not None and layer.weight.grad.any()


class TestBatchNorm2d:
    def test_normalizes_in_training_mode(self, rng):
        layer = BatchNorm2d(3)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(8, 3, 4, 4)))
        out = layer(x)
        per_channel_mean = out.data.mean(axis=(0, 2, 3))
        per_channel_std = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(per_channel_mean, np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(per_channel_std, np.ones(3), atol=1e-3)

    def test_running_stats_update(self, rng):
        layer = BatchNorm2d(2, momentum=0.5)
        x = Tensor(rng.normal(loc=2.0, size=(16, 2, 4, 4)))
        layer(x)
        assert np.all(layer.running_mean > 0.5)

    def test_eval_mode_uses_running_stats(self, rng):
        layer = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(8, 2, 4, 4)))
        for _ in range(20):
            layer(x)
        layer.eval()
        out_eval = layer(x)
        layer.train()
        out_train = layer(x)
        # once running stats converge to batch stats the two paths agree closely
        np.testing.assert_allclose(out_eval.data, out_train.data, atol=0.2)

    def test_scale_shift_applied(self, rng):
        layer = BatchNorm2d(2)
        layer.weight.data[:] = 2.0
        layer.bias.data[:] = 1.0
        x = Tensor(rng.normal(size=(8, 2, 4, 4)))
        out = layer(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.ones(2), atol=1e-6)

    def test_rejects_non_4d_input(self, rng):
        layer = BatchNorm2d(2)
        with pytest.raises(ValueError):
            layer(Tensor(rng.normal(size=(3, 2))))

    def test_gradcheck_training_mode(self, rng):
        layer = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        ok, err = gradcheck(lambda x: layer(x), [x], atol=1e-3, rtol=1e-2)
        assert ok, err


class TestPoolingLayers:
    def test_avg_pool_layer(self, rng):
        layer = AvgPool2d(2, stride=2)
        out = layer(Tensor(rng.normal(size=(1, 2, 6, 6))))
        assert out.shape == (1, 2, 3, 3)

    def test_global_avg_pool_layer(self, rng):
        layer = GlobalAvgPool2d()
        out = layer(Tensor(rng.normal(size=(3, 4, 5, 5))))
        assert out.shape == (3, 4)

    def test_flatten(self, rng):
        layer = Flatten()
        out = layer(Tensor(rng.normal(size=(2, 3, 4, 4))))
        assert out.shape == (2, 48)

    def test_identity(self, rng):
        layer = Identity()
        x = Tensor(rng.normal(size=(2, 3)))
        assert layer(x) is x


class TestInitializers:
    def test_kaiming_normal_std(self):
        shape = (256, 128)
        w = init.kaiming_normal(shape, rng=np.random.default_rng(0))
        expected = np.sqrt(2.0 / 128)
        assert abs(w.std() - expected) / expected < 0.1

    def test_conv_fan_in(self):
        w = init.kaiming_normal((16, 8, 3, 3), rng=np.random.default_rng(0))
        expected = np.sqrt(2.0 / (8 * 9))
        assert abs(w.std() - expected) / expected < 0.1

    def test_zeros_ones(self):
        assert np.all(init.zeros((3,)) == 0)
        assert np.all(init.ones((3,)) == 1)
