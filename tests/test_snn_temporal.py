"""Tests of input encoders, the temporal runner and BPTT wiring."""

import numpy as np
import pytest

from repro.nn import Conv2d, GlobalAvgPool2d, Linear, Sequential
from repro.snn import (
    ConstantCurrentEncoder,
    LeakyIntegrator,
    LIFNeuron,
    TemporalRunner,
    reset_states,
)
from repro.snn.encoding import EventFrameEncoder, encode_batch
from repro.tensor import Tensor


class TestEncoders:
    def test_constant_current_repeats_input(self):
        encoder = ConstantCurrentEncoder(num_steps=3)
        batch = np.random.default_rng(0).random((2, 1, 2, 2))
        steps = encoder.encode(batch)
        assert len(steps) == 3
        for step in steps:
            np.testing.assert_allclose(step, batch)

    def test_event_frame_encoder_slices_time_axis(self):
        encoder = EventFrameEncoder(num_steps=4)
        batch = np.random.default_rng(0).random((2, 4, 2, 3, 3))
        steps = encoder.encode(batch)
        assert len(steps) == 4
        np.testing.assert_allclose(steps[2], batch[:, 2])

    def test_event_frame_encoder_truncates_and_repeats(self):
        batch = np.random.default_rng(0).random((1, 3, 1, 2, 2))
        truncated = EventFrameEncoder(num_steps=2).encode(batch)
        assert len(truncated) == 2
        extended = EventFrameEncoder(num_steps=5).encode(batch)
        np.testing.assert_allclose(extended[4], batch[:, 2])

    def test_encode_batch_auto_selects_encoder(self):
        static = np.random.default_rng(0).random((2, 1, 4, 4))
        temporal = np.random.default_rng(0).random((2, 3, 1, 4, 4))
        assert len(encode_batch(static, None, 5)) == 5
        assert len(encode_batch(temporal, None, 3)) == 3

    def test_invalid_num_steps(self):
        with pytest.raises(ValueError):
            ConstantCurrentEncoder(0)


def _tiny_snn(rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return Sequential(
        Conv2d(1, 3, 3, padding=1, rng=rng),
        LIFNeuron(beta=0.9),
        GlobalAvgPool2d(),
        Linear(3, 2, rng=rng),
        LeakyIntegrator(beta=0.9),
    )


class TestResetStates:
    def test_reset_states_clears_all_neurons(self):
        model = _tiny_snn()
        model(Tensor(np.random.default_rng(0).random((2, 1, 4, 4))))
        neurons = [m for m in model.modules() if isinstance(m, (LIFNeuron, LeakyIntegrator))]
        assert any(n.membrane is not None for n in neurons)
        reset_states(model)
        assert all(n.membrane is None for n in neurons)


class TestTemporalRunner:
    def test_output_shape_static_input(self):
        model = _tiny_snn()
        runner = TemporalRunner(model, num_steps=4)
        out = runner(np.random.default_rng(0).random((5, 1, 6, 6)))
        assert out.shape == (5, 2)

    def test_output_shape_temporal_input(self):
        model = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)),
            LIFNeuron(),
            GlobalAvgPool2d(),
            Linear(3, 4, rng=np.random.default_rng(0)),
            LeakyIntegrator(),
        )
        runner = TemporalRunner(model, num_steps=3)
        out = runner(np.random.default_rng(0).random((2, 3, 2, 5, 5)))
        assert out.shape == (2, 4)

    def test_runner_resets_between_calls(self):
        model = _tiny_snn()
        runner = TemporalRunner(model, num_steps=3)
        x = np.random.default_rng(0).random((2, 1, 4, 4))
        first = runner(x).data
        second = runner(x).data
        np.testing.assert_allclose(first, second)

    def test_bptt_gradients_reach_weights(self):
        model = _tiny_snn()
        runner = TemporalRunner(model, num_steps=4)
        out = runner(np.random.default_rng(0).random((2, 1, 4, 4)))
        out.sum().backward()
        conv = model[0]
        assert conv.weight.grad is not None and np.abs(conv.weight.grad).sum() > 0

    def test_invalid_arguments(self):
        model = _tiny_snn()
        with pytest.raises(ValueError):
            TemporalRunner(model, num_steps=0)
