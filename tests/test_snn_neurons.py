"""Tests of the spiking neuron dynamics and surrogate gradients."""

import numpy as np
import pytest

from repro.snn import (
    ATanSurrogate,
    FastSigmoidSurrogate,
    LeakyIntegrator,
    LIFNeuron,
    StraightThroughSurrogate,
    TriangularSurrogate,
    get_surrogate,
    spike_function,
)
from repro.tensor import Tensor, no_grad


class TestSurrogates:
    def test_fast_sigmoid_peak_at_threshold(self):
        surrogate = FastSigmoidSurrogate(slope=25.0)
        values = surrogate.derivative(np.array([-1.0, 0.0, 1.0]))
        assert values[1] == pytest.approx(1.0)
        assert values[0] < values[1] and values[2] < values[1]

    def test_fast_sigmoid_symmetric(self):
        surrogate = FastSigmoidSurrogate()
        assert surrogate.derivative(np.array([0.3])) == pytest.approx(surrogate.derivative(np.array([-0.3])))

    def test_atan_positive_everywhere(self):
        surrogate = ATanSurrogate(alpha=2.0)
        assert np.all(surrogate.derivative(np.linspace(-5, 5, 21)) > 0)

    def test_triangular_support(self):
        surrogate = TriangularSurrogate(width=1.0)
        assert surrogate.derivative(np.array([2.0])) == 0.0
        assert surrogate.derivative(np.array([0.0])) == pytest.approx(1.0)

    def test_straight_through_window(self):
        surrogate = StraightThroughSurrogate(window=0.5)
        np.testing.assert_allclose(surrogate.derivative(np.array([-0.4, 0.0, 0.6])), [1.0, 1.0, 0.0])

    def test_registry_lookup(self):
        assert isinstance(get_surrogate("fast_sigmoid"), FastSigmoidSurrogate)
        assert isinstance(get_surrogate("atan", alpha=3.0), ATanSurrogate)
        instance = TriangularSurrogate()
        assert get_surrogate(instance) is instance

    def test_registry_unknown_raises(self):
        with pytest.raises(KeyError):
            get_surrogate("nope")

    @pytest.mark.parametrize("cls", [FastSigmoidSurrogate, ATanSurrogate, TriangularSurrogate, StraightThroughSurrogate])
    def test_invalid_parameters_raise(self, cls):
        with pytest.raises(ValueError):
            cls(-1.0)


class TestSpikeFunction:
    def test_forward_is_heaviside(self):
        membrane = Tensor(np.array([0.2, 1.0, 1.7]))
        spikes = spike_function(membrane, threshold=1.0, surrogate=FastSigmoidSurrogate())
        np.testing.assert_allclose(spikes.data, [0.0, 1.0, 1.0])

    def test_backward_uses_surrogate(self):
        surrogate = FastSigmoidSurrogate(slope=10.0)
        membrane = Tensor(np.array([0.5, 1.5]), requires_grad=True)
        spikes = spike_function(membrane, threshold=1.0, surrogate=surrogate)
        spikes.sum().backward()
        expected = surrogate.derivative(membrane.data - 1.0)
        np.testing.assert_allclose(membrane.grad, expected)

    @pytest.mark.parametrize("name", ["fast_sigmoid", "atan", "triangular", "straight_through"])
    def test_backward_scales_cotangent_by_each_surrogate(self, name):
        surrogate = get_surrogate(name)
        membrane = Tensor(np.linspace(0.0, 2.0, 9), requires_grad=True)
        spikes = spike_function(membrane, threshold=1.2, surrogate=surrogate)
        upstream = np.arange(1.0, 10.0)
        (spikes * Tensor(upstream)).sum().backward()
        np.testing.assert_array_equal(spikes.data, (membrane.data >= 1.2).astype(float))
        np.testing.assert_allclose(membrane.grad, upstream * surrogate.derivative(membrane.data - 1.2))

    def test_no_graph_without_grad(self):
        membrane = Tensor(np.array([2.0]))
        spikes = spike_function(membrane, 1.0, FastSigmoidSurrogate())
        assert not spikes.requires_grad


class TestLIFNeuron:
    def test_subthreshold_input_never_spikes(self):
        neuron = LIFNeuron(beta=0.5, threshold=1.0)
        neuron.reset_state()
        for _ in range(20):
            spikes = neuron(Tensor(np.array([0.3])))
        assert spikes.data[0] == 0.0

    def test_strong_input_spikes_immediately(self):
        neuron = LIFNeuron(beta=0.9, threshold=1.0)
        neuron.reset_state()
        spikes = neuron(Tensor(np.array([1.5])))
        assert spikes.data[0] == 1.0

    def test_membrane_decay_without_input(self):
        neuron = LIFNeuron(beta=0.5, threshold=10.0)
        neuron.reset_state()
        neuron(Tensor(np.array([1.0])))
        neuron(Tensor(np.array([0.0])))
        assert neuron.membrane.data[0] == pytest.approx(0.5)
        neuron(Tensor(np.array([0.0])))
        assert neuron.membrane.data[0] == pytest.approx(0.25)

    def test_soft_reset_subtracts_threshold(self):
        neuron = LIFNeuron(beta=1.0, threshold=1.0, reset_mechanism="subtract")
        neuron.reset_state()
        neuron(Tensor(np.array([1.4])))  # spikes, membrane 1.4
        neuron(Tensor(np.array([0.0])))
        # membrane = (1.4 - 1.0) * 1.0 + 0 = 0.4
        assert neuron.membrane.data[0] == pytest.approx(0.4)

    def test_hard_reset_zeroes_membrane(self):
        neuron = LIFNeuron(beta=1.0, threshold=1.0, reset_mechanism="zero")
        neuron.reset_state()
        neuron(Tensor(np.array([1.4])))
        neuron(Tensor(np.array([0.0])))
        assert neuron.membrane.data[0] == pytest.approx(0.0)

    def test_no_reset_accumulates(self):
        neuron = LIFNeuron(beta=1.0, threshold=1.0, reset_mechanism="none")
        neuron.reset_state()
        neuron(Tensor(np.array([1.4])))
        neuron(Tensor(np.array([0.6])))
        assert neuron.membrane.data[0] == pytest.approx(2.0)

    def test_integration_over_time_reaches_threshold(self):
        neuron = LIFNeuron(beta=1.0, threshold=1.0)
        neuron.reset_state()
        outputs = [neuron(Tensor(np.array([0.4]))).data[0] for _ in range(3)]
        assert outputs == [0.0, 0.0, 1.0]

    def test_reset_state_clears(self):
        neuron = LIFNeuron()
        neuron(Tensor(np.array([2.0])))
        neuron.reset_state()
        assert neuron.membrane is None and neuron.previous_spikes is None

    def test_record_spikes_and_firing_rate(self):
        neuron = LIFNeuron(beta=1.0, threshold=1.0)
        neuron.record_spikes = True
        neuron.reset_state()
        for value in (1.5, 0.0, 0.0, 1.5):
            neuron(Tensor(np.array([value])))
        assert len(neuron.spike_record) == 4
        assert neuron.firing_rate() == pytest.approx(0.5)

    def test_invalid_beta_raises(self):
        with pytest.raises(ValueError):
            LIFNeuron(beta=0.0)
        with pytest.raises(ValueError):
            LIFNeuron(beta=1.5)

    def test_invalid_threshold_and_reset(self):
        with pytest.raises(ValueError):
            LIFNeuron(threshold=-1.0)
        with pytest.raises(ValueError):
            LIFNeuron(reset_mechanism="bogus")

    def test_gradient_flows_through_time(self):
        """BPTT: gradient of later spikes w.r.t. earlier input must be non-zero."""
        neuron = LIFNeuron(beta=0.9, threshold=1.0)
        neuron.reset_state()
        x0 = Tensor(np.array([0.6]), requires_grad=True)
        neuron(x0)
        out = neuron(Tensor(np.array([0.6])))
        out.sum().backward()
        assert x0.grad is not None and x0.grad[0] != 0.0


class TestNeuronDynamics:
    """The one ``dynamics`` step of the LIF neuron, shared by every execution mode."""

    @staticmethod
    def _drives(seed=0, steps=5):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(3, 4)) * 0.9 for _ in range(steps)]

    @pytest.mark.parametrize("reset", ["subtract", "zero", "none"])
    def test_same_expressions_on_tensors_and_arrays(self, reset):
        neuron = LIFNeuron(beta=0.9, reset_mechanism=reset)
        tensor_state = {name: None for name in neuron.state_names}
        array_state = dict(tensor_state)
        for drive in self._drives():
            t_update, t_input = neuron.dynamics(tensor_state, Tensor(drive))
            a_update, a_input = neuron.dynamics(array_state, drive)
            assert isinstance(t_input, Tensor) and isinstance(a_input, np.ndarray)
            assert np.array_equal(t_input.data, a_input)
            assert set(t_update) == set(a_update)
            for name, value in a_update.items():
                assert (value is None) == (t_update[name] is None)
                if value is not None:
                    assert np.array_equal(t_update[name].data, value)
            spikes = (a_input >= neuron.threshold).astype(a_input.dtype)
            tensor_state = {**tensor_state, **t_update, "previous_spikes": Tensor(spikes)}
            array_state = {**array_state, **a_update, "previous_spikes": spikes}

    def test_dynamics_is_pure(self):
        neuron = LIFNeuron(beta=0.9)
        with no_grad():
            for drive in self._drives(steps=3):
                neuron(Tensor(drive))
        state = {name: getattr(neuron, name).data for name in neuron.state_names}
        before = {name: value.copy() for name, value in state.items()}
        update, _ = neuron.dynamics(state, self._drives(seed=1, steps=1)[0])
        assert set(update) <= set(neuron.state_names) - {"previous_spikes"}
        for name, value in state.items():
            assert np.array_equal(value, before[name])
            assert getattr(neuron, name).data is value
        for value in update.values():
            assert all(not np.shares_memory(value, old) for old in state.values())

    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    def test_step_outputs_survive_later_steps(self, grad):
        neuron = LIFNeuron(beta=0.9)
        kept = []
        for drive in self._drives():
            if grad:
                spikes = neuron(Tensor(drive))
            else:
                with no_grad():
                    spikes = neuron(Tensor(drive))
            state = {name: getattr(neuron, name) for name in neuron.state_names}
            kept.append((spikes, spikes.data.copy(), state, {n: v.data.copy() for n, v in state.items()}))
        for spikes, spikes_copy, state, state_copy in kept:
            assert np.array_equal(spikes.data, spikes_copy)
            for name, value in state.items():
                assert np.array_equal(value.data, state_copy[name])

    def test_reset_covers_every_state_name(self):
        neuron = LIFNeuron(beta=0.9)
        for drive in self._drives():
            neuron(Tensor(drive, requires_grad=True))
        assert all(getattr(neuron, name) is not None for name in neuron.state_names)
        neuron.reset_state()
        assert all(getattr(neuron, name) is None for name in neuron.state_names)


class TestLeakyIntegrator:
    def test_accumulates_with_decay(self):
        readout = LeakyIntegrator(beta=0.5)
        readout.reset_state()
        readout(Tensor(np.array([1.0])))
        out = readout(Tensor(np.array([1.0])))
        assert out.data[0] == pytest.approx(1.5)

    def test_never_spikes_and_keeps_graph(self):
        readout = LeakyIntegrator(beta=0.9)
        readout.reset_state()
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = readout(x)
        out = readout(Tensor(np.array([0.0])))
        out.sum().backward()
        assert x.grad[0] == pytest.approx(0.9)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            LeakyIntegrator(beta=0.0)
