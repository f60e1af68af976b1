"""Spiking neuron layers.

All neurons follow the stateful one-step convention of snnTorch: calling the
module with the synaptic input for time step ``t`` updates the internal
membrane potential and returns the emitted spikes.  The temporal runner
(:mod:`repro.snn.temporal`) resets the state before each sequence and loops
over the time steps; BPTT falls out of the recorded autodiff graph because the
membrane state tensors stay connected across steps.

The discrete leaky integrate-and-fire (LIF) update implemented here is

    U[t] = beta * U[t-1] + I[t] - reset_term
    S[t] = H(U[t] - theta)

with either *soft reset* (subtract ``theta`` whenever a spike was emitted at
the previous step) or *hard reset* (zero the membrane), matching
``snntorch.Leaky(beta, threshold, reset_mechanism)``.

Inference fast path
-------------------

Under :func:`~repro.tensor.tensor.no_grad` every neuron dispatches to a fused
graph-free step: the decay, integration, reset and threshold comparison run as
a handful of in-place NumPy calls over **preallocated state buffers** that are
reused across time steps (and across batches of the same shape), instead of
one freshly allocated tensor per op per step.  The fused step performs exactly
the same elementwise operations in the same order as the autograd path, so
membrane trajectories and spike trains are bit-identical between the two paths
(pinned by ``tests/test_inference_fastpath.py``); training/BPTT behaviour is
untouched.  The state tensors (:attr:`SpikingNeuron.membrane`,
:attr:`SpikingNeuron.previous_spikes`) wrap the live buffers, so mixing
grad-mode and no-grad steps within one sequence stays consistent — but a
tensor returned by a fused step is only valid until the same neuron's next
step; consumers that retain per-step outputs must copy
(:meth:`repro.snn.temporal.run_temporal` does this where needed).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor
from repro.tensor.tensor import graph_free, is_grad_enabled
from repro.trace import ops_span
from repro.snn.surrogate import FastSigmoidSurrogate, SurrogateGradient, get_surrogate, spike_function


class SpikingNeuron(Module):
    """Base class for stateful spiking neuron layers.

    Subclasses implement :meth:`forward` and use :attr:`membrane` /
    :attr:`previous_spikes` to carry state between time steps.  The base class
    handles state reset, detachment (for truncated BPTT), the fused inference
    buffers and the running spike-rate bookkeeping used by the firing-rate
    monitors (rates are maintained as running sums while recording, so a
    query never re-reduces the whole :attr:`spike_record`).
    """

    def __init__(
        self,
        threshold: float = 1.0,
        surrogate: SurrogateGradient | str = "fast_sigmoid",
        reset_mechanism: str = "subtract",
    ) -> None:
        super().__init__()
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if reset_mechanism not in ("subtract", "zero", "none"):
            raise ValueError(f"reset_mechanism must be 'subtract', 'zero' or 'none', got {reset_mechanism!r}")
        self.threshold = float(threshold)
        self.surrogate = get_surrogate(surrogate)
        self.reset_mechanism = reset_mechanism
        self.membrane: Optional[Tensor] = None
        self.previous_spikes: Optional[Tensor] = None
        self.record_spikes = False
        #: when recording, also retain the full per-step spike arrays in
        #: :attr:`spike_record`.  The firing-rate monitors disable this —
        #: they read only the running sums — so metering a long simulation
        #: window never holds ``num_steps`` feature-map-sized copies per layer
        self.record_history = True
        self.spike_record: list = []
        # running spike-rate bookkeeping (updated while recording)
        self._rate_sum = 0.0
        self._spike_sum = 0.0
        self._record_steps = 0
        # fused-inference buffers, reused across steps and same-shape batches
        self._fast: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # state handling
    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        """Clear membrane potential and spike history (start of a sequence).

        The fused-inference buffers survive the reset — only the *state* is
        cleared — so back-to-back sequences of the same batch shape perform
        no allocations at all.
        """
        self.membrane = None
        self.previous_spikes = None
        self.clear_spike_record()

    def clear_spike_record(self) -> None:
        """Drop recorded spikes and the running spike-rate sums."""
        self.spike_record = []
        self._rate_sum = 0.0
        self._spike_sum = 0.0
        self._record_steps = 0

    def detach_state(self) -> None:
        """Cut the state from the autodiff graph (truncated BPTT boundary)."""
        if self.membrane is not None:
            self.membrane = Tensor(self.membrane.data.copy(), requires_grad=False)
        if self.previous_spikes is not None:
            self.previous_spikes = Tensor(self.previous_spikes.data.copy(), requires_grad=False)

    def _apply_reset(self, membrane: Tensor) -> Tensor:
        """Apply the configured reset using the spikes from the previous step."""
        if self.previous_spikes is None or self.reset_mechanism == "none":
            return membrane
        if self.reset_mechanism == "subtract":
            return membrane - self.previous_spikes.detach() * self.threshold
        # hard reset: zero the membrane wherever the neuron fired
        return membrane * (1.0 - self.previous_spikes.detach())

    def _record(self, spikes_data: np.ndarray) -> None:
        """Record one step: update the running sums, optionally keep the array."""
        if self.record_history:
            self.spike_record.append(spikes_data.copy())
        self._rate_sum += float(spikes_data.mean())
        self._spike_sum += float(spikes_data.sum())
        self._record_steps += 1

    def _emit(self, membrane: Tensor) -> Tensor:
        """Emit spikes from ``membrane``, updating state and optional records."""
        spikes = spike_function(membrane, self.threshold, self.surrogate)
        self.membrane = membrane
        self.previous_spikes = spikes
        if self.record_spikes:
            self._record(spikes.data)
        return spikes

    def firing_rate(self) -> float:
        """Mean firing probability over the recorded steps (requires recording)."""
        if not self._record_steps:
            return 0.0
        return self._rate_sum / self._record_steps

    def recorded_spike_total(self) -> float:
        """Total number of spikes over the recorded steps."""
        return self._spike_sum

    def recorded_steps(self) -> int:
        """Number of steps currently recorded."""
        return self._record_steps

    # ------------------------------------------------------------------
    # fused inference machinery
    # ------------------------------------------------------------------
    def _fast_buffer(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Lazily (re)allocate one named state buffer for the fused step."""
        buf = self._fast.get(name)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            self._fast[name] = buf
        return buf

    def _state_into(self, buffer: np.ndarray, state: Optional[Tensor]) -> None:
        """Copy carried state into ``buffer`` unless it already lives there."""
        if state is not None and state.data is not buffer:
            np.copyto(buffer, state.data)

    def _membrane_update_inference(
        self, mem: np.ndarray, drive: np.ndarray, scratch: np.ndarray, decay: Optional[float]
    ) -> None:
        """Fused ``mem <- reset(mem) * decay + drive`` (in place).

        Performs the same elementwise operations in the same order as
        :meth:`_apply_reset` followed by the decay/integrate ops, so the
        result is bit-identical to the autograd path.
        """
        previous = self.previous_spikes
        if previous is not None and self.reset_mechanism == "subtract":
            np.multiply(previous.data, self.threshold, out=scratch)
            np.subtract(mem, scratch, out=mem)
        elif previous is not None and self.reset_mechanism == "zero":
            np.subtract(1.0, previous.data, out=scratch)
            np.multiply(mem, scratch, out=mem)
        if decay is not None:
            np.multiply(mem, decay, out=mem)
        np.add(mem, drive, out=mem)

    def _emit_inference(self, mem: np.ndarray, shifted: np.ndarray) -> Tensor:
        """Threshold ``shifted`` (membrane minus threshold shift) into spikes."""
        with ops_span("op.neuron_step") as op:
            spk = self._fast_buffer("spikes", mem.shape, mem.dtype)
            spike_bool = self._fast_buffer("spike_bool", mem.shape, bool)
            np.greater_equal(shifted, 0.0, out=spike_bool)
            np.copyto(spk, spike_bool, casting="unsafe")
            self.membrane = graph_free(mem)
            spikes = graph_free(spk)
            self.previous_spikes = spikes
            if self.record_spikes:
                self._record(spk)
            if op:
                op.set(kind=type(self).__name__, size=int(mem.size))
            # repro-lint: disable=buffer-escape (intentional alias: the fast path hands out the persistent spike buffer; run_temporal copies at every retention boundary — see tests/test_inference_fastpath.py)
            return spikes


class LIFNeuron(SpikingNeuron):
    """Leaky integrate-and-fire neuron (snnTorch ``Leaky`` equivalent).

    Parameters
    ----------
    beta:
        Membrane decay factor in (0, 1].  ``beta=1`` recovers the
        non-leaky integrate-and-fire neuron.
    threshold:
        Firing threshold ``theta``.
    surrogate:
        Surrogate gradient (name or instance), default fast sigmoid.
    reset_mechanism:
        ``"subtract"`` (soft reset, default), ``"zero"`` (hard reset) or
        ``"none"``.
    learn_beta:
        Reserved for future use (the paper keeps beta fixed); accepted for
        API compatibility but must be ``False``.
    """

    def __init__(
        self,
        beta: float = 0.9,
        threshold: float = 1.0,
        surrogate: SurrogateGradient | str = "fast_sigmoid",
        reset_mechanism: str = "subtract",
        learn_beta: bool = False,
    ) -> None:
        super().__init__(threshold=threshold, surrogate=surrogate, reset_mechanism=reset_mechanism)
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        if learn_beta:
            raise NotImplementedError("learnable beta is not supported in this reproduction")
        self.beta = float(beta)

    def forward(self, synaptic_input: Tensor) -> Tensor:
        if not is_grad_enabled():
            return self._forward_inference(synaptic_input)
        if self.membrane is None:
            membrane = synaptic_input
        else:
            membrane = self._apply_reset(self.membrane) * self.beta + synaptic_input
        return self._emit(membrane)

    def _forward_inference(self, synaptic_input: Tensor) -> Tensor:
        data = synaptic_input.data
        mem = self._fast_buffer("membrane", data.shape, data.dtype)
        scratch = self._fast_buffer("scratch", data.shape, data.dtype)
        if self.membrane is None:
            np.copyto(mem, data)
        else:
            self._state_into(mem, self.membrane)
            self._membrane_update_inference(mem, data, scratch, self.beta)
        np.subtract(mem, self.threshold, out=scratch)
        return self._emit_inference(mem, scratch)

    def extra_repr(self) -> str:
        return (
            f"beta={self.beta}, threshold={self.threshold}, "
            f"reset={self.reset_mechanism!r}, surrogate={self.surrogate.name!r}"
        )


class IFNeuron(SpikingNeuron):
    """Non-leaky integrate-and-fire neuron (``beta = 1``)."""

    def __init__(
        self,
        threshold: float = 1.0,
        surrogate: SurrogateGradient | str = "fast_sigmoid",
        reset_mechanism: str = "subtract",
    ) -> None:
        super().__init__(threshold=threshold, surrogate=surrogate, reset_mechanism=reset_mechanism)

    def forward(self, synaptic_input: Tensor) -> Tensor:
        if not is_grad_enabled():
            return self._forward_inference(synaptic_input)
        if self.membrane is None:
            membrane = synaptic_input
        else:
            membrane = self._apply_reset(self.membrane) + synaptic_input
        return self._emit(membrane)

    def _forward_inference(self, synaptic_input: Tensor) -> Tensor:
        data = synaptic_input.data
        mem = self._fast_buffer("membrane", data.shape, data.dtype)
        scratch = self._fast_buffer("scratch", data.shape, data.dtype)
        if self.membrane is None:
            np.copyto(mem, data)
        else:
            self._state_into(mem, self.membrane)
            self._membrane_update_inference(mem, data, scratch, decay=None)
        np.subtract(mem, self.threshold, out=scratch)
        return self._emit_inference(mem, scratch)

    def extra_repr(self) -> str:
        return f"threshold={self.threshold}, reset={self.reset_mechanism!r}"


class ALIFNeuron(SpikingNeuron):
    """Adaptive leaky integrate-and-fire neuron (threshold adaptation).

    On top of the LIF dynamics the firing threshold increases by ``adaptation``
    after every emitted spike and decays back towards the base threshold with
    factor ``adaptation_decay``:

        theta[t] = threshold + a[t]
        a[t]     = adaptation_decay * a[t-1] + adaptation * S[t-1]

    Threshold adaptation is the standard mechanism for keeping firing rates
    sparse without hand-tuning the static threshold — directly relevant to the
    energy/accuracy trade-off the paper discusses, and useful as a drop-in
    replacement for :class:`LIFNeuron` in the templates (pass a custom
    ``NeuronConfig``-like factory).
    """

    def __init__(
        self,
        beta: float = 0.9,
        threshold: float = 1.0,
        adaptation: float = 0.2,
        adaptation_decay: float = 0.9,
        surrogate: SurrogateGradient | str = "fast_sigmoid",
        reset_mechanism: str = "subtract",
    ) -> None:
        super().__init__(threshold=threshold, surrogate=surrogate, reset_mechanism=reset_mechanism)
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        if adaptation < 0:
            raise ValueError(f"adaptation must be non-negative, got {adaptation}")
        if not 0.0 <= adaptation_decay < 1.0:
            raise ValueError(f"adaptation_decay must be in [0, 1), got {adaptation_decay}")
        self.beta = float(beta)
        self.adaptation = float(adaptation)
        self.adaptation_decay = float(adaptation_decay)
        self._adaptive_component = None  # numpy array, not part of the autodiff graph

    def reset_state(self) -> None:
        super().reset_state()
        self._adaptive_component = None

    def forward(self, synaptic_input: Tensor) -> Tensor:
        if not is_grad_enabled():
            return self._forward_inference(synaptic_input)
        if self.membrane is None:
            membrane = synaptic_input
        else:
            membrane = self._apply_reset(self.membrane) * self.beta + synaptic_input
        # update the (non-differentiable) threshold adaptation from past spikes
        if self._adaptive_component is None:
            self._adaptive_component = np.zeros_like(membrane.data)
        else:
            self._adaptive_component = self.adaptation_decay * self._adaptive_component
            if self.previous_spikes is not None:
                self._adaptive_component = self._adaptive_component + self.adaptation * self.previous_spikes.data
        # effective threshold shift is applied to the input of the spike function
        shifted = membrane - Tensor(self._adaptive_component)
        spikes = spike_function(shifted, self.threshold, self.surrogate)
        self.membrane = membrane
        self.previous_spikes = spikes
        if self.record_spikes:
            self._record(spikes.data)
        return spikes

    def _forward_inference(self, synaptic_input: Tensor) -> Tensor:
        data = synaptic_input.data
        mem = self._fast_buffer("membrane", data.shape, data.dtype)
        scratch = self._fast_buffer("scratch", data.shape, data.dtype)
        if self.membrane is None:
            np.copyto(mem, data)
        else:
            self._state_into(mem, self.membrane)
            self._membrane_update_inference(mem, data, scratch, self.beta)
        adaptive = self._fast_buffer("adaptive", data.shape, data.dtype)
        if self._adaptive_component is None:
            adaptive[...] = 0.0
        else:
            if self._adaptive_component is not adaptive:
                np.copyto(adaptive, self._adaptive_component)
            np.multiply(adaptive, self.adaptation_decay, out=adaptive)
            if self.previous_spikes is not None:
                np.multiply(self.previous_spikes.data, self.adaptation, out=scratch)
                np.add(adaptive, scratch, out=adaptive)
        self._adaptive_component = adaptive
        np.subtract(mem, adaptive, out=scratch)
        np.subtract(scratch, self.threshold, out=scratch)
        return self._emit_inference(mem, scratch)

    def extra_repr(self) -> str:
        return (
            f"beta={self.beta}, threshold={self.threshold}, adaptation={self.adaptation}, "
            f"adaptation_decay={self.adaptation_decay}"
        )


class SynapticNeuron(SpikingNeuron):
    """Second-order (synaptic conductance) LIF neuron (snnTorch ``Synaptic``).

    The synaptic current is itself a decaying state variable:

        I[t] = alpha * I[t-1] + X[t]
        U[t] = beta * U[t-1] + I[t] - reset_term

    which low-pass-filters the input spikes and produces smoother membrane
    trajectories — often easier to train on event data with sparse frames.
    """

    def __init__(
        self,
        alpha: float = 0.8,
        beta: float = 0.9,
        threshold: float = 1.0,
        surrogate: SurrogateGradient | str = "fast_sigmoid",
        reset_mechanism: str = "subtract",
    ) -> None:
        super().__init__(threshold=threshold, surrogate=surrogate, reset_mechanism=reset_mechanism)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.current: Optional[Tensor] = None

    def reset_state(self) -> None:
        super().reset_state()
        self.current = None

    def detach_state(self) -> None:
        super().detach_state()
        if self.current is not None:
            self.current = Tensor(self.current.data.copy(), requires_grad=False)

    def forward(self, synaptic_input: Tensor) -> Tensor:
        if not is_grad_enabled():
            return self._forward_inference(synaptic_input)
        if self.current is None:
            current = synaptic_input
        else:
            current = self.current * self.alpha + synaptic_input
        if self.membrane is None:
            membrane = current
        else:
            membrane = self._apply_reset(self.membrane) * self.beta + current
        self.current = current
        return self._emit(membrane)

    def _forward_inference(self, synaptic_input: Tensor) -> Tensor:
        data = synaptic_input.data
        current = self._fast_buffer("current", data.shape, data.dtype)
        mem = self._fast_buffer("membrane", data.shape, data.dtype)
        scratch = self._fast_buffer("scratch", data.shape, data.dtype)
        if self.current is None:
            np.copyto(current, data)
        else:
            self._state_into(current, self.current)
            np.multiply(current, self.alpha, out=current)
            np.add(current, data, out=current)
        if self.membrane is None:
            np.copyto(mem, current)
        else:
            self._state_into(mem, self.membrane)
            self._membrane_update_inference(mem, current, scratch, self.beta)
        self.current = graph_free(current)
        np.subtract(mem, self.threshold, out=scratch)
        return self._emit_inference(mem, scratch)

    def extra_repr(self) -> str:
        return f"alpha={self.alpha}, beta={self.beta}, threshold={self.threshold}"


class LeakyIntegrator(Module):
    """Non-spiking leaky integrator used as the network readout.

    Accumulates the logits layer's output over time without thresholding,
    ``U[t] = beta * U[t-1] + I[t]``; classification uses the final (or
    time-averaged) membrane value.  This mirrors the common snnTorch practice
    of reading class scores from membrane potentials rather than spikes.

    Under :func:`~repro.tensor.tensor.no_grad` the update runs in place on a
    preallocated buffer; the returned tensor is a view of that buffer, valid
    until the next step (the temporal runner copies where a longer lifetime
    is needed).
    """

    def __init__(self, beta: float = 0.9) -> None:
        super().__init__()
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.beta = float(beta)
        self.membrane: Optional[Tensor] = None
        self._fast: Dict[str, np.ndarray] = {}

    def reset_state(self) -> None:
        """Clear the accumulated membrane potential."""
        self.membrane = None

    def detach_state(self) -> None:
        """Cut the membrane from the autodiff graph."""
        if self.membrane is not None:
            self.membrane = Tensor(self.membrane.data.copy(), requires_grad=False)

    def forward(self, synaptic_input: Tensor) -> Tensor:
        if not is_grad_enabled():
            data = synaptic_input.data
            mem = self._fast.get("membrane")
            if mem is None or mem.shape != data.shape or mem.dtype != data.dtype:
                mem = np.empty_like(data)
                self._fast["membrane"] = mem
            if self.membrane is None:
                np.copyto(mem, data)
            else:
                if self.membrane.data is not mem:
                    np.copyto(mem, self.membrane.data)
                np.multiply(mem, self.beta, out=mem)
                np.add(mem, data, out=mem)
            self.membrane = graph_free(mem)
            return self.membrane
        if self.membrane is None:
            self.membrane = synaptic_input
        else:
            self.membrane = self.membrane * self.beta + synaptic_input
        return self.membrane

    def extra_repr(self) -> str:
        return f"beta={self.beta}"
