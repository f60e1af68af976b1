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

One definition per neuron
-------------------------

Each neuron defines its update once, as :meth:`SpikingNeuron.dynamics` — a
pure ``(state, drive) -> (state, spike input)`` step written in operator
syntax, so the same expressions run on :class:`~repro.tensor.Tensor` operands
(recording the BPTT graph) and on plain ndarrays.  :meth:`SpikingNeuron.forward`
runs it on Tensors in grad mode and on the ``.data`` arrays under
:func:`~repro.tensor.tensor.no_grad` (emitting through the SPIKE primitive's
forward, with no graph), and the fused BPTT kernel
(:mod:`repro.snn.fused_step`) runs it on its own arrays.  Every path performs
the same elementwise operations in the same order, so membrane trajectories
and spike trains are bit-identical between them (pinned by
``tests/test_inference_fastpath.py`` and ``tests/test_fused_step.py``).
Every step allocates its results, so a returned spike tensor or a state
tensor stays valid after later steps.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.nn.module import Module
from repro.tensor import Tensor
from repro.tensor.tensor import graph_free, is_grad_enabled
from repro.trace import ops_span
from repro.snn.surrogate import SurrogateGradient, _spike_fwd, get_surrogate, spike_function


class SpikingNeuron(Module):
    """Base class for stateful spiking neuron layers.

    Subclasses implement :meth:`dynamics` and list the attributes carrying
    their temporal state in :attr:`state_names`.  The base class runs the
    step in grad or no-grad mode, handles state reset and the running
    spike-rate bookkeeping used by the firing-rate monitors (rates are
    maintained as running sums while recording, so a query never re-reduces
    the whole :attr:`spike_record`).
    """

    #: attributes holding the temporal state (``None`` at a sequence start);
    #: :meth:`dynamics` reads them from and returns them in a dict keyed by
    #: these names
    state_names = ("membrane", "previous_spikes")

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

    # ------------------------------------------------------------------
    # the neuron update
    # ------------------------------------------------------------------
    def dynamics(self, state: Dict, drive):
        """One step: ``(state, drive) -> (updated state, spike input)``.

        ``state`` maps every name of :attr:`state_names` to its value at the
        previous step; ``drive`` is this step's synaptic input.  Returns the
        updated entries except ``previous_spikes`` (the caller emits the new
        spikes from the spike input: ``S = H(spike_input - threshold)``).
        Written in operator syntax, so it runs unchanged on Tensors and on
        ndarrays.
        """
        raise NotImplementedError

    def _reset(self, membrane, spikes):
        """Apply the configured reset using the spikes from the previous step."""
        if spikes is None or self.reset_mechanism == "none":
            return membrane
        if self.reset_mechanism == "subtract":
            return membrane - spikes * self.threshold
        # hard reset: zero the membrane wherever the neuron fired
        return membrane * (1.0 - spikes)

    def forward(self, synaptic_input: Tensor) -> Tensor:
        state = {name: getattr(self, name) for name in self.state_names}
        if is_grad_enabled():
            if state["previous_spikes"] is not None:
                state["previous_spikes"] = state["previous_spikes"].detach()
            update, spike_input = self.dynamics(state, synaptic_input)
            spikes = spike_function(spike_input, self.threshold, self.surrogate)
        else:
            with ops_span("op.neuron_step") as op:
                arrays = {name: None if value is None else value.data for name, value in state.items()}
                update, spike_input = self.dynamics(arrays, synaptic_input.data)
                spike_data, _ = _spike_fwd(spike_input, threshold=self.threshold, surrogate=self.surrogate)
                update = {name: None if value is None else graph_free(value) for name, value in update.items()}
                spikes = graph_free(spike_data)
                if op:
                    op.set(kind=type(self).__name__, size=int(spike_data.size))
        for name, value in update.items():
            setattr(self, name, value)
        self.previous_spikes = spikes
        if self.record_spikes:
            self._record(spikes.data)
        return spikes

    # ------------------------------------------------------------------
    # state handling
    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        """Clear the temporal state and spike history (start of a sequence)."""
        for name in self.state_names:
            setattr(self, name, None)
        self.clear_spike_record()

    def clear_spike_record(self) -> None:
        """Drop recorded spikes and the running spike-rate sums."""
        self.spike_record = []
        self._rate_sum = 0.0
        self._spike_sum = 0.0
        self._record_steps = 0

    def _record(self, spikes_data) -> None:
        """Record one step: update the running sums, optionally keep the array."""
        if self.record_history:
            self.spike_record.append(spikes_data)
        self._rate_sum += float(spikes_data.mean())
        self._spike_sum += float(spikes_data.sum())
        self._record_steps += 1

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
    """

    def __init__(
        self,
        beta: float = 0.9,
        threshold: float = 1.0,
        surrogate: SurrogateGradient | str = "fast_sigmoid",
        reset_mechanism: str = "subtract",
    ) -> None:
        super().__init__(threshold=threshold, surrogate=surrogate, reset_mechanism=reset_mechanism)
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.beta = float(beta)

    def dynamics(self, state, drive):
        membrane = state["membrane"]
        if membrane is None:
            membrane = drive
        else:
            membrane = self._reset(membrane, state["previous_spikes"]) * self.beta + drive
        return {"membrane": membrane}, membrane

    def extra_repr(self) -> str:
        return (
            f"beta={self.beta}, threshold={self.threshold}, "
            f"reset={self.reset_mechanism!r}, surrogate={self.surrogate.name!r}"
        )


class LeakyIntegrator(Module):
    """Non-spiking leaky integrator used as the network readout.

    Accumulates the logits layer's output over time without thresholding,
    ``U[t] = beta * U[t-1] + I[t]``; classification uses the final (or
    time-averaged) membrane value.  This mirrors the common snnTorch practice
    of reading class scores from membrane potentials rather than spikes.
    """

    def __init__(self, beta: float = 0.9) -> None:
        super().__init__()
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.beta = float(beta)
        self.membrane: Optional[Tensor] = None

    def reset_state(self) -> None:
        """Clear the accumulated membrane potential."""
        self.membrane = None

    def forward(self, synaptic_input: Tensor) -> Tensor:
        if self.membrane is None:
            self.membrane = synaptic_input
        else:
            self.membrane = self.membrane * self.beta + synaptic_input
        return self.membrane

    def extra_repr(self) -> str:
        return f"beta={self.beta}"
