"""Temporal unrolling of stateful spiking models.

A spiking model built from :class:`repro.snn.neurons.SpikingNeuron` layers is
*stateful*: each call advances it by one simulation step.  The
:class:`TemporalRunner` turns such a model into a plain batch-to-logits
function by

1. encoding the input batch into a ``num_steps``-long sequence,
2. resetting every neuron's state,
3. looping over the steps and feeding each frame through the model,
4. aggregating the per-step outputs into class scores (spike counts, mean
   membrane, or last membrane).

Because membrane states are ordinary autodiff tensors, calling ``backward()``
on a loss computed from the aggregated output performs full backpropagation
through time (BPTT).  ``truncation`` optionally detaches the state every k
steps, giving truncated BPTT for long sequences.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.nn.module import Module
from repro.snn.encoding import SpikeEncoder, encode_batch
from repro.tensor import Tensor, ops
from repro.tensor.tensor import is_grad_enabled

#: valid values for the ``readout`` argument
READOUTS = ("membrane_mean", "membrane_last", "spike_count", "spike_rate")


def reset_states(model: Module) -> None:
    """Reset the temporal state of every stateful submodule of ``model``."""
    for module in model.modules():
        reset = getattr(module, "reset_state", None)
        if callable(reset):
            reset()


def detach_states(model: Module) -> None:
    """Detach every stateful submodule's state from the autodiff graph."""
    for module in model.modules():
        detach = getattr(module, "detach_state", None)
        if callable(detach):
            detach()


def aggregate_outputs(outputs: Sequence[Tensor], readout: str) -> Tensor:
    """Combine per-step model outputs into a single score tensor."""
    if readout not in READOUTS:
        raise ValueError(f"readout must be one of {READOUTS}, got {readout!r}")
    if not outputs:
        raise ValueError("no outputs to aggregate")
    if readout == "membrane_last":
        return outputs[-1]
    stacked = ops.stack(list(outputs), axis=0)
    if readout in ("membrane_mean", "spike_rate"):
        return stacked.mean(axis=0)
    # spike_count
    return stacked.sum(axis=0)


def run_temporal(
    model: Module,
    batch: np.ndarray,
    num_steps: int,
    encoder: Optional[SpikeEncoder] = None,
    readout: str = "membrane_mean",
    truncation: Optional[int] = None,
    step_callback: Optional[Callable[[int, Tensor], None]] = None,
) -> Tensor:
    """Run ``model`` over ``num_steps`` and return aggregated class scores.

    Parameters
    ----------
    model:
        A stateful spiking model mapping a single-frame tensor to per-class
        outputs (spikes or membrane values).
    batch:
        Static batch ``(N, C, H, W)`` or temporal batch ``(N, T, C, H, W)``.
    num_steps:
        Number of simulation steps (the paper uses 25).
    encoder:
        Optional input encoder; chosen automatically when ``None``.
    readout:
        How to aggregate per-step outputs (see :data:`READOUTS`).
    truncation:
        If given, detach all neuron states every ``truncation`` steps
        (truncated BPTT).
    step_callback:
        Optional hook called with ``(step_index, step_output)`` — used by the
        spike-based losses (which retain the per-step outputs) and by
        visualisation examples.

    The per-step outputs are folded into a **running sum** as the loop
    advances (for the ``count``/``mean``/``rate`` readouts) instead of being
    retained and stacked at the end, so peak memory of a long-horizon run is
    one output tensor rather than ``num_steps`` of them.  The same loop runs
    in grad mode and under ``no_grad``, so the two return bit-identical
    scores.
    """
    if readout not in READOUTS:
        raise ValueError(f"readout must be one of {READOUTS}, got {readout!r}")
    steps = encode_batch(batch, encoder, num_steps)
    if not steps:
        raise ValueError("no outputs to aggregate")
    reset_states(model)
    total: Optional[Tensor] = None
    out: Optional[Tensor] = None
    for t, frame in enumerate(steps):
        out = model(frame)
        if step_callback is not None:
            step_callback(t, out)
        if readout != "membrane_last":
            total = out if total is None else total + out
        if truncation and (t + 1) % truncation == 0 and t + 1 < len(steps):
            detach_states(model)
    if readout == "membrane_last":
        return out
    if readout == "spike_count":
        return total
    # membrane_mean / spike_rate
    return total / float(len(steps))


class TemporalRunner(Module):
    """Module wrapper exposing a stateful spiking model as ``batch -> logits``.

    This is the object handed to the generic trainer: it hides the time loop
    so that the same training code drives ANNs and SNNs.
    """

    def __init__(
        self,
        model: Module,
        num_steps: int,
        encoder: Optional[SpikeEncoder] = None,
        readout: str = "membrane_mean",
        truncation: Optional[int] = None,
    ) -> None:
        super().__init__()
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        if readout not in READOUTS:
            raise ValueError(f"readout must be one of {READOUTS}, got {readout!r}")
        self.model = model
        self.num_steps = int(num_steps)
        self.encoder = encoder
        self.readout = readout
        self.truncation = truncation

    def forward(self, batch) -> Tensor:
        data = batch.data if isinstance(batch, Tensor) else batch
        if is_grad_enabled():
            # fused BPTT fast path: one hand-written adjoint over the whole
            # unrolled step instead of a recorded graph (local import — the
            # kernel module pulls in the model zoo, which this module must not)
            from repro.snn.fused_step import fused_dispatch

            fused = fused_dispatch(self, data)
            if fused is not None:
                return fused
        return run_temporal(
            self.model,
            data,
            num_steps=self.num_steps,
            encoder=self.encoder,
            readout=self.readout,
            truncation=self.truncation,
        )

    def extra_repr(self) -> str:
        return f"num_steps={self.num_steps}, readout={self.readout!r}"
