"""Temporal unrolling of stateful spiking models.

A spiking model built from :class:`repro.snn.neurons.SpikingNeuron` layers is
*stateful*: each call advances it by one simulation step.  The
:class:`TemporalRunner` turns such a model into a plain batch-to-logits
function by

1. encoding the input batch into a ``num_steps``-long sequence,
2. resetting every neuron's state,
3. looping over the steps and feeding each frame through the model,
4. averaging the per-step outputs (the readout membrane) into class scores.

Because membrane states are ordinary autodiff tensors, calling ``backward()``
on a loss computed from the averaged output performs full backpropagation
through time (BPTT).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module
from repro.snn.encoding import SpikeEncoder, encode_batch
from repro.tensor import Tensor
from repro.tensor.tensor import is_grad_enabled


def reset_states(model: Module) -> None:
    """Reset the temporal state of every stateful submodule of ``model``."""
    for module in model.modules():
        reset = getattr(module, "reset_state", None)
        if callable(reset):
            reset()


def run_temporal(
    model: Module,
    batch: np.ndarray,
    num_steps: int,
    encoder: Optional[SpikeEncoder] = None,
) -> Tensor:
    """Run ``model`` over ``num_steps`` and return the mean per-step output.

    Parameters
    ----------
    model:
        A stateful spiking model mapping a single-frame tensor to per-class
        outputs (the readout membrane).
    batch:
        Static batch ``(N, C, H, W)`` or temporal batch ``(N, T, C, H, W)``.
    num_steps:
        Number of simulation steps (the paper uses 25).
    encoder:
        Optional input encoder; chosen automatically when ``None``.

    The per-step outputs are folded into a **running sum** as the loop
    advances instead of being retained and stacked at the end, so peak
    memory of a long-horizon run is one output tensor rather than
    ``num_steps`` of them.  The same loop runs in grad mode and under
    ``no_grad``, so the two return bit-identical scores.
    """
    steps = encode_batch(batch, encoder, num_steps)
    if not steps:
        raise ValueError("no outputs to aggregate")
    reset_states(model)
    total: Optional[Tensor] = None
    for frame in steps:
        out = model(frame)
        total = out if total is None else total + out
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
    ) -> None:
        super().__init__()
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        self.model = model
        self.num_steps = int(num_steps)
        self.encoder = encoder

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
        return run_temporal(self.model, data, num_steps=self.num_steps, encoder=self.encoder)

    def extra_repr(self) -> str:
        return f"num_steps={self.num_steps}"
