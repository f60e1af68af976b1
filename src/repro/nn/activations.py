"""The activation module of the non-spiking (ANN) networks.

The model templates build the spiking variant of an architecture with a LIF
neuron (:mod:`repro.snn.neurons`) in each ReLU's place; keeping the
activation a standalone module is what makes that swap a one-line choice.
"""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import Tensor, ops


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)
