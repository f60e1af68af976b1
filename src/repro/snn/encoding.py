"""Input encoders converting data into per-time-step tensors for the SNN.

Static image datasets (CIFAR-10) must be turned into a temporal sequence
before a spiking network can consume them.  The paper (via snnTorch) uses rate
coding with ``num_steps = 25``; this reproduction feeds static images as a
constant current (direct coding, :class:`ConstantCurrentEncoder`) and passes
data that is already temporal (the DVS event-frame datasets) through
:class:`EventFrameEncoder`.

All encoders map an input batch of shape ``(N, C, H, W)`` (or ``(N, F)``) to a
sequence ``[x_1, ..., x_T]`` of tensors with the same shape, consumed one step
at a time by :class:`repro.snn.temporal.TemporalRunner`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.tensor import Tensor


class SpikeEncoder:
    """Base encoder interface."""

    def __init__(self, num_steps: int) -> None:
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        self.num_steps = int(num_steps)

    def encode(self, batch: np.ndarray) -> List[np.ndarray]:
        """Return a list of ``num_steps`` arrays, one per simulation step."""
        raise NotImplementedError

    def __call__(self, batch: np.ndarray) -> List[Tensor]:
        return [Tensor(step) for step in self.encode(np.asarray(batch, dtype=np.float64))]


class ConstantCurrentEncoder(SpikeEncoder):
    """Direct (constant-current) coding: the analog input is injected at every step.

    The first spiking layer then performs the actual analog-to-spike
    conversion.  This is the highest-accuracy encoding for static data and is
    what modern directly-trained deep SNNs typically use.
    """

    def encode(self, batch: np.ndarray) -> List[np.ndarray]:
        return [batch for _ in range(self.num_steps)]


class EventFrameEncoder(SpikeEncoder):
    """Pass-through for data that is already a temporal sequence of frames.

    Expects input of shape ``(N, T, C, H, W)`` and slices it along the time
    axis.  If the provided sequence is longer than ``num_steps`` it is
    truncated; if shorter, the last frame is repeated.
    """

    def encode(self, batch: np.ndarray) -> List[np.ndarray]:
        if batch.ndim < 3:
            raise ValueError(f"event-frame input must have a time axis, got shape {batch.shape}")
        available = batch.shape[1]
        steps = []
        for t in range(self.num_steps):
            index = min(t, available - 1)
            steps.append(np.ascontiguousarray(batch[:, index]))
        return steps


def encode_batch(batch: np.ndarray, encoder: Optional[SpikeEncoder], num_steps: int) -> List[Tensor]:
    """Encode ``batch`` with ``encoder``; default to constant-current coding.

    Temporal batches (ndim >= 5, i.e. ``(N, T, C, H, W)``) are passed through
    :class:`EventFrameEncoder` automatically when no encoder is given.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if encoder is None:
        if batch.ndim >= 5:
            encoder = EventFrameEncoder(num_steps)
        else:
            encoder = ConstantCurrentEncoder(num_steps)
    return encoder(batch)
