"""Parameter initialisation schemes.

The reproduction defaults to Kaiming (He) initialisation for convolutional and
linear weights — the scheme used by the reference ResNet/DenseNet/MobileNet
implementations — plus constant fills for biases and batch-norm affine
parameters.  The random scheme takes an explicit
:class:`numpy.random.Generator` for reproducibility.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.tensor.random import default_rng


def _fan_in_fan_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in / fan-out for linear (2-D) and conv (4-D) weight shapes."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        out_channels, in_channels, kh, kw = shape
        receptive = kh * kw
        return in_channels * receptive, out_channels * receptive
    size = int(np.prod(shape))
    return size, size


#: default He gain, sqrt(2), matching ReLU-family nonlinearities
HE_GAIN = float(np.sqrt(2.0))


def kaiming_normal(shape: Tuple[int, ...], rng=None, gain: float = HE_GAIN) -> np.ndarray:
    """He normal initialisation: ``std = gain / sqrt(fan_in)``."""
    rng = default_rng(rng)
    fan_in, _ = _fan_in_fan_out(shape)
    std = gain / np.sqrt(max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases, batch-norm shift)."""
    return np.zeros(shape, dtype=np.float64)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    """All-one initialisation (batch-norm scale)."""
    return np.ones(shape, dtype=np.float64)
