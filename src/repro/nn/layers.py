"""Standard trainable layers: linear, convolution, batch-norm, pooling.

These are the synaptic layers shared by the ANN and SNN variants of every
architecture — the SNN versions (see :mod:`repro.snn`) keep the same weight
layers and replace only the activation/neuron dynamics, which is precisely the
ANN→SNN conversion studied by the paper.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, avg_pool2d, conv2d
from repro.tensor.conv import conv_output_shape
from repro.tensor.random import default_rng

IntOrPair = Union[int, Tuple[int, int]]


class Identity(Module):
    """Pass-through layer (used when a skip connection replaces a transform)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Flatten(Module):
    """Flatten all axes except the leading batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Linear(Module):
    """Fully connected layer ``y = x @ W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        rng = default_rng(rng)
        self.weight = Parameter(init.kaiming_normal((out_features, in_features), rng=rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out

    def extra_repr(self) -> str:
        return f"in_features={self.in_features}, out_features={self.out_features}"


class Conv2d(Module):
    """2-D convolution over NCHW tensors with optional grouped/depthwise mode."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntOrPair,
        stride: IntOrPair = 1,
        padding: IntOrPair = 0,
        groups: int = 1,
        bias: bool = True,
        rng=None,
    ) -> None:
        super().__init__()
        if in_channels % groups != 0 or out_channels % groups != 0:
            raise ValueError(
                f"groups={groups} must divide in_channels={in_channels} and out_channels={out_channels}"
            )
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = kernel_size if isinstance(kernel_size, tuple) else (kernel_size, kernel_size)
        self.stride = stride
        self.padding = padding
        self.groups = int(groups)
        rng = default_rng(rng)
        weight_shape = (out_channels, in_channels // groups, *self.kernel_size)
        self.weight = Parameter(init.kaiming_normal(weight_shape, rng=rng), name="weight")
        self.bias = Parameter(init.zeros((out_channels,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding, groups=self.groups)

    def output_shape(self, height: int, width: int) -> Tuple[int, int, int]:
        """Return ``(out_channels, out_h, out_w)`` for a given input geometry."""
        out_h, out_w = conv_output_shape(height, width, self.kernel_size, self.stride, self.padding)
        return self.out_channels, out_h, out_w

    def extra_repr(self) -> str:
        return (
            f"in={self.in_channels}, out={self.out_channels}, kernel={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, groups={self.groups}"
        )


class BatchNorm2d(Module):
    """Batch normalisation over the channel axis of NCHW tensors.

    Keeps exponential running statistics for evaluation mode, matching the
    usual deep-learning convention.  Batch normalisation (through time, since
    the SNN applies the same layer at every step) is known to stabilise SNN
    training (Kim & Panda, 2021, cited in the paper's related work).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(init.ones((num_features,)), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
            new_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean.data.reshape(-1)
            new_var = (1 - self.momentum) * self.running_var + self.momentum * var.data.reshape(-1)
            self.update_buffer("running_mean", new_mean)
            self.update_buffer("running_var", new_var)
            normalized = centered / (var + self.eps) ** 0.5
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
            normalized = (x - mean) / (var + self.eps) ** 0.5
        scale = self.weight.reshape(1, self.num_features, 1, 1)
        shift = self.bias.reshape(1, self.num_features, 1, 1)
        return normalized * scale + shift

    def extra_repr(self) -> str:
        return f"num_features={self.num_features}, eps={self.eps}, momentum={self.momentum}"


class AvgPool2d(Module):
    """Average pooling layer."""

    def __init__(self, kernel_size: IntOrPair, stride: Optional[IntOrPair] = None, padding: IntOrPair = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.kernel_size, stride=self.stride, padding=self.padding)

    def extra_repr(self) -> str:
        return f"kernel={self.kernel_size}, stride={self.stride}, padding={self.padding}"


class GlobalAvgPool2d(Module):
    """Global average pooling: NCHW → NC."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
