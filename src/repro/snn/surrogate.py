"""Surrogate gradients for the non-differentiable spiking nonlinearity.

A spiking neuron emits ``S = H(U - theta)`` where ``H`` is the Heaviside step
function of the membrane potential ``U`` and threshold ``theta``.  ``H`` has a
zero derivative almost everywhere, so plain backpropagation cannot train the
network.  The standard fix (Neftci et al., 2019 — reference [4] of the paper)
is to keep the Heaviside forward pass but substitute a smooth *surrogate*
derivative in the backward pass.  This module provides the common choices and
the :func:`spike_function` autodiff primitive that applies them.
"""

from __future__ import annotations

from typing import Dict, Type

import numpy as np

from repro.tensor import Tensor
from repro.tensor.primitives import Primitive, apply as _apply, register
from repro.tensor.tensor import ensure_tensor


class SurrogateGradient:
    """Base class: maps membrane-minus-threshold values to pseudo-derivatives."""

    #: registry name used by :func:`get_surrogate`
    name = "base"

    def derivative(self, shifted_membrane: np.ndarray) -> np.ndarray:
        """Return d(spike)/d(membrane) evaluated at ``membrane - threshold``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v}" for k, v in vars(self).items())
        return f"{type(self).__name__}({params})"


class FastSigmoidSurrogate(SurrogateGradient):
    """SuperSpike / fast-sigmoid surrogate (Zenke & Ganguli, 2018).

    ``d = 1 / (slope * |x| + 1)^2`` — the snnTorch default, and the default
    of this reproduction.
    """

    name = "fast_sigmoid"

    def __init__(self, slope: float = 25.0) -> None:
        if slope <= 0:
            raise ValueError(f"slope must be positive, got {slope}")
        self.slope = float(slope)

    def derivative(self, shifted_membrane: np.ndarray) -> np.ndarray:
        return 1.0 / (self.slope * np.abs(shifted_membrane) + 1.0) ** 2


class ATanSurrogate(SurrogateGradient):
    """Arctangent surrogate (used by SpikingJelly / SEW-ResNet).

    ``d = alpha / (2 * (1 + (pi/2 * alpha * x)^2))``.
    """

    name = "atan"

    def __init__(self, alpha: float = 2.0) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)

    def derivative(self, shifted_membrane: np.ndarray) -> np.ndarray:
        scaled = (np.pi / 2.0) * self.alpha * shifted_membrane
        return (self.alpha / 2.0) / (1.0 + scaled ** 2)


class TriangularSurrogate(SurrogateGradient):
    """Triangular (piecewise-linear) surrogate: ``max(0, 1 - |x| / width)``."""

    name = "triangular"

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.width = float(width)

    def derivative(self, shifted_membrane: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - np.abs(shifted_membrane) / self.width) / self.width


class StraightThroughSurrogate(SurrogateGradient):
    """Straight-through estimator: gradient 1 inside a window around threshold."""

    name = "straight_through"

    def __init__(self, window: float = 0.5) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)

    def derivative(self, shifted_membrane: np.ndarray) -> np.ndarray:
        return (np.abs(shifted_membrane) <= self.window).astype(np.float64)


_REGISTRY: Dict[str, Type[SurrogateGradient]] = {
    cls.name: cls
    for cls in (FastSigmoidSurrogate, ATanSurrogate, TriangularSurrogate, StraightThroughSurrogate)
}


def get_surrogate(name_or_instance, **kwargs) -> SurrogateGradient:
    """Resolve a surrogate by name (``"fast_sigmoid"``, ``"atan"``, ...) or pass through an instance."""
    if isinstance(name_or_instance, SurrogateGradient):
        return name_or_instance
    name = str(name_or_instance)
    if name not in _REGISTRY:
        raise KeyError(f"unknown surrogate gradient {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


def _spike_fwd(membrane, want_ctx=False, *, threshold, surrogate):
    # ``membrane >= threshold`` is exactly ``membrane - threshold >= 0``: an
    # IEEE difference is zero only for equal operands and keeps their order
    spikes = (membrane >= threshold).astype(membrane.dtype)
    if not want_ctx:
        return spikes, None
    return spikes, (surrogate.derivative(membrane - threshold),)


def _spike_vjp(ctx, g, needs, *, threshold, surrogate):
    (pseudo_derivative,) = ctx
    return ((g * pseudo_derivative) if needs[0] else None,)


def _spike_sample(rng, dtype):
    return (rng.standard_normal((3, 4)).astype(dtype, copy=False) + 1.0,), {
        "threshold": 1.0,
        "surrogate": FastSigmoidSurrogate(),
    }


#: the surrogate spike is *deliberately* not the true derivative of its
#: Heaviside forward (that derivative is zero a.e.), so finite differences
#: must not be checked against it (``tests/test_snn_neurons.py`` pins the
#: vjp against :meth:`SurrogateGradient.derivative` instead).
SPIKE = register(
    Primitive(
        "spike",
        forward=_spike_fwd,
        vjp=_spike_vjp,
        samples=[_spike_sample],
        fd_exempt=True,
    )
)


def spike_function(membrane, threshold: float, surrogate: SurrogateGradient) -> Tensor:
    """Heaviside spike with a surrogate derivative.

    Forward: ``S = (membrane >= threshold)`` as floats in {0, 1}.
    Backward: ``dL/d(membrane) = dL/dS * surrogate.derivative(membrane - threshold)``.
    """
    return _apply(SPIKE, (ensure_tensor(membrane),), threshold=threshold, surrogate=surrogate)
