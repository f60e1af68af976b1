"""Neural-network layer library built on :mod:`repro.tensor`.

Provides the non-spiking (ANN) building blocks used by the paper's reference
architectures — convolutions, batch normalisation, pooling, linear heads —
plus parameter initialisation, losses, optimizers and the constant
learning-rate schedule.  The spiking counterparts live in :mod:`repro.snn` and reuse these
modules for their synaptic (weight) computations.
"""

from repro.nn.module import Module, ModuleList, Parameter, Sequential
from repro.nn.layers import AvgPool2d, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool2d, Identity, Linear
from repro.nn.activations import ReLU
from repro.nn import init
from repro.nn.losses import CrossEntropyLoss, MSELoss, accuracy
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.scheduler import ConstantLR, LRScheduler

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "ReLU",
    "init",
    "CrossEntropyLoss",
    "MSELoss",
    "accuracy",
    "SGD",
    "Adam",
    "Optimizer",
    "ConstantLR",
    "LRScheduler",
]
