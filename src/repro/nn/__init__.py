"""Neural-network layer library built on :mod:`repro.tensor`.

Provides the non-spiking (ANN) building blocks used by the paper's reference
architectures — convolutions, batch normalisation, pooling, linear heads —
plus parameter initialisation, losses and optimizers.  The spiking
counterparts live in :mod:`repro.snn` and reuse these modules for their
synaptic (weight) computations.
"""

from repro._lazy import lazy_exports

# each name's module is imported on first access (PEP 562, see repro._lazy)
_LAZY_EXPORTS = {
    "Module": "repro.nn.module",
    "ModuleList": "repro.nn.module",
    "Parameter": "repro.nn.module",
    "Sequential": "repro.nn.module",
    "AvgPool2d": "repro.nn.layers",
    "BatchNorm2d": "repro.nn.layers",
    "Conv2d": "repro.nn.layers",
    "Flatten": "repro.nn.layers",
    "GlobalAvgPool2d": "repro.nn.layers",
    "Identity": "repro.nn.layers",
    "Linear": "repro.nn.layers",
    "ReLU": "repro.nn.activations",
    "init": "repro.nn.init",
    "CrossEntropyLoss": "repro.nn.losses",
    "MSELoss": "repro.nn.losses",
    "accuracy": "repro.nn.losses",
    "SGD": "repro.nn.optim",
    "Adam": "repro.nn.optim",
    "Optimizer": "repro.nn.optim",
}
__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
