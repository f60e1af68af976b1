"""repro — reproduction of "Skip Connections in Spiking Neural Networks" (IPPS 2023).

The package is organised bottom-up:

* :mod:`repro.tensor` — NumPy reverse-mode autodiff (the compute substrate);
* :mod:`repro.nn` — ANN layers, losses, optimizers;
* :mod:`repro.snn` — spiking neurons, surrogate gradients, temporal unrolling,
  firing-rate and MAC/energy metrics;
* :mod:`repro.gp` — Gaussian-process regression and acquisition functions;
* :mod:`repro.core` — the paper's contribution: adjacency-matrix skip encoding,
  search-space construction, Bayesian optimization and the random-search
  baseline;
* :mod:`repro.models` — DAG skip-blocks and the ResNet-18 / DenseNet-121 /
  MobileNetV2 / single-block templates;
* :mod:`repro.data` — synthetic CIFAR-10, CIFAR-10-DVS and DVS128-Gesture
  stand-ins;
* :mod:`repro.training` — shared training/evaluation harness;
* :mod:`repro.experiments` — harnesses regenerating Fig. 1, Table I, Fig. 3
  and the accuracy–energy–latency Pareto front, and the end-to-end ANN→SNN
  adaptation pipeline of Table I.

Quickstart::

    from repro.experiments import get_scale, run_table1_cell

    result = run_table1_cell("cifar10-dvs", "resnet18", scale=get_scale("smoke"))
    print(result.summary())
"""

from time import perf_counter as _perf_counter
from time import process_time as _process_time

#: ``perf_counter`` and ``process_time`` readings taken before the package
#: imports anything else; ``repro pareto --trace`` records the start-up up to
#: ``main()`` from them
_IMPORT_STARTED = _perf_counter()
_IMPORT_CPU_STARTED = _process_time()

__version__ = "1.0.0"

from repro._lazy import lazy_exports

# each name's module is imported on first access (PEP 562, see repro._lazy)
_LAZY_EXPORTS = {
    "core": "repro.core",
    "data": "repro.data",
    "experiments": "repro.experiments",
    "gp": "repro.gp",
    "models": "repro.models",
    "nn": "repro.nn",
    "snn": "repro.snn",
    "tensor": "repro.tensor",
    "training": "repro.training",
    "ASC": "repro.core",
    "DSC": "repro.core",
    "ArchitectureSpec": "repro.core",
    "BayesianOptimizer": "repro.core",
    "BlockAdjacency": "repro.core",
    "RandomSearch": "repro.core",
    "SearchSpace": "repro.core",
    "WeightSnapshotStore": "repro.core",
    "WeightStore": "repro.core",
    "WeightUpdate": "repro.core",
    "load_dataset": "repro.data",
    "NeuronConfig": "repro.models",
    "get_template": "repro.models",
    "FiringRateMonitor": "repro.snn",
    "LIFNeuron": "repro.snn",
    "TemporalRunner": "repro.snn",
    "Tensor": "repro.tensor",
    "SNNTrainer": "repro.training",
    "SNNTrainingConfig": "repro.training",
    "Trainer": "repro.training",
    "TrainingConfig": "repro.training",
}
__all__ = ["__version__", *_LAZY_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
