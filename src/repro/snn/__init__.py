"""Spiking neural network substrate (a from-scratch snnTorch equivalent).

The paper trains SNNs with surrogate-gradient backpropagation through time
using the snnTorch library.  This package reimplements the pieces the
experiments rely on:

* :mod:`repro.snn.surrogate` — smoothed derivatives of the Heaviside spike
  nonlinearity (fast sigmoid, arctan, triangular, straight-through);
* :mod:`repro.snn.neurons` — the leaky integrate-and-fire neuron layer with
  configurable decay, threshold and reset mechanism, maintaining membrane
  state across simulation time steps, and the non-spiking readout integrator;
* :mod:`repro.snn.encoding` — input encoders feeding static images to every
  step as a constant current and passing event frames through unchanged;
* :mod:`repro.snn.temporal` — the time-loop runner that unrolls a stateful
  spiking model over ``num_steps`` and averages the readout membrane (BPTT
  happens automatically through the recorded autodiff graph);
* :mod:`repro.snn.fused_step` — fused temporal training kernels: one fused
  forward stashing minimal residuals plus one hand-written reverse-time
  adjoint, bit-identical to the recorded graph but without per-step graph
  construction (dispatched automatically by :class:`TemporalRunner`);
* :mod:`repro.snn.metrics` — firing-rate and spike-count monitors used for
  the energy analysis in Fig. 1 and Table I;
* :mod:`repro.snn.mac` — multiply-accumulate (MAC) and synaptic-operation
  estimators quantifying the DSC-vs-ASC energy trade-off.
"""

from repro.snn.surrogate import (
    ATanSurrogate,
    FastSigmoidSurrogate,
    StraightThroughSurrogate,
    SurrogateGradient,
    TriangularSurrogate,
    get_surrogate,
    spike_function,
)
from repro.snn.neurons import LeakyIntegrator, LIFNeuron, SpikingNeuron
from repro.snn.encoding import ConstantCurrentEncoder, RepeatEncoder, SpikeEncoder
from repro.snn.temporal import TemporalRunner, reset_states, run_temporal
from repro.snn.fused_step import (
    aggregate_fused_counters,
    fused_counters,
    fused_dispatch,
    fused_mode,
    fused_training,
    merge_fused_counters,
    release_fused,
    reset_fused_counters,
)
from repro.snn.metrics import FiringRateMonitor, SpikeStatistics, average_firing_rate
from repro.snn.mac import MACCounter, estimate_block_macs, estimate_energy, estimate_model_macs

__all__ = [
    "ATanSurrogate",
    "FastSigmoidSurrogate",
    "StraightThroughSurrogate",
    "SurrogateGradient",
    "TriangularSurrogate",
    "get_surrogate",
    "spike_function",
    "LeakyIntegrator",
    "LIFNeuron",
    "SpikingNeuron",
    "ConstantCurrentEncoder",
    "RepeatEncoder",
    "SpikeEncoder",
    "TemporalRunner",
    "reset_states",
    "run_temporal",
    "fused_training",
    "fused_dispatch",
    "fused_mode",
    "fused_counters",
    "reset_fused_counters",
    "aggregate_fused_counters",
    "merge_fused_counters",
    "release_fused",
    "FiringRateMonitor",
    "SpikeStatistics",
    "average_firing_rate",
    "MACCounter",
    "estimate_block_macs",
    "estimate_energy",
    "estimate_model_macs",
]
