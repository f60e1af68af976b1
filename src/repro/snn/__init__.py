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
* :mod:`repro.snn.routing` — the fused dispatch mode and the routing
  tallies of where each training step ran;
* :mod:`repro.snn.metrics` — firing-rate and spike-count monitors used for
  the energy analysis in Fig. 1 and Table I;
* :mod:`repro.snn.mac` — multiply-accumulate (MAC) and synaptic-operation
  estimators quantifying the DSC-vs-ASC energy trade-off.
"""

from repro._lazy import lazy_exports

# each name's module is imported on first access (PEP 562, see repro._lazy)
_LAZY_EXPORTS = {
    "ATanSurrogate": "repro.snn.surrogate",
    "FastSigmoidSurrogate": "repro.snn.surrogate",
    "StraightThroughSurrogate": "repro.snn.surrogate",
    "SurrogateGradient": "repro.snn.surrogate",
    "TriangularSurrogate": "repro.snn.surrogate",
    "get_surrogate": "repro.snn.surrogate",
    "spike_function": "repro.snn.surrogate",
    "LeakyIntegrator": "repro.snn.neurons",
    "LIFNeuron": "repro.snn.neurons",
    "SpikingNeuron": "repro.snn.neurons",
    "ConstantCurrentEncoder": "repro.snn.encoding",
    "SpikeEncoder": "repro.snn.encoding",
    "TemporalRunner": "repro.snn.temporal",
    "reset_states": "repro.snn.temporal",
    "run_temporal": "repro.snn.temporal",
    "aggregate_fused_counters": "repro.snn.routing",
    "fused_counters": "repro.snn.routing",
    "fused_dispatch": "repro.snn.fused_step",
    "fused_mode": "repro.snn.routing",
    "fused_training": "repro.snn.routing",
    "merge_fused_counters": "repro.snn.routing",
    "release_fused": "repro.snn.fused_step",
    "reset_fused_counters": "repro.snn.routing",
    "FiringRateMonitor": "repro.snn.metrics",
    "SpikeStatistics": "repro.snn.metrics",
    "average_firing_rate": "repro.snn.metrics",
    "MACCounter": "repro.snn.mac",
    "estimate_block_macs": "repro.snn.mac",
    "estimate_energy": "repro.snn.mac",
    "estimate_model_macs": "repro.snn.mac",
}
__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
