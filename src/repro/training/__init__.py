"""Training and evaluation harness shared by ANNs and SNNs.

The :class:`~repro.training.trainer.Trainer` drives any module that maps an
input batch to class logits; spiking networks are handled by wrapping them in
:class:`repro.snn.temporal.TemporalRunner` (done automatically by
:class:`~repro.training.snn_trainer.SNNTrainer`), so the same loop implements
both standard backprop and surrogate-gradient BPTT.
"""

from repro._lazy import lazy_exports

# each name's module is imported on first access (PEP 562, see repro._lazy)
_LAZY_EXPORTS = {
    "EarlyStopping": "repro.training.callbacks",
    "TrainingHistory": "repro.training.callbacks",
    "evaluate_classifier": "repro.training.evaluation",
    "evaluate_with_spikes": "repro.training.evaluation",
    "Trainer": "repro.training.trainer",
    "TrainingConfig": "repro.training.config",
    "SNNTrainer": "repro.training.snn_trainer",
    "SNNTrainingConfig": "repro.training.config",
}
__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
