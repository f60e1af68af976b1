"""Training and evaluation harness shared by ANNs and SNNs.

The :class:`~repro.training.trainer.Trainer` drives any module that maps an
input batch to class logits; spiking networks are handled by wrapping them in
:class:`repro.snn.temporal.TemporalRunner` (done automatically by
:class:`~repro.training.snn_trainer.SNNTrainer`), so the same loop implements
both standard backprop and surrogate-gradient BPTT.
"""

from repro.training.callbacks import EarlyStopping, TrainingHistory
from repro.training.evaluation import evaluate_classifier, evaluate_with_spikes
from repro.training.trainer import Trainer, TrainingConfig
from repro.training.snn_trainer import SNNTrainer, SNNTrainingConfig

__all__ = [
    "EarlyStopping",
    "TrainingHistory",
    "evaluate_classifier",
    "evaluate_with_spikes",
    "Trainer",
    "TrainingConfig",
    "SNNTrainer",
    "SNNTrainingConfig",
]
