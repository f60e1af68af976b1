"""Training configurations: the hyperparameters of one (spiking) training run.

They are plain data, kept apart from the trainers so that the code that
only names or fingerprints a run (a search keys its evaluation store by the
candidate fine-tune configuration) imports no layer, optimizer or neuron
code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass
class TrainingConfig:
    """Hyperparameters of one training run."""

    epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 0.01
    optimizer: str = "sgd"
    momentum: float = 0.9
    weight_decay: float = 0.0
    grad_clip: Optional[float] = 5.0
    label_smoothing: float = 0.0
    early_stopping_patience: Optional[int] = None
    shuffle: bool = True
    seed: int = 0
    #: fused-BPTT dispatch mode for temporal models: "auto" fuses whenever the
    #: model qualifies (bit-identical to graph autograd), "on" requires it,
    #: "off" always uses the recorded graph (see repro.snn.fused_step)
    fused: str = "auto"

    def with_overrides(self, **kwargs) -> "TrainingConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass
class SNNTrainingConfig(TrainingConfig):
    """Training configuration extended with simulation parameters."""

    num_steps: int = 8
