"""Training callbacks: history recording and early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class TrainingHistory:
    """Per-epoch record of losses, accuracies and learning rates.

    ``val_accuracy`` holds one value per validated epoch, so it is empty
    when training ran without a validation split.
    """

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    learning_rate: List[float] = field(default_factory=list)

    def record(
        self,
        train_loss: float,
        train_accuracy: float,
        val_accuracy: Optional[float],
        learning_rate: float,
    ) -> None:
        """Append one epoch's metrics (``val_accuracy`` only when validated)."""
        self.train_loss.append(float(train_loss))
        self.train_accuracy.append(float(train_accuracy))
        if val_accuracy is not None:
            self.val_accuracy.append(float(val_accuracy))
        self.learning_rate.append(float(learning_rate))

    @property
    def num_epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)

    @property
    def best_val_accuracy(self) -> float:
        """Best validation accuracy observed so far (0 if no epoch ran)."""
        return max(self.val_accuracy) if self.val_accuracy else 0.0

    @property
    def best_epoch(self) -> int:
        """Index of the epoch with the best validation accuracy."""
        if not self.val_accuracy:
            return -1
        return int(max(range(len(self.val_accuracy)), key=self.val_accuracy.__getitem__))

    def as_dict(self) -> Dict[str, List[float]]:
        """Plain-dict view (for serialisation / reporting)."""
        return {
            "train_loss": list(self.train_loss),
            "train_accuracy": list(self.train_accuracy),
            "val_accuracy": list(self.val_accuracy),
            "learning_rate": list(self.learning_rate),
        }


class EarlyStopping:
    """Stop training when the monitored metric stops improving.

    Monitors validation accuracy (larger is better).  ``patience`` epochs
    without an improvement of at least ``min_delta`` triggers a stop.
    """

    def __init__(self, patience: int = 10, min_delta: float = 0.0) -> None:
        if patience <= 0:
            raise ValueError(f"patience must be positive, got {patience}")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.best: Optional[float] = None
        self.epochs_without_improvement = 0
        self.should_stop = False

    def update(self, value: float) -> bool:
        """Register a new metric value; returns True when training should stop."""
        if self.best is None or value > self.best + self.min_delta:
            self.best = value
            self.epochs_without_improvement = 0
        else:
            self.epochs_without_improvement += 1
            if self.epochs_without_improvement >= self.patience:
                self.should_stop = True
        return self.should_stop

    def reset(self) -> None:
        """Forget all observed values."""
        self.best = None
        self.epochs_without_improvement = 0
        self.should_stop = False
