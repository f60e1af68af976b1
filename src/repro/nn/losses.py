"""Loss functions and classification metrics."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor, ops


class CrossEntropyLoss(Module):
    """Softmax cross-entropy over integer class targets.

    Accepts logits of shape ``(N, num_classes)`` and integer targets of shape
    ``(N,)``.  For spiking networks the logits are the readout membrane
    potentials averaged over the simulation window.
    """

    def __init__(self, label_smoothing: float = 0.0) -> None:
        super().__init__()
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
        self.label_smoothing = float(label_smoothing)

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        targets = np.asarray(targets)
        if targets.ndim != 1:
            raise ValueError(f"targets must be a 1-D integer array, got shape {targets.shape}")
        n, num_classes = logits.shape
        if targets.shape[0] != n:
            raise ValueError(f"batch mismatch: logits {n} vs targets {targets.shape[0]}")
        log_probs = ops.log_softmax(logits, axis=1)
        one_hot = np.zeros((n, num_classes), dtype=np.float64)
        one_hot[np.arange(n), targets.astype(int)] = 1.0
        if self.label_smoothing > 0.0:
            smooth = self.label_smoothing
            one_hot = one_hot * (1.0 - smooth) + smooth / num_classes
        weighted = log_probs * Tensor(one_hot)
        return -(weighted.sum() / float(n))


class MSELoss(Module):
    """Mean squared error between a prediction tensor and a target array."""

    def forward(self, prediction: Tensor, target) -> Tensor:
        target_tensor = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=np.float64))
        diff = prediction - target_tensor
        return (diff * diff).mean()


def accuracy(logits, targets: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` (Tensor or ndarray) against integer targets."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = scores.argmax(axis=1)
    targets = np.asarray(targets).astype(int)
    if predictions.shape[0] == 0:
        return 0.0
    return float((predictions == targets).mean())


def confusion_matrix(logits, targets: np.ndarray, num_classes: int) -> np.ndarray:
    """Return the ``num_classes x num_classes`` confusion matrix (rows = true)."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = scores.argmax(axis=1)
    targets = np.asarray(targets).astype(int)
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (targets, predictions), 1)
    return matrix
