"""Generic mini-batch trainer for models mapping input batches to logits.

The same loop trains ANNs (standard backprop) and SNNs (surrogate-gradient
BPTT, with the model wrapped in a :class:`~repro.snn.temporal.TemporalRunner`):
the time dimension is entirely hidden inside the forward pass, and gradients
flow through the recorded autodiff graph either way.

The paper's training setups are captured by
:class:`~repro.training.config.TrainingConfig` (SGD + momentum 0.9 for
CIFAR-10 / CIFAR-10-DVS, Adam for DVS128 Gesture, configurable epochs and
learning rate).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.loaders import ArrayDataset, BatchLoader, DatasetSplits
from repro.nn.losses import CrossEntropyLoss, accuracy
from repro.nn.module import Module
from repro.nn.optim import SGD, Adam, Optimizer
from repro.training.callbacks import EarlyStopping, TrainingHistory
from repro.training.config import TrainingConfig
from repro.training.evaluation import evaluate_classifier
from repro.tensor.random import default_rng
from repro.trace import span


def _build_optimizer(model: Module, config: TrainingConfig) -> Optimizer:
    name = config.optimizer.strip().lower()
    if name == "sgd":
        return SGD(
            model.parameters(),
            lr=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
    if name == "adam":
        return Adam(model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
    raise ValueError(f"unknown optimizer {config.optimizer!r} (use 'sgd' or 'adam')")


class Trainer:
    """Mini-batch gradient-descent trainer with validation tracking."""

    def __init__(self, config: Optional[TrainingConfig] = None) -> None:
        self.config = config or TrainingConfig()

    def fit(
        self,
        model: Module,
        train_dataset: ArrayDataset,
        val_dataset: Optional[ArrayDataset] = None,
        loss_fn=None,
    ) -> TrainingHistory:
        """Train ``model`` and return the epoch history.

        ``model`` must be callable on an input batch tensor and return logits
        of shape ``(batch, num_classes)``.  Validation runs after every epoch
        only when ``val_dataset`` is non-empty; without it the history's
        ``val_accuracy`` stays empty and early stopping monitors the epoch's
        mean training-batch accuracy.
        """
        config = self.config
        loss_fn = loss_fn or CrossEntropyLoss(label_smoothing=config.label_smoothing)
        optimizer = _build_optimizer(model, config)
        loader = BatchLoader(
            train_dataset,
            batch_size=config.batch_size,
            shuffle=config.shuffle,
            rng=default_rng(config.seed),
        )
        stopper = (
            EarlyStopping(patience=config.early_stopping_patience)
            if config.early_stopping_patience
            else None
        )
        history = TrainingHistory()

        from repro.tensor import Tensor  # local import to keep module load light
        from repro.snn.fused_step import fused_training  # local import, same reason

        for _epoch in range(config.epochs):
            with span("train.epoch", epoch=_epoch) as epoch_span, fused_training(config.fused):
                model.train()
                epoch_losses = []
                epoch_accuracies = []
                for inputs, targets in loader:
                    with span("train.step") as step_span:
                        optimizer.zero_grad()
                        logits = model(Tensor(inputs))
                        loss = loss_fn(logits, targets)
                        loss.backward()
                        if config.grad_clip:
                            optimizer.clip_grad_norm(config.grad_clip)
                        optimizer.step()
                        epoch_losses.append(loss.item())
                        epoch_accuracies.append(accuracy(logits, targets))
                        if step_span:
                            step_span.set(loss=float(loss.item()))
                train_accuracy = float(np.mean(epoch_accuracies)) if epoch_accuracies else 0.0
                val_accuracy = (
                    evaluate_classifier(model, val_dataset, batch_size=config.batch_size)
                    if val_dataset is not None and len(val_dataset)
                    else None
                )
                history.record(
                    train_loss=float(np.mean(epoch_losses)) if epoch_losses else 0.0,
                    train_accuracy=train_accuracy,
                    val_accuracy=val_accuracy,
                    learning_rate=optimizer.lr,
                )
                if epoch_span:
                    epoch_span.set(batches=len(epoch_losses))
                    if val_accuracy is not None:
                        epoch_span.set(val_accuracy=float(val_accuracy))
                monitored = train_accuracy if val_accuracy is None else val_accuracy
                if stopper is not None and stopper.update(monitored):
                    break
        model.eval()
        return history

    def evaluate(self, model: Module, dataset: ArrayDataset) -> float:
        """Top-1 accuracy of ``model`` on ``dataset``."""
        return evaluate_classifier(model, dataset, batch_size=self.config.batch_size)

    def fit_splits(self, model: Module, splits: DatasetSplits, loss_fn=None) -> TrainingHistory:
        """Convenience: train on ``splits.train`` with validation on ``splits.val``."""
        return self.fit(model, splits.train, splits.val, loss_fn=loss_fn)
