"""Learning-rate schedules driving :class:`repro.nn.optim.Optimizer`."""

from __future__ import annotations

from repro.nn.optim import Optimizer


class LRScheduler:
    """Base class: subclasses compute the learning rate for a given epoch."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def get_lr(self, epoch: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self) -> float:
        """Advance one epoch and apply the new learning rate."""
        self.epoch += 1
        lr = self.get_lr(self.epoch)
        self.optimizer.lr = lr
        return lr

    def current_lr(self) -> float:
        """Learning rate currently installed in the optimizer."""
        return self.optimizer.lr


class ConstantLR(LRScheduler):
    """Keeps the base learning rate unchanged."""

    def get_lr(self, epoch: int) -> float:
        return self.base_lr
