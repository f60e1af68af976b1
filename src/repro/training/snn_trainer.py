"""Trainer specialisation for spiking networks.

Wraps a stateful spiking model in a :class:`~repro.snn.temporal.TemporalRunner`
and reuses the generic :class:`~repro.training.trainer.Trainer` loop, so
training an SNN is surrogate-gradient backpropagation through time over the
chosen number of simulation steps.  Additionally exposes joint
accuracy + firing-rate evaluation, the two quantities reported in Table I.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.data.loaders import ArrayDataset, DatasetSplits
from repro.nn.module import Module
from repro.snn.encoding import SpikeEncoder
from repro.snn.fused_step import release_fused
from repro.snn.metrics import SpikeStatistics
from repro.snn.temporal import TemporalRunner
from repro.training.callbacks import TrainingHistory
from repro.training.config import SNNTrainingConfig
from repro.training.evaluation import evaluate_with_spikes
from repro.training.trainer import Trainer


class SNNTrainer:
    """Trainer for stateful spiking models."""

    def __init__(self, config: Optional[SNNTrainingConfig] = None, encoder: Optional[SpikeEncoder] = None) -> None:
        self.config = config or SNNTrainingConfig()
        self.encoder = encoder
        self._trainer = Trainer(self.config)

    def make_runner(self, model: Module) -> TemporalRunner:
        """Wrap ``model`` in a temporal runner configured like this trainer."""
        return TemporalRunner(model, num_steps=self.config.num_steps, encoder=self.encoder)

    def fit(
        self,
        model: Module,
        train_dataset: ArrayDataset,
        val_dataset: Optional[ArrayDataset] = None,
        loss_fn=None,
    ) -> TrainingHistory:
        """Train the spiking model with surrogate-gradient BPTT."""
        runner = self.make_runner(model)
        try:
            return self._trainer.fit(runner, train_dataset, val_dataset, loss_fn=loss_fn)
        finally:
            # the last step's loss graph is cyclic garbage that would keep the
            # fused kernel's residual stash alive until the next cyclic
            # collection; a long search must not hold one stash per evaluation
            release_fused(runner)

    def fit_splits(self, model: Module, splits: DatasetSplits, loss_fn=None) -> TrainingHistory:
        """Convenience: train on ``splits.train`` with validation on ``splits.val``."""
        return self.fit(model, splits.train, splits.val, loss_fn=loss_fn)

    def evaluate(self, model: Module, dataset: ArrayDataset) -> float:
        """Top-1 accuracy of the spiking model on ``dataset``."""
        runner = self.make_runner(model)
        return self._trainer.evaluate(runner, dataset)

    def evaluate_with_firing_rate(self, model: Module, dataset: ArrayDataset) -> Tuple[float, SpikeStatistics]:
        """Accuracy and spiking statistics (average firing rate) in one pass."""
        runner = self.make_runner(model)
        return evaluate_with_spikes(runner, model, dataset, batch_size=self.config.batch_size)
