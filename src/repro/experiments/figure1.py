"""Figure 1 (c, d): skip-connection analysis on the single-block architecture.

For each ``n_skip`` in ``0..3`` and each connection type (DSC, ASC) the
experiment

1. builds the 4-convolution single-block architecture with ``n_skip`` skip
   connections of that type feeding the final layer,
2. trains the ANN variant (on the time-collapsed frames, since a conventional
   ANN has no time axis — the paper likewise treats the ANN reference on DVS
   data as the non-spiking counterpart of the same topology),
3. trains the SNN variant with surrogate-gradient BPTT on the event frames,
4. records the ANN test accuracy, the SNN test accuracy and the SNN's average
   firing rate.

The expected qualitative result (paper Section III-A): accuracy rises and the
ANN–SNN gap shrinks as skips are added, for both connection types, while ASC
raises the firing rate more than DSC and DSC raises the MAC count instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.adjacency import ASC, DSC
from repro.data import load_dataset
from repro.data.loaders import ArrayDataset, DatasetSplits
from repro.experiments.config import ExperimentScale, dataset_kwargs, get_scale, training_recipe
from repro.experiments.pareto_front import load_problem
from repro.models.single_block import single_block_sweep_spec
from repro.models.specs import NeuronConfig
from repro.snn.mac import MACCounter
from repro.training.snn_trainer import SNNTrainer
from repro.training.trainer import Trainer


@dataclass
class Figure1Point:
    """One point of the sweep: a (connection type, n_skip) configuration."""

    connection_type: str
    n_skip: int
    ann_accuracy: float
    snn_accuracy: float
    firing_rate: float
    macs_per_step: float = 0.0

    @property
    def accuracy_gap(self) -> float:
        """ANN minus SNN accuracy (the drop the paper tracks)."""
        return self.ann_accuracy - self.snn_accuracy


@dataclass
class Figure1Result:
    """Full sweep for one connection type (one panel of Fig. 1)."""

    connection_type: str
    dataset_name: str
    points: List[Figure1Point] = field(default_factory=list)

    def n_skips(self) -> List[int]:
        """Swept skip counts."""
        return [point.n_skip for point in self.points]

    def ann_accuracies(self) -> List[float]:
        """ANN test accuracy per skip count."""
        return [point.ann_accuracy for point in self.points]

    def snn_accuracies(self) -> List[float]:
        """SNN test accuracy per skip count."""
        return [point.snn_accuracy for point in self.points]

    def firing_rates(self) -> List[float]:
        """SNN average firing rate per skip count."""
        return [point.firing_rate for point in self.points]

    def macs(self) -> List[float]:
        """Per-step MAC count per skip count."""
        return [point.macs_per_step for point in self.points]


def temporal_to_static(dataset: ArrayDataset) -> ArrayDataset:
    """Collapse the time axis of event-frame data by averaging (for the ANN)."""
    if not dataset.is_temporal:
        return dataset
    return ArrayDataset(dataset.inputs.mean(axis=1), dataset.labels, num_classes=dataset.num_classes)


def static_splits(splits: DatasetSplits) -> DatasetSplits:
    """Time-collapsed view of temporal splits (identity for static data)."""
    if not splits.is_temporal:
        return splits
    return DatasetSplits(
        train=temporal_to_static(splits.train),
        val=temporal_to_static(splits.val),
        test=temporal_to_static(splits.test),
        name=f"{splits.name}-static",
    )


def run_figure1(
    connection_type: str,
    scale: Optional[ExperimentScale] = None,
    dataset: str = "cifar10-dvs",
    splits: Optional[DatasetSplits] = None,
    n_skip_values: Optional[List[int]] = None,
    seed: int = 0,
) -> Figure1Result:
    """Run the Fig. 1 sweep for one connection type ("dsc" or "asc")."""
    scale = scale or get_scale()
    splits, template = load_problem(scale, dataset, "single_block", splits=splits)
    ann_splits = static_splits(splits)
    n_skip_values = n_skip_values if n_skip_values is not None else [0, 1, 2, 3]
    neuron = NeuronConfig()
    result = Figure1Result(connection_type=connection_type, dataset_name=splits.name)
    ann_config = training_recipe(scale, scale.ann_epochs, seed, spiking=False)
    snn_config = training_recipe(scale, scale.snn_epochs, seed)

    for n_skip in n_skip_values:
        spec = single_block_sweep_spec(n_skip, connection_type)

        ann_model = template.build(spec, spiking=False, rng=seed)
        ann_trainer = Trainer(ann_config)
        ann_trainer.fit_splits(ann_model, ann_splits)
        ann_accuracy = ann_trainer.evaluate(ann_model, ann_splits.test)

        snn_model = template.build(spec, spiking=True, neuron_config=neuron, rng=seed)
        snn_trainer = SNNTrainer(snn_config)
        snn_trainer.fit_splits(snn_model, splits)
        snn_accuracy, stats = snn_trainer.evaluate_with_firing_rate(snn_model, splits.test)

        reference_split = splits.test if len(splits.test) else splits.train
        sample = reference_split.inputs[:1]
        if splits.is_temporal:
            sample = sample[:, 0]
        macs = MACCounter(snn_model).count(sample).total

        result.points.append(
            Figure1Point(
                connection_type=connection_type,
                n_skip=n_skip,
                ann_accuracy=ann_accuracy,
                snn_accuracy=snn_accuracy,
                firing_rate=stats.average_firing_rate,
                macs_per_step=macs,
            )
        )
    return result


def run_figure1_pair(
    scale: Optional[ExperimentScale] = None,
    dataset: str = "cifar10-dvs",
    seed: int = 0,
) -> Dict[str, Figure1Result]:
    """Run both panels (DSC and ASC) on a shared dataset instance."""
    scale = scale or get_scale()
    splits = load_dataset(dataset, **dataset_kwargs(scale, dataset))
    return {
        "dsc": run_figure1("dsc", scale=scale, splits=splits, seed=seed),
        "asc": run_figure1("asc", scale=scale, splits=splits, seed=seed),
    }
