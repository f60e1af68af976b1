"""Table I: adaptation results on three datasets x three architectures.

For every (dataset, model) cell the experiment runs the full
:class:`~repro.core.adapter.SNNAdapter` pipeline and records the paper's
columns: ANN accuracy (static data only), vanilla SNN accuracy, optimized SNN
accuracy, vanilla firing rate and optimized firing rate.

Expected qualitative result: the optimized SNN beats the vanilla conversion on
every cell (the paper reports an average improvement of roughly +8-11
percentage points per dataset), and the optimized firing rate is moderately
higher than the vanilla one (more skip connections raise activity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.adapter import AdaptationConfig, AdaptationResult, SNNAdapter
from repro.data import load_dataset
from repro.data.loaders import DatasetSplits
from repro.experiments.config import (
    DEFAULT_DATASETS,
    DEFAULT_MODELS,
    ExperimentScale,
    dataset_kwargs,
    get_scale,
    training_recipe,
)
from repro.experiments.pareto_front import load_problem

#: dataset -> optimizer choice used in the paper's experimental setup
PAPER_OPTIMIZERS: Dict[str, str] = {
    "cifar10": "sgd",
    "cifar10-dvs": "sgd",
    "dvs128-gesture": "adam",
}

@dataclass
class Table1Row:
    """One row of Table I (one dataset/model pair)."""

    dataset: str
    model: str
    ann_accuracy: Optional[float]
    snn_accuracy: float
    optimized_accuracy: float
    snn_firing_rate: float
    optimized_firing_rate: float
    improvement: float

    @classmethod
    def from_result(cls, dataset: str, model: str, result: AdaptationResult) -> "Table1Row":
        """Build a row from an adaptation result."""
        return cls(
            dataset=dataset,
            model=model,
            ann_accuracy=result.ann_accuracy,
            snn_accuracy=result.snn_accuracy,
            optimized_accuracy=result.optimized_accuracy,
            snn_firing_rate=result.snn_firing_rate,
            optimized_firing_rate=result.optimized_firing_rate,
            improvement=result.accuracy_improvement,
        )


@dataclass
class Table1Result:
    """All rows of the table plus per-dataset average improvements."""

    rows: List[Table1Row] = field(default_factory=list)
    results: List[AdaptationResult] = field(default_factory=list)

    def average_improvement(self, dataset: Optional[str] = None) -> float:
        """Mean accuracy improvement, optionally restricted to one dataset."""
        rows = [row for row in self.rows if dataset is None or row.dataset == dataset]
        if not rows:
            return 0.0
        return float(sum(row.improvement for row in rows) / len(rows))

    def datasets(self) -> List[str]:
        """Datasets present in the table, in row order."""
        seen: List[str] = []
        for row in self.rows:
            if row.dataset not in seen:
                seen.append(row.dataset)
        return seen


def _adaptation_config(
    scale: ExperimentScale, dataset: str, seed: int, async_workers: int = 0
) -> AdaptationConfig:
    optimizer = PAPER_OPTIMIZERS.get(dataset, "sgd")
    ann_training = training_recipe(scale, scale.ann_epochs, seed, optimizer, spiking=False)
    snn_training = training_recipe(scale, scale.snn_epochs, seed, optimizer)
    return AdaptationConfig(
        ann_training=ann_training,
        snn_training=snn_training,
        candidate_finetune_epochs=scale.candidate_finetune_epochs,
        final_finetune_epochs=scale.final_finetune_epochs,
        bo_iterations=scale.bo_iterations,
        bo_batch_size=scale.bo_batch_size,
        bo_initial_points=scale.bo_initial_points,
        async_workers=async_workers,
        seed=seed,
    )


def run_table1_cell(
    dataset: str,
    model: str,
    scale: Optional[ExperimentScale] = None,
    splits: Optional[DatasetSplits] = None,
    seed: int = 0,
    async_workers: int = 0,
    cache_dir: Optional[str] = None,
) -> AdaptationResult:
    """Run the adaptation pipeline for a single (dataset, model) pair.

    ``cache_dir`` enables the persistent evaluation store: BO candidate
    evaluations are written to disk — each with a content-addressed snapshot
    of the candidate's trained weights — and re-used by any later run sharing
    the directory, which replays the snapshots into its shared weight store
    so the final fine-tune starts warm even on a fully-cached run.
    ``async_workers >= 1`` keeps that many BO candidate evaluations in flight
    on a worker pool instead of running barrier iterations in this process.
    """
    scale = scale or get_scale()
    splits, template = load_problem(scale, dataset, model, splits=splits)
    config = _adaptation_config(scale, dataset, seed, async_workers)
    config.cache_dir = cache_dir
    adapter = SNNAdapter(template, splits, config)
    return adapter.run()


def run_table1(
    scale: Optional[ExperimentScale] = None,
    datasets: Sequence[str] = DEFAULT_DATASETS,
    models: Sequence[str] = DEFAULT_MODELS,
    seed: int = 0,
    async_workers: int = 0,
    cache_dir: Optional[str] = None,
) -> Table1Result:
    """Run the full Table-I grid (datasets x models)."""
    scale = scale or get_scale()
    table = Table1Result()
    for dataset in datasets:
        splits = load_dataset(dataset, **dataset_kwargs(scale, dataset))
        for model in models:
            result = run_table1_cell(
                dataset,
                model,
                scale=scale,
                splits=splits,
                seed=seed,
                async_workers=async_workers,
                cache_dir=cache_dir,
            )
            table.results.append(result)
            table.rows.append(Table1Row.from_result(dataset, model, result))
    return table
