"""Table I: adaptation results on three datasets x three architectures.

Every (dataset, model) cell runs the paper's pipeline (Fig. 2):

1. **Pretrain** (:func:`~repro.experiments.pareto_front.pretrain`) — train
   the ANN on static data (the paper omits it on the event datasets), then
   the vanilla SNN in the default skip wiring, initialised from the ANN.
2. **Search** — GP+UCB Bayesian optimization over the adjacency matrices
   through :func:`~repro.experiments.pareto_front.build_search`, every
   candidate fine-tuned from the shared weights the vanilla SNN seeds.
3. **Final fine-tune** — rebuild the best wiring from the shared weights and
   fine-tune it.  The vanilla and the optimized SNN are then compared on the
   **validation** split, and the test columns report the model chosen.

Recorded columns: ANN accuracy (static data only), vanilla SNN accuracy,
optimized SNN accuracy, vanilla firing rate and optimized firing rate.
Expected qualitative result: the optimized SNN beats the vanilla conversion on
every cell (the paper reports an average improvement of roughly +8-11
percentage points per dataset), and the optimized firing rate is moderately
higher than the vanilla one (more skip connections raise activity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.bayes_opt import BayesianOptimizer, OptimizationHistory
from repro.core.objectives import resolve_weight_context
from repro.core.search_space import ArchitectureSpec
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
from repro.experiments.pareto_front import build_search, load_problem, pretrain

#: dataset -> optimizer choice used in the paper's experimental setup
PAPER_OPTIMIZERS: Dict[str, str] = {
    "cifar10": "sgd",
    "cifar10-dvs": "sgd",
    "dvs128-gesture": "adam",
}


@dataclass
class AdaptationResult:
    """All quantities of one Table-I row."""

    model_name: str
    dataset_name: str
    ann_accuracy: Optional[float]
    snn_accuracy: float
    optimized_accuracy: float
    snn_firing_rate: float
    optimized_firing_rate: float
    best_spec: ArchitectureSpec
    default_spec: ArchitectureSpec
    history: OptimizationHistory
    snn_val_accuracy: float = 0.0
    optimized_val_accuracy: float = 0.0

    @property
    def accuracy_improvement(self) -> float:
        """Optimized SNN accuracy minus vanilla SNN accuracy (the paper's headline gain)."""
        return self.optimized_accuracy - self.snn_accuracy

    @property
    def accuracy_drop_before(self) -> Optional[float]:
        """ANN→SNN drop before optimization (None without an ANN reference)."""
        if self.ann_accuracy is None:
            return None
        return self.ann_accuracy - self.snn_accuracy

    @property
    def accuracy_drop_after(self) -> Optional[float]:
        """ANN→SNN drop after optimization (None without an ANN reference)."""
        if self.ann_accuracy is None:
            return None
        return self.ann_accuracy - self.optimized_accuracy

    def summary(self) -> str:
        """Human-readable summary mirroring one row of Table I."""
        ann = f"{100 * self.ann_accuracy:.2f}%" if self.ann_accuracy is not None else "-"
        return (
            f"{self.dataset_name} / {self.model_name}: ANN {ann}, "
            f"SNN {100 * self.snn_accuracy:.2f}%, optimized SNN {100 * self.optimized_accuracy:.2f}% "
            f"({100 * self.accuracy_improvement:+.2f}pp), firing rate "
            f"{100 * self.snn_firing_rate:.2f}% -> {100 * self.optimized_firing_rate:.2f}%"
        )


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
    from repro.training.snn_trainer import SNNTrainer

    scale = scale or get_scale()
    optimizer_name = PAPER_OPTIMIZERS.get(dataset, "sgd")
    splits, template = problem = load_problem(scale, dataset, model, splits=splits)
    base = pretrain(scale, problem, seed, optimizer_name)
    search = build_search(
        scale,
        problem,
        seed,
        ["accuracy"],
        weight_sharing=True,
        evaluations=scale.bo_initial_points + scale.bo_iterations * scale.bo_batch_size,
        cache_dir=cache_dir,
        store_name=["adapt", splits.name, template.name],
        base=base,
    )
    optimizer = BayesianOptimizer(
        template.search_space(),
        search.objective,
        initial_points=scale.bo_initial_points,
        batch_size=scale.bo_batch_size,
        candidate_pool_size=48,
        async_workers=async_workers,
        rng=seed,
    )
    history = optimizer.optimize(scale.bo_iterations)
    best_spec = optimizer.best_spec()

    # final fine-tune of the winning wiring, from the weights the search shared
    final_model = template.build(best_spec, spiking=True, rng=seed)
    resolve_weight_context(search.objective)[1].apply_to(final_model)
    trainer = SNNTrainer(training_recipe(scale, scale.final_finetune_epochs, seed, optimizer_name))
    trainer.fit_splits(final_model, splits)
    optimized_accuracy, stats = trainer.evaluate_with_firing_rate(final_model, splits.test)
    optimized_rate = stats.average_firing_rate
    optimized_val_accuracy = trainer.evaluate(final_model, splits.val)

    # the default wiring is itself a member of the search space: the vanilla
    # SNN is reported when it scores higher on the validation split (the test
    # split only measures the model chosen), and then every column describes it
    if optimized_val_accuracy < base.val_accuracy:
        best_spec = template.default_architecture()
        optimized_accuracy, optimized_rate = base.test_accuracy, base.firing_rate
        optimized_val_accuracy = base.val_accuracy

    return AdaptationResult(
        model_name=template.name,
        dataset_name=splits.name,
        ann_accuracy=base.reference_accuracy,
        snn_accuracy=base.test_accuracy,
        optimized_accuracy=optimized_accuracy,
        snn_firing_rate=base.firing_rate,
        optimized_firing_rate=optimized_rate,
        best_spec=best_spec,
        default_spec=template.default_architecture(),
        history=history,
        snn_val_accuracy=base.val_accuracy,
        optimized_val_accuracy=optimized_val_accuracy,
    )


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
