"""Pareto-front experiment: accuracy–energy–latency trade-offs of the search space.

The paper's figures report the *scalar* outcome of the search; this harness
reports the *trade-off surface* the scalar search collapses.  One run drives
:class:`~repro.core.multi_objective.MultiObjectiveBayesianOptimizer` over the
skip-connection space of one template on one dataset, with candidate
evaluations measuring validation accuracy (trainer path), energy and MACs
(the Horowitz MAC/energy model of :mod:`repro.snn.mac`) and — when the
``latency`` objective is requested — the real inference latency from a
repeated timed forward pass on the graph-free fast path (median of K runs,
warmup excluded) — and emits the non-dominated front plus the hypervolume
trace per evaluation.

Evaluations flow through the same cache/worker plumbing as every other
experiment: with ``cache_dir`` set, rows persist the per-objective metrics
dict, so a fully-cached re-run reproduces the identical front without
re-training a single candidate (at any ``async_workers`` count — the search
loop absorbs results in submission order, so a run is a pure function of
its seed and worker count).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import (
    CachedObjective,
    PersistentEvaluationStore,
    dataset_fingerprint_fields,
    evaluation_store_for,
    row_metrics,
    snapshot_store_for,
)
from repro.core.pareto import ParetoFront
from repro.core.multi_objective import (
    MultiObjectiveBayesianOptimizer,
    ObjectiveConstraint,
    get_objective_spec,
    resolve_objective_specs,
)
from repro.core.objectives import AccuracyDropObjective, Objective
from repro.core.weight_sharing import WeightStore
from repro.data import load_dataset
from repro.data.loaders import DatasetSplits
from repro.experiments.config import (
    ExperimentScale,
    dataset_kwargs,
    get_scale,
    model_kwargs,
    training_recipe,
)
from repro.models import get_template
from repro.models.specs import NetworkTemplate
from repro.trace import span


class SearchStopped(Exception):
    """Raised from a progress callback to stop a search cooperatively.

    :func:`run_pareto_front` (and the serving layer's job runner) catches it,
    drains any in-flight evaluations and returns the partial result — the
    mechanism behind ``repro serve``'s graceful shutdown.
    """


@dataclass
class ParetoFrontPoint:
    """One non-dominated architecture: encoding plus raw per-objective metrics."""

    encoding: List[int]
    #: raw-scale objective values keyed by objective name (accuracy as
    #: accuracy, not its negation)
    objectives: Dict[str, float]
    num_skips: int = 0


@dataclass
class ParetoResult:
    """The front, the hypervolume trace and the run metadata."""

    dataset_name: str
    model_name: str
    objective_names: List[str]
    front: List[ParetoFrontPoint] = field(default_factory=list)
    #: hypervolume after each evaluation observed once the reference existed
    hypervolume_curve: List[float] = field(default_factory=list)
    #: hypervolume reference point on the minimisation scale
    reference_point: List[float] = field(default_factory=list)
    num_evaluations: int = 0
    #: evaluations that actually ran (cache misses); 0 for a fully-cached run
    fresh_evaluations: int = 0
    energy_budget: Optional[float] = None
    #: whether the run ended early via a ``should_stop`` request (the front
    #: and trace then cover only the evaluations absorbed before the stop)
    stopped: bool = False

    def front_size(self) -> int:
        """Number of non-dominated points found."""
        return len(self.front)

    def final_hypervolume(self) -> float:
        """Hypervolume of the final front (0.0 if never measured)."""
        return self.hypervolume_curve[-1] if self.hypervolume_curve else 0.0

    def feasible_front(self) -> List[ParetoFrontPoint]:
        """Front points satisfying the energy budget (all points without one)."""
        if self.energy_budget is None:
            return list(self.front)
        return [
            point
            for point in self.front
            if point.objectives.get("energy", 0.0) <= self.energy_budget
        ]


def load_problem(
    scale: ExperimentScale, dataset: str, model: str, splits: Optional[DatasetSplits] = None
) -> Tuple[DatasetSplits, NetworkTemplate]:
    """``(splits, template)`` of one problem at ``scale``; pass ``splits`` to reuse loaded data."""
    if splits is None:
        splits = load_dataset(dataset, **dataset_kwargs(scale, dataset))
    input_channels = splits.sample_shape[1] if splits.is_temporal else splits.sample_shape[0]
    template = get_template(
        model, **model_kwargs(scale, model, input_channels=input_channels, num_classes=splits.num_classes)
    )
    return splits, template


@dataclass
class Pretrained:
    """The trained default-wiring SNN a warm search starts from (:func:`pretrain`)."""

    #: the vanilla SNN's parameters and buffers
    state: Dict[str, np.ndarray]
    #: the ANN's test accuracy; None on event data, which has no ANN
    reference_accuracy: Optional[float]
    test_accuracy: float
    val_accuracy: float
    firing_rate: float
    #: the optimizer the base trained with; its candidates fine-tune with it
    optimizer: str


def pretrain(
    scale: ExperimentScale, problem: Tuple[DatasetSplits, NetworkTemplate], seed: int, optimizer: str
) -> Pretrained:
    """Train the vanilla SNN: the template's default wiring, from the ANN on static data.

    On static data the ANN trains first; its test accuracy becomes the
    search's reference and its weights initialise the SNN (the conversion
    step).  Both train with :func:`training_recipe` for the scale's epochs.
    """
    from repro.training.snn_trainer import SNNTrainer
    from repro.training.trainer import Trainer

    splits, template = problem
    model = template.build(template.default_architecture(), spiking=True, rng=seed)
    reference_accuracy = None
    if not splits.is_temporal:
        ann = template.build(spiking=False, rng=seed)
        trainer = Trainer(training_recipe(scale, scale.ann_epochs, seed, optimizer, spiking=False))
        trainer.fit_splits(ann, splits)
        reference_accuracy = trainer.evaluate(ann, splits.test)
        model.load_state_dict(ann.state_dict(), strict=False)
    trainer = SNNTrainer(training_recipe(scale, scale.snn_epochs, seed, optimizer))
    trainer.fit_splits(model, splits)
    test_accuracy, stats = trainer.evaluate_with_firing_rate(model, splits.test)
    return Pretrained(
        state=model.state_dict(),
        reference_accuracy=reference_accuracy,
        test_accuracy=test_accuracy,
        val_accuracy=trainer.evaluate(model, splits.val),
        firing_rate=stats.average_firing_rate,
        optimizer=optimizer,
    )


@dataclass
class Search:
    """A search's objective and store, as :func:`build_search` wires them."""

    #: the candidate objective, cached when a store is open
    objective: Objective
    store: Optional[PersistentEvaluationStore]
    #: warm-start evaluations, then the evaluations proposed after them
    initial_points: int
    iterations: int
    known_keys: frozenset

    def fresh_evaluations(self, evaluated: int) -> int:
        """Evaluations that ran, out of ``evaluated`` absorbed.

        Counted as store growth, not by this process's miss counter: worker
        processes append their misses' rows, and the reload merges them in.
        """
        if self.store is None:
            return evaluated
        self.store.reload()
        return len(set(self.store.keys()) - self.known_keys)


def build_search(
    scale: ExperimentScale,
    problem: Tuple[DatasetSplits, NetworkTemplate],
    seed: int,
    objectives: Sequence[str],
    weight_sharing: bool,
    evaluations: int,
    cache_dir: Optional[str],
    store_name: Sequence[str],
    base: Optional[Pretrained] = None,
) -> Search:
    """One search's objective, store and warm start; ``evaluations`` is its total budget.

    Each candidate gets :func:`training_recipe`'s short fine-tune, from one
    shared :class:`WeightStore` with ``weight_sharing``, else from scratch,
    and measures what ``objectives`` read.  A ``base`` seeds the shared store
    with its weights and sets the objective's reference accuracy.  With
    ``cache_dir`` the store is ``store_name`` plus a fingerprint of the seed,
    recipe, latency setting, data and the base's content, and a
    weight-sharing search keeps one snapshot per evaluation, so a cached
    re-run replays warm.
    """
    splits, template = problem
    optimizer = base.optimizer if base is not None else "sgd"
    training = training_recipe(scale, scale.candidate_finetune_epochs, seed, optimizer)
    metrics = {get_objective_spec(name).metric for name in objectives}
    # each measurement runs only when an objective reads it: the energy model
    # (firing rate, MACs, energy) costs a MAC trace per architecture, and
    # every timed-latency pass costs latency_runs + warmup forward passes
    needs_latency = "latency_ms" in metrics
    objective = AccuracyDropObjective(
        template=template,
        splits=splits,
        training_config=training,
        reference_accuracy=base.reference_accuracy if base is not None else None,
        weight_store=WeightStore(base.state if base is not None else None) if weight_sharing else None,
        measure_firing_rate=False,
        measure_energy=bool(metrics - {"val_accuracy", "latency_ms"}),
        measure_latency=needs_latency,
        build_seed=seed,
    )
    search_objective, store = objective, None
    if cache_dir is not None:
        # a latency search never replays rows that lack latency_ms
        latency_fields = {"latency_runs": objective.latency_runs} if needs_latency else {}
        base_fields = {}
        if base is not None:
            from repro.core.snapshots import state_digest

            # the base's content, not the recipe that trained it, names what
            # every candidate starts from
            base_fields = {"base": state_digest(base.state), "reference_accuracy": base.reference_accuracy}
        store = evaluation_store_for(
            cache_dir,
            store_name,
            seed=seed,
            training=asdict(training),
            **latency_fields,
            **base_fields,
            **dataset_fingerprint_fields(splits),
        )
        snapshots = snapshot_store_for(store, keep_best=max(evaluations, 1)) if weight_sharing else None
        search_objective = CachedObjective(objective, store=store, snapshots=snapshots)
    initial = min(scale.bo_initial_points, max(1, evaluations // 3))
    return Search(
        search_objective,
        store,
        initial_points=initial,
        iterations=max(evaluations - initial, 0),
        known_keys=frozenset(store.keys()) if store is not None else frozenset(),
    )


def run_pareto_front(
    scale: Optional[ExperimentScale] = None,
    dataset: str = "cifar10-dvs",
    model: str = "resnet18",
    objectives: Sequence[str] = ("accuracy", "energy"),
    energy_budget: Optional[float] = None,
    iterations: Optional[int] = None,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    async_workers: int = 0,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ParetoResult:
    """Run the multi-objective search and return the Pareto front.

    ``iterations`` is the total number of evaluations, the warm start
    included (default: the scale's ``search_iterations``).  ``energy_budget``
    adds the hard constraint ``energy_nj <= budget`` (feasibility-weighted
    acquisition); the reported front still contains every non-dominated
    point, with :meth:`ParetoResult.feasible_front` selecting the compliant
    subset.  The cache flags behave exactly as in the other experiments.

    ``progress`` (used by the serving layer's job manager) receives one dict
    per absorbed evaluation — encoding, raw objective values and the current
    hypervolume — as the search runs.  ``should_stop`` is polled at every
    absorption boundary; once it returns True the search raises
    :class:`SearchStopped` internally, drains in-flight evaluations (their
    store rows are kept — they were written by the evaluating process) and
    returns the partial result with ``stopped=True``.
    """
    scale = scale or get_scale()
    iterations = iterations if iterations is not None else scale.search_iterations
    specs = resolve_objective_specs(objectives)
    splits, template = problem = load_problem(scale, dataset, model)
    # every pareto row carries the energy model's metrics, whatever the
    # objectives: GET /pareto and /recommend answer from them
    search = build_search(
        scale,
        problem,
        seed,
        ["energy", *objectives],
        weight_sharing=True,
        evaluations=iterations,
        cache_dir=cache_dir,
        store_name=["pareto", splits.name, template.name],
    )

    constraints = []
    if energy_budget is not None:
        constraints.append(ObjectiveConstraint("energy", upper=float(energy_budget)))

    optimizer = MultiObjectiveBayesianOptimizer(
        template.search_space(),
        search.objective,
        objectives=specs,
        constraints=constraints,
        initial_points=search.initial_points,
        batch_size=1,
        candidate_pool_size=48,
        async_workers=async_workers,
        rng=seed,
    )
    absorbed = 0

    def _callback(iteration: int, history) -> None:
        nonlocal absorbed
        for record in history.records[absorbed:]:
            absorbed += 1
            if progress is not None:
                try:
                    raw = {spec.name: spec.raw(record.metrics) for spec in specs}
                except KeyError:  # pragma: no cover - metrics-less record
                    raw = {}
                progress(
                    {
                        "type": "evaluation",
                        "iteration": int(iteration),
                        "completed": absorbed,
                        "encoding": [int(v) for v in record.spec.encode()],
                        "objectives": raw,
                        "hypervolume": optimizer.hypervolume(),
                    }
                )
        if should_stop is not None and should_stop():
            raise SearchStopped

    stopped = False
    try:
        with span(
            "pareto_front",
            dataset=splits.name,
            model=template.name,
            objectives=",".join(spec.name for spec in specs),
            async_workers=async_workers,
        ):
            history = optimizer.optimize(search.iterations, callback=_callback)
    except SearchStopped:
        stopped = True
        history = optimizer.history

    result = ParetoResult(
        dataset_name=splits.name,
        model_name=template.name,
        objective_names=[spec.name for spec in specs],
        hypervolume_curve=list(optimizer.hypervolume_history),
        reference_point=(
            [float(v) for v in optimizer.reference_point]
            if optimizer.reference_point is not None
            else []
        ),
        num_evaluations=len(history),
        fresh_evaluations=search.fresh_evaluations(len(history)),
        energy_budget=energy_budget,
        stopped=stopped,
    )
    for record in optimizer.front_records():
        result.front.append(
            ParetoFrontPoint(
                encoding=[int(v) for v in record.spec.encode()],
                objectives={spec.name: spec.raw(record.metrics) for spec in specs},
                num_skips=record.spec.total_skips(),
            )
        )
    return result


def pareto_front_from_rows(
    rows: Sequence[Dict[str, object]],
    objectives: Sequence[str] = ("accuracy", "energy"),
    energy_budget: Optional[float] = None,
    source: str = "store",
) -> ParetoResult:
    """Extract the non-dominated front from stored evaluation rows.

    The serving layer's ``GET /pareto`` endpoint (and any offline analysis of
    an accumulated cache directory) answers from rows the searches already
    paid for, without running a fresh evaluation: every row whose metrics
    cover the requested objectives contributes one point, the non-dominated
    subset is kept, and the hypervolume is reported against a reference
    derived exactly like the live optimizer's (nadir plus a 10% margin of the
    observed range per objective).

    Rows lacking a required metric (e.g. pre-latency rows queried for the
    ``latency`` objective) are skipped, not errors — the front covers what
    the store can answer.  ``num_evaluations`` counts the contributing rows;
    ``fresh_evaluations`` is 0 by construction.
    """
    specs = resolve_objective_specs(objectives)
    contributing: List[Dict[str, object]] = []
    vectors: List[np.ndarray] = []
    raws: List[Dict[str, float]] = []
    for row in rows:
        metrics = row_metrics(row)
        if any(spec.metric not in metrics for spec in specs):
            continue
        contributing.append(row)
        vectors.append(np.array([spec.value(metrics) for spec in specs]))
        raws.append({spec.name: spec.raw(metrics) for spec in specs})
    result = ParetoResult(
        dataset_name=source,
        model_name=source,
        objective_names=[spec.name for spec in specs],
        num_evaluations=len(contributing),
        fresh_evaluations=0,
        energy_budget=energy_budget,
    )
    if not contributing:
        return result
    observed = np.stack(vectors)
    nadir = observed.max(axis=0)
    spread = observed.max(axis=0) - observed.min(axis=0)
    margin = 0.1 * np.where(spread > 0, spread, np.maximum(np.abs(nadir), 1.0))
    reference = nadir + margin
    front = ParetoFront()
    for index, values in enumerate(vectors):
        front.insert(values, payload={"index": index})
    result.reference_point = [float(v) for v in reference]
    result.hypervolume_curve = [float(front.hypervolume(reference))]
    points = sorted(front, key=lambda point: float(point.values[0]))
    for point in points:
        index = point.payload["index"]
        row = contributing[index]
        encoding = [int(v) for v in row.get("encoding", [])]
        result.front.append(
            ParetoFrontPoint(
                encoding=encoding,
                objectives=raws[index],
                num_skips=int(row.get("extra", {}).get("num_skips", 0)),
            )
        )
    return result


def format_pareto(result: ParetoResult) -> str:
    """Plain-text report: the front table plus the hypervolume summary."""
    names = result.objective_names
    header = ["#"] + names + ["skips"]
    widths = [max(len(column), 12) for column in header]
    lines = [
        f"Pareto front — {result.dataset_name} / {result.model_name} "
        f"({result.num_evaluations} evaluations, {result.front_size()} non-dominated)"
    ]
    if result.energy_budget is not None:
        feasible = len(result.feasible_front())
        lines.append(f"energy budget: {result.energy_budget:g} nJ ({feasible}/{result.front_size()} points within)")
    lines.append("  ".join(f"{h:>{w}}" for h, w in zip(header, widths)))
    for index, point in enumerate(result.front):
        cells = [str(index)] + [f"{point.objectives[name]:.4f}" for name in names] + [str(point.num_skips)]
        lines.append("  ".join(f"{c:>{w}}" for c, w in zip(cells, widths)))
    reference = ", ".join(f"{v:.3f}" for v in result.reference_point)
    lines.append(f"hypervolume: {result.final_hypervolume():.4f} (reference {reference})")
    return "\n".join(lines)


def plot_pareto(result: ParetoResult) -> str:
    """ASCII view: the front scatter (first two objectives) + hypervolume trace."""
    from repro.experiments.plots import ascii_line_chart, ascii_scatter

    if len(result.objective_names) < 2 or not result.front:
        return "(front is empty — nothing to plot)"
    x_name, y_name = result.objective_names[:2]
    xs = [point.objectives[x_name] for point in result.front]
    ys = [point.objectives[y_name] for point in result.front]
    scatter = ascii_scatter(xs, ys, x_label=x_name, y_label=y_name)
    chart = scatter
    if result.hypervolume_curve:
        chart += "\n\n" + ascii_line_chart(
            {"hypervolume": result.hypervolume_curve},
            y_label="hypervolume",
            x_label="evaluation",
        )
    return chart
