"""Search objectives: the accuracy-drop function ``f(A)``.

The Bayesian optimizer minimises ``f(A)`` — the accuracy drop between the
reference ANN and the SNN built with adjacency assignment ``A`` (Section
III-B).  Evaluating ``f`` means building the candidate SNN, loading the shared
weights, fine-tuning for a small number of epochs and measuring validation
accuracy; this module packages that procedure as a callable object so the
optimizers (BO, random search) stay agnostic of models and data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

from repro.core.search_space import ArchitectureSpec
from repro.core.weight_sharing import WeightStore, WeightUpdate
from repro.trace import max_rss_mb, span
from repro.training.config import SNNTrainingConfig
from repro.tensor.random import default_rng

if TYPE_CHECKING:
    from repro.data.loaders import DatasetSplits
    from repro.models.specs import NetworkTemplate


@dataclass
class EvaluationResult:
    """Outcome of evaluating one candidate architecture.

    ``weight_update`` optionally carries the candidate's trained state (a
    :class:`~repro.core.weight_sharing.WeightUpdate`): evaluation is then free
    of hidden side effects, and whoever orchestrates it — the Bayesian
    optimizer after a parallel batch, a cache replaying a snapshot — applies
    the update to the shared :class:`~repro.core.weight_sharing.WeightStore`
    in the parent process.

    ``metrics`` is the per-objective measurement dict consumed by the
    multi-objective search layer (:mod:`repro.core.multi_objective`):
    every quantity an :class:`~repro.core.multi_objective.ObjectiveSpec` may
    select (``val_accuracy``, ``firing_rate``, ``macs``, ``energy_nj``,
    ``latency_steps``, ...) keyed by name.  It is persisted on evaluation
    rows and restored on cache hits, so a cached run replays *all*
    objectives, not just the scalar ``objective_value``.

    ``telemetry`` carries observability payloads produced in a worker process
    back to the submitter: ``{"spans": [...], "counters": {...}}`` — the
    trace spans collected under a propagated trace context
    (:mod:`repro.trace`) and the fused-training / store-hit counter deltas.
    It is transport-only: excluded from equality, never persisted into
    evaluation rows, and cleared once the parent absorbs it.
    """

    spec: ArchitectureSpec
    objective_value: float
    accuracy: float
    firing_rate: float = 0.0
    macs: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    weight_update: Optional[WeightUpdate] = None
    telemetry: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.objective_value = float(self.objective_value)
        self.accuracy = float(self.accuracy)
        self.firing_rate = float(self.firing_rate)
        self.macs = float(self.macs)


class Objective:
    """Base objective: maps an :class:`ArchitectureSpec` to an :class:`EvaluationResult`.

    Smaller ``objective_value`` is better (the optimizers minimise).
    """

    def __call__(self, spec: ArchitectureSpec) -> EvaluationResult:
        raise NotImplementedError

    def evaluate_value(self, spec: ArchitectureSpec) -> float:
        """Convenience returning only the scalar objective value."""
        return self(spec).objective_value


class AccuracyDropObjective(Objective):
    """The paper's objective: ANN→SNN accuracy drop after a short fine-tune.

    Parameters
    ----------
    template:
        Network template defining the topology being adapted.
    splits:
        Dataset splits; candidates are fine-tuned on ``train`` and scored on
        ``val``.
    training_config:
        SNN fine-tuning configuration (the number of epochs here is the
        ``n``-epoch fine-tune of Section III-B, *not* a full training run).
    reference_accuracy:
        The ANN accuracy.  When available the objective value is
        ``reference_accuracy - snn_val_accuracy`` (the drop); for event-based
        datasets without an ANN reference it is ``1 - snn_val_accuracy``,
        which has the same minimiser.
    weight_store:
        Optional shared-weight store.  When provided each candidate starts
        from the shared weights, and the store is refreshed from the best
        candidate so far.  The trained state also rides back on the result
        as ``weight_update``, so orchestrators that evaluate in worker
        processes (where a local store mutation would be lost) can merge it
        in the parent; setting :attr:`defer_updates` disables the local
        mutation entirely, making evaluation side-effect free (the
        orchestrator then owns every store update, and evaluation order
        within a batch cannot influence results).
    measure_firing_rate:
        Record the candidate's average firing rate on the validation split.
    measure_energy:
        Count the candidate's MACs and derive the energy/latency metric
        fields (:func:`repro.snn.mac.energy_metrics`) from them, the measured
        firing rate and the simulation window; implies
        ``measure_firing_rate``.  MAC counting traces a real forward pass,
        but the count depends only on the architecture — never on the
        trained weights — so traces are memoised by architecture fingerprint
        (:attr:`mac_traces` counts the actual forward traces performed, for
        tests and profiling).  The fields land in ``EvaluationResult.metrics``
        for the multi-objective search layer.
    measure_latency:
        Measure the candidate's **real inference latency**: a repeated timed
        forward pass over one validation batch on the graph-free fast path
        (:func:`repro.training.evaluation.measure_latency_ms` — median of
        ``latency_runs`` timed runs, warmup excluded) recorded as the
        ``latency_ms`` metric.  Unlike the step-count proxy
        (``latency_steps``) this reflects what the architecture actually
        costs to run — DSC concatenations widen convolutions and slow the
        pass even at a fixed simulation window.  Wall-clock numbers are
        hardware-dependent; cached rows replay the value measured when the
        candidate was first evaluated, which is what keeps fully-cached
        multi-objective re-runs deterministic.
    """

    def __init__(
        self,
        template: NetworkTemplate,
        splits: DatasetSplits,
        training_config: Optional[SNNTrainingConfig] = None,
        reference_accuracy: Optional[float] = None,
        weight_store: Optional[WeightStore] = None,
        measure_firing_rate: bool = True,
        measure_energy: bool = False,
        measure_latency: bool = False,
        latency_runs: int = 5,
        build_seed: int = 0,
    ) -> None:
        self.template = template
        self.splits = splits
        self.training_config = training_config or SNNTrainingConfig(epochs=2, batch_size=16)
        self.reference_accuracy = reference_accuracy
        self.weight_store = weight_store
        self.measure_energy = bool(measure_energy)
        self.measure_firing_rate = bool(measure_firing_rate) or self.measure_energy
        self.measure_latency = bool(measure_latency)
        if latency_runs < 1:
            raise ValueError(f"latency_runs must be >= 1, got {latency_runs}")
        self.latency_runs = int(latency_runs)
        self.build_seed = int(build_seed)
        self.num_evaluations = 0
        #: MAC counts are a pure function of the architecture (weights never
        #: change layer geometry), so the forward trace is memoised per
        #: architecture fingerprint; re-evaluating a candidate reuses the
        #: count instead of re-tracing
        self._mac_cache: Dict[bytes, float] = {}
        #: number of actual MACCounter forward traces performed (cache misses)
        self.mac_traces = 0
        #: when True the objective never mutates ``weight_store`` itself; the
        #: trained state only travels back via ``EvaluationResult.weight_update``
        self.defer_updates = False

    # ------------------------------------------------------------------
    def build_model(self, spec: ArchitectureSpec):
        """Build the candidate SNN and load shared weights when available."""
        model = self.template.build(
            spec,
            spiking=True,
            rng=default_rng(self.build_seed),
        )
        if self.weight_store is not None and not self.weight_store.is_empty:
            self.weight_store.apply_to(model)
        return model

    def _objective_from_accuracy(self, accuracy: float) -> float:
        if self.reference_accuracy is not None:
            return float(self.reference_accuracy - accuracy)
        return float(1.0 - accuracy)

    def __call__(self, spec: ArchitectureSpec) -> EvaluationResult:
        # the training substrate loads at the first evaluation, not at import:
        # a search answered from its evaluation store never needs it
        from repro.snn.routing import fused_counters
        from repro.training.snn_trainer import SNNTrainer

        self.num_evaluations += 1
        with span("evaluate") as eval_span:
            if eval_span:
                eval_span.set(arch=spec_fingerprint(spec))
                routing_before = fused_counters()
                rss_before = max_rss_mb()
            with span("evaluate.build"):
                model = self.build_model(spec)
            trainer = SNNTrainer(self.training_config)
            # the score below is the one validation pass; fit validates after
            # every epoch only when early stopping needs those values
            val = self.splits.val if self.training_config.early_stopping_patience else None
            with span("evaluate.train", epochs=self.training_config.epochs):
                trainer.fit(model, self.splits.train, val)

            firing_rate = 0.0
            with span("evaluate.accuracy"):
                if self.measure_firing_rate:
                    accuracy, stats = trainer.evaluate_with_firing_rate(model, self.splits.val)
                    firing_rate = stats.average_firing_rate
                else:
                    accuracy = trainer.evaluate(model, self.splits.val)

            macs = 0.0
            if self.measure_energy and len(self.splits.val):
                with span("evaluate.macs"):
                    macs = self._count_macs(spec, model)

            latency_ms = None
            if self.measure_latency and len(self.splits.val):
                with span("evaluate.latency"):
                    latency_ms = self._measure_latency(model)
            if eval_span:
                routing_after = fused_counters()
                eval_span.set(
                    val_accuracy=float(accuracy),
                    **{
                        key: routing_after[key] - routing_before.get(key, 0)
                        for key in routing_after
                    },
                )
                if rss_before is not None:
                    # how far this evaluation raised the process's peak RSS: a
                    # leak shows as a positive delta on every evaluation
                    eval_span.set(maxrss_delta_mb=round(max_rss_mb() - rss_before, 3))

        # only measured quantities enter the metrics dict: a constant 0.0 for
        # an unmeasured firing rate would silently satisfy ObjectiveSpec's
        # missing-metric guard and train a GP on a fabricated objective
        metrics: Dict[str, float] = {"val_accuracy": float(accuracy)}
        if self.measure_firing_rate:
            metrics["firing_rate"] = float(firing_rate)
        if macs > 0:
            from repro.snn.mac import energy_metrics

            metrics.update(
                energy_metrics(macs, firing_rate, int(self.training_config.num_steps))
            )
        if latency_ms is not None:
            metrics["latency_ms"] = float(latency_ms)

        weight_update = None
        if self.weight_store is not None:
            # state_dict() copies, so the payload is a frozen snapshot of the
            # fine-tuned weights, not a view into the live model
            weight_update = WeightUpdate(state=model.state_dict(), score=float(accuracy))
            if not self.defer_updates:
                weight_update.apply(self.weight_store)

        return EvaluationResult(
            spec=spec,
            objective_value=self._objective_from_accuracy(accuracy),
            accuracy=accuracy,
            firing_rate=firing_rate,
            macs=macs,
            extra={"num_skips": float(spec.total_skips())},
            metrics=metrics,
            weight_update=weight_update,
        )

    def _measure_latency(self, model) -> float:
        """Median timed inference latency of one validation batch (ms).

        The model is wrapped in the same :class:`~repro.snn.temporal.TemporalRunner`
        the trainer evaluates with, so the measurement covers the full
        simulation window on the graph-free fast path.
        """
        from repro.training.evaluation import measure_latency_ms
        from repro.training.snn_trainer import SNNTrainer

        batch_size = min(int(self.training_config.batch_size), len(self.splits.val))
        sample = self.splits.val.inputs[:batch_size]
        runner = SNNTrainer(self.training_config).make_runner(model)
        return measure_latency_ms(runner, sample, runs=self.latency_runs)

    def _count_macs(self, spec: ArchitectureSpec, model) -> float:
        """Per-step MAC count of ``spec``, memoised by architecture fingerprint."""
        from repro.snn.mac import MACCounter

        key = spec.encode().tobytes()
        macs = self._mac_cache.get(key)
        if macs is None:
            sample = self.splits.val.inputs[:1]
            if self.splits.is_temporal:
                sample = sample[:, 0]
            macs = float(MACCounter(model).count(sample).total)
            self._mac_cache[key] = macs
            self.mac_traces += 1
        return macs


def resolve_weight_context(objective) -> Tuple[Optional[AccuracyDropObjective], Optional[WeightStore]]:
    """Find the weight-sharing base objective behind a chain of wrappers.

    Orchestrators need two things the objective may hide behind a
    :class:`~repro.core.cache.CachedObjective`: the base objective whose
    ``defer_updates`` flag controls local store mutation, and the shared
    :class:`WeightStore` that result-carried updates merge into.
    Wrappers are followed through their ``objective`` attribute; returns
    ``(None, None)`` for opaque callables or store-less objectives.
    """
    seen = set()
    node = objective
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        store = getattr(node, "weight_store", None)
        if store is not None and hasattr(node, "defer_updates"):
            return node, store
        node = getattr(node, "objective", None)
    return None, None


class SyntheticWeightObjective(Objective):
    """Instant, deterministic objective that still produces weight updates.

    Used by the multiprocessing smoke tests and benchmarks: it is defined at
    module level (so it pickles under the ``spawn`` start method), costs
    nothing to evaluate, and derives both its objective value and a synthetic
    "trained state" purely from the architecture encoding — the result is
    therefore independent of evaluation order, which is exactly the property
    the result-carried update path must preserve across worker counts.
    """

    def __init__(self, weight_store: Optional[WeightStore] = None, state_size: int = 8) -> None:
        self.weight_store = weight_store
        self.defer_updates = False
        self.state_size = int(state_size)
        self.num_evaluations = 0

    def __call__(self, spec: ArchitectureSpec) -> EvaluationResult:
        self.num_evaluations += 1
        encoding = spec.encode().astype(np.float64)
        value = float(np.cos(encoding).sum() / max(len(encoding), 1)) + 0.01 * spec.total_skips()
        accuracy = 1.0 - value
        state = {
            "shared.weight": np.outer(np.arange(1, self.state_size + 1, dtype=np.float64), encoding + 1.0),
            f"cand.{spec_fingerprint(spec)}.bias": encoding * 0.5,
        }
        weight_update = None
        if self.weight_store is not None:
            weight_update = WeightUpdate(state=state, score=accuracy)
            if not self.defer_updates:
                weight_update.apply(self.weight_store)
        # a synthetic "energy": anti-correlated with accuracy through the skip
        # count, so multi-objective smoke tests see a genuine trade-off; the
        # synthetic "latency" is deterministic (encoding-derived, not timed),
        # so latency-objective tests and benchmarks replay exactly
        return EvaluationResult(
            spec=spec,
            objective_value=value,
            accuracy=accuracy,
            metrics={
                "val_accuracy": accuracy,
                "energy_nj": 1.0 + 0.25 * spec.total_skips() + float(np.sin(encoding).sum() ** 2),
                "firing_rate": 0.5 + 0.5 * float(np.tanh(value)),
                "latency_ms": 1.0 + 0.1 * spec.total_skips() + 0.5 * float(np.cos(encoding).sum() ** 2),
            },
            weight_update=weight_update,
        )


def spec_fingerprint(spec: ArchitectureSpec) -> str:
    """Short stable tag of an architecture encoding (for synthetic state keys)."""
    return "-".join(str(int(v)) for v in spec.encode())
