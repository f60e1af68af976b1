"""The paper's primary contribution: skip-connection analysis and optimization.

This package implements Section III of the paper:

* :mod:`repro.core.adjacency` — per-block adjacency matrices encoding the
  position and type of skip connections (0 = none, 1 = DenseNet-like
  concatenation, 2 = addition-type), exactly as in Eq. (1);
* :mod:`repro.core.search_space` — construction of the space of all adjacency
  matrices for a given ANN topology (step 1 of Fig. 2);
* :mod:`repro.core.objectives` — the accuracy-drop objective ``f(A)`` with
  weight sharing and short fine-tuning, plus energy-aware variants;
* :mod:`repro.core.bayes_opt` — Gaussian-process Bayesian optimization with
  UCB acquisition and parallel candidate proposal (step 2 of Fig. 2);
* :mod:`repro.core.random_search` — the random-search baseline of Fig. 3;
* :mod:`repro.core.weight_sharing` — the shared-weight store that lets BO
  candidates inherit previously trained weights;
* :mod:`repro.core.cache` / :mod:`repro.core.snapshots` — the persistent
  evaluation store (JSONL, optionally sharded per writer) and the
  content-addressed weight-snapshot tier it references;
* :mod:`repro.core.async_eval` — the evaluation executor (persistent worker
  pool, no batch barrier) and :func:`run_search`, the one search loop every
  optimizer runs on (ticket-order absorption and weight-update merging);
* :mod:`repro.core.adapter` — the end-to-end ANN→SNN adaptation pipeline
  (:class:`SNNAdapter`) producing the Table-I quantities;
* :mod:`repro.core.pareto` / :mod:`repro.core.multi_objective` — the
  multi-objective subsystem: Pareto-front bookkeeping (non-dominated
  insertion, hypervolume) and the random-scalarization
  multi-objective Bayesian optimizer over pluggable accuracy / energy /
  latency objectives (``docs/multi_objective.md``).

``docs/architecture.md`` has the full module map and the data flow of one
search iteration.

The optimization-pipeline classes (objectives, optimizers, adapter) are
re-exported lazily to avoid import cycles with :mod:`repro.models`, which
itself depends on the adjacency representation defined here.
"""

from repro.core.adjacency import (
    ASC,
    DSC,
    NO_CONNECTION,
    SKIP_TYPES,
    BlockAdjacency,
    connection_name,
)
from repro.core.pareto import ParetoFront, ParetoPoint, dominates
from repro.core.search_space import ArchitectureSpec, BlockSearchInfo, SearchSpace
from repro.core.snapshots import WeightSnapshotStore
from repro.core.weight_sharing import WeightStore, WeightUpdate

__all__ = [
    "ASC",
    "DSC",
    "NO_CONNECTION",
    "SKIP_TYPES",
    "BlockAdjacency",
    "connection_name",
    "ArchitectureSpec",
    "BlockSearchInfo",
    "SearchSpace",
    "WeightStore",
    "WeightUpdate",
    "WeightSnapshotStore",
    "AccuracyDropObjective",
    "EnergyAwareObjective",
    "EvaluationResult",
    "Objective",
    "BayesianOptimizer",
    "OptimizationHistory",
    "OptimizationRecord",
    "RandomSearch",
    "AdaptationConfig",
    "AdaptationResult",
    "SNNAdapter",
    "CachedObjective",
    "PersistentEvaluationStore",
    "ShardedEvaluationStore",
    "snapshot_store_for",
    "AsyncEvaluationExecutor",
    "run_search",
    "ParetoFront",
    "ParetoPoint",
    "dominates",
    "ObjectiveSpec",
    "ObjectiveConstraint",
    "MultiObjectiveBayesianOptimizer",
    "get_objective_spec",
    "resolve_objective_specs",
]

# Lazily-resolved exports (PEP 562): these modules import repro.models /
# repro.training, which in turn import repro.core.adjacency — resolving them
# at attribute-access time breaks the cycle without hiding the public API.
_LAZY_EXPORTS = {
    "AccuracyDropObjective": "repro.core.objectives",
    "EnergyAwareObjective": "repro.core.objectives",
    "EvaluationResult": "repro.core.objectives",
    "Objective": "repro.core.objectives",
    "BayesianOptimizer": "repro.core.bayes_opt",
    "OptimizationHistory": "repro.core.bayes_opt",
    "OptimizationRecord": "repro.core.bayes_opt",
    "RandomSearch": "repro.core.random_search",
    "AdaptationConfig": "repro.core.adapter",
    "AdaptationResult": "repro.core.adapter",
    "SNNAdapter": "repro.core.adapter",
    "CachedObjective": "repro.core.cache",
    "PersistentEvaluationStore": "repro.core.cache",
    "ShardedEvaluationStore": "repro.core.cache",
    "snapshot_store_for": "repro.core.cache",
    "AsyncEvaluationExecutor": "repro.core.async_eval",
    "run_search": "repro.core.async_eval",
    "ObjectiveSpec": "repro.core.multi_objective",
    "ObjectiveConstraint": "repro.core.multi_objective",
    "MultiObjectiveBayesianOptimizer": "repro.core.multi_objective",
    "get_objective_spec": "repro.core.multi_objective",
    "resolve_objective_specs": "repro.core.multi_objective",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(_LAZY_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
