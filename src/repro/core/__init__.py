"""The paper's primary contribution: skip-connection analysis and optimization.

This package implements Section III of the paper:

* :mod:`repro.core.adjacency` — per-block adjacency matrices encoding the
  position and type of skip connections (0 = none, 1 = DenseNet-like
  concatenation, 2 = addition-type), exactly as in Eq. (1);
* :mod:`repro.core.search_space` — construction of the space of all adjacency
  matrices for a given ANN topology (step 1 of Fig. 2);
* :mod:`repro.core.objectives` — the accuracy-drop objective ``f(A)`` with
  weight sharing and short fine-tuning;
* :mod:`repro.core.bayes_opt` — Gaussian-process Bayesian optimization with
  UCB acquisition and parallel candidate proposal (step 2 of Fig. 2);
* :mod:`repro.core.random_search` — the random-search baseline of Fig. 3;
* :mod:`repro.core.weight_sharing` — the shared-weight store that lets BO
  candidates inherit previously trained weights;
* :mod:`repro.core.cache` / :mod:`repro.core.snapshots` — the persistent
  evaluation store (one append-only JSONL file per configuration) and the
  content-addressed weight-snapshot tier it references;
* :mod:`repro.core.async_eval` — the evaluation executor (persistent worker
  pool, no batch barrier) and :func:`run_search`, the one search loop every
  optimizer runs on (ticket-order absorption and weight-update merging);
* :mod:`repro.core.pareto` / :mod:`repro.core.multi_objective` — the
  multi-objective subsystem: Pareto-front bookkeeping (non-dominated
  insertion, hypervolume) and the random-scalarization
  multi-objective Bayesian optimizer over pluggable accuracy / energy /
  latency objectives (``docs/multi_objective.md``).

The end-to-end ANN→SNN adaptation pipeline producing the Table-I quantities
is :func:`repro.experiments.run_table1_cell`, which searches through the same
constructor as every other experiment.

``docs/architecture.md`` has the full module map and the data flow of one
search iteration.
"""

from repro._lazy import lazy_exports

# every name resolves on first access (PEP 562, see repro._lazy): importing
# the package loads none of its modules, and the pipeline modules, which
# import repro.models / repro.training, never cycle back into this file
_LAZY_EXPORTS = {
    "ASC": "repro.core.adjacency",
    "DSC": "repro.core.adjacency",
    "NO_CONNECTION": "repro.core.adjacency",
    "SKIP_TYPES": "repro.core.adjacency",
    "BlockAdjacency": "repro.core.adjacency",
    "connection_name": "repro.core.adjacency",
    "ArchitectureSpec": "repro.core.search_space",
    "BlockSearchInfo": "repro.core.search_space",
    "SearchSpace": "repro.core.search_space",
    "WeightStore": "repro.core.weight_sharing",
    "WeightUpdate": "repro.core.weight_sharing",
    "WeightSnapshotStore": "repro.core.snapshots",
    "AccuracyDropObjective": "repro.core.objectives",
    "EvaluationResult": "repro.core.objectives",
    "Objective": "repro.core.objectives",
    "BayesianOptimizer": "repro.core.bayes_opt",
    "OptimizationHistory": "repro.core.bayes_opt",
    "OptimizationRecord": "repro.core.bayes_opt",
    "RandomSearch": "repro.core.random_search",
    "CachedObjective": "repro.core.cache",
    "PersistentEvaluationStore": "repro.core.cache",
    "snapshot_store_for": "repro.core.cache",
    "AsyncEvaluationExecutor": "repro.core.async_eval",
    "run_search": "repro.core.async_eval",
    "ParetoFront": "repro.core.pareto",
    "ParetoPoint": "repro.core.pareto",
    "dominates": "repro.core.pareto",
    "ObjectiveSpec": "repro.core.multi_objective",
    "ObjectiveConstraint": "repro.core.multi_objective",
    "MultiObjectiveBayesianOptimizer": "repro.core.multi_objective",
    "get_objective_spec": "repro.core.multi_objective",
    "resolve_objective_specs": "repro.core.multi_objective",
}
__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
