"""Figure 3: the proposed Bayesian-optimization HPO versus random search.

Both searches optimise the same skip-connection space of one template on one
dataset.  Following the paper:

* the proposed method (GP + UCB) shares weights across candidates and only
  fine-tunes each one for a few epochs;
* random search samples architectures without replacement and trains every
  candidate **from scratch** (no weight sharing);
* the reported quantity is the accuracy of the incumbent (best-so-far)
  architecture as a function of the number of evaluated architectures, with
  mean and standard deviation over several independent runs.  It is the
  *validation* accuracy of an incumbent that validation accuracy selected
  (:meth:`~repro.core.bayes_opt.OptimizationHistory.incumbent_accuracies`),
  not a test-split score: as the best of several noisy scores it is biased
  upward.

Expected qualitative result: the BO curve dominates the random-search curve
and has a smaller run-to-run spread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.bayes_opt import BayesianOptimizer, OptimizationHistory
from repro.core.random_search import RandomSearch
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.pareto_front import build_search, load_problem


@dataclass
class SearchCurve:
    """Incumbent-accuracy curves of one method over several runs."""

    method: str
    #: one incumbent-accuracy list per run (aligned to evaluation count)
    runs: List[List[float]] = field(default_factory=list)

    def max_length(self) -> int:
        """Longest run length (number of evaluations)."""
        return max((len(run) for run in self.runs), default=0)

    def _padded(self) -> np.ndarray:
        length = self.max_length()
        if length == 0:
            return np.zeros((0, 0))
        padded = np.full((len(self.runs), length), np.nan)
        for i, run in enumerate(self.runs):
            padded[i, : len(run)] = run
            if len(run) < length:
                padded[i, len(run):] = run[-1] if run else np.nan
        return padded

    def mean(self) -> np.ndarray:
        """Mean incumbent accuracy per evaluation index."""
        padded = self._padded()
        return np.nanmean(padded, axis=0) if padded.size else np.array([])

    def std(self) -> np.ndarray:
        """Standard deviation of the incumbent accuracy per evaluation index."""
        padded = self._padded()
        return np.nanstd(padded, axis=0) if padded.size else np.array([])

    def final_mean(self) -> float:
        """Mean final incumbent accuracy."""
        mean = self.mean()
        return float(mean[-1]) if mean.size else 0.0

    def final_std(self) -> float:
        """Std of the final incumbent accuracy across runs."""
        std = self.std()
        return float(std[-1]) if std.size else 0.0

    def auc(self) -> float:
        """Area under the mean incumbent curve (higher = faster convergence)."""
        mean = self.mean()
        return float(np.trapezoid(mean)) if mean.size else 0.0


@dataclass
class Figure3Result:
    """Both search curves plus the experiment metadata."""

    dataset_name: str
    model_name: str
    bo_curve: SearchCurve = field(default_factory=lambda: SearchCurve(method="Our HPO"))
    rs_curve: SearchCurve = field(default_factory=lambda: SearchCurve(method="random search"))
    histories: List[OptimizationHistory] = field(default_factory=list)

    def bo_beats_rs(self) -> bool:
        """Whether the BO final mean incumbent accuracy is at least the RS one."""
        return self.bo_curve.final_mean() >= self.rs_curve.final_mean() - 1e-12


def run_figure3(
    scale: Optional[ExperimentScale] = None,
    dataset: str = "cifar10-dvs",
    model: str = "resnet18",
    num_runs: Optional[int] = None,
    iterations: Optional[int] = None,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    async_workers: int = 0,
) -> Figure3Result:
    """Run the BO-vs-random-search comparison.

    ``iterations`` is the total number of architecture evaluations granted to
    each method per run (the paper plots up to 140; the default scale uses a
    CPU-friendly budget).  With ``cache_dir`` set, every candidate evaluation
    is persisted to a per-(method, run seed, config) JSONL store under that
    directory and re-used by later runs (each method writes its own file
    because weight sharing makes their evaluation semantics differ).  For the
    weight-sharing BO method the store also persists each evaluation's weight
    snapshot, and a hit replays it into the run's ``WeightStore`` — so
    extending a cached run with a larger ``iterations`` budget evaluates the
    fresh tail from the same warm weights as an uncached run.
    ``async_workers >= 1`` keeps that many of the BO method's candidate
    evaluations in flight on a worker pool instead of running barrier
    iterations in this process; the run stays a pure function of ``seed``
    and ``async_workers``.
    """
    scale = scale or get_scale()
    num_runs = num_runs if num_runs is not None else scale.figure3_runs
    iterations = iterations if iterations is not None else scale.search_iterations

    splits, template = problem = load_problem(scale, dataset, model)
    space = template.search_space()
    name = ["figure3", splits.name, template.name]

    result = Figure3Result(dataset_name=splits.name, model_name=template.name)
    for run_index in range(num_runs):
        run_seed = seed + run_index
        # one store per run seed and method: evaluations from a
        # differently-seeded run are not comparable (different weight init),
        # and reusing them would collapse the run-to-run variance this figure
        # reports; each method writes its own file because weight sharing
        # makes their evaluation semantics differ
        bo_search, rs_search = (
            build_search(scale, problem, run_seed, ["accuracy"], shared, iterations, cache_dir, name + [method])
            for method, shared in (("bo", True), ("rs", False))
        )
        bo = BayesianOptimizer(
            space,
            bo_search.objective,
            initial_points=bo_search.initial_points,
            batch_size=1,
            candidate_pool_size=48,
            async_workers=async_workers,
            rng=run_seed,
        )
        bo_history = bo.optimize(bo_search.iterations)
        result.bo_curve.runs.append(bo_history.incumbent_accuracies())
        result.histories.append(bo_history)

        rs = RandomSearch(space, rs_search.objective, rng=run_seed + 1000)
        rs_history = rs.optimize(iterations)
        result.rs_curve.runs.append(rs_history.incumbent_accuracies())
        result.histories.append(rs_history)
    return result
