"""Random-search baseline (paper Section IV-B, Fig. 3).

The baseline samples adjacency assignments uniformly at random *without
replacement* and evaluates each one; in the paper every random-search
candidate is trained from scratch (no weight sharing), "which requires a
massive computing budget".  The class accepts any objective, so the
experiments can reproduce both the paper's setting (a from-scratch objective)
and a variant where random search also benefits from weight sharing.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.bayes_opt import OptimizationHistory, OptimizationRecord
from repro.core.objectives import EvaluationResult, Objective
from repro.core.search_space import ArchitectureSpec, SearchSpace
from repro.tensor.random import default_rng


class RandomSearch:
    """Uniform random search over a :class:`SearchSpace` without replacement."""

    def __init__(
        self,
        search_space: SearchSpace,
        objective: Objective | Callable[[ArchitectureSpec], EvaluationResult],
        include_default: bool = False,
        rng=None,
    ) -> None:
        self.search_space = search_space
        self.objective = objective
        self.include_default = bool(include_default)
        self._rng = default_rng(rng)
        self.history = OptimizationHistory()

    def optimize(self, num_iterations: int, callback: Optional[Callable[[int, OptimizationHistory], None]] = None) -> OptimizationHistory:
        """Evaluate ``num_iterations`` distinct random architectures."""
        if num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        evaluated = self.history.evaluated_keys()
        iteration = len(self.history)
        if self.include_default and not len(self.history):
            default = self.search_space.default_spec()
            result = self.objective(default)
            self.history.append(OptimizationRecord.from_result(0, result, source="rs"))
            evaluated.add(default.encode().tobytes())
            iteration += 1
            if callback is not None:
                callback(iteration, self.history)
        while iteration < num_iterations:
            batch = self.search_space.sample_batch(1, rng=self._rng, exclude=evaluated)
            if not batch:
                break  # the whole space has been evaluated
            spec = batch[0]
            evaluated.add(spec.encode().tobytes())
            result = self.objective(spec)
            self.history.append(OptimizationRecord.from_result(iteration, result, source="rs"))
            iteration += 1
            if callback is not None:
                callback(iteration, self.history)
        return self.history

    def best_spec(self) -> ArchitectureSpec:
        """Architecture with the smallest observed objective value."""
        return self.history.best().spec
