"""Random-search baseline (paper Section IV-B, Fig. 3).

The baseline samples adjacency assignments uniformly at random *without
replacement* and evaluates each one; in the paper every random-search
candidate is trained from scratch (no weight sharing), "which requires a
massive computing budget".  The class accepts any objective, so the
experiments can reproduce both the paper's setting (a from-scratch objective)
and a variant where random search also benefits from weight sharing.  It
runs on the same search loop as Bayesian optimization
(:func:`~repro.core.async_eval.run_search`), one draw per iteration.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.async_eval import run_search
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
        rng=None,
    ) -> None:
        self.search_space = search_space
        self.objective = objective
        self._rng = default_rng(rng)
        self.history = OptimizationHistory()

    def optimize(self, num_iterations: int, callback: Optional[Callable[[int, OptimizationHistory], None]] = None) -> OptimizationHistory:
        """Evaluate distinct random architectures until the history holds ``num_iterations``.

        ``callback`` receives ``(len(history), history)`` after each evaluation.
        """
        if num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        evaluated = self.history.evaluated_keys()

        def draw(pending: List[ArchitectureSpec], iteration: int) -> List[ArchitectureSpec]:
            # an empty draw means the whole space has been evaluated
            batch = self.search_space.sample_batch(1, rng=self._rng, exclude=evaluated)
            evaluated.update(spec.encode().tobytes() for spec in batch)
            return batch

        def absorb(result: EvaluationResult, iteration: int) -> None:
            self.history.append(OptimizationRecord.from_result(len(self.history), result, source="rs"))

        run_search(
            self.objective,
            draw,
            absorb,
            max(num_iterations - len(self.history), 0),
            on_iteration=None if callback is None else lambda _: callback(len(self.history), self.history),
        )
        return self.history

    def best_spec(self) -> ArchitectureSpec:
        """Architecture with the smallest observed objective value."""
        return self.history.best().spec
