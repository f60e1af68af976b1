"""Bayesian optimization of skip-connection adjacency matrices (Fig. 2, step 2).

The optimizer follows Section III-B of the paper:

* the objective ``f(A)`` — the ANN→SNN accuracy drop — is modelled by a
  Gaussian-process prior over the flat integer encoding of the adjacency
  matrices;
* candidates are chosen by maximising an acquisition function over a pool of
  unevaluated architectures sampled from the search space; the paper uses the
  Upper Confidence Bound, which trades exploration for exploitation as the
  search progresses;
* the search proposes ``batch_size`` (``k``) architectures per iteration so
  that their (independent) evaluations can run in parallel; a constant-liar
  strategy keeps the proposals diverse within one batch;
* evaluated weights are shared across candidates through the objective's
  :class:`~repro.core.weight_sharing.WeightStore`, so each evaluation is only
  a short fine-tune.

The GP surrogate is refitted from the whole history at every proposal, and
each constant-liar fantasy is a refit with the lies appended
(:meth:`~repro.gp.gp.GaussianProcessRegressor.fantasize`).  A search here
makes tens of observations, where a fit costs about 0.1 ms against the
~1 s of one candidate evaluation.

The search loop itself is :func:`~repro.core.async_eval.run_search`: the
optimizer supplies proposals (:meth:`BayesianOptimizer._propose`) and an
absorb hook, and the loop owns evaluation, ordering and weight updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.async_eval import run_search
from repro.core.objectives import EvaluationResult, Objective, resolve_weight_context
from repro.core.search_space import ArchitectureSpec, SearchSpace
from repro.core.weight_sharing import WeightStore
from repro.gp.acquisition import AcquisitionFunction, get_acquisition
from repro.gp.gp import GaussianProcessRegressor
from repro.gp.kernels import HammingKernel, Kernel
from repro.tensor.random import default_rng
from repro.trace import span


@dataclass
class OptimizationRecord:
    """One evaluated candidate."""

    iteration: int
    spec: ArchitectureSpec
    objective_value: float
    accuracy: float
    firing_rate: float = 0.0
    #: per-objective measurement dict copied from the evaluation result
    #: (empty for purely scalar objectives) — the multi-objective engine
    #: reads its per-objective training targets from here
    metrics: Dict[str, float] = field(default_factory=dict)
    source: str = "bo"

    @classmethod
    def from_result(cls, iteration: int, result: EvaluationResult, source: str = "bo") -> "OptimizationRecord":
        """Build a record from an :class:`EvaluationResult`."""
        return cls(
            iteration=iteration,
            spec=result.spec,
            objective_value=result.objective_value,
            accuracy=result.accuracy,
            firing_rate=result.firing_rate,
            metrics=dict(result.metrics),
            source=source,
        )


@dataclass
class OptimizationHistory:
    """Full log of a search run."""

    records: List[OptimizationRecord] = field(default_factory=list)

    def append(self, record: OptimizationRecord) -> None:
        """Add one record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def num_evaluations(self) -> int:
        """Total number of objective evaluations."""
        return len(self.records)

    def best(self) -> OptimizationRecord:
        """Record with the smallest objective value."""
        if not self.records:
            raise ValueError("history is empty")
        return min(self.records, key=lambda record: record.objective_value)

    def incumbent_values(self) -> List[float]:
        """Best-so-far objective value after each evaluation."""
        values: List[float] = []
        best = float("inf")
        for record in self.records:
            best = min(best, record.objective_value)
            values.append(best)
        return values

    def incumbent_accuracies(self) -> List[float]:
        """Accuracy of the best-so-far candidate after each evaluation.

        The incumbent is the candidate with the lowest objective value so
        far.  The objectives score candidates on the validation split, so the
        incumbent is selected on validation accuracy, and the accuracy
        returned is that same validation accuracy (``EvaluationResult.accuracy``),
        not a test-split score.  As the best of several noisy scores it is
        biased upward.  This is the quantity plotted in Fig. 3.
        """
        accuracies: List[float] = []
        best_value = float("inf")
        best_accuracy = 0.0
        for record in self.records:
            if record.objective_value < best_value:
                best_value = record.objective_value
                best_accuracy = record.accuracy
            accuracies.append(best_accuracy)
        return accuracies

    def evaluated_keys(self) -> set:
        """Hashable encodings of every evaluated architecture."""
        return {record.spec.encode().tobytes() for record in self.records}


class BayesianOptimizer:
    """GP + UCB Bayesian optimization over a :class:`SearchSpace`.

    Parameters
    ----------
    search_space:
        The space of adjacency assignments (Fig. 2, step 1).
    objective:
        Callable evaluating one architecture (smaller is better).
    kernel:
        GP covariance over architecture encodings; defaults to the Hamming
        kernel, which treats the encoding as categorical.
    acquisition:
        Acquisition function or name (``"ucb"`` — the paper's choice — ``"ei"``
        or ``"pi"``).
    initial_points:
        Number of architectures evaluated before the GP is first fitted: the
        default architecture (the original topology's wiring), mirroring the
        paper's warm start, plus random draws.
    batch_size:
        Number of architectures proposed per iteration (the paper's ``k``
        parallel candidates).
    candidate_pool_size:
        Number of random unevaluated candidates scored by the acquisition at
        every iteration.
    async_workers:
        The search's only concurrency setting.  ``0`` (default) runs barrier
        iterations in this process: each proposes ``batch_size`` candidates
        from one posterior (constant-liar fantasies keep them apart) and
        evaluates them all before absorbing any.  ``N >= 1`` keeps ``N``
        evaluations in flight on a persistent worker pool: each absorbed
        result is observed into the posterior and replaced by one fresh
        candidate, proposed by constant-liar fantasies conditioned on the
        still-pending set, so no worker idles behind a batch barrier.
        Either way the budget is ``initial_points + num_iterations *
        batch_size`` evaluations, results are absorbed in submission order,
        and each one's **result-carried** weight update (the trained state on
        the result) is merged into the shared
        :class:`~repro.core.weight_sharing.WeightStore` in the parent as it
        is absorbed (:func:`~repro.core.async_eval.run_search`).  The history
        is a pure function of the seed and ``async_workers``.
    weight_store:
        The shared store those payloads merge into.  Defaults to the store
        discovered on the objective itself (walking wrapper chains such as
        ``CachedObjective(AccuracyDropObjective)``);
        pass it explicitly when the objective is an opaque callable.
    hyperopt_every:
        Re-tune the kernel hyperparameters (length scale / gamma and signal
        variance, via :func:`~repro.gp.gp.tune_kernel` marginal-likelihood
        coordinate descent) every ``hyperopt_every`` observations; the
        surrogates fitted after a retune use the new kernel.  Each retune
        costs a few dozen GP fits, so it is amortised over ``hyperopt_every``
        proposals.  ``None`` (the default, i.e. K=∞) never adapts: the
        proposal sequence is exactly that of an optimizer without the
        parameter (pinned by a seeded test).
    """

    def __init__(
        self,
        search_space: SearchSpace,
        objective: Objective | Callable[[ArchitectureSpec], EvaluationResult],
        kernel: Optional[Kernel] = None,
        acquisition: AcquisitionFunction | str = "ucb",
        initial_points: int = 3,
        batch_size: int = 1,
        candidate_pool_size: int = 64,
        noise: float = 1e-3,
        async_workers: int = 0,
        hyperopt_every: Optional[int] = None,
        weight_store: Optional[WeightStore] = None,
        rng=None,
    ) -> None:
        if initial_points < 1:
            raise ValueError("initial_points must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if candidate_pool_size < 1:
            raise ValueError("candidate_pool_size must be >= 1")
        self.search_space = search_space
        self.objective = objective
        self.kernel = kernel or HammingKernel()
        self.acquisition = get_acquisition(acquisition)
        self.initial_points = int(initial_points)
        self.batch_size = int(batch_size)
        self.candidate_pool_size = int(candidate_pool_size)
        self.noise = float(noise)
        if async_workers < 0:
            raise ValueError("async_workers must be >= 0")
        self.async_workers = int(async_workers)
        if hyperopt_every is not None and hyperopt_every < 1:
            raise ValueError("hyperopt_every must be >= 1 (or None to disable)")
        self.hyperopt_every = int(hyperopt_every) if hyperopt_every is not None else None
        #: history length at the last hyperparameter refit
        self._last_hyperopt = 0
        #: number of hyperparameter refits performed (tests / profiling)
        self.hyperopt_refits = 0
        self.weight_store = weight_store if weight_store is not None else resolve_weight_context(objective)[1]
        self._rng = default_rng(rng)
        self.history = OptimizationHistory()
        # the dedup key set, grown per evaluation (rebuilding it from the full
        # history every iteration is O(n) encodes)
        self._evaluated_keys: set = set()
        self._keys_watermark = 0
        self._keys_tail: Optional[OptimizationRecord] = None
        self._history_ref = self.history
        # persistent candidate pool: unevaluated candidates survive across
        # iterations; the encoded matrix handed to the GP is rebuilt at every
        # refresh
        self._pool_specs: List[ArchitectureSpec] = []
        self._pool_keys: List[bytes] = []
        self._pool_matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _on_record(self, record: OptimizationRecord) -> None:
        """Observation hook: called once per record appended to the history.

        The base engine needs nothing here (the surrogate is fitted from the
        history in :meth:`_fit_surrogate`); subclasses maintaining additional
        per-observation state — e.g. the multi-objective engine's Pareto
        front and hypervolume trace — override it.
        """

    def _reset_incremental_state(self) -> None:
        """Forget everything absorbed from a history that was swapped out."""
        self._evaluated_keys = set()
        self._keys_watermark = 0
        self._keys_tail = None
        self._history_ref = self.history
        self._pool_specs = []
        self._pool_keys = []
        self._pool_matrix = None

    def _guard_incremental_state(self) -> None:
        """Detect external history replacement (not just truncation).

        ``optimize`` supports a pre-populated history, so swapping in a
        different one between calls is an in-API pattern; the absorbed prefix
        is validated by identity of its tail record, which catches
        replacement by an equal-or-longer history as well as truncation.
        """
        records = self.history.records
        stale = (
            self._history_ref is not self.history
            or self._keys_watermark > len(records)
            or (self._keys_watermark > 0 and records[self._keys_watermark - 1] is not self._keys_tail)
        )
        if stale:
            self._reset_incremental_state()

    def _dedup_keys(self) -> set:
        """Keys of every evaluated architecture, grown incrementally.

        Only records appended since the last call are encoded, so the
        per-iteration cost is O(batch) instead of O(history).
        """
        self._guard_incremental_state()
        for record in self.history.records[self._keys_watermark :]:
            self._evaluated_keys.add(record.spec.encode().tobytes())
        self._keys_watermark = len(self.history)
        self._keys_tail = self.history.records[-1] if self.history.records else None
        return self._evaluated_keys

    def _initial_specs(self) -> List[ArchitectureSpec]:
        default = self.search_space.default_spec()
        exclude = {default.encode().tobytes()}
        return [default] + self.search_space.sample_batch(self.initial_points - 1, rng=self._rng, exclude=exclude)

    def _maybe_adapt_hyperparameters(self) -> None:
        """Re-tune the kernel when ``hyperopt_every`` observations accumulated."""
        if self.hyperopt_every is None or not len(self.history):
            return
        if not self.kernel.TUNABLE:
            # nothing to retune — skip the O(n^3) likelihood evaluation a
            # tune_kernel call would spend just to return the kernel unchanged
            return
        if len(self.history) - self._last_hyperopt < self.hyperopt_every:
            return
        from repro.gp.gp import tune_kernel

        with span("hyperopt", observations=len(self.history)) as tune_span:
            x = np.array([record.spec.encode() for record in self.history], dtype=np.float64)
            y = np.array([record.objective_value for record in self.history], dtype=np.float64)
            tuned, _ = tune_kernel(self.kernel, x, y, self.noise)
            self._last_hyperopt = len(self.history)
            if tune_span:
                tune_span.set(changed=tuned is not self.kernel)
            if tuned is not self.kernel:
                self.kernel = tuned
                self.hyperopt_refits += 1

    def _fit_surrogate(self) -> GaussianProcessRegressor:
        """A GP fitted to the whole history, after a kernel retune when one is due."""
        self._maybe_adapt_hyperparameters()
        encodings = np.array([record.spec.encode() for record in self.history], dtype=np.float64)
        values = np.array([record.objective_value for record in self.history], dtype=np.float64)
        return GaussianProcessRegressor(kernel=self.kernel, noise=self.noise).fit(encodings, values)

    # ------------------------------------------------------------------
    # persistent candidate pool
    # ------------------------------------------------------------------
    def _refresh_pool(self, exclude_extra: Optional[set] = None) -> None:
        """Drop evaluated pool entries and top the pool back up with fresh draws.

        The pool persists across iterations: already-scored candidates whose
        acquisition never won stay available, and the GP re-scores them
        against the updated posterior.  ``exclude_extra``
        adds keys (e.g. the asynchronous loop's pending set) that must neither
        survive in nor be drawn into the pool.
        """
        excluded = set(self._dedup_keys())
        if exclude_extra:
            excluded |= exclude_extra
        if self._pool_specs:
            keep = [i for i, key in enumerate(self._pool_keys) if key not in excluded]
            if len(keep) != len(self._pool_specs):
                self._pool_specs = [self._pool_specs[i] for i in keep]
                self._pool_keys = [self._pool_keys[i] for i in keep]
        needed = self.candidate_pool_size - len(self._pool_specs)
        if needed > 0:
            fresh = self.search_space.sample_batch(
                needed, rng=self._rng, exclude=excluded | set(self._pool_keys)
            )
            for spec in fresh:
                self._pool_specs.append(spec)
                self._pool_keys.append(spec.encode().tobytes())
        self._pool_matrix = np.array([spec.encode() for spec in self._pool_specs], dtype=np.float64)

    def _pool_pop(self, index: int) -> ArchitectureSpec:
        """Remove pool candidate ``index`` (it is about to be evaluated)."""
        self._pool_keys.pop(index)
        self._pool_matrix = np.delete(self._pool_matrix, index, axis=0)
        return self._pool_specs.pop(index)

    def _propose_batch(self, surrogate: GaussianProcessRegressor, iteration: int) -> List[ArchitectureSpec]:
        """A barrier batch of constant-liar proposals from one posterior.

        Before each pick after the first, the surrogate is refitted with a lie
        for every earlier pick, pretending each returned the current best, so
        the batch spreads over the pool instead of piling onto one optimum.
        """
        with span("propose", iteration=iteration) as propose_span:
            self._refresh_pool()
            best_value = self.history.best().objective_value
            lies: List[np.ndarray] = []
            proposals: List[ArchitectureSpec] = []
            while self._pool_specs and len(proposals) < self.batch_size:
                posterior = surrogate.fantasize(lies, [best_value] * len(lies)) if lies else surrogate
                mean, std = posterior.predict(self._pool_matrix)
                scores = self.acquisition(mean, std, best_observed=best_value, iteration=iteration)
                chosen_index = int(np.argmax(scores))
                lies.append(self._pool_matrix[chosen_index])
                proposals.append(self._pool_pop(chosen_index))
            if propose_span:
                propose_span.set(proposals=len(proposals))
            return proposals

    def _propose_async(self, in_flight_specs, iteration: int) -> Optional[ArchitectureSpec]:
        """Propose one candidate conditioned on the pending set.

        The surrogate is fitted to every absorbed observation, then refitted
        with a constant lie for each pending candidate — pretending, as in a
        barrier batch, that it will return the incumbent value — so
        concurrent proposals stay diverse even though none of them has
        reported back.
        """
        with span("propose", iteration=iteration) as propose_span:
            surrogate = self._fit_surrogate()
            # exclusion keys must share the dedup set's dtype (raw int64 encoding
            # bytes); the GP takes the float64 view
            pending = [spec.encode() for spec in in_flight_specs]
            self._refresh_pool(exclude_extra={encoding.tobytes() for encoding in pending})
            if not self._pool_specs:
                return None
            best_value = self.history.best().objective_value
            if pending:
                surrogate = surrogate.fantasize(pending, [best_value] * len(pending))
            mean, std = surrogate.predict(self._pool_matrix)
            scores = self.acquisition(mean, std, best_observed=best_value, iteration=iteration)
            if propose_span:
                propose_span.set(in_flight=len(pending), pool=len(self._pool_specs))
            return self._pool_pop(int(np.argmax(scores)))

    def _propose(self, pending: List[ArchitectureSpec], iteration: int) -> List[ArchitectureSpec]:
        """The search loop's proposal hook: a barrier batch, or one async pick."""
        if self.async_workers == 0:
            return self._propose_batch(self._fit_surrogate(), iteration)
        spec = self._propose_async(pending, iteration)
        return [] if spec is None else [spec]

    def _absorb(self, result: EvaluationResult, iteration: int) -> None:
        """The search loop's absorb hook: record one result in the history."""
        record = OptimizationRecord.from_result(iteration, result, source="init" if iteration == 0 else "bo")
        self.history.append(record)
        self._on_record(record)

    # ------------------------------------------------------------------
    def optimize(self, num_iterations: int, callback: Optional[Callable[[int, OptimizationHistory], None]] = None) -> OptimizationHistory:
        """Run the search for ``num_iterations`` BO iterations.

        The total number of objective evaluations is
        ``initial_points + num_iterations * batch_size`` (capped by the size
        of the search space); the initial points are evaluated only while the
        history is empty.  ``callback`` is invoked after every iteration with
        ``(iteration, history)`` — used by the experiment harness for
        progress reporting, and by the server to stop a job by raising.
        """
        if num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        with span(
            "search",
            iterations=num_iterations,
            batch_size=self.batch_size,
            engine="async" if self.async_workers >= 1 else "batch",
        ):
            run_search(
                self.objective,
                self._propose,
                self._absorb,
                num_iterations,
                initial=[] if len(self.history) else self._initial_specs(),
                batch_size=self.batch_size,
                workers=self.async_workers,
                weight_store=self.weight_store,
                on_iteration=None if callback is None else lambda iteration: callback(iteration, self.history),
            )
        return self.history

    def best_spec(self) -> ArchitectureSpec:
        """Architecture with the smallest observed objective value."""
        return self.history.best().spec
