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

The search engine is **incremental**: the GP surrogate is fitted once and
every subsequent observation extends its cached Cholesky factor in O(n^2)
(:meth:`~repro.gp.gp.GaussianProcessRegressor.update`), and the constant-liar
inner loop conditions a :class:`~repro.gp.gp.FantasizedPosterior` instead of
refitting per lie — the train-pool cross-kernel block is computed once per
iteration and grown by one row per fantasy.

Both evaluation paths run on the one worker pool of
:mod:`repro.core.async_eval`: the batch path hands each proposal batch to
:func:`~repro.core.async_eval.evaluate_ordered`, the asynchronous engine
drives an :class:`~repro.core.async_eval.AsyncEvaluationExecutor` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.async_eval import AsyncEvaluationExecutor, WeightUpdateSequencer, evaluate_ordered
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
    #: submission-order index assigned by the asynchronous engine (``None``
    #: for the batch path, whose history order *is* the submission order).
    #: The async history is appended in completion order; sorting records by
    #: ticket recovers the sequence whose sequential replay reproduces the
    #: shared-store state.
    ticket: Optional[int] = None

    @classmethod
    def from_result(
        cls,
        iteration: int,
        result: EvaluationResult,
        source: str = "bo",
        ticket: Optional[int] = None,
    ) -> "OptimizationRecord":
        """Build a record from an :class:`EvaluationResult`."""
        return cls(
            iteration=iteration,
            spec=result.spec,
            objective_value=result.objective_value,
            accuracy=result.accuracy,
            firing_rate=result.firing_rate,
            metrics=dict(result.metrics),
            source=source,
            ticket=ticket,
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
        Number of random architectures evaluated before the GP is first fitted.
        The default architecture (the original topology's wiring) is always
        included as one of them, mirroring the paper's warm start.
    batch_size:
        Number of architectures proposed per iteration (the paper's ``k``
        parallel candidates).
    candidate_pool_size:
        Number of random unevaluated candidates scored by the acquisition at
        every iteration.
    workers:
        Worker processes used to evaluate a proposal batch (1 = sequential),
        via :func:`~repro.core.async_eval.evaluate_ordered`.  Weight-sharing
        updates are **result-carried**: each evaluation returns its trained
        state on the result and the payloads are merged into the shared
        :class:`~repro.core.weight_sharing.WeightStore` in the parent, in
        submission order, after the batch returns — so no update is lost to
        a worker process, and a batch accumulates identical store contents
        whatever the worker count.
    async_workers:
        When ``>= 1``, :meth:`optimize` runs the **asynchronous** engine
        instead of the batch path: a persistent
        :class:`~repro.core.async_eval.AsyncEvaluationExecutor` keeps
        ``async_workers`` evaluations in flight, and the moment one completes
        its result is observed into the GP posterior and a fresh candidate —
        proposed by constant-liar fantasies conditioned on the still-running
        set — is submitted, so no worker ever idles behind a straggler's
        batch barrier.  The total evaluation budget is unchanged
        (``initial_points + num_iterations * batch_size``), and weight
        updates are applied in submission order
        (:class:`~repro.core.async_eval.WeightUpdateSequencer`), so the
        shared store accumulates exactly the state a sequential run over the
        same proposal sequence would.  ``0`` (default) keeps the batch path;
        ``workers`` is ignored while the async engine is active.
    weight_store:
        The shared store those payloads merge into.  Defaults to the store
        discovered on the objective itself (walking wrapper chains such as
        ``CachedObjective(EnergyAwareObjective(AccuracyDropObjective))``);
        pass it explicitly when the objective is an opaque callable.
    hyperopt_every:
        Re-tune the kernel hyperparameters (length scale / gamma and signal
        variance, via :func:`~repro.gp.gp.tune_kernel` marginal-likelihood
        coordinate descent) every ``hyperopt_every`` observations, rebuilding
        the incremental Cholesky factor **once** per refit and then resuming
        O(n^2) updates — so the adaptation cost is amortised over the
        incremental engine instead of paid per iteration.  ``None`` (the
        default, i.e. K=∞) never adapts: the proposal sequence is exactly
        that of an optimizer without the parameter (pinned by a seeded test).
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
        include_default: bool = True,
        workers: int = 1,
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
        self.include_default = bool(include_default)
        if async_workers < 0:
            raise ValueError("async_workers must be >= 0")
        self.workers = int(workers)
        self.async_workers = int(async_workers)
        if hyperopt_every is not None and hyperopt_every < 1:
            raise ValueError("hyperopt_every must be >= 1 (or None to disable)")
        self.hyperopt_every = int(hyperopt_every) if hyperopt_every is not None else None
        #: history length at the last hyperparameter refit
        self._last_hyperopt = 0
        #: number of hyperparameter refits performed (tests / profiling)
        self.hyperopt_refits = 0
        self._weight_base, resolved_store = resolve_weight_context(objective)
        self.weight_store = weight_store if weight_store is not None else resolved_store
        self._rng = default_rng(rng)
        self.history = OptimizationHistory()
        # incremental engine state: the persistent surrogate, how many history
        # records it has absorbed, and the dedup key set grown per evaluation
        # (rebuilding it from the full history every iteration is O(n) encodes)
        self._surrogate: Optional[GaussianProcessRegressor] = None
        self._num_modelled = 0
        self._modelled_tail: Optional[OptimizationRecord] = None
        self._evaluated_keys: set = set()
        self._keys_watermark = 0
        self._keys_tail: Optional[OptimizationRecord] = None
        self._history_ref = self.history
        # persistent candidate pool: unevaluated candidates survive across
        # iterations, and the encoded matrix handed to the GP is grown by the
        # fresh draws instead of being rebuilt — so the per-iteration encoding
        # cost is O(top-up), not O(pool).
        self._pool_specs: List[ArchitectureSpec] = []
        self._pool_keys: List[bytes] = []
        self._pool_matrix: Optional[np.ndarray] = None
        #: testing switch: when False the matrix is re-encoded from the whole
        #: pool every refresh — proposals must be identical either way
        self._pool_matrix_cache_enabled = True

    # ------------------------------------------------------------------
    def _evaluate_batch(self, specs: Sequence[ArchitectureSpec], iteration: int, source: str) -> List[OptimizationRecord]:
        """Evaluate one proposal batch and merge its weight updates.

        Local store mutation inside the objective is deferred for the
        duration of the batch: every candidate then trains from the
        batch-start shared weights (workers become stateless, and worker
        count cannot change any result), and the trained states returned on
        the results are merged into :attr:`weight_store` in the parent by
        :func:`~repro.core.async_eval.evaluate_ordered` — which is also the
        only place updates can survive a ``multiprocessing`` child or a
        persistent-store replay.
        """
        defer = self._weight_base is not None and self.weight_store is not None
        if defer:
            previous_defer = self._weight_base.defer_updates
            self._weight_base.defer_updates = True
        try:
            results = evaluate_ordered(
                self.objective, list(specs), workers=self.workers, weight_store=self.weight_store
            )
        finally:
            if defer:
                self._weight_base.defer_updates = previous_defer
        records = []
        for result in results:
            record = OptimizationRecord.from_result(iteration, result, source=source)
            self.history.append(record)
            self._on_record(record)
            records.append(record)
        return records

    def _on_record(self, record: OptimizationRecord) -> None:
        """Observation hook: called once per record appended to the history.

        The base engine needs nothing here (the surrogate absorbs history
        lazily in :meth:`_fit_surrogate`); subclasses maintaining additional
        per-observation state — e.g. the multi-objective engine's Pareto
        front and hypervolume trace — override it.
        """

    def _reset_incremental_state(self) -> None:
        """Forget everything absorbed from a history that was swapped out."""
        self._surrogate = None
        self._num_modelled = 0
        self._modelled_tail = None
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
            or self._num_modelled > len(records)
            or (self._num_modelled > 0 and records[self._num_modelled - 1] is not self._modelled_tail)
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
        specs: List[ArchitectureSpec] = []
        if self.include_default:
            specs.append(self.search_space.default_spec())
        needed = self.initial_points - len(specs)
        if needed > 0:
            exclude = {spec.encode().tobytes() for spec in specs}
            specs.extend(self.search_space.sample_batch(needed, rng=self._rng, exclude=exclude))
        return specs[: self.initial_points]

    def _maybe_adapt_hyperparameters(self) -> bool:
        """Re-tune the kernel when ``hyperopt_every`` observations accumulated.

        Returns ``True`` when the kernel changed — the caller must then drop
        its cached surrogate(s) so the next fit rebuilds the Cholesky factor
        (once) under the new hyperparameters.
        """
        if self.hyperopt_every is None or not len(self.history):
            return False
        if not self.kernel.TUNABLE:
            # nothing to retune — skip the O(n^3) likelihood evaluation a
            # tune_kernel call would spend just to return the kernel unchanged
            return False
        if len(self.history) - self._last_hyperopt < self.hyperopt_every:
            return False
        from repro.gp.gp import tune_kernel

        with span("hyperopt", observations=len(self.history)) as tune_span:
            x = np.array([record.spec.encode() for record in self.history], dtype=np.float64)
            y = np.array([record.objective_value for record in self.history], dtype=np.float64)
            tuned, _ = tune_kernel(self.kernel, x, y, self.noise)
            self._last_hyperopt = len(self.history)
            if tuned is self.kernel:
                if tune_span:
                    tune_span.set(changed=False)
                return False
            self.kernel = tuned
            self.hyperopt_refits += 1
            if tune_span:
                tune_span.set(changed=True)
        return True

    def _fit_surrogate(self) -> GaussianProcessRegressor:
        self._guard_incremental_state()
        if self._maybe_adapt_hyperparameters():
            # the factored matrix depends on the kernel: rebuild once, then
            # resume incremental rank-k updates on the new factor
            self._surrogate = None
        if self._surrogate is None:
            # full (re)fit: first iteration, a kernel retune, or a history swap
            encodings = np.array([record.spec.encode() for record in self.history], dtype=np.float64)
            values = np.array([record.objective_value for record in self.history], dtype=np.float64)
            model = GaussianProcessRegressor(kernel=self.kernel, noise=self.noise)
            model.fit(encodings, values)
            self._surrogate = model
        else:
            new_records = self.history.records[self._num_modelled :]
            if new_records:
                # O(n^2 k) rank-k extension of the cached Cholesky factor
                encodings = np.array([record.spec.encode() for record in new_records], dtype=np.float64)
                values = np.array([record.objective_value for record in new_records], dtype=np.float64)
                self._surrogate.update(encodings, values)
        self._num_modelled = len(self.history)
        self._modelled_tail = self.history.records[-1] if self.history.records else None
        return self._surrogate

    # ------------------------------------------------------------------
    # persistent candidate pool
    # ------------------------------------------------------------------
    def _refresh_pool(self, exclude_extra: Optional[set] = None) -> None:
        """Drop evaluated pool entries and top the pool back up with fresh draws.

        The pool — candidates plus their encoded matrix — persists across
        iterations: already-scored candidates whose acquisition never won
        stay available (the GP re-scores them against the updated posterior
        for free), and only the top-up draws are encoded.  ``exclude_extra``
        adds keys (e.g. the async engine's in-flight set) that must neither
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
                if self._pool_matrix is not None:
                    self._pool_matrix = self._pool_matrix[keep]
        needed = self.candidate_pool_size - len(self._pool_specs)
        if needed > 0:
            fresh = self.search_space.sample_batch(
                needed, rng=self._rng, exclude=excluded | set(self._pool_keys)
            )
            for spec in fresh:
                self._pool_specs.append(spec)
                self._pool_keys.append(spec.encode().tobytes())
            if fresh and self._pool_matrix_cache_enabled and self._pool_matrix is not None:
                rows = np.array([spec.encode() for spec in fresh], dtype=np.float64)
                self._pool_matrix = np.concatenate([self._pool_matrix, rows], axis=0)
            else:
                self._pool_matrix = None
        if self._pool_matrix is None and self._pool_specs:
            self._pool_matrix = np.array(
                [spec.encode() for spec in self._pool_specs], dtype=np.float64
            )

    def _pool_pop(self, index: int) -> ArchitectureSpec:
        """Remove pool candidate ``index`` (it is about to be evaluated)."""
        self._pool_keys.pop(index)
        if self._pool_matrix is not None:
            self._pool_matrix = np.delete(self._pool_matrix, index, axis=0)
        return self._pool_specs.pop(index)

    def _propose_batch(self, surrogate: GaussianProcessRegressor, iteration: int) -> List[ArchitectureSpec]:
        with span("propose", iteration=iteration) as propose_span:
            self._refresh_pool()
            if not self._pool_specs:
                return []
            proposals = self._propose_batch_incremental(surrogate, iteration)
            if propose_span:
                propose_span.set(proposals=len(proposals))
            return proposals

    def _propose_batch_incremental(
        self, surrogate: GaussianProcessRegressor, iteration: int
    ) -> List[ArchitectureSpec]:
        """Constant-liar proposal via rank-1 fantasy updates over the pool.

        The train-pool cross-kernel block is computed once when the fantasy
        posterior is built; each lie appends one row to it and extends the
        Cholesky factor by one rank, so the whole batch costs
        O(k (n^2 + n m)) instead of k full O(n^3) refits.
        """
        best_value = self.history.best().objective_value
        fantasy = surrogate.fantasize(self._pool_matrix)
        proposals: List[ArchitectureSpec] = []
        for _ in range(self.batch_size):
            if not self._pool_specs:
                break
            mean, std = fantasy.predict()
            scores = self.acquisition(mean, std, best_observed=best_value, iteration=iteration)
            chosen_index = int(np.argmax(scores))
            proposals.append(self._pool_pop(chosen_index))
            if self._pool_specs and len(proposals) < self.batch_size:
                encoding = fantasy.remove(chosen_index)
                # constant liar: pretend the pick returned the current best
                fantasy.condition(encoding, best_value)
        return proposals

    # ------------------------------------------------------------------
    # asynchronous engine
    # ------------------------------------------------------------------
    def _propose_async(self, in_flight_specs, iteration: int) -> Optional[ArchitectureSpec]:
        """Propose one candidate conditioned on the in-flight set.

        The surrogate absorbs every completed observation first
        (:meth:`_fit_surrogate`, incremental), then a constant-liar
        :class:`~repro.gp.gp.FantasizedPosterior` over a fresh pool is
        conditioned on each still-running candidate — pretending, as in the
        batch path, that it will return the incumbent value — so concurrent
        proposals stay diverse even though none of them has reported back.
        """
        with span("propose", iteration=iteration) as propose_span:
            surrogate = self._fit_surrogate()
            # exclusion keys must share the dedup set's dtype (raw int64 encoding
            # bytes); the float64 view is only for conditioning the posterior
            pending = [spec.encode() for spec in in_flight_specs]
            self._refresh_pool(exclude_extra={encoding.tobytes() for encoding in pending})
            if not self._pool_specs:
                return None
            best_value = self.history.best().objective_value
            fantasy = surrogate.fantasize(self._pool_matrix)
            for encoding in pending:
                fantasy.condition(encoding.astype(np.float64), best_value)
            mean, std = fantasy.predict()
            scores = self.acquisition(mean, std, best_observed=best_value, iteration=iteration)
            if propose_span:
                propose_span.set(in_flight=len(pending), pool=len(self._pool_specs))
            return self._pool_pop(int(np.argmax(scores)))

    def _absorb_async(self, done, sequencer, iteration: int, source: str) -> OptimizationRecord:
        """Record one completed evaluation and sequence its weight update."""
        with span("absorb", ticket=done.ticket, iteration=iteration):
            sequencer.add(done.ticket, done.result.weight_update)
            record = OptimizationRecord.from_result(iteration, done.result, source=source, ticket=done.ticket)
            self.history.append(record)
            self._on_record(record)
        return record

    def _optimize_async(self, num_iterations: int, callback) -> OptimizationHistory:
        """Asynchronous engine behind :meth:`optimize` (``async_workers >= 1``).

        Keeps up to ``async_workers`` evaluations in flight on a persistent
        worker pool; each completion is observed into the posterior and
        immediately replaced by a fresh constant-liar proposal, so there is
        no batch barrier and no idle worker behind a straggler.  The
        evaluation budget, the history/record shape and the shared-store
        accumulation semantics all match the batch path.
        """
        budget = num_iterations * self.batch_size
        sequencer = WeightUpdateSequencer(self.weight_store)
        defer = self._weight_base is not None and self.weight_store is not None
        if defer:
            previous_defer = self._weight_base.defer_updates
            self._weight_base.defer_updates = True
        try:
            with AsyncEvaluationExecutor(self.objective, workers=self.async_workers) as executor:
                in_flight: Dict[int, ArchitectureSpec] = {}
                if not len(self.history):
                    for spec in self._initial_specs():
                        in_flight[executor.submit(spec)] = spec
                    while in_flight:
                        done = executor.next_completed()
                        del in_flight[done.ticket]
                        self._absorb_async(done, sequencer, iteration=0, source="init")
                    if callback is not None:
                        callback(0, self.history)
                proposed = completed = 0
                while proposed < budget and len(in_flight) < self.async_workers:
                    spec = self._propose_async(in_flight.values(), iteration=1 + proposed // self.batch_size)
                    if spec is None:
                        break
                    in_flight[executor.submit(spec)] = spec
                    proposed += 1
                while in_flight:
                    done = executor.next_completed()
                    del in_flight[done.ticket]
                    completed += 1
                    iteration = 1 + (completed - 1) // self.batch_size
                    self._absorb_async(done, sequencer, iteration=iteration, source="bo")
                    if proposed < budget:
                        spec = self._propose_async(in_flight.values(), iteration=1 + proposed // self.batch_size)
                        if spec is not None:
                            in_flight[executor.submit(spec)] = spec
                            proposed += 1
                    boundary = completed % self.batch_size == 0 or (not in_flight and proposed >= budget)
                    if callback is not None and completed and boundary:
                        callback(iteration, self.history)
        finally:
            if defer:
                self._weight_base.defer_updates = previous_defer
        return self.history

    # ------------------------------------------------------------------
    def optimize(self, num_iterations: int, callback: Optional[Callable[[int, OptimizationHistory], None]] = None) -> OptimizationHistory:
        """Run the search for ``num_iterations`` BO iterations.

        The total number of objective evaluations is
        ``initial_points + num_iterations * batch_size`` (capped by the size
        of the search space).  ``callback`` is invoked after every iteration
        with ``(iteration, history)`` — used by the experiment harness for
        progress reporting.  With ``async_workers >= 1`` the asynchronous
        engine runs instead of the batch path (same budget, same history
        shape; see the class docstring).
        """
        if num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        with span(
            "search",
            iterations=num_iterations,
            batch_size=self.batch_size,
            engine="async" if self.async_workers >= 1 else "batch",
        ):
            if self.async_workers >= 1:
                return self._optimize_async(num_iterations, callback)
            if not len(self.history):
                self._evaluate_batch(self._initial_specs(), iteration=0, source="init")
                if callback is not None:
                    callback(0, self.history)
            for iteration in range(1, num_iterations + 1):
                surrogate = self._fit_surrogate()
                proposals = self._propose_batch(surrogate, iteration)
                if not proposals:
                    break
                self._evaluate_batch(proposals, iteration=iteration, source="bo")
                if callback is not None:
                    callback(iteration, self.history)
            return self.history

    def best_spec(self) -> ArchitectureSpec:
        """Architecture with the smallest observed objective value."""
        return self.history.best().spec
