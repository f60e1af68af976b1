"""The search's one evaluation worker pool and its one search loop.

Every search evaluation runs here, in two layers:

* :class:`AsyncEvaluationExecutor` keeps a **persistent** pool of worker
  processes alive and exposes a submit/next-completed interface:
  evaluations are handed out one at a time and results are collected in
  *completion* order, so a free worker can start the next candidate while a
  straggler (larger model, more skip connections, a cold cache) is still
  running;
* :func:`run_search` is the ask/tell loop every optimizer runs on
  (:class:`~repro.core.bayes_opt.BayesianOptimizer`, its multi-objective
  subclass and :class:`~repro.core.random_search.RandomSearch`).  The
  optimizer supplies proposals and an absorb hook; the loop owns the
  executor, the in-flight set, the evaluation budget, deferred weight
  updates and the iteration callbacks.  It absorbs results strictly in
  submission (ticket) order and applies each result-carried
  :class:`~repro.core.weight_sharing.WeightUpdate` to the shared
  :class:`~repro.core.weight_sharing.WeightStore` as it absorbs it.  So
  proposal *p* always sees the first *p* - N results absorbed (N evaluations
  in flight), whatever order the workers finished in: a search is a pure
  function of its seed and worker count, never of scheduling.

With ``workers <= 1``, an unpicklable objective, or a sandbox that cannot
create processes, the executor evaluates each submission in the parent
process at :meth:`~AsyncEvaluationExecutor.submit`, so a task sees the
objective (and its weight store) as it was at submission, exactly as a
pickled pool task does: the serial mode returns the pool's results, in the
same order, with no subprocess machinery.  Fallback happens only for these
*infrastructure* problems, established before any work runs; an exception
raised by the objective always propagates.

The worker start method defaults to ``fork`` where available (cheapest,
shares the parent's loaded datasets) and can be forced with the
``REPRO_MP_START_METHOD`` environment variable (``fork``/``spawn``/
``forkserver``) — CI uses ``spawn`` to prove the workload survives a fresh
interpreter.  Every worker runs
:func:`~repro.tensor.blas.use_one_blas_thread` as its pool initializer, so
whatever the start method each worker runs BLAS on one thread (the
parallelism is across processes) and starts no BLAS worker thread.  A
spawned worker loads NumPy's OpenBLAS on one thread from the outset; a
forked one inherits its parent's count of 1 and is left alone, since
setting the count in a forked child rebuilds the thread pool the library
loaded with, which costs ~0.1 s of spinning CPU per worker.

Evaluation workers were made stateless in the result-carried-update refactor
(objectives defer local store mutation, trained state rides back on the
result), which is precisely what lets one long-lived pool serve the whole
search: a worker needs nothing from the parent but the pickled objective and
a spec, and leaks nothing back but the result.

The HTTP serving layer (:mod:`repro.server`) runs searches on the same loop
as background jobs.  A stopped job raises out of the iteration callback, and
the executor's waiting :meth:`AsyncEvaluationExecutor.close` lets in-flight
evaluations finish, so no completed evaluation's store row is lost.
"""

from __future__ import annotations

import os
import pickle
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.cache import merge_store_counters, store_counters
from repro.core.objectives import EvaluationResult, resolve_weight_context
from repro.core.search_space import ArchitectureSpec
from repro.core.weight_sharing import WeightStore
from repro.tensor.blas import use_one_blas_thread
from repro.trace import absorb as absorb_spans, capture_context, remote_activation, span

if TYPE_CHECKING:
    import concurrent.futures

#: environment variable forcing the multiprocessing start method
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def start_method() -> str:
    """The configured multiprocessing start method."""
    import multiprocessing

    method = os.environ.get(START_METHOD_ENV)
    if method:
        return method
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def get_mp_context():
    """The multiprocessing context for the configured start method.

    An invalid ``REPRO_MP_START_METHOD`` raises here rather than degrading
    silently — a misconfigured run must not masquerade as a parallel one.
    """
    import multiprocessing

    return multiprocessing.get_context(start_method())


#: objectives already probed for picklability; the executor pickles an
#: objective on every submission anyway, so the probe result is worth
#: remembering (the object — e.g. a CachedObjective holding the dataset —
#: can be large)
_PICKLABLE_FUNCS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def func_is_picklable(func) -> bool:
    """Whether ``func`` can be shipped to worker processes (result cached)."""
    try:
        known = _PICKLABLE_FUNCS.get(func)
    except TypeError:  # unhashable/unweakrefable func
        known = None
    if known is None:
        try:
            pickle.dumps(func)
            known = True
        except Exception:  # repro-lint: disable=swallowed-exception (any serialisation failure means "cannot ship"; the probe's only output is the boolean)
            known = False
        try:
            _PICKLABLE_FUNCS[func] = known
        except TypeError:
            pass
    return known


@dataclass
class CompletedEvaluation:
    """One finished evaluation, tagged with its submission ticket."""

    #: submission-order index (0-based, monotonic per executor)
    ticket: int
    spec: ArchitectureSpec
    result: EvaluationResult


class _TelemetryCall:
    """Picklable task wrapper carrying trace context to a worker process.

    Every pool submission is wrapped (the context is ``None`` while tracing is
    disabled): the worker runs the objective under
    :func:`~repro.trace.remote_activation` so its spans stitch under the
    parent's open span, and ships back the spans plus its fused-training and
    store-lookup counter deltas on ``result.telemetry`` — worker processes
    bump their *own* process-wide tallies, which would otherwise be invisible
    to the parent's ``/metrics`` view.

    The objective is pickled here, at submission: the pool pickles a task
    later, in its feeder thread, and by then the parent may have absorbed a
    weight update the task must not see.
    """

    __slots__ = ("payload", "context")

    def __init__(self, objective, context) -> None:
        self.payload = pickle.dumps(objective)
        self.context = context

    def __getstate__(self):
        return (self.payload, self.context)

    def __setstate__(self, state) -> None:
        self.payload, self.context = state

    def __call__(self, spec: ArchitectureSpec) -> EvaluationResult:
        # repro.snn is imported only on the pooled path: a serial search
        # loads none of it
        from repro.snn.routing import aggregate_fused_counters

        objective = pickle.loads(self.payload)
        fused_before = aggregate_fused_counters()
        store_before = store_counters()
        with remote_activation(self.context) as spans:
            result = objective(spec)
        fused_after = aggregate_fused_counters()
        store_after = store_counters()
        result.telemetry = {
            "spans": spans,
            "counters": {
                "fused": {
                    key: fused_after[key] - fused_before.get(key, 0) for key in fused_after
                },
                "store": {
                    key: store_after[key] - store_before.get(key, 0) for key in store_after
                },
            },
        }
        return result


def _absorb_telemetry(result: EvaluationResult) -> None:
    """Fold a worker result's transport-only telemetry into this process.

    Spans go to the thread's active recorder, counter deltas into the
    process-wide tallies; the payload is cleared afterwards so it can never
    leak into persisted rows or be re-absorbed.
    """
    from repro.snn.routing import merge_fused_counters

    telemetry = result.telemetry
    if not telemetry:
        return
    absorb_spans(telemetry.get("spans") or [])
    counters = telemetry.get("counters") or {}
    merge_fused_counters(counters.get("fused") or {})
    merge_store_counters(counters.get("store") or {})
    result.telemetry = None


class AsyncEvaluationExecutor:
    """Persistent worker pool with submit / next-completed semantics.

    Parameters
    ----------
    objective:
        Callable evaluating one :class:`ArchitectureSpec`.  It is pickled per
        task inside :meth:`submit`, so workers always see the objective state
        as of the submission.
    workers:
        Worker processes.  ``<= 1`` selects the serial mode: each submission
        is evaluated in the parent process inside :meth:`submit`, against the
        objective as it is at submission (as a pickled task would be), and
        :meth:`next_completed` returns the results in submission order.

    Use as a context manager (or call :meth:`close`) so the pool is shut down
    deterministically::

        with AsyncEvaluationExecutor(objective, workers=4) as executor:
            tickets = [executor.submit(spec) for spec in specs]
            while executor.in_flight:
                done = executor.next_completed()

    Exceptions raised by the objective propagate with any worker count (from
    :meth:`submit` in serial mode, from :meth:`next_completed` in the pool): a
    failing evaluation must not be silently retried or dropped.
    """

    def __init__(
        self,
        objective: Callable[[ArchitectureSpec], EvaluationResult],
        workers: int = 1,
    ) -> None:
        self.objective = objective
        self.workers = int(workers)
        self._tickets = 0
        self._serial_done: List[CompletedEvaluation] = []
        self._futures: Dict[int, concurrent.futures.Future] = {}
        self._specs: Dict[int, ArchitectureSpec] = {}
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        if self.workers > 1 and func_is_picklable(objective):
            # the pool machinery (~16 ms of imports) loads only for a pool
            import concurrent.futures

            try:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=get_mp_context(),
                    initializer=use_one_blas_thread,
                )
            except (OSError, PermissionError):  # pragma: no cover - sandbox fallback
                self._pool = None

    # ------------------------------------------------------------------
    @property
    def is_parallel(self) -> bool:
        """Whether evaluations actually run in worker processes."""
        return self._pool is not None

    @property
    def in_flight(self) -> int:
        """Submitted evaluations whose results have not been collected yet."""
        return len(self._futures) + len(self._serial_done)

    def submit(self, spec: ArchitectureSpec) -> int:
        """Start one evaluation; returns its submission ticket."""
        if self._pool is None:
            result = self.objective(spec)
            self._serial_done.append(CompletedEvaluation(ticket=self._tickets, spec=spec, result=result))
        else:
            task = _TelemetryCall(self.objective, capture_context())
            self._futures[self._tickets] = self._pool.submit(task, spec)
            self._specs[self._tickets] = spec
        self._tickets += 1
        return self._tickets - 1

    def next_completed(self) -> CompletedEvaluation:
        """Block until any submitted evaluation finishes and return it.

        In parallel mode, results surface in completion order (ties broken by
        ticket so the choice is deterministic when several are already done);
        in serial mode, in submission order.
        """
        if self._pool is None:
            if not self._serial_done:
                raise RuntimeError("no evaluations in flight")
            return self._serial_done.pop(0)
        if not self._futures:
            raise RuntimeError("no evaluations in flight")
        import concurrent.futures

        done, _ = concurrent.futures.wait(
            self._futures.values(), return_when=concurrent.futures.FIRST_COMPLETED
        )
        done_ids = {id(future) for future in done}
        ticket = min(t for t, future in self._futures.items() if id(future) in done_ids)
        future = self._futures.pop(ticket)
        spec = self._specs.pop(ticket)
        result = future.result()
        _absorb_telemetry(result)
        return CompletedEvaluation(ticket=ticket, spec=spec, result=result)

    def drain(self) -> Iterator[CompletedEvaluation]:
        """Yield every in-flight evaluation as it completes."""
        while self.in_flight:
            yield self.next_completed()

    def close(self) -> None:
        """Shut the worker pool down, waiting for running tasks to finish."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "AsyncEvaluationExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_search(
    objective: Callable[[ArchitectureSpec], EvaluationResult],
    propose: Callable[[List[ArchitectureSpec], int], List[ArchitectureSpec]],
    absorb: Callable[[EvaluationResult, int], None],
    num_iterations: int,
    *,
    initial: Sequence[ArchitectureSpec] = (),
    batch_size: int = 1,
    workers: int = 0,
    weight_store: Optional[WeightStore] = None,
    on_iteration: Optional[Callable[[int], None]] = None,
) -> None:
    """The search loop: evaluate ``initial``, then ``num_iterations`` iterations.

    ``propose(pending, iteration)`` returns the next specs to evaluate, where
    ``pending`` lists the specs submitted but not absorbed yet; an empty list
    ends the search early.  ``absorb(result, iteration)`` records one result
    (iteration 0 holds the ``initial`` specs).  ``on_iteration(iteration)``
    runs once an iteration's results are all absorbed.

    * ``workers == 0``: barrier iterations.  Each ``propose`` call returns up
      to ``batch_size`` specs from one posterior, and all of them are
      evaluated before the first is absorbed.
    * ``workers >= 1``: ``workers`` evaluations stay in flight.  ``propose``
      is asked for one spec at a time, once per free worker and then once
      after each absorption, until ``num_iterations * batch_size`` specs were
      proposed; every ``batch_size`` absorptions make one iteration.

    Results are absorbed strictly in submission order, and each one's
    result-carried weight update is applied to ``weight_store`` just before
    it is absorbed.  Meanwhile the objective's own store writes are deferred
    (``defer_updates``), so a task sees exactly the updates absorbed before
    it was submitted, in a worker process or in the parent alike.  An
    exception from any hook or evaluation ends the loop; the executor's
    close still waits for the evaluations in flight.
    """
    weight_base, found_store = resolve_weight_context(objective)
    if weight_store is None:
        weight_store = found_store
    deferred = weight_base is not None and weight_store is not None
    if deferred:
        previous_defer = weight_base.defer_updates
        weight_base.defer_updates = True
    try:
        with AsyncEvaluationExecutor(objective, workers=max(workers, 1)) as executor:
            in_flight: Dict[int, ArchitectureSpec] = {}
            completed: Dict[int, CompletedEvaluation] = {}

            def submit(specs: Sequence[ArchitectureSpec]) -> None:
                for spec in specs:
                    in_flight[executor.submit(spec)] = spec

            def absorb_oldest(iteration: int) -> None:
                ticket = next(iter(in_flight))
                while ticket not in completed:
                    done = executor.next_completed()
                    completed[done.ticket] = done
                del in_flight[ticket]
                result = completed.pop(ticket).result
                with span("absorb", ticket=ticket, iteration=iteration):
                    if weight_store is not None and result.weight_update is not None:
                        result.weight_update.apply(weight_store)
                    absorb(result, iteration)

            def end_iteration(iteration: int) -> None:
                if on_iteration is not None:
                    on_iteration(iteration)

            def barrier(specs: Sequence[ArchitectureSpec], iteration: int) -> None:
                submit(specs)
                while in_flight:
                    absorb_oldest(iteration)
                end_iteration(iteration)

            if initial:
                barrier(initial, 0)
            if workers == 0:
                for iteration in range(1, num_iterations + 1):
                    specs = propose([], iteration)
                    if not specs:
                        break
                    barrier(specs, iteration)
                return
            budget = num_iterations * batch_size
            proposed = absorbed = 0
            while in_flight or proposed < budget:
                if proposed < budget and len(in_flight) < workers:
                    specs = propose(list(in_flight.values()), 1 + proposed // batch_size)
                    if specs:
                        submit(specs[:1])
                        proposed += 1
                    else:
                        budget = proposed
                    continue
                absorbed += 1
                absorb_oldest(1 + (absorbed - 1) // batch_size)
                if absorbed % batch_size == 0:
                    end_iteration(absorbed // batch_size)
            if absorbed % batch_size:
                end_iteration(1 + absorbed // batch_size)
    finally:
        if deferred:
            weight_base.defer_updates = previous_defer
