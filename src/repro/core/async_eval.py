"""The search's one evaluation worker pool: no straggler barriers.

Every parallel evaluation in the search runs here.  The batch path
(:meth:`~repro.core.bayes_opt.BayesianOptimizer._evaluate_batch`, through
:func:`evaluate_ordered`) submits one proposal batch and collects it in
submission order; the asynchronous engines keep the pool busy across the
whole search instead, so a single slow candidate (a straggler: larger model,
more skip connections, a cold cache) never idles the other workers:

* :class:`AsyncEvaluationExecutor` keeps a **persistent** pool of worker
  processes alive and exposes a submit/next-completed interface:
  evaluations are handed out one at a time and results are collected in
  *completion* order, so a free worker can start the next candidate while a
  straggler is still running;
* :class:`WeightUpdateSequencer` re-imposes determinism where it matters —
  result-carried :class:`~repro.core.weight_sharing.WeightUpdate` payloads are
  applied to the shared :class:`~repro.core.weight_sharing.WeightStore` in
  **submission** order regardless of completion order, so the store
  accumulates exactly the state a sequential run would produce whatever the
  worker count or scheduling jitter.

With ``workers <= 1``, an unpicklable objective, or a sandbox that cannot
create processes, submissions are queued and evaluated lazily in the parent
process — identical results, identical ordering guarantees, no subprocess
machinery.  Fallback happens only for these *infrastructure* problems,
established before any work runs; an exception raised by the objective
always propagates.

The worker start method defaults to ``fork`` where available (cheapest,
shares the parent's loaded datasets) and can be forced with the
``REPRO_MP_START_METHOD`` environment variable (``fork``/``spawn``/
``forkserver``) — CI uses ``spawn`` to prove the workload survives a fresh
interpreter.  Every worker runs
:func:`~repro.tensor.blas.use_one_blas_thread` as its pool initializer, so
whatever the start method each worker runs BLAS on one thread: the
parallelism is across processes.

Evaluation workers were made stateless in the result-carried-update refactor
(objectives defer local store mutation, trained state rides back on the
result), which is precisely what lets one long-lived pool serve the whole
search: a worker needs nothing from the parent but the pickled objective and
a spec, and leaks nothing back but the result.

The executor is not tied to one-shot batch runs: the HTTP serving layer
(:mod:`repro.server`) runs searches under it as background jobs, and its
graceful shutdown relies on :meth:`AsyncEvaluationExecutor.cancel_pending`
plus the waiting :meth:`AsyncEvaluationExecutor.close` to drain in-flight
evaluations without losing any completed result.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.cache import merge_store_counters, store_counters
from repro.core.objectives import EvaluationResult
from repro.core.search_space import ArchitectureSpec
from repro.core.weight_sharing import WeightStore, WeightUpdate
from repro.tensor.blas import use_one_blas_thread
from repro.trace import absorb, capture_context, remote_activation

#: environment variable forcing the multiprocessing start method
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def start_method() -> str:
    """The configured multiprocessing start method."""
    method = os.environ.get(START_METHOD_ENV)
    if method:
        return method
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def get_mp_context():
    """The multiprocessing context for the configured start method.

    An invalid ``REPRO_MP_START_METHOD`` raises here rather than degrading
    silently — a misconfigured run must not masquerade as a parallel one.
    """
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
        # local import: the fused kernel module reaches the model zoo, which
        # this core module must not pull in at import time
        from repro.snn.fused_step import aggregate_fused_counters

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
    from repro.snn.fused_step import merge_fused_counters

    telemetry = result.telemetry
    if not telemetry:
        return
    absorb(telemetry.get("spans") or [])
    counters = telemetry.get("counters") or {}
    merge_fused_counters(counters.get("fused") or {})
    merge_store_counters(counters.get("store") or {})
    result.telemetry = None


class WeightUpdateSequencer:
    """Apply result-carried weight updates in submission order.

    ``WeightUpdate.apply`` is order-sensitive: the store's primary state is
    replaced by the best-scoring update *seen so far*, and later updates only
    merge their missing tensors — so applying updates in completion order
    would make the shared store depend on scheduling.  The sequencer buffers
    out-of-order completions and releases each update only once every earlier
    ticket has been applied, making the store's final state a pure function of
    the submission sequence (and therefore identical to a sequential run over
    the same specs).
    """

    def __init__(self, store: Optional[WeightStore]) -> None:
        self.store = store
        self.applied = 0
        self._next = 0
        self._pending: Dict[int, Optional[WeightUpdate]] = {}

    def add(self, ticket: int, update: Optional[WeightUpdate]) -> None:
        """Record ``ticket``'s update; apply every update that is now in order."""
        if ticket < self._next or ticket in self._pending:
            raise ValueError(f"ticket {ticket} already sequenced")
        self._pending[ticket] = update
        while self._next in self._pending:
            ready = self._pending.pop(self._next)
            if ready is not None and self.store is not None:
                ready.apply(self.store)
                self.applied += 1
            self._next += 1

    @property
    def pending(self) -> int:
        """Completed updates still waiting on an earlier ticket."""
        return len(self._pending)


class AsyncEvaluationExecutor:
    """Persistent worker pool with submit / next-completed semantics.

    Parameters
    ----------
    objective:
        Callable evaluating one :class:`ArchitectureSpec`.  It is pickled per
        task inside :meth:`submit`, so workers always see the objective state
        as of the submission.
    workers:
        Worker processes.  ``<= 1`` selects the serial mode: submissions are
        queued and evaluated on demand in the parent process, preserving the
        submit/next-completed interface with zero subprocess overhead.

    Use as a context manager (or call :meth:`close`) so the pool is shut down
    deterministically::

        with AsyncEvaluationExecutor(objective, workers=4) as executor:
            tickets = [executor.submit(spec) for spec in specs]
            while executor.in_flight:
                done = executor.next_completed()

    Exceptions raised by the objective propagate from :meth:`next_completed`
    with any worker count: a failing evaluation must not be silently retried
    or dropped.
    """

    def __init__(
        self,
        objective: Callable[[ArchitectureSpec], EvaluationResult],
        workers: int = 1,
    ) -> None:
        self.objective = objective
        self.workers = int(workers)
        self._tickets = 0
        self._pending_serial: List[tuple] = []
        self._futures: Dict[int, concurrent.futures.Future] = {}
        self._specs: Dict[int, ArchitectureSpec] = {}
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        if self.workers > 1 and func_is_picklable(objective):
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
        return len(self._futures) + len(self._pending_serial)

    def submit(self, spec: ArchitectureSpec) -> int:
        """Queue one evaluation; returns its submission ticket."""
        ticket = self._tickets
        self._tickets += 1
        if self._pool is not None:
            task = _TelemetryCall(self.objective, capture_context())
            self._futures[ticket] = self._pool.submit(task, spec)
            self._specs[ticket] = spec
        else:
            self._pending_serial.append((ticket, spec))
        return ticket

    def next_completed(self) -> CompletedEvaluation:
        """Block until any submitted evaluation finishes and return it.

        In parallel mode, results surface in completion order (ties broken by
        ticket so the choice is deterministic when several are already done);
        in serial mode, the oldest queued submission is evaluated now, so
        completion order equals submission order.
        """
        if self._pool is None:
            if not self._pending_serial:
                raise RuntimeError("no evaluations in flight")
            ticket, spec = self._pending_serial.pop(0)
            return CompletedEvaluation(ticket=ticket, spec=spec, result=self.objective(spec))
        if not self._futures:
            raise RuntimeError("no evaluations in flight")
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

    def cancel_pending(self) -> int:
        """Cancel every submission that has not started running yet.

        The graceful-shutdown hook for long-running hosts (``repro serve``):
        queued work is dropped, but evaluations already executing are left to
        finish — their results (and the store rows the cached objective wrote
        for them) are never lost, so after a subsequent :meth:`close` the
        persistent store holds exactly the set of completed evaluations.
        Returns the number of submissions cancelled; their tickets will never
        surface from :meth:`next_completed`.
        """
        cancelled = len(self._pending_serial)
        self._pending_serial.clear()
        for ticket, future in list(self._futures.items()):
            if future.cancel():
                del self._futures[ticket]
                self._specs.pop(ticket, None)
                cancelled += 1
        return cancelled

    def close(self, cancel_pending: bool = False) -> None:
        """Shut the worker pool down, waiting for running tasks to finish.

        With ``cancel_pending`` set, queued-but-not-started submissions are
        dropped first (see :meth:`cancel_pending`), so the shutdown drains
        only the evaluations actually in progress.
        """
        if cancel_pending:
            self.cancel_pending()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "AsyncEvaluationExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def evaluate_ordered(
    objective: Callable[[ArchitectureSpec], EvaluationResult],
    specs: Sequence[ArchitectureSpec],
    workers: int = 1,
    weight_store: Optional[WeightStore] = None,
) -> List[EvaluationResult]:
    """Evaluate ``specs`` concurrently; return results in submission order.

    The barrier-shaped entry point to the pool, behind the batch search path:
    results come back as a list aligned with ``specs``, and any result-carried
    weight updates are applied to ``weight_store`` in submission order once
    the whole batch has returned.  No candidate therefore sees another's
    update, in the pool and in the lazy serial mode alike, so the results do
    not depend on ``workers``.  A batch of one spec starts no pool.
    """
    ordered: List[Optional[EvaluationResult]] = [None] * len(specs)
    with AsyncEvaluationExecutor(objective, workers=min(workers, len(specs))) as executor:
        for spec in specs:
            executor.submit(spec)
        for done in executor.drain():
            ordered[done.ticket] = done.result
    if weight_store is not None:
        for result in ordered:
            if result.weight_update is not None:
                result.weight_update.apply(weight_store)
    return list(ordered)  # type: ignore[arg-type]
