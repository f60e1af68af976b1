"""Background search jobs for the serving layer.

``POST /jobs`` turns a search request into a :class:`Job`: a daemon thread
driving the existing engine — :func:`~repro.experiments.pareto_front.run_pareto_front`
for multi-objective requests, a scalar
:class:`~repro.core.bayes_opt.BayesianOptimizer` run for single-objective
(accuracy) requests — with the async executor and the persistent evaluation
store underneath, against the server's shared cache directory.  Each absorbed
evaluation is appended to the job's event log (sequence-numbered, so
``GET /jobs/<id>/events`` can stream and resume), and terminal states are
broadcast through the same log.

Cooperative shutdown: every job carries a stop event polled by the engine's
``should_stop`` hook at each absorption boundary.  :meth:`JobManager.shutdown`
sets all of them and joins the threads — in-flight evaluations are drained by
the executor (their rows were already appended by the evaluating process), a
partial result is recorded, and the job ends in state ``stopped``.
"""

from __future__ import annotations

import threading
import time
import traceback
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.bayes_opt import BayesianOptimizer
from repro.trace import FlightRecorder, tracing
from repro.core.multi_objective import get_objective_spec
from repro.data import available_datasets
from repro.experiments.config import get_scale
from repro.experiments.io import pareto_to_dict
from repro.experiments.pareto_front import SearchStopped, build_search, load_problem, run_pareto_front
from repro.models import available_models

#: job states; the last three are terminal
QUEUED, RUNNING, COMPLETED, FAILED, STOPPED = (
    "queued",
    "running",
    "completed",
    "failed",
    "stopped",
)
TERMINAL_STATES = frozenset({COMPLETED, FAILED, STOPPED})

#: events kept per job; older ones are dropped (and counted) so a very long
#: search cannot grow server memory without bound
MAX_EVENTS_PER_JOB = 10_000

#: spans kept in a job's flight-recorder ring; older spans fall off the ring
#: (still mirrored to the trace JSONL next to the evaluation store) so a very
#: long search cannot grow server memory without bound
MAX_TRACE_SPANS_PER_JOB = 16_384


class JobValidationError(ValueError):
    """A job request that cannot be turned into a search (HTTP 400)."""


class Job:
    """One background search: parameters, state machine and event log."""

    def __init__(self, job_id: str, kind: str, params: Dict[str, object]) -> None:
        self.id = job_id
        self.kind = kind
        self.params = params
        self.state = QUEUED
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        self.result: Optional[Dict[str, object]] = None
        self.evals_completed = 0
        self.evals_total = int(params["iterations"])
        self.workers = int(params["async_workers"])
        self.stop_event = threading.Event()
        self.events: List[Dict[str, object]] = []
        self.events_dropped = 0
        #: per-job flight recorder; attached by the manager when the job runs
        self.recorder: Optional[FlightRecorder] = None
        self._next_seq = 0
        self._condition = threading.Condition()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        # the Condition's RLock is re-entrant, so callers already holding it
        # (events_since, to_dict) can use this property safely
        with self._condition:
            return self.state in TERMINAL_STATES

    @property
    def evals_in_flight(self) -> int:
        """Evaluations currently executing (derived from completion accounting).

        The engine keeps up to ``async_workers`` (at least one) evaluations
        running until the budget is spent, so the in-flight count is the
        remaining budget clamped by the worker count while the job runs.
        """
        with self._condition:
            if self.state != RUNNING:
                return 0
            remaining = max(self.evals_total - self.evals_completed, 0)
        return min(max(self.workers, 1), remaining)

    def note_evaluation(self) -> None:
        """Count one completed evaluation (called from the job thread)."""
        with self._condition:
            self.evals_completed += 1

    def request_stop(self) -> None:
        self.stop_event.set()
        with self._condition:
            self._condition.notify_all()

    # ------------------------------------------------------------------
    def emit(self, event: Dict[str, object]) -> None:
        """Append one sequence-numbered event and wake streaming readers."""
        with self._condition:
            event = {"seq": self._next_seq, "time": time.time(), **event}
            self._next_seq += 1
            self.events.append(event)
            if len(self.events) > MAX_EVENTS_PER_JOB:
                self.events.pop(0)
                self.events_dropped += 1
            self._condition.notify_all()

    def set_state(self, state: str, error: Optional[str] = None) -> None:
        with self._condition:
            self.state = state
            if state == RUNNING:
                self.started_at = time.time()
            if state in TERMINAL_STATES:
                self.finished_at = time.time()
            self.error = error
        event: Dict[str, object] = {"type": "state", "state": state}
        if error is not None:
            event["error"] = error
        self.emit(event)

    def events_since(
        self, since: int, wait: bool = False, timeout: float = 0.5
    ) -> Tuple[List[Dict[str, object]], bool]:
        """Events with ``seq >= since`` plus whether the job is terminal.

        With ``wait`` set and nothing new buffered, blocks up to ``timeout``
        seconds for the next event — the building block of the streaming
        endpoint's poll loop.
        """
        with self._condition:
            def pending() -> List[Dict[str, object]]:
                return [event for event in self.events if event["seq"] >= since]

            events = pending()
            if not events and wait and not self.terminal:
                self._condition.wait(timeout)
                events = pending()
            return events, self.terminal

    # ------------------------------------------------------------------
    def to_dict(self, include_result: bool = True) -> Dict[str, object]:
        # a consistent snapshot: request threads serialise jobs while the job
        # thread mutates them, so read every guarded field under the lock
        with self._condition:
            payload: Dict[str, object] = {
                "id": self.id,
                "kind": self.kind,
                "state": self.state,
                "params": dict(self.params),
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "evals_completed": self.evals_completed,
                "evals_total": self.evals_total,
                "evals_in_flight": self.evals_in_flight,
                "num_events": self._next_seq,
                "events_dropped": self.events_dropped,
                "error": self.error,
            }
            if include_result:
                payload["result"] = self.result
        return payload


def _normalise_objectives(raw) -> List[str]:
    if raw is None:
        return ["accuracy", "energy"]
    if isinstance(raw, str):
        names = [name.strip() for name in raw.split(",") if name.strip()]
    elif isinstance(raw, (list, tuple)):
        names = [str(name).strip() for name in raw if str(name).strip()]
    else:
        raise JobValidationError(f"objectives must be a list or comma-separated string, got {raw!r}")
    if not names:
        raise JobValidationError("objectives must name at least one objective")
    for name in names:
        try:
            get_objective_spec(name)
        except KeyError as error:
            raise JobValidationError(str(error)) from error
    return names


class JobManager:
    """Creates, tracks and cooperatively shuts down background search jobs."""

    def __init__(
        self,
        cache_dir,
        default_scale: Optional[str] = None,
        default_async_workers: int = 0,
        registry=None,
    ) -> None:
        self.cache_dir = str(cache_dir)
        self.default_scale = default_scale
        self.default_async_workers = int(default_async_workers)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._shutting_down = False
        self._evals_counter = (
            registry.counter(
                "repro_evaluations_completed_total",
                "Search evaluations absorbed by background jobs",
            )
            if registry is not None
            else None
        )

    # ------------------------------------------------------------------
    def validate(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Normalise and validate a job request; raises :class:`JobValidationError`."""
        if not isinstance(payload, dict):
            raise JobValidationError("job request body must be a JSON object")
        dataset = str(payload.get("dataset", "cifar10-dvs"))
        if dataset not in available_datasets():
            raise JobValidationError(
                f"unknown dataset {dataset!r}; available: {available_datasets()}"
            )
        model = str(payload.get("model", "resnet18"))
        if model not in available_models():
            raise JobValidationError(f"unknown model {model!r}; available: {available_models()}")
        objectives = _normalise_objectives(payload.get("objectives"))
        if len(objectives) == 1 and objectives[0] != "accuracy":
            raise JobValidationError(
                "single-objective jobs optimise accuracy; request two or more "
                "objectives (e.g. ['accuracy', 'energy']) to trade off others"
            )
        scale_name = payload.get("scale", self.default_scale)
        try:
            scale = get_scale(scale_name if scale_name is None else str(scale_name))
        except KeyError as error:
            raise JobValidationError(str(error)) from error
        iterations = payload.get("iterations")
        iterations = int(iterations) if iterations is not None else scale.search_iterations
        if iterations < 1:
            raise JobValidationError("iterations must be >= 1")
        energy_budget = payload.get("energy_budget")
        return {
            "dataset": dataset,
            "model": model,
            "objectives": objectives,
            "scale": scale.name,
            "iterations": iterations,
            "seed": int(payload.get("seed", 0)),
            "async_workers": int(payload.get("async_workers", self.default_async_workers)),
            "energy_budget": float(energy_budget) if energy_budget is not None else None,
        }

    def submit(self, payload: Dict[str, object]) -> Job:
        params = self.validate(payload)
        with self._lock:
            if self._shutting_down:
                raise JobValidationError("server is shutting down; not accepting jobs")
            kind = "pareto" if len(params["objectives"]) >= 2 else "search"
            job = Job(f"job-{uuid.uuid4().hex[:8]}", kind, params)
            self._jobs[job.id] = job
        thread = threading.Thread(target=self._run, args=(job,), daemon=True, name=job.id)
        job._thread = thread
        thread.start()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.created_at)

    # ------------------------------------------------------------------
    def running_count(self) -> int:
        return sum(1 for job in self.jobs() if job.state == RUNNING)

    def evals_in_flight(self) -> int:
        return sum(job.evals_in_flight for job in self.jobs())

    def worker_occupancy(self) -> float:
        """Fraction of the running jobs' worker capacity currently busy.

        Capacity counts at least one evaluation slot per running job (serial
        jobs evaluate in the job thread); ``0.0`` with nothing running.
        """
        capacity = in_flight = 0
        for job in self.jobs():
            if job.state == RUNNING:
                capacity += max(job.workers, 1)
                in_flight += job.evals_in_flight
        return in_flight / capacity if capacity else 0.0

    def events_dropped_total(self) -> int:
        """Events dropped from bounded per-job logs, summed over all jobs."""
        total = 0
        for job in self.jobs():
            with job._condition:
                total += job.events_dropped
        return total

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in (QUEUED, RUNNING, COMPLETED, FAILED, STOPPED)}
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    # ------------------------------------------------------------------
    def _progress(self, job: Job, event: Dict[str, object]) -> None:
        job.note_evaluation()
        if self._evals_counter is not None:
            self._evals_counter.inc()
        job.emit(event)

    def _run(self, job: Job) -> None:
        job.set_state(RUNNING)
        # every job is traced into its own bounded flight recorder (thread-local
        # scope: concurrent jobs never see each other's spans), mirrored to a
        # JSONL file next to the evaluation store for post-mortem inspection
        job.recorder = FlightRecorder(
            capacity=MAX_TRACE_SPANS_PER_JOB,
            jsonl_path=Path(self.cache_dir) / "traces" / f"{job.id}.jsonl",
        )
        try:
            with tracing(recorder=job.recorder, trace_id=f"t-{job.id}"):
                if job.kind == "pareto":
                    stopped, result = self._run_pareto(job)
                else:
                    stopped, result = self._run_single_objective(job)
            job.result = result
            job.set_state(STOPPED if stopped else COMPLETED)
        except Exception as error:  # a failing search must not kill the server
            # preserve the full failure, not just str(exc): the traceback is
            # only reachable here, and a FAILED job with a one-line error is
            # undebuggable from the API
            job.emit({"type": "traceback", "traceback": traceback.format_exc()})
            job.set_state(FAILED, error=f"{type(error).__name__}: {error}")
        finally:
            job.recorder.close()  # ring stays readable by /jobs/<id>/trace

    def _run_pareto(self, job: Job) -> Tuple[bool, Dict[str, object]]:
        params = job.params
        result = run_pareto_front(
            scale=get_scale(params["scale"]),
            dataset=params["dataset"],
            model=params["model"],
            objectives=params["objectives"],
            energy_budget=params["energy_budget"],
            iterations=params["iterations"],
            seed=params["seed"],
            cache_dir=self.cache_dir,
            async_workers=params["async_workers"],
            progress=lambda event: self._progress(job, event),
            should_stop=job.stop_event.is_set,
        )
        return result.stopped, pareto_to_dict(result)

    def _run_single_objective(self, job: Job) -> Tuple[bool, Dict[str, object]]:
        """Scalar accuracy search, wired by the same constructor as the pareto harness."""
        params = job.params
        scale = get_scale(params["scale"])
        seed = params["seed"]
        splits, template = problem = load_problem(scale, params["dataset"], params["model"])
        # the search optimises accuracy; its rows also carry energy, so that
        # GET /pareto and /recommend can answer from them
        search = build_search(
            scale,
            problem,
            seed,
            ["accuracy", "energy"],
            weight_sharing=True,
            evaluations=params["iterations"],
            cache_dir=self.cache_dir,
            store_name=["search", splits.name, template.name],
        )
        optimizer = BayesianOptimizer(
            template.search_space(),
            search.objective,
            initial_points=search.initial_points,
            batch_size=1,
            candidate_pool_size=48,
            async_workers=params["async_workers"],
            rng=seed,
        )
        absorbed = 0

        def callback(iteration, history) -> None:
            nonlocal absorbed
            for record in history.records[absorbed:]:
                absorbed += 1
                self._progress(
                    job,
                    {
                        "type": "evaluation",
                        "iteration": int(iteration),
                        "completed": absorbed,
                        "encoding": [int(v) for v in record.spec.encode()],
                        "objective_value": float(record.objective_value),
                        "accuracy": float(record.accuracy),
                        "incumbent": float(history.best().objective_value),
                    },
                )
            if job.stop_event.is_set():
                raise SearchStopped

        stopped = False
        try:
            optimizer.optimize(search.iterations, callback=callback)
        except SearchStopped:
            stopped = True
        history = optimizer.history
        best = history.best() if len(history) else None
        result: Dict[str, object] = {
            "objective": "accuracy",
            "num_evaluations": len(history),
            "fresh_evaluations": search.fresh_evaluations(len(history)),
            "incumbent_curve": [float(v) for v in history.incumbent_values()],
        }
        if best is not None:
            result["best"] = {
                "encoding": [int(v) for v in best.spec.encode()],
                "objective_value": float(best.objective_value),
                "accuracy": float(best.accuracy),
                "metrics": {str(k): float(v) for k, v in best.metrics.items()},
            }
        return stopped, result

    # ------------------------------------------------------------------
    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Stop accepting jobs, request every running job to stop, join threads.

        Jobs observe the stop request at their next absorption boundary,
        drain in-flight evaluations through the executor's waiting close and
        record a partial result; no completed evaluation's store row is lost.
        ``timeout`` bounds the join per job (None waits indefinitely).
        """
        with self._lock:
            self._shutting_down = True
            jobs = list(self._jobs.values())
        for job in jobs:
            job.request_stop()
        for job in jobs:
            thread = job._thread
            if thread is not None and thread.is_alive():
                thread.join(timeout)
