"""Thread-local structured spans with a disabled-by-default no-op fast path.

The span API is deliberately tiny::

    with span("evaluate", arch=fp) as sp:
        ...
        if sp:
            sp.set(cache_hit=False)

When tracing is disabled (the default), :func:`span` returns a shared
:class:`_NullSpan` singleton whose ``__enter__``/``__exit__``/``set`` are
no-ops and which is *falsy*, so callers can skip attribute computation with
``if sp:``.  The disabled path is one thread-local read plus one shared-object
return — benched in ``benchmarks/bench_substrate.py`` (``tracing_overhead``)
and gated under 2% of an SNN evaluation by ``tools/bench_gate.py``.

Timestamps are ``time.perf_counter()`` readings rebased onto the wall clock
once per process (``_EPOCH``), so spans from different processes on one host
sort on a common axis — which is what lets a worker process's spans stitch
under the parent's trace (see :func:`capture_context` /
:func:`remote_activation`).

Enablement is layered: :func:`configure` flips the process-global default;
:func:`tracing` installs *thread-local* overrides (enabled flag, per-op
profiling flag, destination recorder, trace id) so e.g. two server job
threads each record into their own flight recorder without seeing each
other's spans.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: rebases perf_counter readings onto the epoch, once per process: spans from
#: parent and worker processes land on one comparable wall-clock axis while
#: keeping perf_counter resolution
_EPOCH = time.time() - time.perf_counter()

#: process-wide id source; `next` on itertools.count is atomic under the GIL
_IDS = itertools.count(1)


def _now() -> float:
    """Epoch-anchored high-resolution timestamp (seconds)."""
    return _EPOCH + time.perf_counter()


def _new_id(prefix: str = "s") -> str:
    return f"{prefix}{os.getpid()}-{next(_IDS)}"


class _Config:
    """Process-global tracing defaults (thread-local overrides in ``_State``)."""

    __slots__ = ("enabled", "ops", "recorder")

    def __init__(self) -> None:
        self.enabled = False
        self.ops = False
        self.recorder = None


_CONFIG = _Config()


class _State(threading.local):
    """Per-thread span stack plus scoped overrides installed by :func:`tracing`."""

    def __init__(self) -> None:
        self.stack: List["Span"] = []
        self.enabled: Optional[bool] = None
        self.ops: Optional[bool] = None
        self.recorder = None
        self.trace_id: Optional[str] = None
        #: parent span id inherited from another process (see remote_activation)
        self.remote_parent: Optional[str] = None


_STATE = _State()


class _NullSpan:
    """Shared no-op span returned while tracing is disabled.  Falsy, so
    ``if sp: sp.set(...)`` skips attribute computation entirely."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __bool__(self) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """One timed, attributed region.  Use only via ``with span(...)``."""

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "start", "end", "cpu_ms", "attrs")

    def __init__(self, name: str, parent_id: Optional[str], trace_id: str) -> None:
        self.name = name
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start = 0.0
        self.end = 0.0
        #: the thread's CPU time from enter to exit, in ms (while the span is
        #: open: the thread's CPU clock at enter, in s)
        self.cpu_ms: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; later calls overwrite earlier keys."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)
        return self

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1e3

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "duration_ms": self.duration_ms,
            "cpu_ms": self.cpu_ms,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        _STATE.stack.append(self)
        self.cpu_ms = time.thread_time()
        self.start = _now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = _now()
        self.cpu_ms = (time.thread_time() - self.cpu_ms) * 1e3
        state = _STATE
        if state.stack and state.stack[-1] is self:
            state.stack.pop()
        else:  # unbalanced exit must never corrupt the ambient stack
            try:
                state.stack.remove(self)
            except ValueError:
                pass
        if exc_type is not None:
            self.set(error=exc_type.__name__)
        recorder = state.recorder if state.recorder is not None else _CONFIG.recorder
        if recorder is not None:
            recorder.record(self.to_dict())
        return False


def span(name: str, **attrs: Any):
    """Open a span named ``name`` (use as ``with span("evaluate") as sp:``).

    Returns the shared no-op span while tracing is disabled; otherwise a live
    :class:`Span` parented under the thread's innermost open span (or the
    remote parent installed by :func:`remote_activation` at the stack root).
    """
    state = _STATE
    enabled = state.enabled if state.enabled is not None else _CONFIG.enabled
    if not enabled:
        return _NULL_SPAN
    return _new_span(state, name, attrs)


def _new_span(state: _State, name: str, attrs: Dict[str, Any]) -> Span:
    """A live span parented under ``state``'s innermost open span (or its remote parent)."""
    if state.stack:
        top = state.stack[-1]
        parent_id: Optional[str] = top.span_id
        trace_id = top.trace_id
    else:
        parent_id = state.remote_parent
        if state.trace_id is None:
            state.trace_id = _new_id("t")
        trace_id = state.trace_id
    live = Span(name, parent_id, trace_id)
    if attrs:
        live.attrs = dict(attrs)
    return live


def record_span(name: str, start: float, end: float, cpu_ms: Optional[float] = None, **attrs: Any) -> None:
    """Record a region that finished before tracing began.

    ``start`` and ``end`` are ``time.perf_counter()`` readings and ``cpu_ms``
    the CPU time the caller measured over them (``None`` if it did not).  The
    span is parented as if it had been opened here, but it never enters the
    span stack.  Used for the process start-up, which ends before any tracing
    scope opens.  No-op while tracing is disabled.
    """
    if not is_enabled():
        return
    live = _new_span(_STATE, name, attrs)
    live.start, live.end, live.cpu_ms = _EPOCH + start, _EPOCH + end, cpu_ms
    recorder = active_recorder()
    if recorder is not None:
        recorder.record(live.to_dict())


def max_rss_mb() -> Optional[float]:
    """This process's peak resident set size so far, in MB (``None`` if unknown).

    The peak only ever grows, so the difference across a region is how far
    that region pushed it — zero when the region fit in memory the process
    had already used, and positive every time for a region that leaks.
    """
    try:
        import resource  # only traced runs ask, so untraced start-up never loads it
    except ImportError:  # pragma: no cover - no getrusage on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def ops_span(name: str, **attrs: Any):
    """A span gated on the per-op profiling flag *in addition to* tracing.

    Per-op substrate spans (conv2d / matmul / fused neuron step) fire once per
    operator call, so they are opt-in separately (``tracing(ops=True)``) to
    keep ordinary traces small.
    """
    state = _STATE
    ops = state.ops if state.ops is not None else _CONFIG.ops
    if not ops:
        return _NULL_SPAN
    return span(name, **attrs)  # repro-lint: disable=metrics-hygiene (forwarder: the caller's with statement manages the returned span)


def is_enabled() -> bool:
    """Is tracing active for the calling thread?"""
    state = _STATE
    return state.enabled if state.enabled is not None else _CONFIG.enabled


def ops_enabled() -> bool:
    """Is per-op substrate profiling active for the calling thread?"""
    if not is_enabled():
        return False
    state = _STATE
    return bool(state.ops if state.ops is not None else _CONFIG.ops)


def active_recorder():
    """The recorder finished spans currently flow to (``None`` when unset)."""
    state = _STATE
    return state.recorder if state.recorder is not None else _CONFIG.recorder


def configure(
    enabled: Optional[bool] = None,
    ops: Optional[bool] = None,
    recorder: Optional[object] = None,
) -> None:
    """Set process-global tracing defaults (``None`` leaves a field unchanged)."""
    if enabled is not None:
        _CONFIG.enabled = bool(enabled)
    if ops is not None:
        _CONFIG.ops = bool(ops)
    if recorder is not None:
        _CONFIG.recorder = recorder


@contextmanager
def tracing(
    enabled: bool = True,
    ops: Optional[bool] = None,
    recorder: Optional[object] = None,
    trace_id: Optional[str] = None,
) -> Iterator[Optional[object]]:
    """Scope tracing overrides to the calling thread.

    Yields the recorder spans flow to inside the block (``None`` when tracing
    without a destination).  Restores every override on exit, so scopes nest.
    """
    state = _STATE
    saved = (state.enabled, state.ops, state.recorder, state.trace_id)
    state.enabled = bool(enabled)
    if ops is not None:
        state.ops = bool(ops)
    if recorder is not None:
        state.recorder = recorder
    if trace_id is not None:
        state.trace_id = trace_id
    elif enabled and state.trace_id is None:
        state.trace_id = _new_id("t")
    try:
        yield state.recorder if state.recorder is not None else _CONFIG.recorder
    finally:
        state.enabled, state.ops, state.recorder, state.trace_id = saved


# ---------------------------------------------------------------------------
# cross-process propagation
# ---------------------------------------------------------------------------

def capture_context() -> Optional[Dict[str, Any]]:
    """Snapshot the calling thread's trace context as a picklable dict.

    Returns ``None`` while tracing is disabled — the submission paths use
    that to skip wrapping entirely.  The context rides on the payload handed
    to a worker process and is re-activated there by :func:`remote_activation`,
    so the worker's spans stitch under the span open here at capture time.
    """
    state = _STATE
    enabled = state.enabled if state.enabled is not None else _CONFIG.enabled
    if not enabled:
        return None
    if state.stack:
        parent_id: Optional[str] = state.stack[-1].span_id
        trace_id = state.stack[-1].trace_id
    else:
        parent_id = state.remote_parent
        if state.trace_id is None:
            state.trace_id = _new_id("t")
        trace_id = state.trace_id
    ops = state.ops if state.ops is not None else _CONFIG.ops
    return {"trace_id": trace_id, "parent_id": parent_id, "ops": bool(ops)}


@contextmanager
def remote_activation(context: Optional[Dict[str, Any]]) -> Iterator[List[Dict[str, Any]]]:
    """Activate a captured context in a worker and collect the spans it emits.

    Yields a list that holds every span finished inside the block (in
    completion order).  The caller ships that list back to the parent process
    on the result payload; the parent folds it into its own recorder with
    :func:`absorb`.  A ``None`` context yields an empty list and changes
    nothing — tracing stays off.
    """
    if context is None:
        yield []
        return
    from repro.trace.recorder import FlightRecorder  # deferred: recorder imports nothing back

    collector = FlightRecorder(capacity=65536)
    state = _STATE
    saved = (
        state.enabled,
        state.ops,
        state.recorder,
        state.trace_id,
        state.remote_parent,
    )
    state.enabled = True
    state.ops = bool(context.get("ops"))
    state.recorder = collector
    state.trace_id = context.get("trace_id")
    state.remote_parent = context.get("parent_id")
    collected: List[Dict[str, Any]] = []
    try:
        yield collected
    finally:
        (
            state.enabled,
            state.ops,
            state.recorder,
            state.trace_id,
            state.remote_parent,
        ) = saved
        collected.extend(collector.drain())


def absorb(spans: Optional[List[Dict[str, Any]]]) -> None:
    """Fold spans recorded elsewhere (a worker process) into the active recorder."""
    if not spans:
        return
    recorder = active_recorder()
    if recorder is not None:
        recorder.extend(spans)
