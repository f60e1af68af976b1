"""Zero-dependency structured tracing: spans, flight recorder, exports.

Three layers (see ``docs/observability.md`` for the operator guide):

* :mod:`repro.trace.spans` — the ``with span("evaluate"): ...`` API with a
  thread-local stack, a falsy no-op fast path while tracing is disabled, and
  picklable trace-context propagation into worker processes;
* :mod:`repro.trace.recorder` — the bounded in-memory ring + optional JSONL
  flight-recorder sink finished spans flow to;
* :mod:`repro.trace.export` — trace summaries (per-phase breakdown, critical
  path, slowest evaluations) and Chrome trace-event JSON, consumed by the
  ``repro trace`` CLI and ``GET /jobs/<id>/trace``.
"""

from repro.trace.export import (
    chrome_trace,
    critical_path,
    format_summary,
    load_trace,
    summarize,
)
from repro.trace.recorder import FlightRecorder
from repro.trace.spans import (
    Span,
    absorb,
    active_recorder,
    capture_context,
    configure,
    is_enabled,
    max_rss_mb,
    ops_enabled,
    ops_span,
    record_span,
    remote_activation,
    span,
    tracing,
)

__all__ = [
    "FlightRecorder",
    "Span",
    "absorb",
    "active_recorder",
    "capture_context",
    "chrome_trace",
    "configure",
    "critical_path",
    "format_summary",
    "is_enabled",
    "load_trace",
    "max_rss_mb",
    "ops_enabled",
    "ops_span",
    "record_span",
    "remote_activation",
    "span",
    "summarize",
    "tracing",
]
