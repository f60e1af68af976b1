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

from repro._lazy import lazy_exports

# each name's module is imported on first access (PEP 562, see repro._lazy)
_LAZY_EXPORTS = {
    "chrome_trace": "repro.trace.export",
    "critical_path": "repro.trace.export",
    "format_summary": "repro.trace.export",
    "load_trace": "repro.trace.export",
    "summarize": "repro.trace.export",
    "FlightRecorder": "repro.trace.recorder",
    "Span": "repro.trace.spans",
    "absorb": "repro.trace.spans",
    "active_recorder": "repro.trace.spans",
    "capture_context": "repro.trace.spans",
    "configure": "repro.trace.spans",
    "is_enabled": "repro.trace.spans",
    "max_rss_mb": "repro.trace.spans",
    "ops_enabled": "repro.trace.spans",
    "ops_span": "repro.trace.spans",
    "record_span": "repro.trace.spans",
    "remote_activation": "repro.trace.spans",
    "span": "repro.trace.spans",
    "tracing": "repro.trace.spans",
}
__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
