"""Trace analysis and export: summaries, critical path, Chrome trace events.

Consumes the span dicts the flight recorder stores (JSONL file or in-memory
snapshot) and produces:

* :func:`summarize` — per-phase (span-name) time breakdown with self-time,
  the critical path through the longest root span, and the slowest
  ``evaluate`` spans — what ``repro trace`` prints;
* :func:`chrome_trace` — Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto ``X`` complete events), one track per (pid, thread).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read spans from a flight-recorder JSONL file (or a JSON array/object).

    Accepts the three shapes this repo produces: JSONL (one span per line),
    a JSON array of spans, or a JSON object with a ``"spans"`` key (the
    ``GET /jobs/<id>/trace`` response saved to disk).
    """
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        return []
    if text[0] in "[{":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, list):
            return payload
        if isinstance(payload, dict) and isinstance(payload.get("spans"), list):
            return payload["spans"]
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(json.loads(line))
    return spans


def _duration_ms(span: Dict[str, Any]) -> float:
    if "duration_ms" in span:
        return float(span["duration_ms"])
    return (float(span.get("end", 0.0)) - float(span.get("start", 0.0))) * 1e3


def _children_index(spans: Sequence[Dict[str, Any]]) -> Dict[Optional[str], List[Dict[str, Any]]]:
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    ids = {span.get("span_id") for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in ids:
            parent = None  # roots: no parent, or parent outside this capture
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda item: float(item.get("start", 0.0)))
    return children


def critical_path(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The chain of spans dominating wall-clock time.

    Starting from the longest root, repeatedly descend into the longest
    child; each step reports the span and how much of its parent it covers.
    """
    if not spans:
        return []
    children = _children_index(spans)
    roots = children.get(None, [])
    if not roots:
        return []
    node = max(roots, key=_duration_ms)
    path = []
    while node is not None:
        path.append(
            {
                "name": node.get("name", "?"),
                "span_id": node.get("span_id"),
                "duration_ms": _duration_ms(node),
                "pid": node.get("pid"),
            }
        )
        kids = children.get(node.get("span_id"), [])
        node = max(kids, key=_duration_ms) if kids else None
    return path


def summarize(spans: Sequence[Dict[str, Any]], top: int = 5) -> Dict[str, Any]:
    """Aggregate a span list into the ``repro trace`` report payload."""
    children = _children_index(spans)
    phases: Dict[str, Dict[str, float]] = {}
    for span in spans:
        total = _duration_ms(span)
        child_total = sum(_duration_ms(c) for c in children.get(span.get("span_id"), []))
        row = phases.setdefault(
            span.get("name", "?"), {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "max_ms": 0.0}
        )
        row["count"] += 1
        row["total_ms"] += total
        row["self_ms"] += max(total - child_total, 0.0)
        row["max_ms"] = max(row["max_ms"], total)
    phase_rows = [
        {"name": name, **{k: (v if k == "count" else float(v)) for k, v in row.items()}}
        for name, row in phases.items()
    ]
    phase_rows.sort(key=lambda row: row["self_ms"], reverse=True)

    evaluations = [span for span in spans if span.get("name") == "evaluate"]
    rss_growth: Dict[int, Dict[str, float]] = {}
    for span in evaluations:
        delta = span.get("attrs", {}).get("maxrss_delta_mb")
        if delta is None:
            continue
        row = rss_growth.setdefault(
            int(span.get("pid", 0)), {"evaluations": 0, "raised": 0, "total_mb": 0.0}
        )
        row["evaluations"] += 1
        row["raised"] += int(delta > 0)
        row["total_mb"] += float(delta)
    evaluations.sort(key=_duration_ms, reverse=True)
    slowest = [
        {
            "duration_ms": _duration_ms(span),
            "pid": span.get("pid"),
            "attrs": dict(span.get("attrs", {})),
            "children": len(children.get(span.get("span_id"), [])),
        }
        for span in evaluations[:top]
    ]

    roots = children.get(None, [])
    wall_ms = 0.0
    if spans:
        start = min(float(s.get("start", 0.0)) for s in spans)
        end = max(float(s.get("end", 0.0)) for s in spans)
        wall_ms = (end - start) * 1e3
    return {
        "span_count": len(spans),
        "trace_ids": sorted({s.get("trace_id") for s in spans if s.get("trace_id")}),
        "processes": sorted({int(s.get("pid", 0)) for s in spans}),
        "wall_ms": wall_ms,
        "root_count": len(roots),
        "phases": phase_rows,
        "critical_path": critical_path(spans),
        "slowest_evaluations": slowest,
        "evaluation_count": len(evaluations),
        "rss_growth": [{"pid": pid, **row} for pid, row in sorted(rss_growth.items())],
    }


def format_summary(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`summarize` payload."""
    lines = [
        f"{summary['span_count']} spans, {summary['evaluation_count']} evaluations, "
        f"{len(summary['processes'])} process(es), {summary['wall_ms']:.1f} ms wall"
    ]
    lines.append("")
    lines.append("Per-phase breakdown (self time = phase minus child spans)")
    lines.append(f"{'phase':<28} {'count':>6} {'total ms':>10} {'self ms':>10} {'max ms':>9}")
    for row in summary["phases"]:
        lines.append(
            f"{row['name']:<28} {row['count']:>6d} {row['total_ms']:>10.2f} "
            f"{row['self_ms']:>10.2f} {row['max_ms']:>9.2f}"
        )
    if summary["critical_path"]:
        lines.append("")
        lines.append("Critical path (longest root, descending into the longest child)")
        for depth, step in enumerate(summary["critical_path"]):
            lines.append(f"  {'  ' * depth}{step['name']}  {step['duration_ms']:.2f} ms  (pid {step['pid']})")
    if summary.get("rss_growth"):
        lines.append("")
        lines.append("Peak-RSS growth inside evaluations (a leak raises it every time)")
        for row in summary["rss_growth"]:
            lines.append(
                f"  pid {row['pid']}: +{row['total_mb']:.1f} MB, raised by "
                f"{row['raised']} of {row['evaluations']} evaluations"
            )
    if summary["slowest_evaluations"]:
        lines.append("")
        lines.append("Slowest evaluations")
        for row in summary["slowest_evaluations"]:
            attrs = row["attrs"]
            label = attrs.get("arch", attrs.get("ticket", "?"))
            lines.append(
                f"  {row['duration_ms']:>9.2f} ms  pid {row['pid']}  "
                f"children {row['children']}  {label}"
            )
    return "\n".join(lines)


def chrome_trace(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert spans to Chrome trace-event JSON (complete ``X`` events).

    Timestamps are rebased to the earliest span so the viewer opens at t=0;
    each (pid, thread) pair gets its own track.  Load the result in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(float(span.get("start", 0.0)) for span in spans)
    threads: Dict[Any, int] = {}
    events = []
    for span in spans:
        pid = int(span.get("pid", 0))
        key = (pid, span.get("thread", "main"))
        tid = threads.setdefault(key, len(threads) + 1)
        args = {k: v for k, v in dict(span.get("attrs", {})).items()}
        args["span_id"] = span.get("span_id")
        if span.get("parent_id"):
            args["parent_id"] = span.get("parent_id")
        events.append(
            {
                "name": span.get("name", "?"),
                "ph": "X",
                "ts": (float(span.get("start", 0.0)) - base) * 1e6,
                "dur": max(
                    (float(span.get("end", 0.0)) - float(span.get("start", 0.0))) * 1e6, 0.0
                ),
                "pid": pid,
                "tid": tid,
                "cat": span.get("trace_id", "trace"),
                "args": args,
            }
        )
    events.sort(key=lambda event: event["ts"])
    for (pid, thread), tid in sorted(threads.items(), key=lambda item: item[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": str(thread)},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
