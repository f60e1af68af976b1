"""Bounded flight-recorder sink for finished spans.

A :class:`FlightRecorder` keeps the most recent ``capacity`` spans in an
in-memory ring (oldest dropped first, with a dropped-span counter so
truncation is never silent) and can mirror every span to a JSONL file —
one JSON object per line, the same schema :meth:`Span.to_dict` produces —
conventionally written next to the evaluation store
(``<cache_dir>/traces/<job>.jsonl`` for server jobs, the ``--trace`` path
for CLI runs).  ``repro trace`` and ``GET /jobs/<id>/trace`` both read this
format.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union


def _json_default(value: Any) -> Any:
    """Make numpy scalars/arrays and other strays JSONL-serialisable."""
    for attr in ("item",):  # numpy scalars and 0-d arrays
        method = getattr(value, attr, None)
        if callable(method):
            try:
                return method()
            except (TypeError, ValueError):
                break
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


class FlightRecorder:
    """In-memory span ring with an optional JSONL mirror.

    Thread-safe: spans arrive from the traced thread, from worker-result
    absorption, and are snapshotted by HTTP handlers concurrently.
    """

    def __init__(
        self,
        capacity: int = 4096,
        jsonl_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        self._capacity = capacity
        self._dropped = 0
        self._path = Path(jsonl_path) if jsonl_path is not None else None
        self._file = None
        self._opened = False

    # ------------------------------------------------------------------
    def record(self, span: Dict[str, Any]) -> None:
        """Append one finished span (dict form)."""
        with self._lock:
            if len(self._ring) == self._capacity:
                self._dropped += 1
            self._ring.append(span)
            if self._path is not None:
                if self._file is None:
                    self._path.parent.mkdir(parents=True, exist_ok=True)
                    # the first open truncates, so a file left by an earlier run
                    # never mixes into this one; a reopen after close() appends
                    self._file = open(self._path, "a" if self._opened else "w", encoding="utf-8")
                    self._opened = True
                self._file.write(json.dumps(span, default=_json_default) + "\n")
                self._file.flush()

    def extend(self, spans: Iterable[Dict[str, Any]]) -> None:
        """Append many finished spans (e.g. a worker process's collected list)."""
        for span in spans:
            self.record(span)

    # ------------------------------------------------------------------
    def spans(self) -> List[Dict[str, Any]]:
        """Snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def drain(self) -> List[Dict[str, Any]]:
        """Snapshot and clear the ring (dropped counter is kept)."""
        with self._lock:
            out = list(self._ring)
            self._ring.clear()
            return out

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring because it was full."""
        with self._lock:
            return self._dropped

    @property
    def jsonl_path(self) -> Optional[Path]:
        return self._path

    def close(self) -> None:
        """Close the JSONL mirror (the ring stays readable; a later span reopens it to append)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
