"""Read view over every evaluation store in one cache directory.

``repro serve`` answers ``/pareto`` and ``/recommend`` from the evaluation
rows the cache directory has accumulated — across however many fingerprinted
stores past searches (and currently running jobs) have created.  Re-opening
and re-parsing every store per request would dominate the request cost, so
the catalog holds one long-lived
:class:`~repro.core.cache.PersistentEvaluationStore` read view per
``*.jsonl`` file and relies on
:meth:`~repro.core.cache.PersistentEvaluationStore.refresh` — a cheap
(mtime, size) signature check — to reload a store only when its file
actually changed.  A fully-cached request therefore touches no JSONL parsing
at all.

The catalog never writes: running jobs append through their own store
instances, and the catalog picks the rows up on the next signature change.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.cache import PersistentEvaluationStore


class StoreCatalog:
    """Lazily discovered, signature-refreshed read views of a cache directory."""

    def __init__(self, cache_dir) -> None:
        self.cache_dir = Path(cache_dir)
        self._lock = threading.Lock()
        self._stores: Dict[str, PersistentEvaluationStore] = {}

    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Discover new stores and refresh stale ones; returns the store count."""
        with self._lock:
            paths = sorted(self.cache_dir.glob("*.jsonl")) if self.cache_dir.is_dir() else []
            for path in paths:
                if path.stem not in self._stores:
                    self._stores[path.stem] = PersistentEvaluationStore(path)
            for store in self._stores.values():
                store.refresh()
            return len(self._stores)

    def store_names(self) -> List[str]:
        with self._lock:
            return sorted(self._stores)

    def get(self, name: str) -> Optional[PersistentEvaluationStore]:
        with self._lock:
            return self._stores.get(name)

    # ------------------------------------------------------------------
    def iter_rows(self, store: Optional[str] = None) -> Iterator[Tuple[str, dict]]:
        """Yield ``(store name, row)`` over every store's rows.

        ``store`` filters to store names containing the given substring (the
        fingerprint suffix makes exact names unwieldy for operators).
        Callers must :meth:`refresh` first; iteration itself takes no lock
        beyond snapshotting the store list, because each store's row dict is
        replaced wholesale on reload, never mutated in place.
        """
        with self._lock:
            stores = sorted(self._stores.items())
        for name, view in stores:
            if store is not None and store not in name:
                continue
            for row in view.rows():
                yield name, row

    def total_rows(self, refresh: bool = True) -> int:
        """Distinct evaluation rows across every store (refreshing by default)."""
        if refresh:
            self.refresh()
        with self._lock:
            return sum(len(store) for store in self._stores.values())
