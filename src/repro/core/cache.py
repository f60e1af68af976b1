"""Evaluation cache: memoisation and persistence of architecture evaluations.

Search methods occasionally revisit an architecture (e.g. random restarts,
repeated runs over the same search space, a re-run of an interrupted search).
Re-training it would waste the dominant cost of the whole pipeline, so
:class:`CachedObjective` wraps any :class:`~repro.core.objectives.Objective`
with an exact-match cache keyed by the architecture encoding.  The cache also
doubles as a tabular record of the search (a miniature NAS-bench for the
explored region) that can be exported and re-loaded across runs.

:class:`PersistentEvaluationStore` is the disk-backed tier: an append-only
JSONL file keyed by :func:`spec_key`.  Every record is written with a single
``O_APPEND`` write (atomic on POSIX for writes well under ``PIPE_BUF``-scale
sizes), so concurrent runs — BO, random search, multi-objective search —
can safely share one store, and a torn trailing line from a crashed run is
skipped on load instead of poisoning the file.  Plug a store into
:class:`CachedObjective` (or pass ``--cache-dir`` to the CLI) and evaluations
survive the process: a later run hits the store instead of re-training.
Worker-pool children and concurrent search processes append to the same file.

The store is no longer only a batch-run artefact: it is the backing table of
the long-running HTTP serving layer (:mod:`repro.server`).  ``repro serve``
holds one read view per store open across requests — :meth:`refresh` reloads
it only when the backing file actually changed — and answers ``/pareto`` and
``/recommend`` queries instantly from the accumulated rows, while search jobs
keep appending to the same files.

The on-disk formats (rows, fingerprinted filenames, snapshots) are a stable
contract documented in ``docs/caching.md``; the serving layer is documented
in ``docs/server.md``.  Rows under a ``<name>.shards/`` directory, written by
an earlier per-writer layout, are no longer read: those candidates are
re-evaluated.

Pair the store with a :class:`~repro.core.snapshots.WeightSnapshotStore`
(:func:`snapshot_store_for`) and hits also restore the *weight-sharing* state:
each row references the content-addressed snapshot of the candidate's trained
weights, replayed into the shared
:class:`~repro.core.weight_sharing.WeightStore` on a hit so cached runs stay
as warm as uncached ones.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.core.objectives import EvaluationResult, Objective, resolve_weight_context
from repro.core.search_space import ArchitectureSpec, SearchSpace
from repro.core.snapshots import DEFAULT_KEEP_BEST, WeightSnapshotStore
from repro.core.weight_sharing import WeightUpdate
from repro.trace import span


def spec_key(spec: ArchitectureSpec) -> str:
    """Stable string key of an architecture (its flat integer encoding)."""
    return ",".join(str(int(v)) for v in spec.encode())


# ---------------------------------------------------------------------------
# Process-wide store lookup tallies.
#
# Each store instance keeps its own ``hits``/``misses`` counters, but the
# serving layer's ``/metrics`` endpoint needs one monotone view per process —
# including lookups made by stores the server never sees (e.g. a job's own
# store, or worker-pool children whose deltas are merged back by the async
# executor).  Mirrors the fused-training aggregate in
# :mod:`repro.snn.fused_step`.
# ---------------------------------------------------------------------------
_STORE_AGGREGATE_LOCK = threading.Lock()
_STORE_AGGREGATE: Dict[str, int] = {"hits": 0, "misses": 0}


def store_counters() -> Dict[str, int]:
    """Snapshot of this process's cumulative store hit/miss tallies."""
    with _STORE_AGGREGATE_LOCK:
        return dict(_STORE_AGGREGATE)


def merge_store_counters(delta: Dict[str, int]) -> None:
    """Fold a worker process's store-counter delta into this process's tally."""
    with _STORE_AGGREGATE_LOCK:
        for key in _STORE_AGGREGATE:
            _STORE_AGGREGATE[key] += int(delta.get(key, 0))


def _bump_store(key: str) -> None:
    with _STORE_AGGREGATE_LOCK:
        _STORE_AGGREGATE[key] += 1


def config_fingerprint(**config) -> str:
    """Short, stable fingerprint of evaluation-relevant configuration.

    Cached objective values are only comparable between runs that evaluate
    candidates the same way (same fine-tune budget, seed, penalties, ...).
    Embedding this fingerprint in a store's filename keeps incompatible
    configurations from silently sharing evaluations.
    """
    payload = json.dumps(config, sort_keys=True, default=str)
    return hashlib.md5(payload.encode("utf-8")).hexdigest()[:10]


def dataset_fingerprint_fields(splits) -> Dict[str, object]:
    """Fingerprint fields identifying the data an objective evaluates on.

    Two runs whose datasets differ in size, resolution or class count must
    not share cached evaluations even when every training hyperparameter
    matches — include these fields in :func:`config_fingerprint` alongside
    the training configuration.
    """
    return {
        "dataset": splits.name,
        "train_size": len(splits.train),
        "val_size": len(splits.val),
        "sample_shape": [int(v) for v in splits.sample_shape],
        "num_classes": int(splits.num_classes),
    }


def evaluation_store_for(cache_dir, name_parts, **config) -> "PersistentEvaluationStore":
    """Open the store for one (experiment, configuration) combination.

    The filename is ``<name_parts joined by '-'>-<fingerprint>.jsonl`` under
    ``cache_dir`` — the single place that defines what makes two runs'
    evaluations comparable.  Every search is wired through here, by
    :func:`~repro.experiments.pareto_front.build_search`, so fingerprint
    coverage cannot drift between call sites.
    """
    tag = config_fingerprint(**config)
    filename = "-".join([str(part) for part in name_parts] + [tag]) + ".jsonl"
    return PersistentEvaluationStore(Path(cache_dir) / filename)


def snapshot_store_for(
    store: PersistentEvaluationStore, keep_best: int = DEFAULT_KEEP_BEST
) -> WeightSnapshotStore:
    """Open the weight-snapshot directory paired with an evaluation store.

    The directory sits next to the store's ``.jsonl`` file and inherits its
    name — including the configuration fingerprint — so snapshots are scoped
    exactly like the evaluation rows that reference them.  Every process
    writing one store resolves the same snapshot directory, so a row written
    by one process replays in any other; the snapshot store is safe for
    concurrent writers by design (content addressing, atomic replace,
    per-digest sidecars).
    """
    return WeightSnapshotStore(store.path.with_suffix(".weights"), keep_best=keep_best)


def replay_weight_snapshot(
    snapshots: Optional[WeightSnapshotStore],
    row: Dict[str, object],
    result: EvaluationResult,
    base,
    weight_store,
) -> None:
    """Rebuild the weight payload referenced by a stored row.

    Mirrors a live evaluation: the payload is attached to ``result`` for the
    orchestrator, and applied to ``weight_store`` directly when ``base`` is
    not operating in deferred mode (i.e. when a live evaluation would also
    have applied it locally).  A missing or evicted snapshot replays nothing
    — the cached value is still valid, the run is merely as cold as it was
    before snapshots existed.
    """
    if snapshots is None:
        return
    reference = row.get("weights")
    if not isinstance(reference, dict) or "snapshot" not in reference:
        return
    state = snapshots.get(str(reference["snapshot"]))
    if state is None:
        return
    score = reference.get("score")
    result.weight_update = WeightUpdate(
        state=state,
        score=float(score) if score is not None else None,
        snapshot=str(reference["snapshot"]),
    )
    if base is not None and weight_store is not None and not getattr(base, "defer_updates", False):
        result.weight_update.apply(weight_store)


def result_to_row(result: EvaluationResult) -> Dict[str, object]:
    """JSON-serialisable row of the quantities a search needs back.

    The optional ``metrics`` field carries the per-objective measurement dict
    (``val_accuracy``, ``energy_nj``, ``latency_steps``, ...) so a store hit
    replays *every* objective of a multi-objective search; rows written
    before the field existed simply replay with empty metrics.
    """
    row = {
        "encoding": [int(v) for v in result.spec.encode()],
        "objective_value": float(result.objective_value),
        "accuracy": float(result.accuracy),
        "firing_rate": float(result.firing_rate),
        "macs": float(result.macs),
        "extra": {str(k): float(v) for k, v in result.extra.items()},
    }
    if result.metrics:
        row["metrics"] = {str(k): float(v) for k, v in result.metrics.items()}
    return row


def row_metrics(row: Dict[str, object]) -> Dict[str, float]:
    """The per-objective metrics dict of a stored row, with legacy fallbacks.

    Rows written since the multi-objective subsystem carry an explicit
    ``metrics`` field; older rows still recorded accuracy, firing rate and
    MACs as top-level columns.  Consumers that only need measurements — the
    serving layer's ``/pareto`` and ``/recommend`` endpoints, offline front
    extraction — read through this helper so both generations of rows answer
    queries.
    """
    metrics = {str(k): float(v) for k, v in (row.get("metrics") or {}).items()}
    fallbacks = {
        "val_accuracy": row.get("accuracy"),
        "firing_rate": row.get("firing_rate"),
        "macs": row.get("macs"),
    }
    for key, value in fallbacks.items():
        if key not in metrics and value is not None:
            metrics[key] = float(value)
    return metrics


def row_to_result(row: Dict[str, object], spec: ArchitectureSpec) -> EvaluationResult:
    """Rebuild an :class:`EvaluationResult` from a stored row.

    The training history is not persisted — a cached hit stands in for the
    *outcome* of an evaluation, not its trajectory.
    """
    return EvaluationResult(
        spec=spec,
        objective_value=float(row["objective_value"]),
        accuracy=float(row.get("accuracy", 0.0)),
        firing_rate=float(row.get("firing_rate", 0.0)),
        macs=float(row.get("macs", 0.0)),
        extra=dict(row.get("extra", {})),
        metrics=dict(row.get("metrics", {})),
    )


class PersistentEvaluationStore:
    """Append-only JSONL store of evaluation results, keyed by :func:`spec_key`.

    Parameters
    ----------
    path:
        Either a ``.jsonl`` file or a directory (the store then lives at
        ``<path>/evaluations.jsonl``).  Parent directories are created.

    The whole file is loaded into memory on construction (rows are tiny); a
    duplicate key keeps the *latest* row, and a torn/corrupt line — possible
    only where a writer crashed mid-row — is skipped, and the next row starts
    on a fresh line.  Several processes may append to one file at once: each
    row is one ``O_APPEND`` write under an exclusive ``flock``.  ``hits``
    / ``misses`` count :meth:`get` lookups, mirroring :class:`CachedObjective`.
    """

    FILENAME = "evaluations.jsonl"

    def __init__(self, path: Union[str, Path]) -> None:
        path = Path(path)
        if path.suffix != ".jsonl":
            path = path / self.FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self.hits = 0
        self.misses = 0
        self.reload()

    # ------------------------------------------------------------------
    def _signature(self) -> Optional[tuple]:
        """(mtime_ns, size) of the backing file, or None if it does not exist."""
        try:
            stat = self.path.stat()
        except OSError:
            return None
        return stat.st_mtime_ns, stat.st_size

    def refresh(self) -> bool:
        """Reload only if the backing file changed; returns whether it did.

        A long-running reader (the HTTP serving layer answers ``/pareto`` and
        ``/recommend`` from one store instance across requests) must see rows
        appended by concurrent search processes without re-parsing the file
        per request.  The signature is taken *before* each read, so an
        append racing the read at worst triggers one redundant reload on the
        next call — never a stale view that stays stale.
        """
        if self._signature() == self._loaded_signature:
            return False
        self.reload()
        return True

    def reload(self) -> int:
        """(Re)read the backing file; returns the number of rows loaded.

        A duplicate key keeps the latest row; a line that does not parse is
        counted in ``skipped_lines`` and skipped.  The row dict is replaced
        whole, so a reader iterating the previous one is not disturbed.
        """
        rows: Dict[str, Dict[str, object]] = {}
        skipped = 0
        # recorded before reading: rows appended mid-read change the on-disk
        # signature, so the next refresh() reloads rather than trusting a
        # view that may have missed them
        self._loaded_signature = self._signature()
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            text = ""
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                key = row["key"]
            except (json.JSONDecodeError, KeyError, TypeError):
                skipped += 1
                continue
            rows[key] = row
        self._rows, self.skipped_lines = rows, skipped
        return len(rows)

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Stored row for ``key`` or ``None``; updates the hit/miss counters."""
        row = self._rows.get(key)
        if row is None:
            self.misses += 1
            _bump_store("misses")
        else:
            self.hits += 1
            _bump_store("hits")
        return row

    def put(self, key: str, row: Dict[str, object]) -> None:
        """Persist one row under ``key`` with a single atomic append."""
        payload = {"key": key, **row}
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            # a writer that crashed, in this process or any other and at any
            # time since this store loaded, can leave a torn line without a
            # newline: start on a fresh line so this row stays parseable.  The
            # lock keeps a live writer's half-copied row from reading as torn;
            # a dead writer's lock is released with its descriptor
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                line = "\n" + line
            # loop on short writes: a partial os.write would otherwise drop
            # the row's tail and concatenate the next writer's line onto it
            view = memoryview(line.encode("utf-8"))
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        self._rows[key] = payload

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the store."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def keys(self) -> List[str]:
        """All stored keys."""
        return list(self._rows)

    def rows(self) -> List[Dict[str, object]]:
        """All stored rows."""
        return list(self._rows.values())

    def stats(self) -> Dict[str, float]:
        """Hit/miss statistics plus the store size."""
        return {
            "entries": float(len(self._rows)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "skipped_lines": float(self.skipped_lines),
        }


class CachedObjective(Objective):
    """Exact-match memoisation wrapper around another objective.

    With a :class:`PersistentEvaluationStore` attached, misses in the
    in-memory tier fall through to the store before the wrapped objective is
    evaluated, and fresh evaluations are appended to the store — so the cache
    outlives the process and is shared by every search strategy pointed at the
    same path.

    With a :class:`~repro.core.snapshots.WeightSnapshotStore` also attached,
    the trained state each evaluation carries (``result.weight_update``) is
    persisted as a content-addressed snapshot and referenced from the row; a
    later store hit then *replays* the snapshot — restoring the payload on the
    result and, unless the wrapped objective defers updates to its
    orchestrator, applying it to the shared weight store — so a fully- or
    partially-cached run accumulates the same shared weights as the run that
    originally paid for the evaluations.
    """

    def __init__(
        self,
        objective: Objective | Callable[[ArchitectureSpec], EvaluationResult],
        store: Optional[PersistentEvaluationStore] = None,
        snapshots: Optional[WeightSnapshotStore] = None,
    ) -> None:
        self.objective = objective
        self.store = store
        self.snapshots = snapshots
        self._cache: Dict[str, EvaluationResult] = {}
        self.hits = 0
        self.misses = 0

    def _remember(self, key: str, result: EvaluationResult) -> None:
        """Cache the result without its weight payload.

        By the time a result is memoised its update has already reached the
        store (applied locally or merged by the orchestrator), so keeping the
        full state dict would only grow resident memory per candidate — and,
        with ``workers > 1``, be re-pickled into every later batch's worker
        dispatch.  An in-memory hit therefore (as before snapshots existed)
        returns the outcome only.
        """
        if result.weight_update is not None:
            result = dataclasses.replace(result, weight_update=None)
        self._cache[key] = result

    def __call__(self, spec: ArchitectureSpec) -> EvaluationResult:
        key = spec_key(spec)
        with span("cache.lookup") as lookup_span:
            if key in self._cache:
                self.hits += 1
                if lookup_span:
                    lookup_span.set(hit=True, tier="memory")
                return self._cache[key]
            if self.store is not None:
                row = self.store.get(key)
                if row is not None:
                    result = row_to_result(row, spec)
                    base, weight_store = resolve_weight_context(self.objective)
                    with span("cache.replay_snapshot") as replay_span:
                        replay_weight_snapshot(self.snapshots, row, result, base, weight_store)
                        if replay_span:
                            replay_span.set(replayed=result.weight_update is not None)
                    self._remember(key, result)
                    self.hits += 1
                    if lookup_span:
                        lookup_span.set(hit=True, tier="store")
                    return result
            self.misses += 1
            if lookup_span:
                lookup_span.set(hit=False)
        result = self.objective(spec)
        self._remember(key, result)
        if self.store is not None:
            row = result_to_row(result)
            update = result.weight_update
            if self.snapshots is not None and update is not None:
                update.snapshot = self.snapshots.put(update.state, score=update.score)
                row["weights"] = {"snapshot": update.snapshot, "score": update.score}
            self.store.put(key, row)
        return result

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, spec: ArchitectureSpec) -> bool:
        return spec_key(spec) in self._cache

    @property
    def hit_rate(self) -> float:
        """Fraction of calls answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def results(self) -> List[EvaluationResult]:
        """All cached evaluation results."""
        return list(self._cache.values())

    def best(self) -> EvaluationResult:
        """Cached result with the smallest objective value."""
        if not self._cache:
            raise ValueError("cache is empty")
        return min(self._cache.values(), key=lambda result: result.objective_value)

    # ------------------------------------------------------------------
    # persistence: a miniature tabular benchmark of the explored region
    # ------------------------------------------------------------------
    def to_table(self) -> List[Dict[str, object]]:
        """Export the cache as a list of JSON-serialisable rows.

        Rows use the same serialisation as :class:`PersistentEvaluationStore`
        (:func:`result_to_row`) plus a ``num_skips`` convenience column kept
        for older saved tables.
        """
        rows = []
        for result in self._cache.values():
            row = result_to_row(result)
            row["num_skips"] = row["extra"].get("num_skips", float(result.spec.total_skips()))
            rows.append(row)
        return rows

    def save(self, path: Union[str, Path]) -> None:
        """Write the cache table to a JSON file."""
        Path(path).write_text(json.dumps(self.to_table(), indent=2))

    @classmethod
    def load_table(
        cls,
        path: Union[str, Path],
        search_space: SearchSpace,
        objective: Optional[Objective] = None,
    ) -> "CachedObjective":
        """Rebuild a cache from a saved table.

        ``objective`` is used only for cache misses; pass a raising stub to get
        a purely tabular benchmark of the previously explored architectures.
        """
        if objective is None:
            def objective(_spec):  # type: ignore[misc]
                raise KeyError("architecture not present in the loaded evaluation table")

        cache = cls(objective)
        rows = json.loads(Path(path).read_text())
        for row in rows:
            spec = search_space.decode(np.asarray(row["encoding"], dtype=np.int64))
            cache._cache[spec_key(spec)] = row_to_result(row, spec)
        return cache
