"""Disk-backed weight snapshots: the persistence tier of weight sharing.

The persistent evaluation store (:mod:`repro.core.cache`) records *what* an
architecture scored; this module records the trained weights the evaluation
produced, so that a later run answering from the cache can also replay the
candidate's weight updates into its :class:`~repro.core.weight_sharing.WeightStore`
instead of fine-tuning its final model from cold, vanilla weights.

Snapshots are **content-addressed**: each trained state is written once as
``<digest>.snap`` (digest over sorted keys, dtypes, shapes and raw bytes), so
identical states produced by different candidates or repeated runs share one
file, and a snapshot reference stored in an evaluation row is stable across
processes.  Writes are atomic (write to a temporary file in the same
directory, then ``os.replace``), so concurrent runs sharing a cache directory
can never observe a torn snapshot.

A ``.snap`` file is flat, so a replay is one file read and a view per tensor:

* 8 bytes of magic (``REPROWS1``), then the index length as a little-endian
  ``uint64``;
* the index, a JSON list of ``[key, dtype.str, shape, offset]`` entries in
  the state's key order, zero-padded so the data starts on a 64-byte
  boundary;
* each tensor's raw C-order bytes at ``offset`` from the data start, every
  offset a multiple of 64; the file ends with the last tensor's bytes.

Snapshots written before this format are ``<digest>.npz`` archives.  They are
still read (a flat file wins when both exist) and counted for eviction, but
never written; a put of the same content replaces the ``.npz``.

Snapshot metadata (score, size) lives in a per-digest ``<digest>.meta.json``
sidecar rather than one shared index file: every piece of on-disk state is
then written atomically by exactly one ``os.replace``, so concurrent writers
— worker-pool children, or two runs sharing a cache directory — cannot drop
each other's entries, and eviction always sees every snapshot on disk.

The directory is bounded: each store keeps at most ``keep_best`` snapshots,
ranked by the score recorded at ``put`` time (higher is better, e.g.
validation accuracy).  Eviction removes the lowest-scoring files; an
evaluation row whose snapshot was evicted simply replays nothing — the cached
objective value is still valid, the run is merely a little colder, which is
exactly the pre-snapshot behaviour.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

#: default per-store snapshot budget (each snapshot is one small flat file)
DEFAULT_KEEP_BEST = 32

SUFFIX = ".snap"
#: the suffix of snapshots written before the flat format; read, never written
LEGACY_SUFFIX = ".npz"

_MAGIC = b"REPROWS1"
_PREFIX = struct.Struct("<8sQ")
_ALIGN = 64


def _aligned(size: int) -> int:
    return -(-size // _ALIGN) * _ALIGN


def state_digest(state: Dict[str, np.ndarray]) -> str:
    """Content digest of a state dict (keys, dtypes, shapes and bytes)."""
    hasher = hashlib.sha256()
    for key in sorted(state):
        value = np.ascontiguousarray(state[key])
        hasher.update(key.encode("utf-8"))
        hasher.update(str(value.dtype).encode("utf-8"))
        hasher.update(str(value.shape).encode("utf-8"))
        hasher.update(value.tobytes())
    return hasher.hexdigest()[:16]


def encode_state(state: Dict[str, np.ndarray]) -> bytes:
    """The flat ``.snap`` bytes of ``state`` (see the module docstring)."""
    index = []
    chunks = []
    end = 0
    for key, value in state.items():
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise ValueError(f"snapshot tensor {key!r} has object dtype {array.dtype}")
        offset = _aligned(end)
        index.append([key, array.dtype.str, list(array.shape), offset])
        chunks += [bytes(offset - end), np.ascontiguousarray(array).reshape(-1).view(np.uint8)]
        end = offset + array.nbytes
    header = json.dumps(index, separators=(",", ":")).encode("utf-8")
    head = _PREFIX.pack(_MAGIC, len(header)) + header
    return b"".join([head, bytes(_aligned(len(head)) - len(head)), *chunks])


def decode_state(raw: np.ndarray) -> Dict[str, np.ndarray]:
    """Views, one per tensor, into the ``uint8`` buffer of a ``.snap`` file.

    Raises ``ValueError`` on anything that is not a whole, well-formed
    snapshot: wrong magic, a truncated index or tensor, an offset outside the
    file, or an object dtype.
    """
    if raw.size < _PREFIX.size:
        raise ValueError("snapshot shorter than its prefix")
    magic, header_len = _PREFIX.unpack(raw[: _PREFIX.size].tobytes())
    if magic != _MAGIC or _PREFIX.size + header_len > raw.size:
        raise ValueError("not a snapshot, or a truncated index")
    index = json.loads(raw[_PREFIX.size : _PREFIX.size + header_len].tobytes())
    data_start = _aligned(_PREFIX.size + header_len)
    if not isinstance(index, list):
        raise ValueError("snapshot index is not a list")
    state: Dict[str, np.ndarray] = {}
    for entry in index:
        key, dtype_str, shape, offset = entry
        dtype = np.dtype(dtype_str)
        if (
            not isinstance(key, str)
            or dtype.hasobject
            or not isinstance(offset, int)
            or offset < 0
            or not all(isinstance(dim, int) and dim >= 0 for dim in shape)
        ):
            raise ValueError(f"bad snapshot index entry {entry!r}")
        start = data_start + offset
        stop = start + dtype.itemsize * math.prod(shape)
        if stop > raw.size:
            raise ValueError(f"snapshot tensor {key!r} runs past the end of the file")
        state[key] = raw[start:stop].view(dtype).reshape(shape)
    return state


class WeightSnapshotStore:
    """Content-addressed flat-file snapshots of trained weight states.

    Parameters
    ----------
    directory:
        Where snapshots live; created on first use.  One directory per
        evaluation store (see :func:`repro.core.cache.snapshot_store_for`),
        so the evaluation configuration fingerprint embedded in the store's
        filename also scopes the snapshots.
    keep_best:
        Maximum number of snapshots kept; the lowest-scoring ones are evicted
        first (a snapshot without a score ranks below any scored one).
    """

    def __init__(self, directory: Union[str, Path], keep_best: int = DEFAULT_KEEP_BEST) -> None:
        if keep_best < 1:
            raise ValueError("keep_best must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_best = int(keep_best)
        self.puts = 0
        self.replays = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _snapshot_path(self, digest: str) -> Path:
        return self.directory / f"{digest}{SUFFIX}"

    def _legacy_path(self, digest: str) -> Path:
        return self.directory / f"{digest}{LEGACY_SUFFIX}"

    def _meta_path(self, digest: str) -> Path:
        return self.directory / f"{digest}.meta.json"

    def _write_atomically(self, path: Path, writer) -> None:
        import tempfile  # only writes need it; a replay reads

        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=path.suffix + ".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                writer(handle)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _read_meta(self, digest: str) -> Dict[str, float]:
        try:
            meta = json.loads(self._meta_path(digest).read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return meta if isinstance(meta, dict) else {}

    def _files(self) -> Dict[str, Path]:
        """The snapshot file of every digest on disk (flat over legacy)."""
        files = {path.stem: path for path in self.directory.glob(f"*{LEGACY_SUFFIX}")}
        files.update((path.stem, path) for path in self.directory.glob(f"*{SUFFIX}"))
        return files

    def _scan(self, files: Optional[Dict[str, Path]] = None) -> Dict[str, Dict[str, float]]:
        """Every snapshot currently on disk, with its sidecar metadata.

        Derived from the directory listing (the single source of truth), so
        snapshots written by concurrent processes are always visible to
        eviction and accounting.
        """
        entries: Dict[str, Dict[str, float]] = {}
        for digest, path in (self._files() if files is None else files).items():
            meta = self._read_meta(digest)
            if "bytes" not in meta:
                try:
                    meta["bytes"] = float(path.stat().st_size)
                except OSError:  # pragma: no cover - concurrently evicted
                    continue
            entries[digest] = meta
        return entries

    # ------------------------------------------------------------------
    def put(self, state: Dict[str, np.ndarray], score: Optional[float] = None) -> str:
        """Persist ``state`` and return its snapshot digest.

        Re-putting identical content is free (the file already exists); the
        recorded score is the best seen for that content, so a snapshot
        shared by several rows is ranked by its strongest use.
        """
        digest = state_digest(state)
        path = self._snapshot_path(digest)
        try:
            size = float(path.stat().st_size)
        except OSError:
            # new content, or a concurrent store evicted this digest: write
            # it — this put is its newest use — and retire any legacy copy
            payload = encode_state(state)
            self._write_atomically(path, lambda handle: handle.write(payload))
            size = float(len(payload))
            self._legacy_path(digest).unlink(missing_ok=True)
        meta = self._read_meta(digest)
        previous = meta.get("score")
        if score is not None:
            meta["score"] = float(score) if previous is None else max(float(previous), float(score))
        meta["tensors"] = float(len(state))
        meta["bytes"] = size
        payload = json.dumps(meta).encode("utf-8")
        self._write_atomically(self._meta_path(digest), lambda handle: handle.write(payload))
        self._evict()
        self.puts += 1
        return digest

    def get(self, digest: str) -> Optional[Dict[str, np.ndarray]]:
        """Load the snapshot ``digest`` (``None`` if missing/evicted/corrupt).

        The tensors of a flat snapshot are views into one writable buffer
        read from the file.
        """
        try:
            state = decode_state(np.fromfile(self._snapshot_path(digest), dtype=np.uint8))
        except FileNotFoundError:
            state = self._get_legacy(digest)
        except (OSError, ValueError, TypeError):
            state = None
        if state is not None:
            self.replays += 1
        return state

    def _get_legacy(self, digest: str) -> Optional[Dict[str, np.ndarray]]:
        import zipfile  # only the legacy ``.npz`` format is a zip archive

        try:
            with np.load(self._legacy_path(digest)) as archive:
                return {key: np.array(archive[key]) for key in archive.files}
        except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile):
            return None

    def _evict(self) -> None:
        """Drop the lowest-scoring snapshots beyond the ``keep_best`` budget.

        Sidecars are read only once the directory listing is over budget.
        """
        files = self._files()
        if len(files) <= self.keep_best:
            return
        entries = self._scan(files)
        ranked = sorted(
            entries,
            key=lambda digest: (
                entries[digest].get("score") is not None,
                entries[digest].get("score", float("-inf")),
            ),
        )
        for digest in ranked[: len(entries) - self.keep_best]:
            for path in (self._snapshot_path(digest), self._legacy_path(digest), self._meta_path(digest)):
                try:
                    path.unlink()
                except OSError:  # the digest's other suffix, or removed by another run
                    pass
            self.evictions += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._files())

    def __contains__(self, digest: str) -> bool:
        return self._snapshot_path(digest).exists() or self._legacy_path(digest).exists()

    def digests(self) -> List[str]:
        """Digests of every stored snapshot."""
        return list(self._files())

    def total_bytes(self) -> int:
        """Disk footprint of the stored snapshots."""
        return int(sum(entry.get("bytes", 0.0) for entry in self._scan().values()))

    def stats(self) -> Dict[str, float]:
        """Usage counters plus the store size."""
        return {
            "snapshots": float(len(self)),
            "puts": float(self.puts),
            "replays": float(self.replays),
            "evictions": float(self.evictions),
            "bytes": float(self.total_bytes()),
        }
