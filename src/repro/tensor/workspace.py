"""Per-thread workspace buffers for graph-free inference kernels.

The inference fast path (see :func:`repro.tensor.tensor.no_grad`) re-runs the
same convolution geometries once per simulation step, per layer, per batch.
Allocating the im2col scratch arrays — the zero-padded input and the lowered
column matrix — fresh on every call costs more than the GEMM they feed at the
feature-map sizes the experiments use.  This module keeps one reusable buffer
per ``(thread, key)``; a kernel borrows it for the duration of a single call
and releases it implicitly by returning.

Only the inference kernels (:mod:`repro.tensor.conv`) borrow from the pool.
The fused training kernel (:mod:`repro.snn.fused_step`) keeps its residual
stash in buffers it owns and frees when training ends: a pool entry lives as
long as the thread, so a stash keyed here per compiled kernel would pile up,
one per candidate a search trains.

Aliasing contract (pinned by ``tests/test_inference_fastpath.py``):

* workspace buffers hold **transient scratch only**.  Nothing reachable from
  a returned :class:`~repro.tensor.tensor.Tensor` may live in a workspace
  buffer — outputs are always freshly allocated — so interleaved or nested
  evaluations can never observe one another's scratch;
* buffers are keyed per thread (:class:`threading.local`), so concurrent
  evaluation threads never share scratch;
* a borrowed buffer's contents are only meaningful when
  :meth:`WorkspacePool.buffer` reports that the stored *signature* matched —
  callers relying on leftover contents (e.g. zero padding borders) must pass
  the signature that makes that reuse valid and re-initialise on mismatch.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


class WorkspacePool:
    """Grow-only, per-thread scratch buffers keyed by kernel name.

    One flat buffer is kept per key and reshaped to whatever the current call
    needs; capacity only grows, so steady-state inference performs no
    allocations in the pooled kernels.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def _entries(self) -> Dict[str, dict]:
        entries = getattr(self._local, "entries", None)
        if entries is None:
            entries = {}
            self._local.entries = entries
        return entries

    def buffer(
        self,
        key: str,
        shape: Sequence[int],
        dtype=np.float64,
        signature: Optional[Tuple] = None,
    ) -> Tuple[np.ndarray, bool]:
        """Borrow the scratch array for ``key`` shaped ``shape``.

        Returns ``(array, matched)``.  ``matched`` is ``True`` only when the
        returned array is the same storage as the previous call for ``key``
        *and* that call used an equal ``signature`` — the one case where
        leftover contents may be relied upon.  On ``False`` the contents are
        undefined and the caller must (re)initialise what it reads.
        """
        entries = self._entries()
        entry = entries.get(key)
        if entry is not None and entry["shape"] == shape and entry["dtype_arg"] is dtype:
            # steady-state hit: same geometry as the previous borrow — return
            # the cached shaped view without re-deriving size/dtype/reshape
            matched = signature is not None and entry["signature"] == signature
            entry["signature"] = signature
            return entry["view"], matched
        size = math.prod(shape)
        dt = np.dtype(dtype)
        flat = entry["flat"] if entry is not None else None
        if flat is None or flat.size < size or flat.dtype != dt:
            flat = np.empty(size, dtype=dt)
            entry = None
        view = flat[:size].reshape(shape)
        matched = signature is not None and entry is not None and entry["signature"] == signature
        entries[key] = {
            "flat": flat,
            "shape": tuple(shape),
            "dtype_arg": dtype,
            "view": view,
            "signature": signature,
        }
        return view, matched

    def clear(self) -> None:
        """Drop this thread's buffers (tests / memory-pressure hook)."""
        self._local.entries = {}


#: process-wide pool used by the inference kernels in :mod:`repro.tensor.conv`
_POOL = WorkspacePool()


def workspace(key: str, shape: Sequence[int], dtype=np.float64, signature: Optional[Tuple] = None):
    """Module-level convenience over the shared :data:`_POOL`."""
    return _POOL.buffer(key, shape, dtype=dtype, signature=signature)


def clear_workspaces() -> None:
    """Release the calling thread's pooled buffers."""
    _POOL.clear()
