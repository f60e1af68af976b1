"""Fused-BPTT dispatch mode and routing tallies.

:class:`~repro.snn.temporal.TemporalRunner` routes every temporal training
step either to the fused kernel (:mod:`repro.snn.fused_step`) or to graph
autograd, under the mode :func:`fused_training` selects, and counts where
each step went.  The state lives here, apart from the kernel, because the
code that only reads or merges the tallies imports no training code: a
search's parent process folds its workers' deltas into its own totals
without ever training, and the serving layer exports them as metrics.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict

_MODES = ("auto", "on", "off")


class _FusedState(threading.local):
    """Per-thread dispatch mode and routing tallies."""

    def __init__(self) -> None:
        self.mode = "auto"
        self.fused_steps = 0
        self.fallback_steps = 0


_STATE = _FusedState()

#: process-wide routing aggregates (never reset by tests/workloads) exported
#: as monotonic counters; training running in worker processes folds its
#: delta back into the parent via the result telemetry channel (see
#: :class:`repro.core.async_eval._TelemetryCall`).
_AGGREGATE_LOCK = threading.Lock()
_AGGREGATE: Dict[str, int] = {"fused_steps": 0, "fallback_steps": 0}


def _normalise_mode(mode) -> str:
    if mode is True:
        return "on"
    if mode is False:
        return "off"
    if mode not in _MODES:
        raise ValueError(f"fused mode must be one of {_MODES}, got {mode!r}")
    return mode


@contextlib.contextmanager
def fused_training(mode: str = "auto"):
    """Select the fused-BPTT dispatch mode inside the ``with`` block.

    ``"auto"`` (the default, also the ambient mode outside any context) fuses
    whenever the model qualifies and falls back to graph autograd otherwise;
    ``"on"`` raises :class:`RuntimeError` with the disqualifying reason
    instead of falling back; ``"off"`` always uses the recorded graph.
    Nested uses restore the previous mode on exit.
    """
    mode = _normalise_mode(mode)
    previous = _STATE.mode
    _STATE.mode = mode
    try:
        yield
    finally:
        _STATE.mode = previous


def fused_mode() -> str:
    """The fused-BPTT dispatch mode active on this thread."""
    return _STATE.mode


def fused_counters() -> Dict[str, int]:
    """Per-thread routing tallies since the last reset.

    ``fused_steps`` counts temporal training steps served by the fused
    kernel, ``fallback_steps`` those that used graph autograd (including
    steps taken with the mode ``"off"``).
    """
    return {"fused_steps": _STATE.fused_steps, "fallback_steps": _STATE.fallback_steps}


def reset_fused_counters() -> None:
    """Zero the per-thread routing tallies."""
    _STATE.fused_steps = 0
    _STATE.fallback_steps = 0


def aggregate_fused_counters() -> Dict[str, int]:
    """Process-wide snapshot of the routing tallies (all threads, no reset)."""
    with _AGGREGATE_LOCK:
        return dict(_AGGREGATE)


def merge_fused_counters(delta: Dict[str, int]) -> None:
    """Fold a worker process's routing-tally delta into this process's totals."""
    if not delta:
        return
    with _AGGREGATE_LOCK:
        for key in _AGGREGATE:
            _AGGREGATE[key] += int(delta.get(key, 0))


def _count(name: str) -> None:
    setattr(_STATE, name, getattr(_STATE, name) + 1)
    with _AGGREGATE_LOCK:
        _AGGREGATE[name] += 1
