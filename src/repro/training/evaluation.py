"""Evaluation helpers: accuracy, confusion matrices, firing-rate and latency."""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.data.loaders import ArrayDataset
from repro.nn.losses import confusion_matrix
from repro.nn.module import Module
from repro.snn.metrics import FiringRateMonitor, SpikeStatistics
from repro.tensor import Tensor, no_grad
from repro.trace import span


def _forward_batches(model: Module, dataset: ArrayDataset, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Run the model over the dataset and collect raw scores and labels."""
    scores = []
    labels = []
    n = len(dataset)
    if n == 0:
        return np.zeros((0, dataset.num_classes)), np.zeros(0, dtype=np.int64)
    for start in range(0, n, batch_size):
        inputs, targets = dataset[np.arange(start, min(start + batch_size, n))]
        with no_grad():
            output = model(Tensor(inputs))
        scores.append(output.data)
        labels.append(targets)
    return np.concatenate(scores, axis=0), np.concatenate(labels, axis=0)


def evaluate_classifier(
    model: Module,
    dataset: ArrayDataset,
    batch_size: int = 32,
    return_confusion: bool = False,
):
    """Top-1 accuracy of ``model`` on ``dataset`` (optionally with confusion matrix).

    ``model`` must map an input batch to logits; spiking models should be
    wrapped in :class:`repro.snn.temporal.TemporalRunner` first.  The model is
    switched to evaluation mode for the duration of the call and restored
    afterwards.
    """
    was_training = model.training
    model.eval()
    try:
        scores, labels = _forward_batches(model, dataset, batch_size)
    finally:
        model.train(was_training)
    predictions = scores.argmax(axis=1)
    acc = float((predictions == labels).mean()) if len(labels) else 0.0
    if return_confusion:
        return acc, confusion_matrix(scores, labels, dataset.num_classes)
    return acc


def evaluate_with_spikes(
    model: Module,
    spiking_core: Module,
    dataset: ArrayDataset,
    batch_size: int = 32,
) -> Tuple[float, SpikeStatistics]:
    """Accuracy plus spiking statistics in a single pass.

    Parameters
    ----------
    model:
        The callable evaluated on batches (typically a ``TemporalRunner``).
    spiking_core:
        The module whose spiking layers should be monitored (typically the
        runner's wrapped model).
    """
    monitor = FiringRateMonitor(spiking_core)
    was_training = model.training
    model.eval()
    try:
        with monitor:
            scores, labels = _forward_batches(model, dataset, batch_size)
        stats = monitor.statistics()
    finally:
        model.train(was_training)
    predictions = scores.argmax(axis=1)
    acc = float((predictions == labels).mean()) if len(labels) else 0.0
    return acc, stats


def measure_latency_ms(
    model: Module,
    batch: np.ndarray,
    runs: int = 5,
    warmup: int = 1,
) -> float:
    """Wall-clock latency of one inference forward pass, in milliseconds.

    The timing protocol (documented in ``docs/architecture.md`` and consumed
    by the ``latency`` search objective): the model is switched to evaluation
    mode, ``warmup`` untimed passes populate every workspace/state buffer of
    the inference fast path, then ``runs`` passes are individually timed under
    :func:`~repro.tensor.tensor.no_grad` and the **median** is returned —
    robust to scheduler noise, unlike a mean or a single pass.

    ``model`` must map an input batch to scores; spiking models should be
    wrapped in :class:`repro.snn.temporal.TemporalRunner` first, so the
    reported number covers the full simulation window (every time step), not
    a single step.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    inputs = Tensor(np.asarray(batch, dtype=np.float64))
    was_training = model.training
    model.eval()
    # One span around the whole protocol (never per-run: entering a span per
    # timed pass would perturb the very timings this function reports).
    with span("measure_latency", runs=runs, warmup=warmup) as latency_span:
        try:
            with no_grad():
                for _ in range(warmup):
                    model(inputs)
                timings = []
                for _ in range(runs):
                    start = time.perf_counter()
                    model(inputs)
                    timings.append(time.perf_counter() - start)
        finally:
            model.train(was_training)
        median_ms = float(np.median(timings) * 1e3)
        if latency_span:
            latency_span.set(median_ms=median_ms)
    return median_ms
