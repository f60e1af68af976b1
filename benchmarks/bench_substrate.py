"""Micro-benchmarks of the computational substrate.

These are not paper figures; they track the performance of the hot paths the
experiments sit on (im2col convolution forward/backward, LIF simulation
steps, a full BPTT step, GP fitting, one BO proposal round) so regressions in
the substrate are visible independently of the experiment-level benchmarks.

Since the graph-free inference fast path landed, every hot case exists in two
variants — the **autograd path** (gradients enabled, graph recorded) and the
**inference path** (under :func:`~repro.tensor.tensor.no_grad`: GEMM conv
kernels, pooled im2col workspaces, fused in-place neuron stepping) — so both
are tracked and their ratio is a regression-gated number.

Two ways to run:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_substrate.py --benchmark-only``
  — the pytest-benchmark suite (statistical timings, local profiling);
* ``PYTHONPATH=src python benchmarks/bench_substrate.py [--smoke] [--output f.json]``
  — the standalone script CI runs: times each hot path on both paths,
  verifies the two paths produce **bit-identical** outputs, and emits the
  JSON that ``tools/bench_gate.py`` compares against the committed baselines
  (``benchmarks/BENCH_5.json`` and ``benchmarks/BENCH_8.json`` for the
  fast-path cases, ``benchmarks/BENCH_10.json`` for the fused BPTT step and the
  tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Optional, Sequence

import numpy as np

try:
    import pytest
except ImportError:  # pragma: no cover - script mode without dev extras
    pytest = None

from repro.core.bayes_opt import BayesianOptimizer
from repro.core.objectives import EvaluationResult, Objective
from repro.core.search_space import BlockSearchInfo, SearchSpace
from repro.gp import GaussianProcessRegressor, HammingKernel
from repro.models import get_template
from repro.nn import CrossEntropyLoss
from repro.snn import LIFNeuron, TemporalRunner
from repro.tensor import (
    Tensor,
    conv2d,
    no_grad,
)

benchmark_case = pytest.mark.benchmark(group="substrate") if pytest else (lambda f: f)


def _lif_sequence(neuron: LIFNeuron, current: Tensor, steps: int) -> Tensor:
    """Reset and run ``steps`` LIF updates, returning the last spikes."""
    neuron.reset_state()
    spikes = None
    for _ in range(steps):
        spikes = neuron(current)
    return spikes


@benchmark_case
def test_conv2d_forward(benchmark):
    """im2col convolution forward on the autograd path (graph recorded)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(8, 8, 16, 16)))
    w = Tensor(rng.normal(size=(16, 8, 3, 3)), requires_grad=True)
    benchmark(lambda: conv2d(x, w, padding=1))


@benchmark_case
def test_conv2d_forward_no_grad(benchmark):
    """Graph-free conv forward: pooled im2col workspace + one batched GEMM."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(8, 8, 16, 16)))
    w = Tensor(rng.normal(size=(16, 8, 3, 3)), requires_grad=True)

    def run():
        with no_grad():
            conv2d(x, w, padding=1)

    benchmark(run)


@benchmark_case
def test_conv2d_forward_backward(benchmark):
    """Convolution forward + backward (dominates BPTT training time)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(8, 8, 16, 16)), requires_grad=True)
    w = Tensor(rng.normal(size=(16, 8, 3, 3)), requires_grad=True)

    def run():
        x.zero_grad()
        w.zero_grad()
        out = conv2d(x, w, padding=1)
        out.sum().backward()

    benchmark(run)


@benchmark_case
def test_lif_step(benchmark):
    """One LIF update over a feature-map-sized membrane (autograd path)."""
    rng = np.random.default_rng(0)
    neuron = LIFNeuron(beta=0.9)
    current = Tensor(rng.normal(size=(16, 16, 16, 16)))

    def run():
        neuron.reset_state()
        neuron(current)

    benchmark(run)


@benchmark_case
def test_lif_steps(benchmark):
    """A multi-step LIF sequence on the autograd path (grad-tracked input)."""
    rng = np.random.default_rng(0)
    neuron = LIFNeuron(beta=0.9)
    current = Tensor(rng.normal(size=(16, 16, 16, 16)), requires_grad=True)
    benchmark(lambda: _lif_sequence(neuron, current, 8))


@benchmark_case
def test_lif_steps_inference(benchmark):
    """The same LIF sequence on the fused in-place inference path."""
    rng = np.random.default_rng(0)
    neuron = LIFNeuron(beta=0.9)
    current = Tensor(rng.normal(size=(16, 16, 16, 16)))

    def run():
        with no_grad():
            _lif_sequence(neuron, current, 8)

    benchmark(run)


@benchmark_case
def test_snn_bptt_training_step(benchmark):
    """Full forward + BPTT backward of the ResNet-style SNN for one mini-batch."""
    rng = np.random.default_rng(0)
    template = get_template("resnet18", input_channels=2, num_classes=10, stage_channels=(6, 8))
    model = template.build(spiking=True, rng=0)
    runner = TemporalRunner(model, num_steps=5)
    loss_fn = CrossEntropyLoss()
    batch = rng.random((8, 2, 12, 12))
    targets = rng.integers(0, 10, size=8)

    def run():
        model.zero_grad()
        loss = loss_fn(runner(batch), targets)
        loss.backward()

    benchmark(run)


@benchmark_case
def test_snn_temporal_eval_inference(benchmark):
    """Full evaluation forward of the ResNet-style SNN on the fast path."""
    rng = np.random.default_rng(0)
    template = get_template("resnet18", input_channels=2, num_classes=10, stage_channels=(6, 8))
    model = template.build(spiking=True, rng=0)
    model.eval()
    runner = TemporalRunner(model, num_steps=5)
    batch = rng.random((8, 2, 12, 12))

    def run():
        with no_grad():
            runner(batch)

    benchmark(run)


@benchmark_case
def test_gp_fit_predict(benchmark):
    """GP fit + posterior prediction at the sizes the BO loop uses."""
    rng = np.random.default_rng(0)
    x = rng.integers(0, 3, size=(60, 12)).astype(float)
    y = rng.normal(size=60)
    query = rng.integers(0, 3, size=(64, 12)).astype(float)

    def run():
        gp = GaussianProcessRegressor(HammingKernel(), noise=1e-3)
        gp.fit(x, y)
        gp.predict(query)

    benchmark(run)


class _FreeObjective(Objective):
    """Zero-cost objective used to time the BO proposal machinery itself."""

    def __call__(self, spec):
        value = float(spec.total_skips()) / max(spec.encode().size, 1)
        return EvaluationResult(spec=spec, objective_value=value, accuracy=1 - value)


@benchmark_case
def test_bo_proposal_round(benchmark):
    """One surrogate fit + acquisition maximisation + batch proposal."""
    space = SearchSpace([BlockSearchInfo(depth=4), BlockSearchInfo(depth=4)])

    def run():
        optimizer = BayesianOptimizer(space, _FreeObjective(), initial_points=8, candidate_pool_size=64, rng=0)
        optimizer.optimize(3)

    benchmark(run)


# ---------------------------------------------------------------------------
# standalone script mode (CI artifact + regression gate input)
# ---------------------------------------------------------------------------

def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _pair(autograd_s: float, fast_s: float) -> Dict[str, float]:
    return {
        "autograd_ms": autograd_s * 1e3,
        "fast_ms": fast_s * 1e3,
        "speedup": autograd_s / fast_s if fast_s > 0 else float("inf"),
    }


def bench_conv_forward(repeats: int) -> Dict[str, float]:
    """Autograd conv forward (einsum + graph) vs graph-free GEMM fast path."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(8, 8, 16, 16)))
    w = Tensor(rng.normal(size=(16, 8, 3, 3)), requires_grad=True)
    reference = conv2d(x, w, padding=1).data
    with no_grad():
        fast = conv2d(x, w, padding=1).data
    if not np.array_equal(reference, fast):  # pragma: no cover - equality gate
        raise AssertionError("conv2d fast path diverged from the autograd path")

    def autograd() -> None:
        conv2d(x, w, padding=1)

    def inference() -> None:
        with no_grad():
            conv2d(x, w, padding=1)

    return _pair(_time(autograd, repeats), _time(inference, repeats))


def bench_lif_step(repeats: int, steps: int = 8) -> Dict[str, float]:
    """Per-step cost of a LIF sequence: autograd vs the graph-free array step.

    The autograd variant drives the neuron with a grad-tracked input — as in
    training, where the preceding convolution's output carries the graph — so
    the measured pair is the real training-forward step against the real
    inference step.
    """
    rng = np.random.default_rng(0)
    values = rng.normal(size=(16, 16, 16, 16))
    tracked = Tensor(values, requires_grad=True)
    current = Tensor(values)
    reference_neuron = LIFNeuron(beta=0.9)
    fast_neuron = LIFNeuron(beta=0.9)
    reference = _lif_sequence(reference_neuron, tracked, steps).data.copy()
    with no_grad():
        fast = _lif_sequence(fast_neuron, current, steps).data
    if not np.array_equal(reference, fast):  # pragma: no cover - equality gate
        raise AssertionError("LIF fast path diverged from the autograd path")

    def autograd() -> None:
        _lif_sequence(reference_neuron, tracked, steps)

    def inference() -> None:
        with no_grad():
            _lif_sequence(fast_neuron, current, steps)

    row = _pair(_time(autograd, repeats) / steps, _time(inference, repeats) / steps)
    row["steps"] = float(steps)
    return row


def bench_temporal_eval(repeats: int, num_steps: int = 5) -> Dict[str, float]:
    """Whole-model SNN evaluation forward: autograd path vs fast path."""
    rng = np.random.default_rng(0)
    template = get_template("resnet18", input_channels=2, num_classes=10, stage_channels=(6, 8))
    model = template.build(spiking=True, rng=0)
    model.eval()
    runner = TemporalRunner(model, num_steps=num_steps)
    batch = rng.random((8, 2, 12, 12))
    reference = runner(batch).data.copy()
    with no_grad():
        fast = runner(batch).data
    if not np.array_equal(reference, fast):  # pragma: no cover - equality gate
        raise AssertionError("temporal fast path diverged from the autograd path")

    def autograd() -> None:
        runner(batch)

    def inference() -> None:
        with no_grad():
            runner(batch)

    row = _pair(_time(autograd, repeats), _time(inference, repeats))
    row["num_steps"] = float(num_steps)
    return row


def bench_tracing_overhead(repeats: int, num_steps: int = 5) -> Dict[str, float]:
    """Disabled-tracing overhead of the span instrumentation on the eval path.

    Tracing is off by default, so the only cost the subsystem is allowed to
    add to a hot path is the price of entering a *disabled* span (the call
    returns the falsy no-op singleton without touching a clock).  This case
    times the whole-model evaluation fast path with tracing disabled — the
    production configuration, already paying every disabled span/ops-span
    check — then counts how many span sites one such evaluation crosses (a
    single fully-traced run with op profiling into a throwaway recorder) and
    microbenches the disabled span entry itself.  The reported
    ``overhead_ratio`` is measured time over the implied span-free time,
    gated under 1.02 by ``tools/bench_gate.py`` (``MAX_RATIOS``).
    """
    from repro.trace import FlightRecorder, span, tracing

    rng = np.random.default_rng(0)
    template = get_template("resnet18", input_channels=2, num_classes=10, stage_channels=(6, 8))
    model = template.build(spiking=True, rng=0)
    model.eval()
    runner = TemporalRunner(model, num_steps=num_steps)
    batch = rng.random((8, 2, 12, 12))

    def evaluate() -> None:
        with no_grad():
            runner(batch)

    eval_s = _time(evaluate, repeats)

    recorder = FlightRecorder(capacity=1 << 20)
    with tracing(recorder=recorder, ops=True):
        evaluate()
    span_sites = len(recorder)

    iterations = 20_000

    def disabled_spans() -> None:
        for _ in range(iterations):
            with span("bench"):
                pass

    per_span_s = _time(disabled_spans, max(repeats // 4, 3)) / iterations
    span_free_s = max(eval_s - span_sites * per_span_s, 1e-12)
    return {
        "eval_ms": eval_s * 1e3,
        "span_sites": float(span_sites),
        "disabled_span_ns": per_span_s * 1e9,
        "overhead_ratio": eval_s / span_free_s,
    }


def _assert_fused_matches_graph(build, batch, targets) -> None:
    """One step on each path from the same initial state: loss, logits and
    every parameter gradient must be bit-identical."""
    from repro.snn.fused_step import fused_training

    def one_step(runner: TemporalRunner):
        model = runner.model
        model.zero_grad()
        logits = runner(batch)
        loss = CrossEntropyLoss()(logits, targets)
        loss.backward()
        grads = {
            name: None if p.grad is None else np.array(p.grad)
            for name, p in model.named_parameters()
        }
        return float(loss.item()), np.array(logits.data), grads

    with fused_training("off"):
        graph_loss, graph_logits, graph_grads = one_step(build())
    with fused_training("on"):
        fused_loss, fused_logits, fused_grads = one_step(build())
    assert graph_loss == fused_loss, "fused loss diverged from graph autograd"
    assert np.array_equal(graph_logits, fused_logits), "fused logits diverged"
    for name, reference in graph_grads.items():
        candidate = fused_grads[name]
        if reference is None or candidate is None:
            assert reference is None and candidate is None, f"grad {name}: one path missing"
            continue
        assert np.array_equal(reference, candidate), f"fused grad {name} diverged"


#: the geometries perfbench's searches train at: (time steps, image size, stage channels)
PERFBENCH_GEOMETRIES = {"smoke": (4, 10, (4, 6)), "default": (6, 12, (6, 10))}


def bench_bptt_geometry(repeats: int) -> Dict[str, Dict[str, float]]:
    """The fused kernel's forward and adjoint at perfbench's geometries (report only).

    Batch 16 of a default-wiring resnet18, as a search's candidate fine-tune
    trains it.  Bit-identity with the recorded graph is asserted at each
    geometry first, since GEMM bits depend on shape.  Times are the best of
    ``repeats`` steps, in ms; nothing gates them.
    """
    from repro.snn.fused_step import fused_training

    rows: Dict[str, Dict[str, float]] = {}
    for name, (num_steps, size, stages) in PERFBENCH_GEOMETRIES.items():
        rng = np.random.default_rng(0)
        batch = rng.random((16, 2, size, size))
        targets = rng.integers(0, 10, size=16)

        def build() -> TemporalRunner:
            template = get_template(
                "resnet18", input_channels=2, num_classes=10, stage_channels=stages
            )
            return TemporalRunner(template.build(spiking=True, rng=0), num_steps=num_steps)

        _assert_fused_matches_graph(build, batch, targets)
        runner = build()
        forward_s = adjoint_s = float("inf")
        with fused_training("on"):
            for _ in range(repeats + 1):  # the first step allocates the kernel's buffers
                runner.model.zero_grad()
                start = time.perf_counter()
                loss = CrossEntropyLoss()(runner(batch), targets)
                middle = time.perf_counter()
                loss.backward()
                end = time.perf_counter()
                forward_s = min(forward_s, middle - start)
                adjoint_s = min(adjoint_s, end - middle)
        rows[name] = {"forward_ms": forward_s * 1e3, "adjoint_ms": adjoint_s * 1e3}
    return rows


def bench_bptt_step(repeats: int) -> Dict[str, float]:
    """One BPTT training step: recorded-graph autograd vs the fused kernel.

    Before timing, one step runs on each path from identical initial state
    (template ``build`` is deterministic under a fixed seed) and the loss, the
    logits and every parameter gradient are asserted **bit-identical** — the
    contract (see :mod:`repro.snn.fused_step`) that makes the two timings
    comparable.
    """
    from repro.snn.fused_step import fused_training

    loss_fn = CrossEntropyLoss()
    rng = np.random.default_rng(0)
    batch = rng.random((8, 2, 12, 12))
    targets = rng.integers(0, 10, size=8)

    def build() -> TemporalRunner:
        template = get_template(
            "resnet18", input_channels=2, num_classes=10, stage_channels=(6, 8)
        )
        return TemporalRunner(template.build(spiking=True, rng=0), num_steps=5)

    _assert_fused_matches_graph(build, batch, targets)
    runner = build()

    def step() -> None:
        runner.model.zero_grad()
        loss_fn(runner(batch), targets).backward()

    with fused_training("off"):
        autograd_s = _time(step, repeats)
    with fused_training("on"):
        fused_s = _time(step, repeats)
    return {
        "autograd_ms": autograd_s * 1e3,
        "fused_ms": fused_s * 1e3,
        "speedup": autograd_s / fused_s if fused_s > 0 else float("inf"),
    }


def format_report(payload: Dict[str, Dict[str, float]]) -> str:
    """Human-readable substrate report."""
    lines = ["Substrate hot paths: autograd vs graph-free inference"]
    lines.append(f"{'case':>16} {'autograd ms':>12} {'fast ms':>10} {'speedup':>9}")
    for case in ("conv2d_forward", "lif_step", "temporal_eval"):
        row = payload[case]
        lines.append(
            f"{case:>16} {row['autograd_ms']:>12.3f} {row['fast_ms']:>10.3f} {row['speedup']:>8.1f}x"
        )
    bptt = payload["bptt_step"]
    lines.append(
        f"BPTT training step: graph {bptt['autograd_ms']:.1f} ms vs "
        f"fused {bptt['fused_ms']:.1f} ms ({bptt['speedup']:.2f}x, "
        "loss/logits/grads bit-identical before timing)"
    )
    for name, row in payload["bptt_geometry"].items():
        lines.append(
            f"fused BPTT at perfbench {name} geometry (batch 16): forward "
            f"{row['forward_ms']:.2f} ms, adjoint {row['adjoint_ms']:.2f} ms (report only)"
        )
    lines.append("(fast-path outputs verified bit-identical to the autograd path before timing)")
    trace_row = payload["tracing_overhead"]
    lines.append(
        f"disabled-tracing overhead: {trace_row['overhead_ratio']:.4f}x over "
        f"{trace_row['span_sites']:.0f} span sites "
        f"({trace_row['disabled_span_ns']:.0f} ns per disabled span, ceiling 1.02x)"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Benchmark entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description="Benchmark the evaluation substrate hot paths")
    parser.add_argument("--smoke", action="store_true", help="CI-sized run (fewer repeats)")
    parser.add_argument("--output", default=None, help="optional path for the JSON timings")
    args = parser.parse_args(argv)

    repeats = 20 if args.smoke else 100
    heavy_repeats = 3 if args.smoke else 10

    payload: Dict[str, object] = {
        "conv2d_forward": bench_conv_forward(repeats),
        "lif_step": bench_lif_step(repeats),
        "temporal_eval": bench_temporal_eval(heavy_repeats),
        "bptt_step": bench_bptt_step(heavy_repeats),
        "bptt_geometry": bench_bptt_geometry(heavy_repeats),
        "tracing_overhead": bench_tracing_overhead(heavy_repeats),
        "smoke": bool(args.smoke),
    }
    print(format_report(payload))

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nsaved timings to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
