"""End-to-end benchmark of the GP search engine.

Four measurements, so the cost of the search engine — and of the
weight-snapshot tier — are tracked numbers instead of claims:

1. **End-to-end BO iteration throughput** — wall-clock per Bayesian
   optimization iteration on a synthetic objective (batch_size=4,
   constant-liar batches), with a 300-point history: larger than any
   search the repo runs, so the per-proposal GP refits show.
2. **Weight-snapshot overhead** — put (content hash + atomic flat ``.snap``
   write) and replay (one file read + merge into a ``WeightStore``) latency
   of one trained-state snapshot, against the cost of the candidate
   evaluation it saves on a cache hit (a real tiny fine-tune).
3. **Worker pool vs. serial barrier** — wall-clock per evaluation of the
   search loop with ``async_workers=N`` (N evaluations in flight on the
   worker pool, one replacement per absorbed result) against
   ``async_workers=0`` (barrier iterations of ``batch_size=N`` evaluated in
   this process) on a straggler-skewed synthetic objective, where a
   minority of candidates are several times slower than the rest.
4. **Multi-objective engine** — wall-clock per evaluation of the
   random-scalarization Pareto search (one GP per objective,
   front + hypervolume bookkeeping) on a synthetic two-objective trade-off,
   plus the hypervolume-vs-evaluations curve at a few checkpoints so front
   convergence is tracked alongside throughput.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_search.py            # full numbers
    PYTHONPATH=src python benchmarks/bench_search.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_search.py --output bench.json

The JSON output is uploaded as a CI artifact by the benchmark smoke job so
regressions show up in the workflow history.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.bayes_opt import BayesianOptimizer
from repro.core.objectives import EvaluationResult, Objective
from repro.core.search_space import ArchitectureSpec, BlockSearchInfo, SearchSpace


class SyntheticObjective(Objective):
    """Deterministic, instant stand-in for the accuracy-drop objective.

    The value is a smooth function of the encoding so the GP has structure to
    model, but evaluation costs nothing — the benchmark isolates the *search
    engine* (GP fits, constant-liar proposals).
    """

    def __init__(self) -> None:
        self.num_evaluations = 0

    def __call__(self, spec: ArchitectureSpec) -> EvaluationResult:
        self.num_evaluations += 1
        encoding = spec.encode()
        value = float(np.cos(encoding).sum() / max(len(encoding), 1)) + 0.01 * spec.total_skips()
        return EvaluationResult(spec=spec, objective_value=value, accuracy=1.0 - value)


class StragglerObjective(Objective):
    """Synthetic objective with deterministic, encoding-derived stragglers.

    Evaluation cost in real searches is skewed: a candidate with more skip
    connections builds a bigger model and fine-tunes slower.  This objective
    reproduces that skew reproducibly — most candidates sleep ``base_ms``,
    but any whose encoding sum falls on a multiple of ``straggler_every``
    sleeps ``straggler_ms`` — so the batch path's straggler barrier shows up
    as measurable idle time.  Module-level and stateless per call, so it
    pickles under any multiprocessing start method.
    """

    def __init__(self, base_ms: float = 2.0, straggler_ms: float = 20.0, straggler_every: int = 4) -> None:
        self.base_ms = float(base_ms)
        self.straggler_ms = float(straggler_ms)
        self.straggler_every = int(straggler_every)
        self.num_evaluations = 0

    def delay_ms(self, spec: ArchitectureSpec) -> float:
        """The deterministic evaluation cost of one candidate."""
        total = int(spec.encode().sum())
        return self.straggler_ms if total % self.straggler_every == 0 else self.base_ms

    def __call__(self, spec: ArchitectureSpec) -> EvaluationResult:
        self.num_evaluations += 1
        time.sleep(self.delay_ms(spec) / 1e3)
        encoding = spec.encode()
        value = float(np.cos(encoding).sum() / max(len(encoding), 1)) + 0.01 * spec.total_skips()
        return EvaluationResult(spec=spec, objective_value=value, accuracy=1.0 - value)


def make_search_space(num_blocks: int = 4, depth: int = 6) -> SearchSpace:
    """A search space large enough that random pools never exhaust it."""
    return SearchSpace(
        [BlockSearchInfo(depth=depth, name=f"block{i}") for i in range(num_blocks)],
        name="bench-space",
    )


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_bo_iterations(
    preseed: int,
    iterations: int,
    batch_size: int = 4,
    pool_size: int = 64,
) -> Dict[str, float]:
    """Time BO iterations at a realistic history size.

    The history is preseeded with ``preseed`` evaluations so the GP is at a
    realistic production size when timing starts; the synthetic objective is
    free, so the per-iteration time is dominated by the surrogate machinery.
    """
    optimizer = BayesianOptimizer(
        make_search_space(),
        SyntheticObjective(),
        initial_points=preseed,
        batch_size=batch_size,
        candidate_pool_size=pool_size,
        rng=0,
    )
    optimizer.optimize(0)  # evaluate the preseed points only
    start = time.perf_counter()
    optimizer.optimize(iterations)
    elapsed = time.perf_counter() - start
    return {
        "s_per_iter": elapsed / iterations,
        "preseed": float(preseed),
        "iterations": float(iterations),
        "batch_size": float(batch_size),
    }


def bench_snapshot_store(repeats: int) -> Dict[str, float]:
    """Snapshot put/replay latency vs. the evaluation cost a replay avoids.

    The state is a real trained candidate (single-block template, tiny
    synthetic event data), so tensor count and sizes match what a table1
    search persists; the evaluation cost is the wall-clock of that candidate's
    one-epoch fine-tune — the work a store hit skips while the snapshot
    replay keeps its weight updates.
    """
    import tempfile

    from repro.core.objectives import AccuracyDropObjective
    from repro.core.snapshots import WeightSnapshotStore
    from repro.core.weight_sharing import WeightStore
    from repro.data import load_dataset
    from repro.models import build_single_block_template
    from repro.training.snn_trainer import SNNTrainingConfig

    splits = load_dataset("cifar10-dvs", num_samples=60, image_size=8, num_steps=4, seed=0)
    template = build_single_block_template(input_channels=2, num_classes=10, channels=4)
    objective = AccuracyDropObjective(
        template=template,
        splits=splits,
        training_config=SNNTrainingConfig(epochs=1, batch_size=16, num_steps=4, seed=0),
        weight_store=WeightStore(),
        measure_firing_rate=False,
    )
    spec = template.search_space().default_spec()
    evaluation_s = _time(lambda: objective(spec), repeats)
    result = objective(spec)
    state = result.weight_update.state

    with tempfile.TemporaryDirectory() as tmp:
        snapshots = WeightSnapshotStore(tmp, keep_best=max(64, repeats + 1))
        # content-addressing makes re-putting identical state free, so each
        # timed put perturbs one tensor to force a full hash + write
        counter = {"i": 0}

        def put() -> None:
            counter["i"] += 1
            perturbed = dict(state)
            first_key = next(iter(perturbed))
            perturbed[first_key] = perturbed[first_key] + counter["i"] * 1e-9
            snapshots.put(perturbed, score=0.5)

        put_s = _time(put, repeats)
        digest = snapshots.put(state, score=0.9)

        def replay() -> None:
            loaded = snapshots.get(digest)
            target = WeightStore()
            target.update_from_state(loaded, score=0.9, only_if_better=True)
            target.merge_from_state(loaded)

        replay_s = _time(replay, repeats)
        snapshot_bytes = snapshots.total_bytes() / max(len(snapshots), 1)

    overhead = (put_s + replay_s) / evaluation_s if evaluation_s > 0 else float("inf")
    return {
        "put_ms": put_s * 1e3,
        "replay_ms": replay_s * 1e3,
        "evaluation_ms": evaluation_s * 1e3,
        "overhead_fraction": overhead,
        "tensors": float(len(state)),
        "snapshot_bytes": float(snapshot_bytes),
    }


def bench_async_vs_batch(
    workers: int,
    iterations: int,
    initial_points: int = 4,
    pool_size: int = 48,
) -> Dict[str, float]:
    """Wall-clock per evaluation: ``async_workers=workers`` vs. ``async_workers=0``.

    Both arms run the same budget (``initial_points + iterations *
    workers`` evaluations, ``batch_size=workers``) against the same
    straggler-skewed objective; only the execution strategy differs.  The
    ``barrier`` arm evaluates each batch serially in this process, so it
    pays the full sleep time; the ``async`` arm keeps ``workers`` evaluations
    in flight on the pool.  The ``ideal_ms_per_eval`` row is the lower bound
    a perfectly utilised pool could reach (total sleep time divided by the
    worker count); the async arm lands above it by what ticket-order
    absorption waits behind a straggler.
    """
    timings: Dict[str, float] = {"workers": float(workers), "iterations": float(iterations)}
    total_delay_ms = 0.0
    evaluations = 0
    for label, engine_kwargs in (
        ("barrier", {"async_workers": 0}),
        ("async", {"async_workers": workers}),
    ):
        space = make_search_space()
        objective = StragglerObjective()
        optimizer = BayesianOptimizer(
            space,
            objective,
            initial_points=initial_points,
            batch_size=workers,
            candidate_pool_size=pool_size,
            rng=0,
            **engine_kwargs,
        )
        start = time.perf_counter()
        history = optimizer.optimize(iterations)
        elapsed = time.perf_counter() - start
        timings[f"{label}_ms_per_eval"] = elapsed * 1e3 / len(history)
        total_delay_ms += sum(objective.delay_ms(record.spec) for record in history)
        evaluations += len(history)
    timings["evaluations_per_engine"] = evaluations / 2.0
    # lower bound: every worker busy 100% of the time on the average workload
    timings["ideal_ms_per_eval"] = total_delay_ms / evaluations / workers
    timings["speedup"] = timings["barrier_ms_per_eval"] / timings["async_ms_per_eval"]
    return timings


def bench_multi_objective(
    preseed: int,
    iterations: int,
    pool_size: int = 64,
) -> Dict[str, float]:
    """Throughput and front quality of the multi-objective engine.

    The objective is the instant synthetic trade-off of
    :class:`~repro.core.objectives.SyntheticWeightObjective` (accuracy vs. a
    skip-count-correlated energy), so the timing isolates the engine: two
    GP fits per proposal, scalarised proposals over the
    persistent candidate pool, non-dominated insertion and the hypervolume
    indicator.  Checkpointed hypervolumes make front convergence a tracked
    number next to ms/eval.
    """
    from repro.core.multi_objective import MultiObjectiveBayesianOptimizer
    from repro.core.objectives import SyntheticWeightObjective

    space = make_search_space()
    optimizer = MultiObjectiveBayesianOptimizer(
        space,
        SyntheticWeightObjective(),
        objectives=("accuracy", "energy"),
        initial_points=preseed,
        batch_size=1,
        candidate_pool_size=pool_size,
        rng=0,
    )
    optimizer.optimize(0)  # evaluate the warm start only
    start = time.perf_counter()
    optimizer.optimize(iterations)
    elapsed = time.perf_counter() - start
    curve = optimizer.hypervolume_history
    # curve entry i was recorded at evaluation preseed + i (the trace starts
    # at the warm-start observation that fixed the reference point)
    checkpoints = {
        f"hypervolume_at_{preseed + index}": float(curve[index])
        for index in sorted({0, len(curve) // 2, len(curve) - 1})
        if 0 <= index < len(curve)
    }
    return {
        "ms_per_eval": elapsed * 1e3 / max(iterations, 1),
        "evaluations": float(len(optimizer.history)),
        "front_size": float(len(optimizer.front)),
        "final_hypervolume": float(curve[-1]) if curve else 0.0,
        "preseed": float(preseed),
        **checkpoints,
    }


def format_report(
    bo: Dict[str, float],
    snap: Dict[str, float],
    async_rows: Optional[Dict[str, float]] = None,
    mo: Optional[Dict[str, float]] = None,
) -> str:
    """Human-readable benchmark report."""
    lines = [
        f"BO end-to-end (batch_size={int(bo['batch_size'])}, history preseed={int(bo['preseed'])}): "
        f"{bo['s_per_iter'] * 1e3:.1f} ms/iter",
        "",
    ]
    lines.append(
        f"Weight snapshots ({int(snap['tensors'])} tensors, {snap['snapshot_bytes'] / 1024:.1f} KiB): "
        f"put {snap['put_ms']:.2f} ms, replay {snap['replay_ms']:.2f} ms vs "
        f"evaluation {snap['evaluation_ms']:.1f} ms "
        f"({100 * snap['overhead_fraction']:.2f}% of the work a cache hit saves)"
    )
    if async_rows is not None:
        lines.append("")
        lines.append(
            f"Worker pool vs serial barrier (straggler objective, async_workers="
            f"{int(async_rows['workers'])} vs 0, {int(async_rows['evaluations_per_engine'])} evals/arm): "
            f"barrier {async_rows['barrier_ms_per_eval']:.1f} ms/eval, "
            f"async {async_rows['async_ms_per_eval']:.1f} ms/eval "
            f"({async_rows['speedup']:.1f}x; ideal utilisation {async_rows['ideal_ms_per_eval']:.1f} ms/eval)"
        )
    if mo is not None:
        checkpoints = ", ".join(
            f"{key.split('_at_')[1]} evals: {value:.3f}"
            for key, value in sorted(
                (kv for kv in mo.items() if kv[0].startswith("hypervolume_at_")),
                key=lambda kv: int(kv[0].split("_at_")[1]),
            )
        )
        lines.append("")
        lines.append(
            f"Multi-objective engine (2 objectives, preseed={int(mo['preseed'])}): "
            f"{mo['ms_per_eval']:.1f} ms/eval, front size {int(mo['front_size'])}, "
            f"hypervolume [{checkpoints}]"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Benchmark entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description="Benchmark the GP search engine")
    parser.add_argument("--smoke", action="store_true", help="CI-sized run (fewer repeats/iterations)")
    parser.add_argument("--output", default=None, help="optional path for the JSON timings")
    args = parser.parse_args(argv)

    repeats = 2 if args.smoke else 5
    preseed = 200 if args.smoke else 300
    iterations = 3 if args.smoke else 10

    async_iterations = 4 if args.smoke else 12

    mo_iterations = 30 if args.smoke else 120
    mo_preseed = 20 if args.smoke else 40

    bo = bench_bo_iterations(preseed=preseed, iterations=iterations)
    snap = bench_snapshot_store(repeats=repeats)
    async_rows = bench_async_vs_batch(workers=2, iterations=async_iterations)
    mo = bench_multi_objective(preseed=mo_preseed, iterations=mo_iterations)
    print(format_report(bo, snap, async_rows, mo))

    if args.output:
        payload = {
            "bo_iterations": bo,
            "snapshot_store": snap,
            "async_executor": async_rows,
            "multi_objective": mo,
            "smoke": bool(args.smoke),
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nsaved timings to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
