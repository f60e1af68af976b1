"""Regression gate over the substrate benchmark artifact.

Compares the JSON emitted by ``benchmarks/bench_substrate.py`` against the
committed baseline ``benchmarks/BENCH_5.json`` and fails (exit code 1) when a
substrate hot path regressed.  Two kinds of check:

* **speedup ratios** (``<case>.speedup`` — fast path over autograd path) are
  dimensionless, so they transfer across machines: the gate fails when a
  ratio drops more than ``--threshold`` (default 30%) below the baseline, or
  below the hard acceptance floors (the inference-mode LIF step and conv2d
  forward must stay at least 2x faster than the autograd path, and the
  fused BPTT training step at least 1.8x faster than the recorded-graph
  autograd step) — and the disabled-tracing
  overhead ratio must stay under its hard ceiling (1.02x: span
  instrumentation may cost at most 2% of a whole-model evaluation while
  tracing is off);
* **absolute timings** (``*_ms`` / ``ms``) are hardware-dependent — CI
  runners differ from the baseline machine — so by default they are only
  *reported*; pass ``--absolute`` to gate them too (useful when baseline and
  current run on the same box, e.g. a local pre-merge check).

Usage (what the CI bench-smoke job runs)::

    PYTHONPATH=src python benchmarks/bench_substrate.py --smoke --output bench-substrate.json
    python tools/bench_gate.py --baseline benchmarks/BENCH_5.json --current bench-substrate.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: hard floors pinned by acceptance criteria: the PR-5 inference fast paths
#: must stay at least 2x faster than autograd, and the PR-10 fused BPTT step
#: must stay at least 1.8x faster than the recorded-graph autograd step (the
#: committed BENCH_10.json baseline measures ~2.2x; the floor leaves noise
#: headroom while still catching a fused-path regression to graph speed)
MIN_SPEEDUPS: Dict[str, float] = {
    "conv2d_forward": 2.0,
    "lif_step": 2.0,
    "bptt_step": 1.8,
}

#: hard ceilings on dimensionless overhead ratios, keyed by flattened metric
#: path: the span instrumentation must cost under 2% of a whole-model SNN
#: evaluation while tracing is disabled (the default state).  Ceilings are
#: checked against the current artifact only — they do not need a baseline.
MAX_RATIOS: Dict[str, float] = {
    "tracing_overhead.overhead_ratio": 1.02,
}


def _numeric_leaves(payload: Dict, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts to ``case.metric`` -> float (non-numerics dropped)."""
    flat: Dict[str, float] = {}
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_numeric_leaves(value, prefix=f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[path] = float(value)
    return flat


def gate(
    baseline: Dict,
    current: Dict,
    threshold: float = 0.30,
    gate_absolute: bool = False,
) -> List[str]:
    """Return the list of gate failures (empty = pass)."""
    failures: List[str] = []
    base_flat = _numeric_leaves(baseline)
    cur_flat = _numeric_leaves(current)

    for case, floor in MIN_SPEEDUPS.items():
        key = f"{case}.speedup"
        value = cur_flat.get(key)
        if value is None:
            failures.append(f"{key}: missing from the current artifact")
        elif value < floor:
            failures.append(f"{key}: {value:.2f}x is below the acceptance floor {floor:.1f}x")

    for key, ceiling in MAX_RATIOS.items():
        value = cur_flat.get(key)
        if value is None:
            failures.append(f"{key}: missing from the current artifact")
        elif value > ceiling:
            failures.append(f"{key}: {value:.4f}x exceeds the acceptance ceiling {ceiling:.2f}x")

    for key, base_value in sorted(base_flat.items()):
        if key not in cur_flat:
            if key.endswith(".speedup"):
                failures.append(f"{key}: present in baseline but missing from the current artifact")
            continue
        value = cur_flat[key]
        if key.endswith(".speedup"):
            # ratios regress when they shrink
            if base_value > 0 and value < base_value * (1.0 - threshold):
                failures.append(
                    f"{key}: {value:.2f}x regressed >{threshold:.0%} vs baseline {base_value:.2f}x"
                )
        elif gate_absolute and (key.endswith("_ms") or key.endswith(".ms")):
            # timings regress when they grow
            if base_value > 0 and value > base_value * (1.0 + threshold):
                failures.append(
                    f"{key}: {value:.3f} ms regressed >{threshold:.0%} vs baseline {base_value:.3f} ms"
                )
    return failures


def format_comparison(baseline: Dict, current: Dict) -> str:
    """Side-by-side report of every shared numeric metric."""
    base_flat = _numeric_leaves(baseline)
    cur_flat = _numeric_leaves(current)
    lines = [f"{'metric':<32} {'baseline':>12} {'current':>12} {'delta':>8}"]
    for key in sorted(set(base_flat) & set(cur_flat)):
        base_value, value = base_flat[key], cur_flat[key]
        delta = (value - base_value) / base_value if base_value else float("inf")
        lines.append(f"{key:<32} {base_value:>12.3f} {value:>12.3f} {delta:>+7.0%}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Gate entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description="Gate substrate benchmark regressions")
    parser.add_argument("--baseline", default="benchmarks/BENCH_5.json", help="committed baseline JSON")
    parser.add_argument("--current", required=True, help="freshly produced benchmark JSON")
    parser.add_argument(
        "--threshold", type=float, default=0.30, help="relative regression tolerance (default 0.30)"
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also gate absolute *_ms timings (only meaningful on the baseline machine)",
    )
    args = parser.parse_args(argv)

    for label, path in (("baseline", args.baseline), ("current", args.current)):
        if not Path(path).is_file():
            print(
                f"bench gate: {label} file {path!r} does not exist — refusing to "
                "gate against nothing (was the benchmark artifact renamed or the "
                "bench step skipped?)",
                file=sys.stderr,
            )
            return 1
    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())

    print(format_comparison(baseline, current))
    failures = gate(baseline, current, threshold=args.threshold, gate_absolute=args.absolute)
    if failures:
        print("\nBENCH GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
