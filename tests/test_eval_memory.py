"""A long search holds steady memory: evaluations leave nothing behind.

Every candidate fit compiles a fresh fused kernel whose residual stash is
several MB at smoke scale.  If anything kept those stashes alive after the
fit, each evaluation would raise its worker's peak RSS by the stash size and
a long search would end in an OOM kill.  The ``evaluate`` span records
``maxrss_delta_mb`` — how far the evaluation pushed its process's peak RSS —
so a traced two-worker search shows the trend per worker: after a few
warm-up evaluations (first compilations, pool scratch, the largest
architectures seen so far) the peak must stay flat.

CI re-runs this file under ``REPRO_MP_START_METHOD=spawn``, where each
worker is a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from repro.trace import max_rss_mb

SRC = Path(__file__).resolve().parents[1] / "src"

#: evaluations per worker whose peak-RSS growth is expected (first kernels)
WARM_UP = 3
#: mean per-evaluation peak growth allowed after warm-up; a leaked smoke-scale
#: residual stash adds about 7.5 MB to every evaluation
FLAT_MB = 2.5


@pytest.mark.skipif(max_rss_mb() is None, reason="getrusage is not available")
def test_worker_peak_rss_stays_flat_after_warm_up(tmp_path):
    trace = tmp_path / "trace.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "pareto",
            "--scale", "smoke", "--iterations", "16", "--async-workers", "2",
            "--trace", str(trace),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    spans = [json.loads(line) for line in trace.read_text().splitlines() if line.strip()]
    evaluations = sorted(
        (span for span in spans if span["name"] == "evaluate"), key=lambda span: span["start"]
    )
    deltas = defaultdict(list)
    for span in evaluations:
        deltas[span["pid"]].append(span["attrs"]["maxrss_delta_mb"])
    assert len(deltas) == 2, "expected evaluations from two worker processes"
    for pid, growth in deltas.items():
        assert len(growth) > WARM_UP, f"worker {pid} ran only {len(growth)} evaluations"
        later = growth[WARM_UP:]
        assert statistics.mean(later) < FLAT_MB, (
            f"worker {pid} peak RSS grew on every evaluation after warm-up: {growth}"
        )
