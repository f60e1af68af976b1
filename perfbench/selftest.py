"""Self-test of the benchmark: every workload once at smoke scale.

    python3 perfbench/selftest.py

Runs ``run.main`` in this process on each workload, cut down to a
4-evaluation smoke-scale search, with ``--trace 0`` and ``--trace 1``.  It
asserts that the correctness check passes, that every serial search's front
was compared with its committed reference, and that every metric
``BENCHMARK.json`` declares is reported with its unit (every end-to-end one
non-zero).  A deliberately wrong reference must then fail the check, and a
copy holding only ``BENCHMARK.json`` and the benchmark's files must exit
non-zero without printing a result.  Takes under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: the workloads, cut down to a 4-evaluation smoke-scale search each
SMOKE_WORKLOADS = {
    name: replace(workload, scale="smoke", evaluations=4) for name, workload in run.WORKLOADS.items()
}


def bench(workload: str, trace: int) -> tuple:
    """``(result line, whole output)`` of one in-process benchmark run at seed 0."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)])
    text = output.getvalue()
    assert code == 0, f"{workload} --trace {trace} exited {code}:\n{text}"
    result = json.loads(text.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result, text


def check_declared_metrics(spec: dict) -> None:
    declared = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    assert declared[0] == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end differs from run.py"
    assert declared[1] == run.PER_LAYER_UNITS, "BENCHMARK.json per_layer differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload lists differ"


def references_apply() -> bool:
    """Whether the committed references were made on this machine's BLAS kernels and NumPy."""
    config = run.Config("", 0, 0.0, "smoke", 4, 1, ())
    payload = json.loads(run.reference_path(config).read_text())
    return payload["platform"] == run.platform_key()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declared_metrics(spec)
    run.WORKLOADS.update(SMOKE_WORKLOADS)
    checked = references_apply()
    if not checked:
        print("note: references/ was made on other BLAS kernels or NumPy; fronts go unchecked")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result, text = bench(workload, trace)
            assert result["correct"] and result["failed"] == 0, text
            if checked and "--async-workers" not in run.WORKLOADS[workload].extra:
                assert "front unchecked" not in text, text
            units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert reported == units, f"{workload} trace {trace}: metrics {sorted(reported)}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
                # only end-to-end metrics must never be 0; a layer a workload
                # does not use reports 0 (README.md)
                assert trace or metric["value"] > 0, (workload, name, metric)
            print(f"ok  {workload} --trace {trace}: {len(reported)} metrics, {result['attempted']} evaluations")

    if checked:
        load_reference = run.load_reference
        run.load_reference = lambda config, seed: ([[[0], 0.0, 0.0]], "")
        try:
            result, _text = bench("pareto_cold", 0)
        finally:
            run.load_reference = load_reference
        assert not result["correct"] and result["failed"] == result["attempted"], result
        print("ok  a wrong reference front fails the check")

    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [*spec["command"], "--workload", "pareto_cold", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode != 0 and not done.stdout.strip(), "a bare copy must fail without a result"
        print("ok  bare copy fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
