"""Pinned search entry points: the stores and histories of every real search.

``data/search_entry_points.json`` holds, for each entry point that builds a
search over a trained objective, the sorted names of the evaluation stores
(and their weight-snapshot directories) it leaves in its cache directory and
its history in absorption order.  The store names embed the configuration
fingerprint, so any change to how a search derives its training recipe, its
data or its store scope shows up here as a mismatch, and so does any change
to what the search evaluates.

Every run is at smoke scale on the ``single_block`` model.  CI re-runs this
file under ``REPRO_MP_START_METHOD=spawn``: the two-worker Pareto run pickles
the constructed objective across a real process boundary there.

Re-record (only for a deliberate change of objective or store scope) with
``PYTHONPATH=src python tests/test_search_entry_points.py --record``.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.experiments import get_scale
from repro.experiments.figure3 import run_figure3
from repro.experiments.pareto_front import run_pareto_front
from repro.experiments.table1 import run_table1_cell
from repro.server.jobs import TERMINAL_STATES, JobManager

PINNED = Path(__file__).parent / "data" / "search_entry_points.json"
SMOKE = get_scale("smoke")
MODEL = "single_block"


def store_names(cache_dir: Path) -> list:
    """Evaluation stores and snapshot directories a search left behind."""
    return sorted(p.name for p in Path(cache_dir).iterdir() if p.suffix in (".jsonl", ".weights"))


def record_entries(history) -> list:
    return [
        {"encoding": [int(v) for v in record.spec.encode()], "objective_value": record.objective_value}
        for record in history
    ]


def run_pareto(cache_dir: Path, async_workers: int) -> list:
    events = []
    run_pareto_front(
        scale=SMOKE,
        model=MODEL,
        iterations=4,
        cache_dir=str(cache_dir),
        async_workers=async_workers,
        progress=events.append,
    )
    return [{"encoding": event["encoding"], "objectives": event["objectives"]} for event in events]


def run_figure3_pair(cache_dir: Path) -> dict:
    result = run_figure3(scale=SMOKE, model=MODEL, num_runs=1, iterations=4, cache_dir=str(cache_dir))
    bo, rs = result.histories
    return {"bo": record_entries(bo), "rs": record_entries(rs)}


def run_server_job(cache_dir: Path) -> list:
    manager = JobManager(cache_dir)
    job = manager.submit({"objectives": "accuracy", "scale": "smoke", "model": MODEL, "iterations": 3})
    deadline = time.monotonic() + 300
    while job.state not in TERMINAL_STATES and time.monotonic() < deadline:
        time.sleep(0.05)
    assert job.state == "completed", job.error
    return [
        {"encoding": event["encoding"], "objective_value": event["objective_value"]}
        for event in job.events
        if event["type"] == "evaluation"
    ]


def run_table1(cache_dir: Path, dataset: str = "cifar10-dvs") -> list:
    result = run_table1_cell(dataset, MODEL, scale=SMOKE, cache_dir=str(cache_dir))
    return record_entries(result.history)


#: name -> runner taking a fresh cache directory and returning the history
RUNS = {
    "pareto_serial": lambda cache_dir: run_pareto(cache_dir, async_workers=0),
    "pareto_async2": lambda cache_dir: run_pareto(cache_dir, async_workers=2),
    "figure3": run_figure3_pair,
    "server_search_job": run_server_job,
    "table1_cell": run_table1,
    # the one pin that trains an ANN reference: static data sets the
    # objective's reference accuracy
    "table1_cell_static": lambda cache_dir: run_table1(cache_dir, dataset="cifar10"),
}


def record_run(name: str, cache_dir: Path) -> dict:
    history = RUNS[name](cache_dir)
    return {"stores": store_names(cache_dir), "history": history}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_entry_point_matches_the_pinned_run(name, tmp_path):
    pinned = json.loads(PINNED.read_text())[name]
    assert record_run(name, tmp_path) == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_search_entry_points.py --record")
    recorded = {}
    for run_name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as directory:
            recorded[run_name] = record_run(run_name, Path(directory))
    PINNED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
