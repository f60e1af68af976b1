"""The benchmark's probe surface still reaches a real search's setup and store.

``perfbench/probes.py`` times a search's layers by wrapping named module
attributes: the data, template and store constructors as globals of
:mod:`repro.experiments.pareto_front` (its ``SETUP_CALLS``) and the store's
methods.  A refactor that moves those calls elsewhere leaves the wrappers
installed on names nothing calls, and the per-layer metrics read 0 without
an error.  This test runs one probed search in a subprocess and checks that
every such probe counted a call.  It reads ``perfbench/`` and changes nothing
in it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"


def test_probed_cached_search_counts_setup_and_store_calls(tmp_path):
    report_path = tmp_path / "report.json"
    command = [
        sys.executable,
        str(CHILD),
        str(report_path),
        "--probes",
        "--",
        "pareto",
        "--scale",
        "smoke",
        "--model",
        "single_block",
        "--iterations",
        "3",
        "--cache-dir",
        str(tmp_path / "cache"),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    tallies = json.loads(report_path.read_text())["layers"]["tallies"]
    for probe in ("data.load", "models.template", "cache.open", "cache.put"):
        calls, _seconds = tallies.get(probe, [0, 0.0])
        assert calls >= 1, f"probe {probe} counted no call: {sorted(tallies)}"
