"""A process imports only what its code path runs.

Every package resolves its exports on first access (``repro._lazy``), the
spec and config data classes live apart from the layers and trainers, and
``AccuracyDropObjective`` imports the training substrate inside the methods
that train and measure.  Pinned here, each in a fresh interpreter so that
nothing another test imported can hide a load:

* a ``repro pareto`` search replayed from a filled evaluation store loads no
  layer, neuron, autodiff or trainer module, no other command's experiment
  and no worker-pool machinery, and prints the same front as the search
  that filled the store;
* the search that filled the store did load the fused training kernel and
  trained through it, so laziness cannot have skipped the training;
* so does a search on two worker processes, whose workers unpickle the
  objective and import the substrate at their first evaluation (a fresh
  interpreter each under the ``spawn`` start method), while the parent,
  which only merges their results and routing tallies, imports none of it;
* ``import repro`` loads none of the substrate, and the public names still
  resolve on access.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules a replayed search must not load
REPLAY_FORBIDDEN_PREFIXES = ("repro.snn", "repro.nn")
REPLAY_FORBIDDEN = (
    "repro.tensor.tensor",
    "repro.tensor.ops",
    "repro.tensor.conv",
    "repro.tensor.primitives",
    "repro.training.trainer",
    "repro.training.snn_trainer",
    "repro.experiments.figure1",
    "repro.experiments.table1",
    "repro.experiments.figure3",
    "multiprocessing",
    "concurrent.futures",
)

SEARCH = """
import contextlib, io, json, sys
import repro.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(sys.argv[1:])
fused = None
if "repro.snn.routing" in sys.modules:
    fused = sys.modules["repro.snn.routing"].aggregate_fused_counters()
print(json.dumps({"code": code, "stdout": out.getvalue(), "modules": sorted(sys.modules), "fused": fused}))
"""


def _run(script: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    completed = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _forbidden(modules) -> list:
    return sorted(
        name
        for name in modules
        if name in REPLAY_FORBIDDEN
        or any(name == prefix or name.startswith(prefix + ".") for prefix in REPLAY_FORBIDDEN_PREFIXES)
    )


def test_a_replayed_search_loads_no_training_substrate(tmp_path):
    args = ["pareto", "--scale", "smoke", "--model", "single_block", "--iterations", "3"]
    args += ["--seed", "2", "--cache-dir", str(tmp_path / "cache")]
    cold = _run(SEARCH, *args)
    assert cold["code"] == 0
    # the filling search trained its candidates on the fused kernel
    assert "repro.snn.fused_step" in cold["modules"]
    assert cold["fused"]["fused_steps"] > 0

    replay = _run(SEARCH, *args)
    assert replay["code"] == 0
    assert replay["stdout"] == cold["stdout"]
    assert _forbidden(replay["modules"]) == []


def test_pooled_workers_import_the_substrate_and_train(tmp_path):
    args = ["pareto", "--scale", "smoke", "--model", "single_block", "--iterations", "3"]
    args += ["--async-workers", "2", "--cache-dir", str(tmp_path / "cache")]
    pooled = _run(SEARCH, *args)
    assert pooled["code"] == 0
    # the workers' routing tallies are merged into the parent's
    assert pooled["fused"]["fused_steps"] > 0
    assert not {"repro.snn.fused_step", "repro.tensor.tensor", "repro.nn.module", "repro.training.snn_trainer"} & set(
        pooled["modules"]
    )


def test_import_repro_loads_no_substrate_and_names_resolve():
    script = """
import json, sys
import repro
loaded = sorted(sys.modules)
names = [repro.experiments.run_table1_cell, repro.Tensor, repro.experiments.run_figure1, repro.nn.init, repro.tensor.tensor_sum]
print(json.dumps({"loaded": loaded, "names": [getattr(value, "__name__", "") for value in names]}))
"""
    result = _run(script)
    assert _forbidden(result["loaded"]) == []
    assert not [name for name in result["loaded"] if name.startswith("repro.") and name != "repro._lazy"]
    assert result["names"] == ["run_table1_cell", "Tensor", "run_figure1", "repro.nn.init", "sum"]
