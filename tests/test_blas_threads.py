"""Every search process runs BLAS on one thread, unless the user chose a count.

The search parallelises across processes, so ``repro.cli.main`` and each
evaluation worker pin every loaded OpenBLAS to one thread
(:mod:`repro.tensor.blas`).  Pinned here:

* after ``main`` every loaded OpenBLAS runs one thread;
* an evaluation worker runs one thread even when its parent runs two, so a
  forked worker cannot pass by inheriting the parent's count;
* a count the user sets through ``OPENBLAS_NUM_THREADS`` or
  ``OMP_NUM_THREADS`` is kept;
* ``one_thread_at_load`` sets ``OPENBLAS_NUM_THREADS`` only inside its
  block, and not at all when the user chose a count;
* the thread count does not change a training step's gradients;
* no process the program owns starts a BLAS worker thread: neither a fresh
  CLI process nor an evaluation worker whose parent runs one thread.

Every case is skipped where no OpenBLAS is loaded (MKL, Accelerate,
non-Linux), and the worker-thread cases where ``/proc/self/task`` is
missing.  CI re-runs this file under ``REPRO_MP_START_METHOD=spawn``, where
only the pool initializer can pin a worker, and where a worker loads NumPy
from a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.async_eval import AsyncEvaluationExecutor
from repro.core.objectives import EvaluationResult
from repro.models import get_template
from repro.nn import CrossEntropyLoss
from repro.snn import TemporalRunner
from repro.snn.fused_step import fused_training
from repro.tensor.blas import THREAD_ENV_VARS, blas_threads, one_thread_at_load, set_blas_threads

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(not blas_threads(), reason="no OpenBLAS loaded")

needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")


def _native_threads():
    """The OS threads of this process that :mod:`threading` does not know of (None without ``/proc``)."""
    try:
        return len(os.listdir("/proc/self/task")) - threading.active_count()
    except OSError:
        return None


def _blas_threads_fixture(count):
    """A fixture running every loaded OpenBLAS on ``count`` threads, with no thread variable set.

    The counts found before are restored afterwards, so the order the tests
    run in does not matter.
    """

    @pytest.fixture
    def fixture(monkeypatch):
        for name in THREAD_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        before = blas_threads()
        set_blas_threads(count)
        yield
        set_blas_threads(before)

    return fixture


one_blas_thread = _blas_threads_fixture(1)
two_blas_threads = _blas_threads_fixture(2)


class _ReportBlasThreads:
    """Objective scoring the thread counts of the process it runs in."""

    def __call__(self, spec):
        threads = blas_threads()
        return EvaluationResult(
            spec=spec,
            objective_value=0.0,
            accuracy=0.0,
            extra={
                "libraries": len(threads),
                "most_threads": max(threads.values(), default=0),
                "native_threads": _native_threads(),
            },
        )


def _subprocess_env(**variables):
    """This process's environment with no thread variable, ``src`` importable, and ``variables`` set."""
    env = {name: value for name, value in os.environ.items() if name not in THREAD_ENV_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(variables)
    return env


def test_main_runs_every_openblas_on_one_thread(two_blas_threads, capsys):
    assert set(blas_threads().values()) == {2}
    assert main(["info"]) == 0
    threads = blas_threads()
    assert threads and set(threads.values()) == {1}
    blas_line = [line for line in capsys.readouterr().out.splitlines() if line.startswith("blas:")]
    assert len(blas_line) == 1
    assert blas_line[0].count("(1 thread)") == len(threads)


def test_evaluation_worker_runs_one_blas_thread(two_blas_threads, example_spec):
    with AsyncEvaluationExecutor(_ReportBlasThreads(), workers=2) as executor:
        assert executor.is_parallel
        tickets = [executor.submit(example_spec) for _ in range(4)]
        results = [executor.next_completed().result for _ in tickets]
    for result in results:
        assert result.extra["libraries"] >= 1
        assert result.extra["most_threads"] == 1


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps a user-set count at the core count")
@pytest.mark.parametrize("variable", THREAD_ENV_VARS)
def test_a_user_set_thread_count_is_kept(variable):
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "info"],
        env=_subprocess_env(**{variable: "2"}),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    blas_line = [line for line in completed.stdout.splitlines() if line.startswith("blas:")]
    assert len(blas_line) == 1
    assert "(2 threads)" in blas_line[0] and "(1 thread)" not in blas_line[0]


_CLI_NATIVE_THREADS = """
import os, threading
from repro.cli import main
assert main(["info"]) == 0
print("native threads:", len(os.listdir("/proc/self/task")) - threading.active_count())
"""


@needs_proc_tasks
def test_a_cli_process_starts_no_blas_worker():
    completed = subprocess.run(
        [sys.executable, "-c", _CLI_NATIVE_THREADS],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.splitlines()[-1] == "native threads: 0"


@needs_proc_tasks
def test_an_evaluation_worker_starts_no_blas_worker(one_blas_thread, example_spec):
    with AsyncEvaluationExecutor(_ReportBlasThreads(), workers=2) as executor:
        assert executor.is_parallel
        tickets = [executor.submit(example_spec) for _ in range(4)]
        results = [executor.next_completed().result for _ in tickets]
    assert [result.extra["native_threads"] for result in results] == [0] * len(tickets)


def test_one_thread_at_load_sets_the_variable_only_inside_the_block(monkeypatch):
    for name in THREAD_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    with one_thread_at_load():
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    with one_thread_at_load():
        assert "OPENBLAS_NUM_THREADS" not in os.environ


def _training_step_gradients():
    """Parameter gradients of one fused training step from a fresh seeded model.

    The batch is large enough that the convolutions' GEMMs pass OpenBLAS's
    threshold for splitting work across threads.
    """
    rng = np.random.default_rng(0)
    batch, targets = rng.random((16, 2, 12, 12)), rng.integers(0, 10, size=16)
    template = get_template("resnet18", input_channels=2, num_classes=10, stage_channels=(8, 16))
    model = template.build(spiking=True, rng=0)
    runner = TemporalRunner(model, num_steps=3)
    model.zero_grad()
    with fused_training("on"):
        CrossEntropyLoss()(runner(batch), targets).backward()
    return {name: np.array(p.grad) for name, p in model.named_parameters() if p.grad is not None}


def test_blas_thread_count_does_not_change_gradients(two_blas_threads):
    at_two = _training_step_gradients()
    set_blas_threads(1)
    at_one = _training_step_gradients()
    assert at_one and set(at_one) == set(at_two)
    for name, gradient in at_two.items():
        assert np.array_equal(at_one[name], gradient), name
