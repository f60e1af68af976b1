"""One benchmarked search process: ``repro pareto`` with end-to-end timing hooks.

``run.py`` spawns this script once per timed search::

    python3 perfbench/child.py REPORT.json [--probes] -- pareto --scale default ...

It imports :mod:`repro.cli` (timed), wraps the few public entry points the
end-to-end metrics need, runs ``repro.cli.main`` on the arguments after
``--`` and writes a JSON report with ``time.perf_counter`` stamps.  On Linux
that clock is ``CLOCK_MONOTONIC``, shared by every process on the machine, so
the parent can subtract its own spawn stamp from the child's stamps.

The end-to-end hooks cost two clock reads per call and run in every search.
``--probes`` additionally installs the per-layer wrappers of
:mod:`probes` (traced runs only).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


class EndToEndHooks:
    """Timestamps of the first ``optimize`` call and of every evaluation.

    An evaluation is timed from submission to result: around the cached
    objective's call on the serial path, and from ``submit`` to the
    ``next_completed`` that returns its ticket on the asynchronous path.
    The asynchronous path also keeps every ``submit`` and ``next_completed``
    call's interval, from which ``run.py`` derives the ``async`` layer.
    """

    def __init__(self, async_mode: bool) -> None:
        self.async_mode = async_mode
        self.pid = os.getpid()
        self.optimize_start = None
        self.evaluations = []
        self.submits = []
        self.waits = []
        self._submitted = {}

    def install(self) -> None:
        from repro.core.async_eval import AsyncEvaluationExecutor
        from repro.core.cache import CachedObjective
        from repro.core.multi_objective import MultiObjectiveBayesianOptimizer

        hooks = self
        optimize = MultiObjectiveBayesianOptimizer.optimize

        def timed_optimize(self, *args, **kwargs):
            if hooks.optimize_start is None:
                hooks.optimize_start = time.perf_counter()
            return optimize(self, *args, **kwargs)

        MultiObjectiveBayesianOptimizer.optimize = timed_optimize

        if self.async_mode:
            submit = AsyncEvaluationExecutor.submit
            next_completed = AsyncEvaluationExecutor.next_completed

            def timed_submit(self, spec):
                start = time.perf_counter()
                ticket = submit(self, spec)
                hooks.submits.append((start, time.perf_counter()))
                hooks._submitted[(id(self), ticket)] = start
                return ticket

            def timed_next_completed(self):
                start = time.perf_counter()
                done = next_completed(self)
                end = time.perf_counter()
                hooks.waits.append((start, end))
                submitted = hooks._submitted.pop((id(self), done.ticket), None)
                if submitted is not None:
                    hooks.evaluations.append((submitted, end))
                return done

            AsyncEvaluationExecutor.submit = timed_submit
            AsyncEvaluationExecutor.next_completed = timed_next_completed
        else:
            call = CachedObjective.__call__

            def timed_call(self, spec):
                if os.getpid() != hooks.pid:
                    return call(self, spec)
                start = time.perf_counter()
                result = call(self, spec)
                hooks.evaluations.append((start, time.perf_counter()))
                return result

            CachedObjective.__call__ = timed_call

    def report(self):
        return {
            "optimize_start": self.optimize_start,
            "evaluations": self.evaluations,
            "submits": self.submits,
            "waits": self.waits,
        }


def main(argv) -> int:
    if "--" not in argv or len(argv) < 3:
        print("usage: child.py REPORT.json [--probes] -- <repro cli arguments>", file=sys.stderr)
        return 2
    split = argv.index("--")
    report_path = Path(argv[0])
    use_probes = "--probes" in argv[1:split]
    cli_args = argv[split + 1 :]
    async_mode = "--async-workers" in cli_args and int(cli_args[cli_args.index("--async-workers") + 1]) > 1

    import_start = time.perf_counter()
    import repro.cli

    import_end = time.perf_counter()
    hooks = EndToEndHooks(async_mode)
    hooks.install()
    probes = None
    if use_probes:
        from probes import LayerProbes

        probes = LayerProbes(main_pid=os.getpid())
        probes.install()
        probes.interval("cli", import_start, import_end)

    code = repro.cli.main(cli_args)

    report = {"import_start": import_start, "import_end": import_end, **hooks.report()}
    if probes is not None:
        report["layers"] = probes.report()
    tmp = report_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(report))
    os.replace(tmp, report_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
