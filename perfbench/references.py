"""Write the reference fronts ``run.py`` checks serial searches against.

    python3 perfbench/references.py

For each search configuration of the workloads and of the self-test, runs
one serial cold search at every program seed the benchmark uses (the pool
and the held-out seeds), checks it, and writes its front to
``references/<scale>-n<evaluations>.json`` together with the BLAS kernels
and NumPy version it ran on.  Takes about seven minutes.

The references pin what the program finds.  Rewrite them only with a change
that is meant to alter search results, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import selftest  # noqa: E402


def configurations():
    """One serial :class:`run.Config` per distinct (scale, evaluations) pair."""
    seen = {}
    for workload in [*run.WORKLOADS.values(), *selftest.SMOKE_WORKLOADS.values()]:
        key = (workload.scale, workload.evaluations)
        seen.setdefault(key, run.Config("reference", 0, 0.0, workload.scale, workload.evaluations, 1, ()))
    return list(seen.values())


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="references-", dir=run.WORK))
    try:
        for config in configurations():
            fronts = {}
            for seed in [*run.SEED_POOL, *run.HELD_OUT_PROGRAM_SEEDS]:
                name = f"{config.scale}-n{config.evaluations}-seed{seed}"
                search = run.run_search(config, seed, scratch / f"{name}-cache", scratch, name)
                run.check(search, config, config.evaluations)
                if search.problems:
                    print(f"{name}: {'; '.join(search.problems)}", file=sys.stderr)
                    return 1
                fronts[str(seed)] = search.front
                print(f"{name}: {len(search.front)} front points, {search.wall_s:.1f} s", flush=True)
            payload = {
                "objectives": run.OBJECTIVES,
                "scale": config.scale,
                "evaluations": config.evaluations,
                "platform": run.platform_key(),
                "fronts": fronts,
            }
            run.REFERENCES.mkdir(exist_ok=True)
            run.reference_path(config).write_text(json.dumps(payload, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
