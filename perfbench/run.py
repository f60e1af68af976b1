"""End-to-end benchmark of the ``repro pareto`` search, with a per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pareto_cold --seed 0 --seconds 30 --trace 0

Every timed search is a fresh ``repro pareto`` process (``child.py``) over
the objectives ``accuracy,energy``.  A run searches at the workload's
program seeds in turn, in rounds, until ``--seconds`` have passed; checks
every search's output; and prints one JSON object as the last line of
standard output: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``README.md`` describes the workloads, the
checks and the metrics.

Serial searches are deterministic, so ``references/`` holds the expected
front of every program seed the benchmark uses, per search configuration
(``references.py`` writes them).  ``pareto_replay`` replays a cache
directory that one untimed serial search per program seed fills, kept in
``.perfbench/`` at the checkout root for the program version that filled it.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references"

OBJECTIVES = "accuracy,energy"
#: no search may outlive this, so a hung search cannot hang the run
SEARCH_TIMEOUT_S = 150.0
#: a run starts no search that would likely end after this much time has passed
RUN_BUDGET_S = 165.0

#: program seeds the benchmark searches at; ``references/`` has a front for each
SEED_POOL = tuple(range(16))
#: the workload seed kept back for confirming a claimed gain; it alone
#: searches at ``HELD_OUT_PROGRAM_SEEDS``, which are outside the pool
HELD_OUT_SEED = 97
HELD_OUT_PROGRAM_SEEDS = (97, 98, 99, 100)


@dataclass(frozen=True)
class Workload:
    """One kind of search: its scale, budget and ``repro pareto`` flags.

    A run searches once per round at each of ``sub_seeds`` program seeds, so
    its figures cover several architecture mixes.
    """

    scale: str
    #: evaluations per search (the ``--iterations`` budget)
    evaluations: int
    sub_seeds: int
    extra: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    "pareto_cold": Workload("default", 4, 3),
    "pareto_replay": Workload("smoke", 48, 3),
    "pareto_async2": Workload("smoke", 48, 4, ("--async-workers", "2", "--sharded-cache")),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "evals_per_s": "1/s",
    "eval_s.mean": "s",
    "eval_s.p90": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "data.load_s": "s",
    "models.build_s": "s",
    "training.fit_s": "s",
    "training.steps": "count",
    "training.step_s.p50": "s",
    "training.eval_s": "s",
    "snn.fused_forward_s": "s",
    "snn.fused_adjoint_s": "s",
    "snn.fused_steps": "count",
    "snn.graph_fallback_steps": "count",
    "snn.mac_count_s": "s",
    "tensor.conv_fwd_calls": "count",
    "tensor.conv_fwd_s": "s",
    "tensor.conv_adj_calls": "count",
    "tensor.conv_adj_s": "s",
    "tensor.conv_gflop": "Gflop",
    "tensor.conv_gbytes": "GB",
    "gp.calls": "count",
    "gp.fit_s": "s",
    "gp.update_s": "s",
    "gp.predict_s": "s",
    "gp.tune_s": "s",
    "core.propose_calls": "count",
    "core.propose_s": "s",
    "core.absorb_s": "s",
    "core.hypervolume_s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.rows_written": "count",
    "cache.reload_s": "s",
    "cache.snapshot_put_s": "s",
    "cache.snapshot_replay_s": "s",
    "cache.snapshot_bytes": "B",
    "async.submits": "count",
    "async.submit_s": "s",
    "async.task_bytes": "B",
    "async.wait_s": "s",
    "async.worker_busy_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    scale: str
    evaluations: int
    sub_seeds: int
    extra: Tuple[str, ...]

    @property
    def serial(self) -> bool:
        return "--async-workers" not in self.extra

    @property
    def program_seeds(self) -> List[int]:
        """The ``--seed`` values this run passes to the program, one search each per round.

        Workloads that run the same search share a prefix of this list.
        """
        if self.seed == HELD_OUT_SEED:
            return list(HELD_OUT_PROGRAM_SEEDS[: self.sub_seeds])
        order = random.Random(self.seed).sample(SEED_POOL, len(SEED_POOL))
        return order[: self.sub_seeds]

    def cli_args(self, seed: int, cache_dir: Path, output: Path) -> List[str]:
        return [
            "pareto",
            "--scale", self.scale,
            "--objectives", OBJECTIVES,
            "--iterations", str(self.evaluations),
            "--seed", str(seed),
            "--cache-dir", str(cache_dir),
            "--output", str(output),
            *self.extra,
        ]


@dataclass
class Search:
    """One search process: its measurements, outputs and correctness problems."""

    seed: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    report: Optional[dict]
    result: Optional[dict]
    cache_dir: Path
    trace_path: Optional[Path]
    problems: List[str] = field(default_factory=list)
    front: Optional[list] = None
    notes: List[str] = field(default_factory=list)
    #: per-layer metrics, for traced searches (computed before the scratch goes)
    layers: Optional[Dict[str, float]] = None
    spawn: float = 0.0

    @property
    def setup_s(self) -> Optional[float]:
        if not self.report or self.report.get("optimize_start") is None:
            return None
        return self.report["optimize_start"] - self.spawn

    @property
    def eval_s(self) -> List[float]:
        return [end - start for start, end in (self.report or {}).get("evaluations", [])]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _openblas(name: str, restype):
    """Call the loaded OpenBLAS's ``openblas_<name>`` under any of its export names."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (f"openblas_{name}", f"openblas_{name}64_", f"scipy_openblas_{name}64_", f"scipy_openblas_{name}"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = restype
                return function()
    return None


@functools.lru_cache(maxsize=None)
def platform_key() -> Dict[str, Optional[str]]:
    """What fixes a serial search's floating-point results: the BLAS kernels and NumPy."""
    import numpy

    config = _openblas("get_config", ctypes.c_char_p)
    return {"blas_config": config.decode() if config else None, "numpy": numpy.__version__}


def environment(config: Config) -> Dict[str, object]:
    """The facts that ``pareto_async2`` numbers cannot be compared without."""
    import numpy
    import scipy

    blas = {}
    try:
        build = numpy.show_config(mode="dicts")
        info = build.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, AttributeError):  # NumPy < 1.25 prints instead
        blas = {"name": "unknown"}
    thread_vars = {
        name: os.environ[name]
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if name in os.environ
    }
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": platform_key()["blas_config"],
        "blas_threads": _openblas("get_num_threads", ctypes.c_int),
        "blas_thread_env": thread_vars,
        "mp_start_method": os.environ.get("REPRO_MP_START_METHOD", "fork"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "scale": config.scale,
        "evaluations_per_search": config.evaluations,
        "program_seeds": config.program_seeds,
    }


# ---------------------------------------------------------------------------
# search processes
# ---------------------------------------------------------------------------


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill and wait out any process left in a finished search's group."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        _kill_group(pgid)
        time.sleep(0.05)


def child_env() -> Dict[str, str]:
    """The benchmark's environment with the program's ``src/`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_search(config: Config, seed: int, cache_dir: Path, scratch: Path, name: str, probes: bool = False) -> Search:
    """Spawn one ``repro pareto --seed seed`` process and measure it from spawn to exit."""
    report_path = scratch / f"{name}.report.json"
    output_path = scratch / f"{name}.result.json"
    trace_path = scratch / f"{name}.trace.jsonl" if probes else None
    cli = config.cli_args(seed, cache_dir, output_path)
    if trace_path is not None:
        cli += ["--trace", str(trace_path)]
    command = [sys.executable, str(HERE / "child.py"), str(report_path)]
    command += ["--probes"] if probes else []
    command += ["--", *cli]
    with open(scratch / f"{name}.log", "wb") as log:
        spawn = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT, start_new_session=True
        )
        watchdog = threading.Timer(SEARCH_TIMEOUT_S, _kill_group, args=(process.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
        exited = time.perf_counter()
    process.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(process.pid)
    search = Search(
        seed=seed,
        wall_s=exited - spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        report=_read_json(report_path),
        result=(_read_json(output_path) or {}).get("data"),
        cache_dir=cache_dir,
        trace_path=trace_path,
        spawn=spawn,
    )
    if process.returncode != 0:
        tail = (scratch / f"{name}.log").read_text(errors="replace").strip().splitlines()[-3:]
        search.problems.append(f"exit code {process.returncode}: {' | '.join(tail)}")
    return search


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def canonical_front(result: Optional[dict]) -> Optional[list]:
    """The front as sorted ``[encoding, accuracy, energy]`` rows, exact floats."""
    if not result:
        return None
    rows = [
        [list(point["encoding"]), point["objectives"].get("accuracy"), point["objectives"].get("energy")]
        for point in result.get("front", [])
    ]
    return sorted(rows, key=json.dumps)


def stored_front(cache_dir: Path) -> tuple:
    """``(rows, front)`` recomputed from the store rows a search left behind.

    ``front`` is the sorted set of non-dominated ``(accuracy, energy)``
    pairs: what the search's reported front must hold if its store writes,
    shard merge and Pareto bookkeeping are right.
    """
    rows: Dict[str, dict] = {}
    for path in sorted(cache_dir.rglob("*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                row = json.loads(line)
                rows[row["key"]] = row
            except (ValueError, KeyError, TypeError):
                continue
    vectors = {(row["metrics"]["val_accuracy"], row["metrics"]["energy_nj"]) for row in rows.values()}
    front = sorted(
        v for v in vectors if not any(o != v and o[0] >= v[0] and o[1] <= v[1] for o in vectors)
    )
    return len(rows), front


def check(search: Search, config: Config, expected_fresh: int) -> None:
    """Append every way ``search`` deviates from a correct run to its problems.

    Also records the search's front on it; :func:`check_front` compares
    that with the reference.
    """
    if search.report is None:
        search.problems.append("no timing report")
    elif search.setup_s is None:
        search.problems.append("optimize was never called")
    if search.result is None:
        search.problems.append("no result written")
        return
    if search.result.get("num_evaluations") != config.evaluations:
        search.problems.append(f"num_evaluations {search.result.get('num_evaluations')} != {config.evaluations}")
    if search.result.get("fresh_evaluations") != expected_fresh:
        search.problems.append(f"fresh_evaluations {search.result.get('fresh_evaluations')} != {expected_fresh}")
    if len(search.eval_s) != config.evaluations:
        search.problems.append(f"{len(search.eval_s)} evaluations timed, expected {config.evaluations}")
    front = canonical_front(search.result)
    rows, own = stored_front(search.cache_dir)
    if rows != config.evaluations:
        search.problems.append(f"store holds {rows} rows, expected {config.evaluations}")
    if sorted((accuracy, energy) for _encoding, accuracy, energy in front) != own:
        search.problems.append(f"front {front} is not the non-dominated set {own} of the store rows")
    search.front = front


def check_front(search: Search, config: Config) -> None:
    """A serial search must return its program seed's committed reference front.

    An asynchronous search only notes whether it does, because the program
    does not pin its front (README.md).
    """
    if search.front is None:
        return
    reference, reason = load_reference(config, search.seed)
    if reference is None:
        search.notes.append(f"front unchecked: {reason}")
    elif not config.serial:
        search.notes.append(f"front equals the serial reference: {search.front == reference}")
    elif search.front != reference:
        search.problems.append(f"front differs from the committed reference: {search.front} != {reference}")


# ---------------------------------------------------------------------------
# committed reference fronts; filled cache directories for pareto_replay
# ---------------------------------------------------------------------------


def reference_path(config: Config) -> Path:
    return REFERENCES / f"{config.scale}-n{config.evaluations}.json"


def load_reference(config: Config, seed: int) -> Tuple[Optional[list], str]:
    """``(front, "")`` from ``references/``, or ``(None, why there is none)``.

    References hold only on the BLAS kernels and NumPy they were made with;
    on other ones a serial search may legitimately find another front.
    """
    payload = _read_json(reference_path(config))
    if payload is None:
        return None, f"no {reference_path(config).name}"
    if payload.get("objectives") != OBJECTIVES:
        return None, f"{reference_path(config).name} is for objectives {payload.get('objectives')}"
    if payload.get("platform") != platform_key():
        return None, f"references were made on {payload.get('platform')}, this is {platform_key()}"
    front = payload.get("fronts", {}).get(str(seed))
    return front, "" if front is not None else f"no reference for program seed {seed}"


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Digest of the program's sources: a filled cache is only valid for them."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def replay_cache(config: Config, seed: int) -> Path:
    return WORK / "replay-cache" / f"{config.scale}-n{config.evaluations}-seed{seed}-{source_digest()}"


def fill_replay_cache(config: Config, seed: int, scratch: Path) -> Optional[Search]:
    """Fill ``seed``'s replay cache with one untimed, checked serial search, if missing."""
    target = replay_cache(config, seed)
    if target.exists():
        return None
    search = run_search(config, seed, scratch / f"fill{seed}-cache", scratch, f"fill{seed}")
    check(search, config, config.evaluations)
    check_front(search, config)
    if not search.problems:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(search.cache_dir, target)
        except OSError:  # another run filled it first
            pass
    return search


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def warm_up() -> None:
    """Import the program once, untimed, so no timed search pays for compiling or reading its bytecode."""
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
    )


def run_rounds(config: Config, scratch: Path, started: float, traced: bool) -> tuple:
    """Search at each program seed in turn, in rounds, until ``config.seconds`` have passed.

    The run stops after whichever search (or traced pair) crosses
    ``config.seconds``, so a run of long searches overshoots by at most one
    search; the last round may then leave out its later seeds.  With
    ``traced``, every untraced search is paired with a traced one at the same
    seed, the two run back to back, and which goes first alternates.
    Returns ``(untraced, traced, fills)``: the paired lists, and the
    untimed searches that filled missing ``pareto_replay`` caches.
    """
    replay = config.workload == "pareto_replay"
    fills: List[Search] = []
    if replay:
        fills = [s for s in (fill_replay_cache(config, seed, scratch) for seed in config.program_seeds) if s]
    warm_up()
    plain: List[Search] = []
    probed: List[Search] = []
    phase_start = time.perf_counter()
    for round_index in itertools.count():
        for seed_index, seed in enumerate(config.program_seeds):
            step_start = time.perf_counter()
            order = [False, True] if (round_index + seed_index) % 2 == 0 else [True, False]
            for probes in order if traced else [False]:
                name = f"{'traced' if probes else 'search'}{round_index}-seed{seed}"
                cache_dir = scratch / f"{name}-cache"
                if replay and replay_cache(config, seed).exists():
                    shutil.copytree(replay_cache(config, seed), cache_dir)
                search = run_search(config, seed, cache_dir, scratch, name, probes)
                check(search, config, 0 if replay else config.evaluations)
                check_front(search, config)
                if probes:
                    search.layers = layer_metrics(search)
                (probed if probes else plain).append(search)
            now = time.perf_counter()
            if now - phase_start >= config.seconds or now - started + (now - step_start) > RUN_BUDGET_S:
                return plain, probed, fills


def _median(values) -> float:
    values = [value for value in values if value is not None]
    return float(statistics.median(values)) if values else float("nan")


def _quantile(values: List[float], q: int) -> float:
    """The ``q``-th decile (1..9), by ``statistics.quantiles`` inclusive method."""
    if not values:
        return float("nan")
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[q - 1])


def end_to_end_metrics(searches: List[Search], config: Config) -> Dict[str, float]:
    """Medians over every search of the run; evaluation times pooled over all its evaluations.

    The typical evaluation time is the pooled mean, not the median: replayed
    evaluations run at ~3.7 ms in some stretches and ~5.5 ms in others, so
    the pooled median jumps between the two with the share a run happens to
    catch, while the mean moves in proportion to it.
    """
    pooled = [value for search in searches for value in search.eval_s]
    return {
        "wall_s": _median(s.wall_s for s in searches),
        "setup_s": _median(s.setup_s for s in searches),
        "evals_per_s": _median(config.evaluations / s.wall_s for s in searches),
        "eval_s.mean": statistics.fmean(pooled) if pooled else float("nan"),
        "eval_s.p90": _quantile(pooled, 9),
        "cpu_s": _median(s.cpu_s for s in searches),
        "peak_rss_mb": _median(s.peak_rss_mb for s in searches),
    }


def per_layer_metrics(traced: List[Search], untraced: List[Search]) -> Dict[str, float]:
    """Medians over every traced search; overhead as the median traced/untraced ratio of a pair."""
    values = {name: _median(s.layers[name] for s in traced) for name in traced[0].layers}
    values["trace.overhead_ratio"] = _median(t.wall_s / u.wall_s for t, u in zip(traced, untraced))
    return values


# ---------------------------------------------------------------------------
# per-layer metrics of one traced search
# ---------------------------------------------------------------------------


def _load_spans(path: Optional[Path]) -> List[dict]:
    spans = []
    if path is None or not path.exists():
        return spans
    for line in path.read_text().splitlines():
        try:
            spans.append(json.loads(line))
        except ValueError:
            continue
    return spans


def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _snapshot_bytes(cache_dir: Path) -> int:
    return sum(
        path.stat().st_size
        for weights in cache_dir.glob("*.weights")
        for path in weights.rglob("*")
        if path.is_file()
    )


def layer_metrics(search: Search) -> Dict[str, float]:
    """Every per-layer metric of one traced search (see README.md)."""
    report = search.report or {}
    layers = report.get("layers") or {}
    tallies = layers.get("tallies", {})
    work = layers.get("work", {})
    spans = _load_spans(search.trace_path)

    def seconds(probe: str) -> float:
        return float(tallies.get(probe, (0, 0.0))[1])

    def calls(probe: str) -> int:
        return int(tallies.get(probe, (0, 0.0))[0])

    def span_durations(name: str) -> List[float]:
        return [span["end"] - span["start"] for span in spans if span.get("name") == name]

    fused = layers.get("fused", {})
    store = layers.get("store", {})
    lookups = int(store.get("hits", 0)) + int(store.get("misses", 0))
    submits = report.get("submits", [])
    waits = report.get("waits", [])
    capacity = sum(workers * (end - start) for workers, start, end in layers.get("executors", []))
    step_s = span_durations("train.step")
    # the main thread is in the program's layers during probed calls and, on
    # the serial path, evaluations; on the asynchronous path, submits and waits
    intervals = [(start, end) for _layer, start, end in layers.get("intervals", [])]
    intervals += [tuple(pair) for pair in (submits + waits if submits else report.get("evaluations", []))]
    covered = _union_length(intervals)
    return {
        "cli.import_s": report.get("import_end", 0.0) - report.get("import_start", 0.0),
        "data.load_s": seconds("data.load"),
        "models.build_s": seconds("models.build"),
        "training.fit_s": sum(span_durations("evaluate.train")),
        "training.steps": len(step_s),
        "training.step_s.p50": float(statistics.median(step_s)) if step_s else 0.0,
        "training.eval_s": sum(span_durations("evaluate.accuracy")),
        "snn.fused_forward_s": sum(span_durations("train.fused_forward")),
        "snn.fused_adjoint_s": sum(span_durations("train.fused_backward")),
        "snn.fused_steps": int(fused.get("fused_steps", 0)),
        "snn.graph_fallback_steps": int(fused.get("fallback_steps", 0)),
        "snn.mac_count_s": sum(span_durations("evaluate.macs")),
        "tensor.conv_fwd_calls": calls("tensor.conv_fwd"),
        "tensor.conv_fwd_s": seconds("tensor.conv_fwd"),
        "tensor.conv_adj_calls": calls("tensor.conv_adj"),
        "tensor.conv_adj_s": seconds("tensor.conv_adj"),
        "tensor.conv_gflop": work.get("tensor.conv_flop", 0.0) / 1e9,
        "tensor.conv_gbytes": work.get("tensor.conv_bytes", 0.0) / 1e9,
        "gp.calls": sum(calls(probe) for probe in ("gp.fit", "gp.update", "gp.predict", "gp.tune")),
        "gp.fit_s": seconds("gp.fit"),
        "gp.update_s": seconds("gp.update"),
        "gp.predict_s": seconds("gp.predict"),
        "gp.tune_s": seconds("gp.tune"),
        "core.propose_calls": calls("core.propose"),
        "core.propose_s": seconds("core.propose"),
        "core.absorb_s": seconds("core.absorb"),
        "core.hypervolume_s": seconds("core.hypervolume"),
        "cache.lookups": lookups,
        "cache.hit_ratio": int(store.get("hits", 0)) / lookups if lookups else 0.0,
        "cache.get_s": seconds("cache.get"),
        "cache.put_s": seconds("cache.put"),
        "cache.rows_written": calls("cache.put"),
        "cache.reload_s": seconds("cache.reload"),
        "cache.snapshot_put_s": seconds("cache.snapshot_put"),
        "cache.snapshot_replay_s": seconds("cache.snapshot_replay"),
        "cache.snapshot_bytes": _snapshot_bytes(search.cache_dir),
        "async.submits": len(submits),
        "async.submit_s": sum(end - start for start, end in submits),
        "async.task_bytes": work.get("async.task_bytes", 0.0) / len(submits) if submits else 0.0,
        "async.wait_s": sum(end - start for start, end in waits),
        "async.worker_busy_ratio": seconds("async.busy") / capacity if capacity else 0.0,
        "trace.coverage": covered / search.wall_s,
        "trace.unattributed_s": search.wall_s - covered,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help=f"workload seed; {HELD_OUT_SEED} is held out")
    parser.add_argument("--seconds", type=float, required=True, help="time to spend on timed searches")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    config = Config(
        args.workload,
        args.seed,
        args.seconds,
        workload.scale,
        workload.evaluations,
        workload.sub_seeds,
        workload.extra,
    )
    print("env " + json.dumps(environment(config), sort_keys=True), flush=True)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        untraced, traced, fills = run_rounds(config, scratch, started, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    labelled = [("fill", s) for s in fills] + [("timed", s) for s in untraced] + [("traced", s) for s in traced]
    for kind, search in labelled:
        setup = _fmt(search.setup_s) if search.setup_s is not None else "-"
        status = "ok" if not search.problems else "FAIL " + "; ".join(search.problems)
        status += "".join(f" ({note})" for note in search.notes)
        print(
            f"{kind} search, seed {search.seed}: wall {search.wall_s:.3f} s, setup {setup} s, "
            f"cpu {search.cpu_s:.2f} s, {status}"
        )
    attempted = config.evaluations * len(labelled)
    failed = config.evaluations * sum(1 for _kind, search in labelled if search.problems)
    print(f"eval_fail_ratio {failed / attempted:.4f} ({failed}/{attempted} evaluations)")
    if args.trace:
        values, units = per_layer_metrics(traced, untraced), PER_LAYER_UNITS
    else:
        values, units = end_to_end_metrics(untraced, config), END_TO_END_UNITS
    # a figure is NaN only when no search of the run produced it; such a run
    # already reports correct=false, and JSON has no NaN
    metrics = {
        name: {"value": values[name] if math.isfinite(values[name]) else 0.0, "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"  {name:28s} {_fmt(metric['value']):>12s} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
