"""Per-layer probes for traced benchmark runs.

:class:`LayerProbes` wraps the functions through which a search calls into
each ``repro`` layer and tallies calls and seconds per probe.  Nothing under
``src/`` changes: the wrappers are installed on the imported modules by the
benchmarked process itself (``child.py --probes``).  The program's own spans
(``repro pareto --trace``) and counters (``aggregate_fused_counters()``,
``store_counters()``) supply the rest; ``run.py`` combines both.

Probes that fire in asynchronous worker processes (conv kernels, model
builds, store writes) travel back with each result: the worker diffs its
tallies around the task and the parent merges the delta when it absorbs the
result.  That needs workers forked from the probed parent, the default
``REPRO_MP_START_METHOD``; under ``spawn`` those tallies stay in the workers.
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
import time
from typing import Dict, List, Tuple

#: ``repro.experiments.pareto_front`` names whose call is a whole layer step
#: of the search set-up: (attribute, probe)
SETUP_CALLS = (
    ("load_dataset", "data.load"),
    ("get_template", "models.template"),
    ("evaluation_store_for", "cache.open"),
)


class LayerProbes:
    """Call counts, busy seconds and work counts per probe, plus intervals.

    ``tallies[probe]`` is ``[calls, seconds]``; ``work[name]`` holds
    additive counts (conv flops and bytes, pickled task bytes).  Intervals
    of layer work on the main thread of the main process are kept for the
    coverage figure.
    """

    def __init__(self, main_pid: int) -> None:
        self.main_pid = main_pid
        self.tallies: Dict[str, List[float]] = {}
        self.work: Dict[str, float] = {}
        self.intervals: List[Tuple[str, float, float]] = []
        self.executors: List[Tuple[int, float, float]] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    def interval(self, layer: str, start: float, end: float) -> None:
        """Record ``[start, end]`` as time the main thread spent in ``layer``."""
        if os.getpid() == self.main_pid and threading.current_thread() is threading.main_thread():
            self.intervals.append((layer, start, end))

    def _add(self, probe: str, seconds: float) -> None:
        tally = self.tallies.setdefault(probe, [0, 0.0])
        tally[0] += 1
        tally[1] += seconds

    def _add_work(self, name: str, amount: float) -> None:
        self.work[name] = self.work.get(name, 0.0) + amount

    def _depth(self, guard: str) -> int:
        return getattr(self._local, guard, 0)

    def timed(self, probe: str, fn, guard: str = "", layer: str = ""):
        """``fn`` wrapped to tally ``probe``; nested calls sharing ``guard`` count once."""
        guard = guard or probe
        probes = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probes._depth(guard):
                return fn(*args, **kwargs)
            setattr(probes._local, guard, 1)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                setattr(probes._local, guard, 0)
                probes._add(probe, end - start)
                if layer:
                    probes.interval(layer, start, end)

        return wrapper

    def snapshot(self) -> Dict[str, object]:
        """Copy of the additive tallies (for worker-side deltas)."""
        return {
            "tallies": {key: list(value) for key, value in self.tallies.items()},
            "work": dict(self.work),
        }

    def delta_since(self, before: Dict[str, object]) -> Dict[str, object]:
        old_tallies = before["tallies"]
        old_work = before["work"]
        tallies = {}
        for key, (calls, seconds) in self.tallies.items():
            old_calls, old_seconds = old_tallies.get(key, (0, 0.0))
            if calls != old_calls:
                tallies[key] = [calls - old_calls, seconds - old_seconds]
        work = {key: value - old_work.get(key, 0.0) for key, value in self.work.items()}
        return {"tallies": tallies, "work": work}

    def merge(self, delta: Dict[str, object]) -> None:
        for key, (calls, seconds) in delta["tallies"].items():
            tally = self.tallies.setdefault(key, [0, 0.0])
            tally[0] += calls
            tally[1] += seconds
        for key, value in delta["work"].items():
            self._add_work(key, value)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every probed function; call once, before the search starts."""
        import repro.experiments.pareto_front as pareto_front
        from repro.core.cache import PersistentEvaluationStore
        from repro.core.multi_objective import MultiObjectiveBayesianOptimizer
        from repro.core.objectives import AccuracyDropObjective
        from repro.core.pareto import ParetoFront
        from repro.core.snapshots import WeightSnapshotStore
        from repro.gp import gp

        for attribute, probe in SETUP_CALLS:
            layer = probe.split(".")[0]
            setattr(pareto_front, attribute, self.timed(probe, getattr(pareto_front, attribute), layer=layer))

        AccuracyDropObjective.build_model = self.timed("models.build", AccuracyDropObjective.build_model)

        regressor = gp.GaussianProcessRegressor
        for method in ("fit", "update", "predict"):
            setattr(regressor, method, self.timed(f"gp.{method}", getattr(regressor, method), guard="gp", layer="gp"))
        gp.tune_kernel = self.timed("gp.tune", gp.tune_kernel, guard="gp", layer="gp")

        MultiObjectiveBayesianOptimizer._on_record = self.timed(
            "core.absorb", MultiObjectiveBayesianOptimizer._on_record, layer="core"
        )
        ParetoFront.hypervolume = self.timed("core.hypervolume", ParetoFront.hypervolume)

        PersistentEvaluationStore.get = self.timed("cache.get", PersistentEvaluationStore.get)
        PersistentEvaluationStore.put = self.timed("cache.put", PersistentEvaluationStore.put, layer="cache")
        PersistentEvaluationStore.reload = self.timed(
            "cache.reload", PersistentEvaluationStore.reload, layer="cache"
        )
        WeightSnapshotStore.put = self.timed("cache.snapshot_put", WeightSnapshotStore.put, layer="cache")

        import repro.core.cache as cache

        cache.replay_weight_snapshot = self.timed("cache.snapshot_replay", cache.replay_weight_snapshot)

        self._install_propose(MultiObjectiveBayesianOptimizer)
        self._install_conv()
        self._install_async()

    def _install_propose(self, optimizer_cls) -> None:
        """Proposals, on the batch path and the asynchronous one."""
        for name in ("_propose_batch", "_propose_async"):
            original = getattr(optimizer_cls, name)
            setattr(optimizer_cls, name, self.timed("core.propose", original, layer="core"))

    def _install_conv(self) -> None:
        """Conv forward (im2col + GEMM) and fused-adjoint kernels, with shape-derived work.

        A forward is ``2 * N * C_out * H_out * W_out * (C_in / groups) * K_h * K_w``
        flop and moves its input, weight and output once.  The adjoint does
        that GEMM once for the weight gradient and once more when the input
        gradient is needed, reading the output gradient, weight and column
        view and writing the gradients.  Forward calls nested in an adjoint
        (the stride-1 input gradient) count toward the adjoint.
        """
        import repro.snn.fused_step as fused_step
        import repro.tensor.conv as conv

        infer = conv._conv2d_infer
        vjp = conv._conv2d_vjp
        probes = self

        def conv_forward(x, weight, bias, groups, sh, sw, ph, pw, out_h, out_w):
            if probes._depth("tensor.conv"):
                return infer(x, weight, bias, groups, sh, sw, ph, pw, out_h, out_w)
            start = time.perf_counter()
            out = infer(x, weight, bias, groups, sh, sw, ph, pw, out_h, out_w)
            probes._add("tensor.conv_fwd", time.perf_counter() - start)
            c_out, cpg, kh, kw = weight.shape
            probes._add_work("tensor.conv_flop", 2.0 * x.shape[0] * c_out * out_h * out_w * cpg * kh * kw)
            probes._add_work("tensor.conv_bytes", float(x.nbytes + weight.nbytes + out.nbytes))
            return out

        def conv_adjoint(ctx, g, needs, *, stride, padding, groups):
            setattr(probes._local, "tensor.conv", 1)
            start = time.perf_counter()
            try:
                grads = vjp(ctx, g, needs, stride=stride, padding=padding, groups=groups)
            finally:
                setattr(probes._local, "tensor.conv", 0)
            probes._add("tensor.conv_adj", time.perf_counter() - start)
            col_g, w_g, geometry = ctx
            n, c_in, h, w, kh, kw, _sh, _sw, _ph, _pw, out_h, out_w, c_out, _shape = geometry
            gemm = 2.0 * n * c_out * out_h * out_w * (c_in // groups) * kh * kw
            item = g.itemsize
            moved = g.nbytes + w_g.nbytes
            if needs[1]:
                moved += n * c_in * kh * kw * out_h * out_w * item + w_g.nbytes
            if needs[0]:
                moved += n * c_in * h * w * item
            probes._add_work("tensor.conv_flop", gemm * (bool(needs[0]) + bool(needs[1])))
            probes._add_work("tensor.conv_bytes", float(moved))
            return grads

        conv._conv2d_infer = conv_forward
        fused_step._conv2d_infer = conv_forward
        fused_step._conv2d_vjp = conv_adjoint

    def _install_async(self) -> None:
        """Executor lifetimes in the parent; task size, busy time and deltas in workers.

        Submit and wait times come from ``child.py``'s end-to-end hooks.
        """
        import repro.core.async_eval as async_eval

        executor_cls = async_eval.AsyncEvaluationExecutor
        task_cls = async_eval._TelemetryCall
        init, close = executor_cls.__init__, executor_cls.close
        task_call, absorb = task_cls.__call__, async_eval._absorb_telemetry
        probes = self
        opened: Dict[int, float] = {}

        def executor_init(executor, *args, **kwargs):
            init(executor, *args, **kwargs)
            if executor.is_parallel:
                opened[id(executor)] = time.perf_counter()

        def executor_close(executor, *args, **kwargs):
            workers = executor.workers
            try:
                return close(executor, *args, **kwargs)
            finally:
                start = opened.pop(id(executor), None)
                if start is not None:
                    probes.executors.append((workers, start, time.perf_counter()))

        def worker_call(task, spec):
            # the task as the pool shipped it, re-pickled outside the busy time
            task_bytes = float(len(pickle.dumps((task, spec))))
            before = probes.snapshot()
            start = time.perf_counter()
            result = task_call(task, spec)
            busy = time.perf_counter() - start
            delta = probes.delta_since(before)
            delta["tallies"]["async.busy"] = [1, busy]
            delta["work"]["async.task_bytes"] = task_bytes
            result.telemetry["perfbench"] = delta
            return result

        def absorb_telemetry(result):
            delta = (result.telemetry or {}).pop("perfbench", None)
            if delta is not None:
                probes.merge(delta)
            absorb(result)

        executor_cls.__init__ = executor_init
        executor_cls.close = executor_close
        task_cls.__call__ = worker_call
        async_eval._absorb_telemetry = absorb_telemetry

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Tallies, work counts, intervals and the program's own counters."""
        from repro.core.cache import store_counters
        from repro.snn.fused_step import aggregate_fused_counters

        return {
            "tallies": self.tallies,
            "work": self.work,
            "intervals": self.intervals,
            "executors": self.executors,
            "fused": aggregate_fused_counters(),
            "store": store_counters(),
        }
