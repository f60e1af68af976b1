"""Tests of the tracing subsystem (`repro.trace`) and its integrations.

Covers the span contract (falsy no-op while disabled, thread-local nesting,
error capture, scoped enablement), the bounded flight recorder (ring with a
counted drop policy, JSONL mirror), trace analysis/export (summaries, the
critical path, Chrome trace events), cross-process propagation through the
async evaluation executor and an ``async_workers=2`` search (spans recorded
in a worker stitch under the parent's open span; counter deltas merge into
the parent's process-wide tallies), the ``repro trace`` CLI, and the bench-gate ceiling
that pins the disabled-tracing overhead contract.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.core.async_eval import AsyncEvaluationExecutor
from repro.core.bayes_opt import BayesianOptimizer
from repro.core.objectives import EvaluationResult, Objective
from repro.core.search_space import BlockSearchInfo, SearchSpace
from repro.experiments.config import get_scale
from repro.tensor.blas import THREAD_ENV_VARS, blas_threads
from repro.trace import (
    FlightRecorder,
    absorb,
    capture_context,
    chrome_trace,
    critical_path,
    format_summary,
    is_enabled,
    load_trace,
    max_rss_mb,
    ops_span,
    record_span,
    remote_activation,
    span,
    summarize,
    tracing,
)


def make_space(depth: int = 4) -> SearchSpace:
    return SearchSpace([BlockSearchInfo(depth=depth, name="block")], name="trace-test")


class SpanningObjective(Objective):
    """Picklable objective that opens an ``evaluate`` span where it runs."""

    def __call__(self, spec) -> EvaluationResult:
        with span("evaluate") as current:
            if current:
                current.set(arch=",".join(str(v) for v in spec.encode()))
            value = float(spec.total_skips()) / max(spec.encode().size, 1)
        return EvaluationResult(spec=spec, objective_value=value, accuracy=1 - value)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class TestSpans:
    def test_disabled_span_is_falsy_shared_noop(self):
        assert not is_enabled()
        first, second = span("first"), span("second")
        assert first is second  # the shared singleton: no allocation while off
        assert not first
        with first as inner:
            assert inner.set(anything=1) is inner

    def test_nesting_ids_error_capture_and_attrs(self):
        recorder = FlightRecorder(capacity=16)
        with tracing(recorder=recorder, trace_id="t-unit"):
            with pytest.raises(ValueError):
                with span("outer", kind="test"):
                    with span("inner"):
                        raise ValueError("boom")
        inner, outer = recorder.spans()  # completion order
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert inner["trace_id"] == outer["trace_id"] == "t-unit"
        assert outer["attrs"]["kind"] == "test"
        # the exception is stamped on every span it unwound through
        assert inner["attrs"]["error"] == "ValueError"
        assert outer["attrs"]["error"] == "ValueError"
        assert outer["end"] >= inner["end"] >= inner["start"] >= outer["start"]

    def test_tracing_scope_restores_prior_state(self):
        with tracing(recorder=FlightRecorder(capacity=4)):
            assert is_enabled()
            with tracing(enabled=False):
                assert not is_enabled()  # scopes nest
            assert is_enabled()
        assert not is_enabled()
        assert not span("after")

    def test_record_span_keeps_the_given_times_and_parent(self):
        record_span("before", 1.0, 2.0)  # tracing off: nothing to record into
        recorder = FlightRecorder(capacity=4)
        with tracing(recorder=recorder, trace_id="t-rec"):
            with span("outer"):
                record_span("earlier", 1.0, 1.5, kind="test")
        earlier, outer = recorder.spans()
        assert earlier["name"] == "earlier" and earlier["attrs"] == {"kind": "test"}
        assert earlier["parent_id"] == outer["span_id"] and earlier["trace_id"] == "t-rec"
        assert earlier["end"] - earlier["start"] == pytest.approx(0.5)
        assert earlier["end"] < outer["start"]

    def test_cpu_ms_is_the_thread_cpu_time_of_the_span(self):
        recorder = FlightRecorder(capacity=4)
        with tracing(recorder=recorder):
            with span("busy"):
                deadline = time.perf_counter() + 0.05
                while time.perf_counter() < deadline:
                    pass
            with span("sleeping"):
                time.sleep(0.05)
        busy, sleeping = recorder.spans()
        # a busy thread runs for most of the span even when the machine is shared
        assert 0.5 * busy["duration_ms"] <= busy["cpu_ms"] <= busy["duration_ms"] + 1.0
        assert sleeping["duration_ms"] >= 50.0 and sleeping["cpu_ms"] < 5.0

    def test_record_span_carries_the_given_cpu_time(self):
        recorder = FlightRecorder(capacity=4)
        with tracing(recorder=recorder):
            record_span("measured", 1.0, 1.5, cpu_ms=120.0)
            record_span("unmeasured", 1.0, 1.5)
        measured, unmeasured = recorder.spans()
        assert measured["cpu_ms"] == 120.0 and unmeasured["cpu_ms"] is None

    def test_ops_spans_are_gated_separately(self):
        plain = FlightRecorder(capacity=16)
        with tracing(recorder=plain):
            with ops_span("op.conv2d"):
                pass
            with span("evaluate"):
                pass
        assert [entry["name"] for entry in plain.spans()] == ["evaluate"]

        profiled = FlightRecorder(capacity=16)
        with tracing(recorder=profiled, ops=True):
            with ops_span("op.conv2d"):
                pass
        assert [entry["name"] for entry in profiled.spans()] == ["op.conv2d"]

    def test_span_ids_embed_pid_and_never_repeat(self):
        recorder = FlightRecorder(capacity=16)
        with tracing(recorder=recorder):
            for _ in range(5):
                with span("step"):
                    pass
        ids = [entry["span_id"] for entry in recorder.spans()]
        assert len(set(ids)) == 5


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_drops_oldest_and_counts(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.record({"name": "step", "span_id": str(index)})
        assert len(recorder) == 3
        assert recorder.dropped == 2
        assert [entry["span_id"] for entry in recorder.spans()] == ["2", "3", "4"]
        recorder.clear()
        assert len(recorder) == 0 and recorder.dropped == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_jsonl_mirror_outlives_the_ring(self, tmp_path):
        path = tmp_path / "traces" / "run.jsonl"
        recorder = FlightRecorder(capacity=2, jsonl_path=path)
        with tracing(recorder=recorder, trace_id="t-file"):
            for index in range(4):
                with span("step", index=index):
                    pass
        recorder.close()
        assert len(recorder) == 2 and recorder.dropped == 2  # ring is bounded
        loaded = load_trace(path)
        assert [entry["attrs"]["index"] for entry in loaded] == [0, 1, 2, 3]

    def test_numpy_attributes_serialize_to_jsonl(self, tmp_path):
        path = tmp_path / "np.jsonl"
        recorder = FlightRecorder(capacity=4, jsonl_path=path)
        with tracing(recorder=recorder):
            with span("step", scalar=np.float64(1.5), row=np.arange(2)):
                pass
        recorder.close()
        loaded = load_trace(path)
        assert loaded[0]["attrs"]["scalar"] == 1.5
        assert loaded[0]["attrs"]["row"] == [0, 1]

    def test_jsonl_mirror_truncates_on_first_open_and_appends_after_close(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"name": "old run"}\n')
        recorder = FlightRecorder(capacity=4, jsonl_path=path)
        recorder.record({"name": "first"})
        recorder.close()
        recorder.record({"name": "second"})
        recorder.close()
        assert [entry["name"] for entry in load_trace(path)] == ["first", "second"]

    def test_drain_empties_ring_but_keeps_dropped(self):
        recorder = FlightRecorder(capacity=2)
        for index in range(3):
            recorder.record({"name": "step", "span_id": str(index)})
        drained = recorder.drain()
        assert [entry["span_id"] for entry in drained] == ["1", "2"]
        assert len(recorder) == 0 and recorder.dropped == 1


# ---------------------------------------------------------------------------
# analysis + export
# ---------------------------------------------------------------------------

def _synthetic_spans():
    """A two-process tree with known timings.

    root(10ms) -> evaluate(6ms, worker pid) -> train.epoch(4ms)
               -> propose(3ms)
    """
    return [
        {"name": "search", "span_id": "a", "parent_id": None, "trace_id": "t",
         "start": 0.0, "end": 0.010, "pid": 1, "thread": "main"},
        {"name": "evaluate", "span_id": "b", "parent_id": "a", "trace_id": "t",
         "start": 0.001, "end": 0.007, "pid": 2, "thread": "main",
         "attrs": {"arch": "0,1"}},
        {"name": "train.epoch", "span_id": "c", "parent_id": "b", "trace_id": "t",
         "start": 0.002, "end": 0.006, "pid": 2, "thread": "main"},
        {"name": "propose", "span_id": "d", "parent_id": "a", "trace_id": "t",
         "start": 0.007, "end": 0.010, "pid": 1, "thread": "main"},
    ]


class TestAnalysis:
    def test_summarize_self_times_do_not_double_count(self):
        summary = summarize(_synthetic_spans())
        phases = {row["name"]: row for row in summary["phases"]}
        assert phases["search"]["self_ms"] == pytest.approx(1.0)  # 10 - (6 + 3)
        assert phases["evaluate"]["self_ms"] == pytest.approx(2.0)  # 6 - 4
        assert phases["train.epoch"]["self_ms"] == pytest.approx(4.0)
        assert summary["span_count"] == 4
        assert summary["processes"] == [1, 2]
        assert summary["wall_ms"] == pytest.approx(10.0)
        assert summary["evaluation_count"] == 1
        assert summary["slowest_evaluations"][0]["attrs"]["arch"] == "0,1"

    def test_critical_path_descends_longest_children(self):
        path = [step["name"] for step in critical_path(_synthetic_spans())]
        assert path == ["search", "evaluate", "train.epoch"]

    def test_format_summary_renders_breakdown(self):
        text = format_summary(summarize(_synthetic_spans()))
        assert "Per-phase breakdown" in text
        assert "Critical path" in text
        assert "Slowest evaluations" in text
        assert "evaluate" in text

    def test_summary_totals_peak_rss_growth_per_process(self):
        def evaluate(span_id, pid, delta):
            return {"name": "evaluate", "span_id": span_id, "parent_id": None, "trace_id": "t",
                    "start": 0.0, "end": 0.001, "pid": pid, "thread": "main",
                    "attrs": {"maxrss_delta_mb": delta}}

        spans = [evaluate("a", 7, 8.0), evaluate("b", 7, 7.5), evaluate("c", 8, 9.0),
                 evaluate("d", 8, 0.0)]
        summary = summarize(spans)
        assert summary["rss_growth"] == [
            {"pid": 7, "evaluations": 2, "raised": 2, "total_mb": 15.5},
            {"pid": 8, "evaluations": 2, "raised": 1, "total_mb": 9.0},
        ]
        text = format_summary(summary)
        assert "pid 7: +15.5 MB, raised by 2 of 2 evaluations" in text
        assert "Peak-RSS growth" not in format_summary(summarize(_synthetic_spans()))

    def test_chrome_trace_events_are_valid(self):
        payload = chrome_trace(_synthetic_spans())
        events = payload["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == 4
        assert min(event["ts"] for event in complete) == 0.0  # rebased to t=0
        for event in complete:
            assert event["dur"] >= 0.0
            assert "span_id" in event["args"]
        # one metadata record names each (pid, thread) track
        metadata = [event for event in events if event["ph"] == "M"]
        assert {(event["pid"], event["tid"]) for event in metadata} == {
            (event["pid"], event["tid"]) for event in complete
        }

    def test_empty_inputs_are_handled(self):
        assert critical_path([]) == []
        assert summarize([])["span_count"] == 0
        assert chrome_trace([])["traceEvents"] == []

    def test_load_trace_accepts_all_three_shapes(self, tmp_path):
        spans = _synthetic_spans()
        jsonl = tmp_path / "spans.jsonl"
        jsonl.write_text("\n".join(json.dumps(entry) for entry in spans) + "\n")
        array = tmp_path / "spans.json"
        array.write_text(json.dumps(spans))
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"job_id": "job-1", "spans": spans}))
        for path in (jsonl, array, endpoint):
            assert [entry["span_id"] for entry in load_trace(path)] == ["a", "b", "c", "d"]


# ---------------------------------------------------------------------------
# cross-process propagation
# ---------------------------------------------------------------------------

class TestPropagation:
    def test_capture_context_is_none_while_disabled(self):
        assert capture_context() is None

    def test_remote_activation_collects_and_restitches(self):
        parent_recorder = FlightRecorder(capacity=64)
        with tracing(recorder=parent_recorder, trace_id="t-remote"):
            with span("search") as parent:
                context = capture_context()
        assert context == {
            "trace_id": "t-remote",
            "parent_id": parent.span_id,
            "ops": False,
        }
        # "worker": activate the context with no ambient tracing state
        with remote_activation(context) as collected:
            with span("evaluate"):
                pass
        assert not is_enabled()  # activation is scoped
        assert [entry["name"] for entry in collected] == ["evaluate"]
        assert collected[0]["trace_id"] == "t-remote"
        assert collected[0]["parent_id"] == parent.span_id
        # "parent": absorb folds into the active recorder
        with tracing(recorder=parent_recorder, trace_id="t-remote"):
            absorb(collected)
        names = [entry["name"] for entry in parent_recorder.spans()]
        assert names == ["search", "evaluate"]

    def test_remote_activation_none_context_is_inert(self):
        with remote_activation(None) as collected:
            assert not is_enabled()
            with span("evaluate"):
                pass
        assert collected == []

    def test_executor_stitches_worker_spans_under_parent(self):
        """Pool or serial fallback alike: every evaluate span lands in the
        parent's recorder, parented under the span open at submission."""
        specs = make_space().sample_batch(3, rng=0)
        recorder = FlightRecorder(capacity=1024)
        with tracing(recorder=recorder, trace_id="t-exec"):
            with span("search") as parent:
                with AsyncEvaluationExecutor(SpanningObjective(), workers=2) as executor:
                    for spec in specs:
                        executor.submit(spec)
                    completed = list(executor.drain())
        assert len(completed) == 3
        evaluates = [entry for entry in recorder.spans() if entry["name"] == "evaluate"]
        assert len(evaluates) == 3
        for entry in evaluates:
            assert entry["trace_id"] == "t-exec"
            assert entry["parent_id"] == parent.span_id
        # transport-only payload never survives absorption
        for done in completed:
            assert done.result.telemetry is None

    def test_executor_with_tracing_disabled_ships_unwrapped(self):
        specs = make_space().sample_batch(2, rng=1)
        with AsyncEvaluationExecutor(SpanningObjective(), workers=2) as executor:
            for spec in specs:
                executor.submit(spec)
            completed = list(executor.drain())
        assert len(completed) == 2
        for done in completed:
            assert done.result.telemetry is None

    def test_async_search_stitches_worker_spans(self):
        optimizer = BayesianOptimizer(
            make_space(), SpanningObjective(), initial_points=3, batch_size=2,
            candidate_pool_size=8, async_workers=2, rng=0,
        )
        recorder = FlightRecorder(capacity=1024)
        with tracing(recorder=recorder, trace_id="t-batch"):
            history = optimizer.optimize(1)
        (search,) = [entry for entry in recorder.spans() if entry["name"] == "search"]
        evaluates = [entry for entry in recorder.spans() if entry["name"] == "evaluate"]
        assert len(evaluates) == len(history) == 5
        assert sorted(entry["attrs"]["arch"] for entry in evaluates) == sorted(
            ",".join(str(v) for v in record.spec.encode()) for record in history
        )
        for entry in evaluates:
            assert entry["trace_id"] == "t-batch"
            assert entry["parent_id"] == search["span_id"]

    def test_worker_counter_deltas_merge_into_aggregates(self):
        from repro.core.cache import merge_store_counters, store_counters
        from repro.snn.fused_step import aggregate_fused_counters, merge_fused_counters

        fused_before = aggregate_fused_counters()
        merge_fused_counters({"fused_steps": 2, "fallback_steps": 1})
        fused_after = aggregate_fused_counters()
        assert fused_after["fused_steps"] - fused_before["fused_steps"] == 2
        assert fused_after["fallback_steps"] - fused_before["fallback_steps"] == 1

        store_before = store_counters()
        merge_store_counters({"hits": 3, "misses": 2})
        store_after = store_counters()
        assert store_after["hits"] - store_before["hits"] == 3
        assert store_after["misses"] - store_before["misses"] == 2


# ---------------------------------------------------------------------------
# the `repro trace` CLI
# ---------------------------------------------------------------------------

class TestTraceCommand:
    def _write_trace(self, tmp_path) -> Path:
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(capacity=64, jsonl_path=path)
        with tracing(recorder=recorder, trace_id="t-cli"):
            with span("search"):
                with span("evaluate", arch="0,1"):
                    with span("train.epoch", epoch=0):
                        pass
        recorder.close()
        return path

    def test_renders_breakdown_and_chrome_export(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = self._write_trace(tmp_path)
        chrome_path = tmp_path / "chrome.json"
        code = main(["trace", str(trace_path), "--chrome", str(chrome_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Per-phase breakdown" in out
        assert "Critical path" in out
        payload = json.loads(chrome_path.read_text())
        assert sum(1 for event in payload["traceEvents"] if event["ph"] == "X") == 3

    def test_traced_pareto_records_the_process_startup(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "pareto.jsonl"
        argv = ["pareto", "--scale", "smoke", "--model", "single_block", "--iterations", "2"]
        assert main(argv + ["--trace", str(trace_path)]) == 0
        spans = load_trace(trace_path)
        startup = [span for span in spans if span["name"] == "process.startup"]
        front = [span for span in spans if span["name"] == "pareto_front"]
        assert len(startup) == 1 and len(front) == 1
        assert startup[0]["trace_id"] == front[0]["trace_id"]
        assert startup[0]["start"] < startup[0]["end"] <= front[0]["start"]
        assert startup[0]["attrs"]["blas_threads"] == max(blas_threads().values(), default=None)
        # the peak RSS so far, read when the span is recorded, so never above this process's peak now
        maxrss = startup[0]["attrs"]["maxrss_mb"]
        assert maxrss is None or 0 < maxrss <= max_rss_mb()
        # the start-up's CPU time is the whole process's, over the same interval
        assert 0.0 < startup[0]["cpu_ms"] <= startup[0]["duration_ms"] * os.cpu_count() + 1.0
        capsys.readouterr()

    def test_a_second_traced_run_replaces_the_first_runs_trace(self, tmp_path, capsys):
        """Two traced replays into one path leave one run's spans, not both runs'."""
        from repro.cli import main

        trace_path = tmp_path / "pareto.jsonl"
        argv = ["pareto", "--scale", "smoke", "--model", "single_block", "--iterations", "2"]
        argv += ["--cache-dir", str(tmp_path / "cache"), "--trace", str(trace_path)]
        for _ in range(2):
            assert main(argv) == 0
        names = [span["name"] for span in load_trace(trace_path)]
        assert names.count("process.startup") == 1
        assert names.count("pareto_front") == 1
        capsys.readouterr()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_a_traced_search_process_starts_no_native_thread(self, tmp_path):
        # a fresh process with no thread variable, as a search runs: this one
        # loaded NumPy with a BLAS worker per core, so it cannot stand in
        env = {name: value for name, value in os.environ.items() if name not in THREAD_ENV_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        trace_path = tmp_path / "pareto.jsonl"
        argv = ["pareto", "--scale", "smoke", "--model", "single_block", "--iterations", "2"]
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv, "--trace", str(trace_path)],
            env=env,
            capture_output=True,
            timeout=300,
            check=True,
        )
        (startup,) = [span for span in load_trace(trace_path) if span["name"] == "process.startup"]
        assert startup["attrs"]["native_threads"] == 0

    def test_traced_pareto_records_one_data_load_before_the_search(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "pareto.jsonl"
        argv = ["pareto", "--scale", "smoke", "--model", "single_block", "--iterations", "2"]
        assert main(argv + ["--trace", str(trace_path)]) == 0
        spans = load_trace(trace_path)
        loads = [span for span in spans if span["name"] == "data.load"]
        (front,) = [span for span in spans if span["name"] == "pareto_front"]
        assert len(loads) == 1
        (load,) = loads
        assert load["end"] <= front["start"] and load["trace_id"] == front["trace_id"]
        scale = get_scale("smoke")
        assert load["attrs"]["dataset"] == "cifar10-dvs"
        assert load["attrs"]["num_samples"] == scale.num_samples_dvs
        frame_bytes = 8 * scale.num_steps * 2 * scale.image_size ** 2
        assert load["attrs"]["bytes"] == scale.num_samples_dvs * (frame_bytes + 8)
        assert all(span["cpu_ms"] is not None for span in spans)
        capsys.readouterr()

    def test_missing_and_empty_files_exit_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", str(tmp_path / "missing.jsonl")]) == 1
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err and "no spans" in err


# ---------------------------------------------------------------------------
# the overhead contract's CI gate
# ---------------------------------------------------------------------------

class TestBenchGateCeiling:
    OK = {
        "conv2d_forward": {"speedup": 3.0},
        "lif_step": {"speedup": 3.0},
        "bptt_step": {"speedup": 3.0},
        "tracing_overhead": {"overhead_ratio": 1.005},
    }

    def test_ratio_under_ceiling_passes(self):
        from tools.bench_gate import gate

        assert gate({}, self.OK) == []

    def test_ratio_over_ceiling_fails(self):
        from tools.bench_gate import gate

        current = dict(self.OK, tracing_overhead={"overhead_ratio": 1.05})
        failures = gate({}, current)
        assert len(failures) == 1
        assert "tracing_overhead.overhead_ratio" in failures[0]
        assert "ceiling" in failures[0]

    def test_missing_overhead_section_fails(self):
        from tools.bench_gate import gate

        current = {key: value for key, value in self.OK.items() if key != "tracing_overhead"}
        failures = gate({}, current)
        assert any("tracing_overhead.overhead_ratio: missing" in failure for failure in failures)
