"""Tests of the persistent evaluation store and its objective wrappers.

The headline guarantee: evaluations written in one run are hits in a fresh
process pointed at the same directory (exercised with a real subprocess), and
a torn trailing line from a crashed writer never poisons the store.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.cache import (
    CachedObjective,
    PersistentEvaluationStore,
    result_to_row,
    row_to_result,
)
from repro.core.objectives import EvaluationResult, Objective
from repro.core.search_space import BlockSearchInfo, SearchSpace

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_space():
    return SearchSpace([BlockSearchInfo(depth=4, name="block")], name="cache-test")


class CountingObjective(Objective):
    def __init__(self):
        self.calls = 0

    def __call__(self, spec):
        self.calls += 1
        return EvaluationResult(
            spec=spec,
            objective_value=float(spec.total_skips()) * 0.1,
            accuracy=1.0 - float(spec.total_skips()) * 0.1,
            firing_rate=0.25,
            extra={"num_skips": float(spec.total_skips())},
        )


class TestPersistentEvaluationStore:
    def test_directory_path_appends_filename(self, tmp_path):
        store = PersistentEvaluationStore(tmp_path / "cache")
        assert store.path.name == PersistentEvaluationStore.FILENAME
        assert store.path.parent.exists()

    def test_put_get_roundtrip_and_stats(self, tmp_path):
        store = PersistentEvaluationStore(tmp_path / "store.jsonl")
        store.put("a", {"objective_value": 0.5})
        assert store.get("a")["objective_value"] == 0.5
        assert store.get("b") is None
        assert store.hits == 1 and store.misses == 1
        assert store.hit_rate == pytest.approx(0.5)
        assert "a" in store and len(store) == 1
        assert store.stats()["entries"] == 1.0

    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first = PersistentEvaluationStore(path)
        first.put("k1", {"objective_value": 1.0})
        first.put("k2", {"objective_value": 2.0})
        second = PersistentEvaluationStore(path)
        assert len(second) == 2
        assert second.get("k2")["objective_value"] == 2.0

    def test_latest_duplicate_wins(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = PersistentEvaluationStore(path)
        store.put("k", {"objective_value": 1.0})
        store.put("k", {"objective_value": 3.0})
        reloaded = PersistentEvaluationStore(path)
        assert len(reloaded) == 1
        assert reloaded.get("k")["objective_value"] == 3.0

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = PersistentEvaluationStore(path)
        store.put("good", {"objective_value": 1.0})
        with open(path, "a") as handle:
            handle.write('{"key": "torn", "objective_va')  # crashed mid-write
        reloaded = PersistentEvaluationStore(path)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 1
        assert reloaded.get("good") is not None
        # the store stays appendable after a torn line
        reloaded.put("after", {"objective_value": 2.0})
        assert PersistentEvaluationStore(path).get("after") is not None

    def test_torn_line_written_after_load_does_not_swallow_next_row(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = PersistentEvaluationStore(path)
        store.put("first", {"objective_value": 1.0})
        with open(path, "a") as handle:  # another writer, crashed mid-write
            handle.write('{"key":"torn","v":')
        store.put("second", {"objective_value": 2.0})
        reloaded = PersistentEvaluationStore(path)
        assert sorted(reloaded.keys()) == ["first", "second"]
        assert reloaded.skipped_lines == 1

    def test_result_row_roundtrip(self):
        space = make_space()
        spec = space.sample(rng=0)
        result = CountingObjective()(spec)
        row = result_to_row(result)
        json.dumps(row)  # must be JSON-serialisable
        rebuilt = row_to_result(row, spec)
        assert rebuilt.objective_value == pytest.approx(result.objective_value)
        assert rebuilt.accuracy == pytest.approx(result.accuracy)
        assert rebuilt.firing_rate == pytest.approx(result.firing_rate)
        assert rebuilt.extra["num_skips"] == result.extra["num_skips"]


class TestCachedObjectiveWithStore:
    def test_store_hit_avoids_reevaluation_in_same_process(self, tmp_path):
        space = make_space()
        spec = space.sample(rng=1)
        store = PersistentEvaluationStore(tmp_path)
        base = CountingObjective()
        cached = CachedObjective(base, store=store)
        first = cached(spec)
        # a second wrapper sharing the store must not re-evaluate
        other = CachedObjective(CountingObjective(), store=store)
        second = other(spec)
        assert base.calls == 1
        assert second.objective_value == pytest.approx(first.objective_value)
        assert other.hits == 1 and other.misses == 0

    def test_fresh_process_hits_the_store(self, tmp_path):
        """Write in this process, read in a brand-new interpreter."""
        space = make_space()
        spec = space.sample(rng=2)
        store = PersistentEvaluationStore(tmp_path)
        cached = CachedObjective(CountingObjective(), store=store)
        expected = cached(spec)

        script = f"""
import sys
from repro.core.cache import CachedObjective, PersistentEvaluationStore
from repro.core.search_space import BlockSearchInfo, SearchSpace

class Exploding:
    def __call__(self, spec):
        raise RuntimeError("store miss: objective should never run")

space = SearchSpace([BlockSearchInfo(depth=4, name="block")], name="cache-test")
spec = space.sample(rng=2)
store = PersistentEvaluationStore({str(tmp_path)!r})
cached = CachedObjective(Exploding(), store=store)
result = cached(spec)
print(f"HIT {{result.objective_value:.6f}}")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("HIT")
        value = float(completed.stdout.split()[1])
        assert value == pytest.approx(expected.objective_value, abs=1e-6)

    def test_in_memory_tier_still_works_without_store(self):
        space = make_space()
        spec = space.sample(rng=3)
        cached = CachedObjective(CountingObjective())
        cached(spec)
        cached(spec)
        assert cached.hits == 1 and cached.misses == 1


class TestTable1CellWithPersistentCache:
    def test_table1_cell_runs_with_cache_dir(self, tmp_path, tiny_dvs_splits):
        """The full adaptation pipeline works with the store attached (and the
        store must not shadow the weight-sharing store used for the final
        fine-tune)."""
        from repro.experiments import get_scale, run_table1_cell

        scale = get_scale("smoke").with_overrides(bo_iterations=1)
        result = run_table1_cell(
            "cifar10-dvs", "single_block", scale=scale, splits=tiny_dvs_splits, cache_dir=str(tmp_path)
        )
        assert result.history.num_evaluations >= 2
        store_files = list(tmp_path.glob("*.jsonl"))
        assert len(store_files) == 1 and store_files[0].stat().st_size > 0

    def test_cached_rerun_reports_the_same_row(self, tmp_path, tiny_dvs_splits):
        """The pretrained base is deterministic, so a re-run names the same
        store, answers every candidate from it and reports the same row."""
        from repro.experiments import get_scale, run_table1_cell

        scale = get_scale("smoke").with_overrides(bo_iterations=1)

        def run():
            result = run_table1_cell(
                "cifar10-dvs", "single_block", scale=scale, splits=tiny_dvs_splits, cache_dir=str(tmp_path)
            )
            (store,) = tmp_path.glob("adapt-*.jsonl")
            return result, store.read_text()

        (first, rows), (second, rows_again) = run(), run()
        assert rows_again == rows
        assert second.summary() == first.summary()
        assert [r.objective_value for r in second.history] == [r.objective_value for r in first.history]


class TestBayesOptWithPersistentCache:
    def test_second_search_run_is_served_from_disk(self, tmp_path):
        """A repeated BO run with the same seed costs zero real evaluations."""
        from repro.core.bayes_opt import BayesianOptimizer

        space = make_space()

        def run(base):
            store = PersistentEvaluationStore(tmp_path)
            cached = CachedObjective(base, store=store)
            optimizer = BayesianOptimizer(
                space, cached, initial_points=3, batch_size=2, candidate_pool_size=8, rng=7
            )
            optimizer.optimize(2)
            return optimizer.history.best().objective_value

        first_base = CountingObjective()
        best_first = run(first_base)
        second_base = CountingObjective()
        best_second = run(second_base)
        assert first_base.calls > 0
        assert second_base.calls == 0  # every evaluation was a store hit
        assert best_second == pytest.approx(best_first)
