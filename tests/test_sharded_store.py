"""The sharded evaluation store must merge concurrent writers losslessly.

The acceptance check for the shard layout: two writer *processes* appending
concurrently to one sharded store produce a merged read view identical to a
single-writer :class:`PersistentEvaluationStore` fed the same rows.  CI
re-runs this file under ``REPRO_MP_START_METHOD=spawn`` so the writers
provably run in fresh interpreters.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.cache import (
    CachedObjective,
    PersistentEvaluationStore,
    ShardedEvaluationStore,
    evaluation_store_for,
)
from repro.core.objectives import SyntheticWeightObjective
from repro.core.search_space import BlockSearchInfo, SearchSpace
from repro.core.async_eval import get_mp_context


def make_space(depth: int = 4) -> SearchSpace:
    return SearchSpace([BlockSearchInfo(depth=depth, name="block")], name="shard-test")


def _rows_for(tag: int, count: int):
    return {f"{tag},{i}": {"objective_value": float(i) + 10.0 * tag} for i in range(count)}


def _write_shard_rows(base, tag: int, count: int) -> None:
    """Process target: append ``count`` rows from one writer process."""
    store = ShardedEvaluationStore(base)
    for key, row in _rows_for(tag, count).items():
        store.put(key, row)


def _evaluate_specs(base, seed: int) -> None:
    """Process target: one search process evaluating through a shared cache."""
    store = ShardedEvaluationStore(base)
    cached = CachedObjective(SyntheticWeightObjective(), store=store)
    for spec in make_space().sample_batch(4, rng=seed):
        cached(spec)


class TestShardedStoreSingleProcess:
    def test_round_trip_and_reload_visibility(self, tmp_path):
        base = tmp_path / "evals.jsonl"
        writer_a = ShardedEvaluationStore(base, writer_id="a")
        writer_b = ShardedEvaluationStore(base, writer_id="b")
        writer_a.put("1,1", {"objective_value": 0.25})
        assert "1,1" not in writer_b
        writer_b.reload()
        assert writer_b.get("1,1")["objective_value"] == 0.25
        writer_b.put("2,2", {"objective_value": 0.5})
        writer_a.reload()
        assert len(writer_a) == 2

    def test_writers_append_only_to_their_own_shard(self, tmp_path):
        base = tmp_path / "evals.jsonl"
        writer_a = ShardedEvaluationStore(base, writer_id="a")
        writer_b = ShardedEvaluationStore(base, writer_id="b")
        writer_a.put("k", {"objective_value": 1.0})
        writer_b.put("q", {"objective_value": 2.0})
        shard_a = (writer_a.shard_dir / "a.jsonl").read_text()
        shard_b = (writer_b.shard_dir / "b.jsonl").read_text()
        assert "\"k\"" in shard_a and "\"q\"" not in shard_a
        assert "\"q\"" in shard_b and "\"k\"" not in shard_b

    def test_duplicate_keys_resolve_deterministically(self, tmp_path):
        """Shards merge in sorted filename order, so the lexicographically
        last shard wins a duplicate key — whatever order the writes landed."""
        base = tmp_path / "evals.jsonl"
        ShardedEvaluationStore(base, writer_id="b").put("k", {"objective_value": 2.0})
        ShardedEvaluationStore(base, writer_id="a").put("k", {"objective_value": 1.0})
        merged = ShardedEvaluationStore(base)
        assert len(merged) == 1
        assert merged.get("k")["objective_value"] == 2.0

    def test_legacy_single_file_is_oldest_layer(self, tmp_path):
        base = tmp_path / "evals.jsonl"
        legacy = PersistentEvaluationStore(base)
        legacy.put("old", {"objective_value": 1.0})
        legacy.put("shared", {"objective_value": 1.0})
        sharded = ShardedEvaluationStore(base, writer_id="w")
        assert sharded.get("old")["objective_value"] == 1.0
        sharded.put("shared", {"objective_value": 9.0})
        merged = ShardedEvaluationStore(base)
        assert merged.get("shared")["objective_value"] == 9.0
        assert len(merged) == 2

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        base = tmp_path / "evals.jsonl"
        writer = ShardedEvaluationStore(base, writer_id="w")
        writer.put("k", {"objective_value": 1.0})
        crashed = writer.shard_dir / "crashed.jsonl"
        crashed.write_text(json.dumps({"key": "ok", "objective_value": 2.0}) + "\n" + '{"key": "torn')
        merged = ShardedEvaluationStore(base)
        assert len(merged) == 2
        assert merged.skipped_lines == 1

    def test_unpickling_writes_to_the_process_shard(self, tmp_path):
        writer = ShardedEvaluationStore(tmp_path / "evals.jsonl", writer_id="parent")
        writer.put("k", {"objective_value": 1.0})
        clone = pickle.loads(pickle.dumps(writer))
        assert clone.writer_id != writer.writer_id
        assert clone.path != writer.path
        clone.put("q", {"objective_value": 2.0})
        assert "\"q\"" not in (writer.shard_dir / "parent.jsonl").read_text()
        writer.reload()
        assert "q" in writer

    def test_repeated_unpickling_reuses_one_shard_per_process(self, tmp_path):
        """Worker pools re-pickle the objective per task; that must not
        scatter one shard file per task — a process owns exactly one shard
        per base path."""
        writer = ShardedEvaluationStore(tmp_path / "evals.jsonl", writer_id="parent")
        writer.put("seed", {"objective_value": 0.0})
        first = pickle.loads(pickle.dumps(writer))
        second = pickle.loads(pickle.dumps(writer))
        assert first.writer_id == second.writer_id
        first.put("a", {"objective_value": 1.0})
        second.put("b", {"objective_value": 2.0})
        shards = sorted(p.name for p in writer.shard_dir.glob("*.jsonl"))
        assert len(shards) == 2  # parent's explicit shard + one process shard
        # a default-id store in this process also lands on the process shard
        default = ShardedEvaluationStore(tmp_path / "evals.jsonl")
        assert default.writer_id == first.writer_id

    def test_snapshot_store_is_shared_across_writers(self, tmp_path):
        """snapshot_store_for must key the .weights directory off the shared
        base name, not the per-writer shard, so a row persisted by one
        process replays its snapshot in any other."""
        import numpy as np

        from repro.core.cache import snapshot_store_for

        base = tmp_path / "evals.jsonl"
        writer_a = ShardedEvaluationStore(base, writer_id="a")
        writer_b = ShardedEvaluationStore(base, writer_id="b")
        snaps_a = snapshot_store_for(writer_a)
        snaps_b = snapshot_store_for(writer_b)
        assert snaps_a.directory == snaps_b.directory == base.with_suffix(".weights")
        digest = snaps_a.put({"w": np.ones(3)}, score=0.5)
        np.testing.assert_array_equal(snaps_b.get(digest)["w"], np.ones(3))

    def test_directory_path_uses_default_filename(self, tmp_path):
        store = ShardedEvaluationStore(tmp_path)
        assert store.base_path.name == PersistentEvaluationStore.FILENAME
        assert store.shard_dir.parent == tmp_path

    def test_store_factory_returns_sharded_store(self, tmp_path):
        store = evaluation_store_for(tmp_path, ["exp"], sharded=True, seed=0)
        assert isinstance(store, ShardedEvaluationStore)
        plain = evaluation_store_for(tmp_path, ["exp"], seed=0)
        assert type(plain) is PersistentEvaluationStore
        # both layouts share the same fingerprinted base name
        assert store.base_path == plain.path


class TestShardedStoreConcurrentProcesses:
    def test_two_writer_processes_match_single_writer_view(self, tmp_path):
        """Acceptance: concurrent writer processes produce a merged read view
        identical to a single-writer store fed the same rows."""
        base = tmp_path / "evals.jsonl"
        context = get_mp_context()
        workers = [
            context.Process(target=_write_shard_rows, args=(base, tag, 6)) for tag in (1, 2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert all(worker.exitcode == 0 for worker in workers)

        reference = PersistentEvaluationStore(tmp_path / "reference.jsonl")
        for tag in (1, 2):
            for key, row in _rows_for(tag, 6).items():
                reference.put(key, row)

        merged = ShardedEvaluationStore(base)
        assert sorted(merged.keys()) == sorted(reference.keys())
        for key in reference.keys():
            assert merged.get(key)["objective_value"] == reference.get(key)["objective_value"]
        assert merged.skipped_lines == 0

    def test_two_search_processes_share_one_cache(self, tmp_path):
        """Two search processes evaluating through CachedObjective over one
        sharded store: the parent's merged view contains every evaluation."""
        base = tmp_path / "evals.jsonl"
        context = get_mp_context()
        workers = [context.Process(target=_evaluate_specs, args=(base, seed)) for seed in (0, 1)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert all(worker.exitcode == 0 for worker in workers)

        merged = ShardedEvaluationStore(base)
        expected_keys = set()
        for seed in (0, 1):
            for spec in make_space().sample_batch(4, rng=seed):
                expected_keys.add(",".join(str(int(v)) for v in spec.encode()))
        assert set(merged.keys()) == expected_keys

        # a fresh CachedObjective answers everything from the merged view
        probe = SyntheticWeightObjective()
        cached = CachedObjective(probe, store=merged)
        for spec in make_space().sample_batch(4, rng=0):
            cached(spec)
        assert probe.num_evaluations == 0
        assert cached.hit_rate == pytest.approx(1.0)


class TestShardCompaction:
    def _populate(self, base):
        for writer, count in (("a", 4), ("b", 3)):
            store = ShardedEvaluationStore(base, writer_id=writer)
            for key, row in _rows_for(1 if writer == "a" else 2, count).items():
                store.put(key, row)

    def test_compacted_dir_yields_identical_merged_view(self, tmp_path):
        """Acceptance: compaction folds every shard into the base file without
        changing the merged view a fresh store reads."""
        base = tmp_path / "evals.jsonl"
        legacy = PersistentEvaluationStore(base)
        legacy.put("old", {"objective_value": 0.5})
        self._populate(base)
        before = {key: ShardedEvaluationStore(base).get(key) for key in ShardedEvaluationStore(base).keys()}

        summary = ShardedEvaluationStore(base).compact()
        assert summary["rows"] == len(before) == 8
        assert summary["shards_merged"] == 2 and summary["shards_kept"] == 0
        assert base.exists() and not base.with_suffix(".shards").exists()

        merged = ShardedEvaluationStore(base)
        assert {key: merged.get(key) for key in merged.keys()} == before
        # the compacted file is also a plain single-file store now
        plain = PersistentEvaluationStore(base)
        assert sorted(plain.keys()) == sorted(before)

    def test_compaction_preserves_duplicate_resolution(self, tmp_path):
        base = tmp_path / "evals.jsonl"
        ShardedEvaluationStore(base, writer_id="b").put("k", {"objective_value": 2.0})
        ShardedEvaluationStore(base, writer_id="a").put("k", {"objective_value": 1.0})
        winner = ShardedEvaluationStore(base).get("k")["objective_value"]
        ShardedEvaluationStore(base).compact()
        assert ShardedEvaluationStore(base).get("k")["objective_value"] == winner

    def test_compaction_keeps_shards_that_grew_mid_pass(self, tmp_path):
        """A shard appended to after being read must survive the pass (its
        unseen rows stay reachable through the normal shard merge)."""
        base = tmp_path / "evals.jsonl"
        self._populate(base)
        store = ShardedEvaluationStore(base)

        original_reload = ShardedEvaluationStore.reload
        fired = []

        def reload_then_append(self_store):
            count = original_reload(self_store)
            if not fired:  # only the compaction pass's own reload
                fired.append(True)
                late = ShardedEvaluationStore(base, writer_id="a")
                late.put("late", {"objective_value": 9.0})
            return count

        ShardedEvaluationStore.reload = reload_then_append
        try:
            summary = store.compact()
        finally:
            ShardedEvaluationStore.reload = original_reload
        assert summary["shards_kept"] == 1
        merged = ShardedEvaluationStore(base)
        assert merged.get("late")["objective_value"] == 9.0
        assert len(merged) == 8

    def test_writes_after_compaction_start_a_fresh_shard(self, tmp_path):
        base = tmp_path / "evals.jsonl"
        store = ShardedEvaluationStore(base, writer_id="w")
        store.put("k", {"objective_value": 1.0})
        store.compact()
        store.put("q", {"objective_value": 2.0})
        merged = ShardedEvaluationStore(base)
        assert sorted(merged.keys()) == ["k", "q"]
        assert merged.skipped_lines == 0

    def test_cli_cache_compact(self, tmp_path):
        from repro.cli import main

        base = tmp_path / "evals-abc123.jsonl"
        self._populate(base)
        assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        assert not base.with_suffix(".shards").exists()
        assert len(ShardedEvaluationStore(base)) == 7
        # idempotent / empty directories are fine
        assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0

    def test_reader_retries_when_a_shard_vanishes_mid_reload(self, tmp_path):
        """A reload racing a compaction (shard unlinked after the base was
        replaced) must retry and land on the post-compaction view instead of
        silently dropping the shard's rows."""
        base = tmp_path / "evals.jsonl"
        self._populate(base)
        reader = ShardedEvaluationStore(base, writer_id="reader")
        full_view = dict(zip(reader.keys(), (reader.get(k) for k in reader.keys())))

        ghost = reader.shard_dir / "zz-vanished.jsonl"
        original_source_paths = ShardedEvaluationStore._source_paths
        calls = {"n": 0}

        def racing_source_paths(self_store):
            calls["n"] += 1
            if calls["n"] == 1:
                # first attempt: the compaction already folded + unlinked a
                # shard this listing still names
                ShardedEvaluationStore(base, writer_id="compactor").compact()
                return original_source_paths(self_store) + [ghost]
            return original_source_paths(self_store)

        ShardedEvaluationStore._source_paths = racing_source_paths
        try:
            reader.reload()
        finally:
            ShardedEvaluationStore._source_paths = original_source_paths
        assert calls["n"] >= 2  # the vanished shard forced a second pass
        assert {key: reader.get(key) for key in reader.keys()} == full_view
