"""Weight-sharing state must survive cache hits and parallel workers.

The paper's search is only cheap because candidates inherit shared weights, so
two propagation paths are load-bearing and covered here:

* **cache hits** — a :class:`PersistentEvaluationStore` hit replays the
  candidate's weight snapshot into the run's :class:`WeightStore`, so a
  fully-cached run accumulates the same shared weights (and the final
  fine-tune starts from the same warm state) as the run that originally paid
  for the evaluations;
* **parallel workers** — weight updates are result-carried and merged by the
  search loop in the parent process, so an ``async_workers=2`` search on a
  worker pool accumulates the same store contents as the same search
  evaluated in this process.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.async_eval as async_eval
from repro.core.async_eval import START_METHOD_ENV, run_search
from repro.core.bayes_opt import BayesianOptimizer
from repro.core.cache import (
    CachedObjective,
    PersistentEvaluationStore,
    snapshot_store_for,
)
from repro.core.objectives import (
    AccuracyDropObjective,
    SyntheticWeightObjective,
    resolve_weight_context,
)
from repro.core.search_space import BlockSearchInfo, SearchSpace
from repro.core.snapshots import WeightSnapshotStore, decode_state, encode_state, state_digest
from repro.core.weight_sharing import WeightStore, WeightUpdate
from repro.training.snn_trainer import SNNTrainingConfig


def make_space(depth: int = 4) -> SearchSpace:
    return SearchSpace([BlockSearchInfo(depth=depth, name="block")], name="wp-test")


def store_state(store: WeightStore) -> dict:
    return store.state_dict()


def assert_stores_equal(first: WeightStore, second: WeightStore) -> None:
    state_a, state_b = store_state(first), store_state(second)
    assert sorted(state_a) == sorted(state_b)
    for key in state_a:
        np.testing.assert_allclose(state_a[key], state_b[key], err_msg=key)


# ----------------------------------------------------------------------
# module-level functions: picklable under any multiprocessing start method
# ----------------------------------------------------------------------
def _raise_value_error(item):
    raise ValueError(f"objective failed on {item}")


def _raise_attribute_error(item):
    raise AttributeError("raised inside the objective, not by pickling")


class TestWeightSnapshotStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = WeightSnapshotStore(tmp_path / "snaps")
        state = {"layer.weight": np.arange(6, dtype=np.float64).reshape(2, 3), "buffer::bn.mean": np.zeros(3)}
        digest = store.put(state, score=0.5)
        assert digest in store
        loaded = store.get(digest)
        assert sorted(loaded) == sorted(state)
        for key in state:
            np.testing.assert_array_equal(loaded[key], state[key])

    def test_content_addressing_deduplicates(self, tmp_path):
        store = WeightSnapshotStore(tmp_path)
        state = {"w": np.ones((3, 3))}
        first = store.put(state, score=0.1)
        second = store.put({"w": np.ones((3, 3))}, score=0.7)
        assert first == second
        assert len(store) == 1
        assert len(list(tmp_path.glob("*.snap"))) == 1

    def test_digest_sensitive_to_content_and_keys(self):
        base = {"w": np.ones(4)}
        assert state_digest(base) != state_digest({"w": np.ones(4) * 2})
        assert state_digest(base) != state_digest({"v": np.ones(4)})

    def test_missing_snapshot_returns_none(self, tmp_path):
        store = WeightSnapshotStore(tmp_path)
        assert store.get("deadbeef00000000") is None

    def test_eviction_keeps_best_k(self, tmp_path):
        store = WeightSnapshotStore(tmp_path, keep_best=2)
        digests = [store.put({"w": np.full(3, float(i))}, score=float(i)) for i in range(4)]
        assert len(store) == 2
        # the two highest-scoring snapshots survive
        assert store.get(digests[3]) is not None
        assert store.get(digests[2]) is not None
        assert store.get(digests[0]) is None
        assert store.evictions == 2

    def test_store_survives_reopen(self, tmp_path):
        store = WeightSnapshotStore(tmp_path)
        digest = store.put({"w": np.ones(2)}, score=0.9)
        reopened = WeightSnapshotStore(tmp_path)
        assert digest in reopened
        np.testing.assert_array_equal(reopened.get(digest)["w"], np.ones(2))

    def test_eviction_sees_concurrent_writers(self, tmp_path):
        """Metadata is per-snapshot (no shared index), so snapshots written
        by another store instance — e.g. a worker-pool child — are visible
        to this instance's accounting and eviction."""
        writer_a = WeightSnapshotStore(tmp_path, keep_best=2)
        writer_b = WeightSnapshotStore(tmp_path, keep_best=2)
        writer_a.put({"w": np.full(3, 1.0)}, score=0.1)
        writer_b.put({"w": np.full(3, 2.0)}, score=0.2)
        assert len(writer_a) == 2
        writer_a.put({"w": np.full(3, 3.0)}, score=0.3)
        assert len(writer_a) == 2  # b's snapshot was rankable and evictable
        assert writer_a.total_bytes() > 0

    def test_put_under_budget_reads_no_other_sidecar(self, tmp_path, monkeypatch):
        store = WeightSnapshotStore(tmp_path, keep_best=4)
        for i in range(3):
            store.put({"w": np.full(3, float(i))}, score=float(i))
        read = []
        read_meta = WeightSnapshotStore._read_meta
        monkeypatch.setattr(
            WeightSnapshotStore, "_read_meta", lambda self, digest: read.append(digest) or read_meta(self, digest)
        )
        digest = store.put({"w": np.full(3, 9.0)}, score=9.0)
        assert read == [digest]
        store.put({"w": np.full(3, 10.0)}, score=10.0)  # over budget: eviction ranks all
        assert len(set(read)) == 5
        assert len(store) == 4


#: one tensor of every kind a snapshot must round-trip
MIXED_STATE = {
    "conv.weight": np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0,
    "bn.scale": np.linspace(-1.0, 1.0, 5, dtype=np.float32),
    "buffer::bn.count": np.array(7, dtype=np.int64),
    "scalar": np.float64(np.pi),
    "empty": np.zeros((0, 3)),
    "mask": np.array([True, False, True]),
    "big_endian": np.arange(4, dtype=">i4"),
    "strided": np.arange(20, dtype=np.float64).reshape(4, 5)[:, ::2],
    "fortran": np.asfortranarray(np.arange(6, dtype=np.float16).reshape(2, 3)),
}


class TestFlatSnapshotFormat:
    def test_round_trip_is_bit_equal(self, tmp_path):
        store = WeightSnapshotStore(tmp_path)
        digest = store.put(MIXED_STATE)
        assert digest == state_digest(MIXED_STATE)
        loaded = store.get(digest)
        assert list(loaded) == list(MIXED_STATE)
        for key, value in MIXED_STATE.items():
            value = np.asarray(value)
            assert loaded[key].dtype == value.dtype, key
            assert loaded[key].shape == value.shape, key
            assert loaded[key].tobytes() == value.tobytes(), key
            assert loaded[key].flags.writeable, key
        assert state_digest(loaded) == digest

    def test_tensors_start_on_aligned_offsets(self):
        raw = np.frombuffer(encode_state(MIXED_STATE), dtype=np.uint8)
        for key, value in decode_state(raw).items():
            start = value.__array_interface__["data"][0] - raw.__array_interface__["data"][0]
            assert start % 64 == 0, key

    def test_object_dtype_is_not_written(self, tmp_path):
        with pytest.raises(ValueError, match="object"):
            WeightSnapshotStore(tmp_path).put({"w": np.array([object()])})

    def test_legacy_npz_still_replays(self, tmp_path):
        state = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(2)}
        digest = state_digest(state)
        np.savez(tmp_path / f"{digest}.npz", **state)
        store = WeightSnapshotStore(tmp_path, keep_best=1)
        assert digest in store
        assert store.digests() == [digest]
        assert store.total_bytes() == (tmp_path / f"{digest}.npz").stat().st_size
        loaded = store.get(digest)
        for key, value in state.items():
            assert loaded[key].dtype == value.dtype
            np.testing.assert_array_equal(loaded[key], value)
        # legacy snapshots age out like flat ones, and are never written
        store.put({"w": np.zeros(1)}, score=1.0)
        assert not (tmp_path / f"{digest}.npz").exists()
        assert store.get(digest) is None
        assert not list(tmp_path.glob("*.npz"))

    def test_put_of_legacy_content_replaces_the_npz(self, tmp_path):
        state = {"w": np.arange(3.0)}
        digest = state_digest(state)
        np.savez(tmp_path / f"{digest}.npz", **state)
        store = WeightSnapshotStore(tmp_path)
        assert store.put(state) == digest
        assert sorted(path.name for path in tmp_path.iterdir()) == [f"{digest}.meta.json", f"{digest}.snap"]
        np.testing.assert_array_equal(store.get(digest)["w"], state["w"])

    @pytest.mark.parametrize("cut", [0, 5, 16, 40, -1])
    def test_truncated_snapshot_replays_nothing(self, tmp_path, cut):
        store = WeightSnapshotStore(tmp_path)
        digest = store.put(MIXED_STATE)
        path = tmp_path / f"{digest}.snap"
        data = path.read_bytes()
        path.write_bytes(data[:cut])
        assert store.get(digest) is None
        assert store.replays == 0

    @pytest.mark.parametrize(
        "index",
        [
            b"not json",
            b'{"w": 1}',
            b'[["w", "<f8", [4], 1000000]]',
            b'[["w", "<f8", [4], -64]]',
            b'[["w", "<f8", [-4], 0]]',
            b'[["w", "|O", [1], 0]]',
            b'[["w", "no-such-dtype", [1], 0]]',
            b'[["w", "<f8", [1]]]',
            b'[[1, "<f8", [1], 0]]',
        ],
    )
    def test_bad_index_replays_nothing(self, tmp_path, index):
        store = WeightSnapshotStore(tmp_path)
        head = b"REPROWS1" + len(index).to_bytes(8, "little") + index
        (tmp_path / "00000000deadbeef.snap").write_bytes(head + bytes(-len(head) % 64 + 64))
        assert store.get("00000000deadbeef") is None

    @pytest.mark.parametrize("suffix", [".snap", ".npz"])
    def test_garbage_file_replays_nothing(self, tmp_path, suffix):
        (tmp_path / f"00000000deadbeef{suffix}").write_bytes(b"\x00garbage" * 13)
        assert WeightSnapshotStore(tmp_path).get("00000000deadbeef") is None


class TestWeightStoreCopySemantics:
    def test_constructor_copies_arrays(self):
        raw = {"w": np.zeros(3)}
        store = WeightStore(raw)
        raw["w"] += 5.0
        np.testing.assert_array_equal(store.get("w"), np.zeros(3))

    def test_update_from_state_copies(self):
        state = {"w": np.zeros(3)}
        store = WeightStore()
        store.update_from_state(state)
        state["w"] += 1.0
        np.testing.assert_array_equal(store.get("w"), np.zeros(3))

    def test_merge_from_state_copies(self):
        state = {"w": np.zeros(3)}
        store = WeightStore()
        store.merge_from_state(state)
        state["w"] += 1.0
        np.testing.assert_array_equal(store.get("w"), np.zeros(3))

    def test_update_from_model_is_isolated_from_later_training(self, single_block_template):
        """In-place training of the source model must not mutate the snapshot."""
        model = single_block_template.build(
            single_block_template.default_architecture(), spiking=True, rng=0
        )
        store = WeightStore.from_model(model)
        before = {key: np.array(store.get(key)) for key in store.keys()}
        for _, param in model.named_parameters():
            param.data[...] = param.data + 1.0  # simulate an optimizer step
        for key, value in before.items():
            np.testing.assert_array_equal(store.get(key), value, err_msg=key)

    def test_weight_update_apply_is_idempotent(self):
        store = WeightStore()
        update = WeightUpdate(state={"w": np.ones(3)}, score=0.8)
        assert update.apply(store) is True
        snapshot = store_state(store)
        assert update.apply(store) is False  # same score: only_if_better rejects
        for key, value in snapshot.items():
            np.testing.assert_array_equal(store.get(key), value)


def evaluate_barrier(objective, specs, workers: int) -> list:
    """Evaluate ``specs`` as one barrier of the search loop; results in order."""
    results = []
    run_search(
        objective,
        lambda pending, iteration: [],
        lambda result, iteration: results.append(result),
        0,
        initial=specs,
        workers=workers,
    )
    return results


class TestEvaluationErrorHandling:
    def test_objective_value_error_propagates_with_workers(self):
        with pytest.raises(ValueError, match="objective failed"):
            evaluate_barrier(_raise_value_error, make_space().sample_batch(2, rng=0), workers=2)

    def test_objective_attribute_error_propagates_with_workers(self):
        """The old sandbox fallback swallowed AttributeError and silently
        re-ran the batch sequentially — masking the bug and doubling cost."""
        with pytest.raises(AttributeError, match="inside the objective"):
            evaluate_barrier(_raise_attribute_error, make_space().sample_batch(2, rng=0), workers=2)

    def test_objective_errors_propagate_sequentially(self):
        with pytest.raises(ValueError):
            evaluate_barrier(_raise_value_error, make_space().sample_batch(2, rng=0), workers=0)

    def test_unpicklable_workload_falls_back_to_sequential(self):
        specs = make_space().sample_batch(3, rng=1)
        base = SyntheticWeightObjective()
        results = evaluate_barrier(lambda spec: base(spec), specs, workers=4)
        assert base.num_evaluations == 3  # ran in this process
        assert [r.spec.encode().tolist() for r in results] == [s.encode().tolist() for s in specs]

    def test_picklable_workload_preserves_order(self):
        specs = make_space().sample_batch(6, rng=2)
        results = evaluate_barrier(SyntheticWeightObjective(), specs, workers=2)
        assert [r.spec.encode().tolist() for r in results] == [s.encode().tolist() for s in specs]

    def test_invalid_start_method_raises(self, monkeypatch):
        """A misconfigured REPRO_MP_START_METHOD must fail loudly, not
        silently degrade a workers>1 run to sequential execution."""
        monkeypatch.setenv(START_METHOD_ENV, "not-a-start-method")
        with pytest.raises(ValueError):
            evaluate_barrier(SyntheticWeightObjective(), make_space().sample_batch(2, rng=0), workers=2)


class TestResultCarriedUpdates:
    def test_direct_call_still_updates_store(self):
        objective = SyntheticWeightObjective(weight_store=WeightStore())
        spec = make_space().sample(rng=0)
        result = objective(spec)
        assert result.weight_update is not None
        assert not objective.weight_store.is_empty

    def test_deferred_call_leaves_store_untouched(self):
        objective = SyntheticWeightObjective(weight_store=WeightStore())
        objective.defer_updates = True
        result = objective(make_space().sample(rng=0))
        assert objective.weight_store.is_empty
        result.weight_update.apply(objective.weight_store)
        assert not objective.weight_store.is_empty

    def test_resolve_weight_context_walks_wrappers(self, single_block_template, tiny_dvs_splits):
        store = WeightStore()
        base = AccuracyDropObjective(
            template=single_block_template,
            splits=tiny_dvs_splits,
            training_config=SNNTrainingConfig(epochs=1, batch_size=8, num_steps=3),
            weight_store=store,
            measure_firing_rate=False,
        )
        wrapped = CachedObjective(CachedObjective(base))
        found_base, found_store = resolve_weight_context(wrapped)
        assert found_base is base and found_store is store

    def test_resolve_weight_context_opaque_callable(self):
        assert resolve_weight_context(lambda spec: None) == (None, None)

    def test_pool_matches_in_process_store_accumulation(self, monkeypatch):
        """The acceptance check: running in worker processes must not change
        what the shared store accumulates (with side-effecting updates, a
        pooled run lost every update to the child processes)."""
        space = make_space()

        def run() -> tuple:
            objective = SyntheticWeightObjective(weight_store=WeightStore())
            optimizer = BayesianOptimizer(
                space,
                objective,
                initial_points=4,
                batch_size=3,
                candidate_pool_size=12,
                async_workers=2,
                rng=11,
            )
            history = optimizer.optimize(2)
            assert optimizer.weight_store is objective.weight_store
            return objective.weight_store, history

        store_par, history_par = run()
        monkeypatch.setattr(async_eval, "func_is_picklable", lambda func: False)
        store_seq, history_seq = run()
        assert not store_seq.is_empty
        assert_stores_equal(store_seq, store_par)
        values_seq = [record.objective_value for record in history_seq]
        values_par = [record.objective_value for record in history_par]
        assert values_par == pytest.approx(values_seq)


class TestSnapshotReplayThroughCache:
    def test_store_hit_replays_into_weight_store(self, tmp_path):
        space = make_space()
        spec = space.sample(rng=3)
        evaluations = PersistentEvaluationStore(tmp_path)
        snapshots = snapshot_store_for(evaluations)

        warm = SyntheticWeightObjective(weight_store=WeightStore())
        CachedObjective(warm, store=evaluations, snapshots=snapshots)(spec)
        assert not warm.weight_store.is_empty

        # a fresh process-equivalent: empty weight store, objective must not run
        cold = SyntheticWeightObjective(weight_store=WeightStore())
        cached = CachedObjective(cold, store=evaluations, snapshots=snapshots)
        result = cached(spec)
        assert cold.num_evaluations == 0
        assert result.weight_update is not None
        assert_stores_equal(warm.weight_store, cold.weight_store)

    def test_hit_and_miss_go_through_the_patchable_seams(self, tmp_path, monkeypatch):
        """Profilers time snapshot writes and replays by patching
        ``WeightSnapshotStore.put`` on the class and
        ``repro.core.cache.replay_weight_snapshot`` on the module, so a miss
        and a store hit must reach those two names at call time."""
        import repro.core.cache as cache

        calls = []
        put, replay = WeightSnapshotStore.put, cache.replay_weight_snapshot
        monkeypatch.setattr(
            WeightSnapshotStore, "put", lambda *args, **kw: calls.append("put") or put(*args, **kw)
        )
        monkeypatch.setattr(
            cache, "replay_weight_snapshot", lambda *args: calls.append("replay") or replay(*args)
        )
        spec = make_space().sample(rng=3)
        evaluations = PersistentEvaluationStore(tmp_path)
        snapshots = snapshot_store_for(evaluations)
        CachedObjective(SyntheticWeightObjective(weight_store=WeightStore()), evaluations, snapshots)(spec)
        assert calls == ["put"]
        cold = SyntheticWeightObjective(weight_store=WeightStore())
        CachedObjective(cold, evaluations, snapshots)(spec)
        assert calls == ["put", "replay"]
        assert not cold.weight_store.is_empty

    def test_replay_span_says_whether_a_snapshot_replayed(self, tmp_path):
        """A store hit's value never depends on its snapshot, so the trace is
        where a run shows that snapshots were read back."""
        from repro.trace import FlightRecorder, tracing

        spec = make_space().sample(rng=3)
        evaluations = PersistentEvaluationStore(tmp_path)
        snapshots = snapshot_store_for(evaluations)
        CachedObjective(SyntheticWeightObjective(weight_store=WeightStore()), evaluations, snapshots)(spec)

        def replayed():
            recorder = FlightRecorder(capacity=16)
            with tracing(recorder=recorder):
                CachedObjective(SyntheticWeightObjective(weight_store=WeightStore()), evaluations, snapshots)(spec)
            (entry,) = [entry for entry in recorder.spans() if entry["name"] == "cache.replay_snapshot"]
            return entry["attrs"]["replayed"]

        assert replayed() is True
        for path in snapshots.directory.glob("*.snap"):
            path.write_bytes(b"not a snapshot")
        assert replayed() is False

    def test_fully_cached_search_matches_uncached_weight_store(self, tmp_path):
        """Table-I-style acceptance check: a warm-store re-run restores the
        exact WeightStore contents of the original run, so the final
        fine-tune starts from the same warm weights."""
        space = make_space()

        def run(tag: str):
            objective = SyntheticWeightObjective(weight_store=WeightStore())
            evaluations = PersistentEvaluationStore(tmp_path)
            cached = CachedObjective(
                objective, store=evaluations, snapshots=snapshot_store_for(evaluations)
            )
            optimizer = BayesianOptimizer(
                space, cached, initial_points=3, batch_size=2, candidate_pool_size=10, rng=21
            )
            optimizer.optimize(2)
            return objective

        first = run("cold")
        assert first.num_evaluations > 0
        second = run("warm")
        assert second.num_evaluations == 0  # everything answered from disk
        assert_stores_equal(first.weight_store, second.weight_store)

    def test_fully_cached_training_run_matches_uncached(
        self, tmp_path, single_block_template, tiny_dvs_splits
    ):
        """Same check through the real training objective (slow path, tiny)."""
        space = single_block_template.search_space()

        def run():
            seed_model = single_block_template.build(
                single_block_template.default_architecture(), spiking=True, rng=0
            )
            store = WeightStore.from_model(seed_model)
            objective = AccuracyDropObjective(
                template=single_block_template,
                splits=tiny_dvs_splits,
                training_config=SNNTrainingConfig(epochs=1, batch_size=8, num_steps=3, seed=0),
                weight_store=store,
                measure_firing_rate=False,
            )
            evaluations = PersistentEvaluationStore(tmp_path)
            cached = CachedObjective(
                objective, store=evaluations, snapshots=snapshot_store_for(evaluations)
            )
            optimizer = BayesianOptimizer(
                space, cached, initial_points=2, batch_size=1, candidate_pool_size=6, rng=5
            )
            optimizer.optimize(1)
            return objective

        first = run()
        assert first.num_evaluations == 3
        second = run()
        assert second.num_evaluations == 0
        assert_stores_equal(first.weight_store, second.weight_store)


class TestTable1ModelSelection:
    @pytest.mark.parametrize("vanilla_val, vanilla_wins", [(0.97, True), (0.0, False)], ids=["vanilla", "optimized"])
    def test_val_winner_fills_every_reported_column(self, tiny_dvs_splits, monkeypatch, vanilla_val, vanilla_wins):
        """The validation split picks the reported model, never the test split.

        The vanilla SNN gets a test accuracy (0.99) and firing rate (0.5) no
        fine-tuned model reaches, so a test-split choice would always pick it.
        """
        from repro.experiments import get_scale, table1

        pretrain = table1.pretrain

        def vanilla_with(*args, **kwargs):
            base = pretrain(*args, **kwargs)
            return dataclasses.replace(base, test_accuracy=0.99, val_accuracy=vanilla_val, firing_rate=0.5)

        monkeypatch.setattr(table1, "pretrain", vanilla_with)
        scale = get_scale("smoke").with_overrides(bo_iterations=1)
        result = table1.run_table1_cell("cifar10-dvs", "single_block", scale=scale, splits=tiny_dvs_splits)
        assert (result.snn_accuracy, result.snn_val_accuracy) == (0.99, vanilla_val)
        reported = (result.optimized_accuracy, result.optimized_val_accuracy, result.optimized_firing_rate)
        if vanilla_wins:
            # every column describes the vanilla model, not a mix of the two
            assert reported == (0.99, 0.97, 0.5)
            np.testing.assert_array_equal(result.best_spec.encode(), result.default_spec.encode())
        else:
            assert result.optimized_accuracy < 0.99 and result.optimized_firing_rate != 0.5
            assert result.optimized_val_accuracy >= vanilla_val
            np.testing.assert_array_equal(result.best_spec.encode(), result.history.best().spec.encode())
