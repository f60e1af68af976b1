"""Several processes and store instances share one single-file evaluation store.

:class:`PersistentEvaluationStore` writes each row with one ``O_APPEND``
write, so writer processes (search processes, worker-pool children) share
one ``.jsonl`` file.  These cases check that no row is lost or torn, that a
fresh reader and a long-lived reader's :meth:`refresh` both see every row,
and that a torn final line left by a killed writer is skipped.  Every
multi-process case runs under both the fork and the spawn start method.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.core.cache import (
    CachedObjective,
    PersistentEvaluationStore,
    evaluation_store_for,
    snapshot_store_for,
    spec_key,
)
from repro.core.objectives import SyntheticWeightObjective
from repro.core.search_space import BlockSearchInfo, SearchSpace

START_METHODS = ["fork", "spawn"]
WRITERS = 3
ROWS_PER_WRITER = 100


def _space() -> SearchSpace:
    return SearchSpace([BlockSearchInfo(depth=4, name="block")], name="store-test")


def _key(writer: int, index: int) -> str:
    return f"{writer},{index}"


def _row(writer: int, index: int) -> dict:
    """A row shaped like a search's largest: metrics plus a snapshot reference."""
    value = writer + index / 1000.0
    return {
        "encoding": [(writer * 7 + index + i) % 3 for i in range(40)],
        "objective_value": value,
        "accuracy": 1.0 - value / 10.0,
        "firing_rate": 0.125,
        "macs": 1.5e6 + index,
        "extra": {"num_skips": float(index % 9), "val_accuracy": 0.5, "energy_nj": 12.25 * value},
        "metrics": {"val_accuracy": 0.5, "energy_nj": 12.25 * value, "firing_rate": 0.125, "macs": 1.5e6},
        "weights": {"snapshot": f"{writer:08x}{index:08x}", "score": value},
    }


def _append_rows(path, writer: int, start) -> None:
    """Process target: wait until every writer is up, then append this writer's rows."""
    store = PersistentEvaluationStore(path)
    start.wait(timeout=60)
    for index in range(ROWS_PER_WRITER):
        store.put(_key(writer, index), _row(writer, index))


def _evaluate_specs(path, seed: int) -> None:
    """Process target: one search process evaluating through the shared store."""
    cached = CachedObjective(SyntheticWeightObjective(), store=PersistentEvaluationStore(path))
    for spec in _space().sample_batch(4, rng=seed):
        cached(spec)


def _append_then_die(path) -> None:
    """Process target: append one row, start a second one, and get killed mid-row."""
    PersistentEvaluationStore(path).put("before", _row(0, 0))
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    os.write(fd, json.dumps({"key": "torn", **_row(0, 1)}).encode()[:57])
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("method", START_METHODS)
def test_concurrent_appends_lose_and_tear_no_row(tmp_path, method):
    path = tmp_path / "evals.jsonl"
    reader = PersistentEvaluationStore(path)
    context = multiprocessing.get_context(method)
    start = context.Barrier(WRITERS)
    writers = [context.Process(target=_append_rows, args=(path, writer, start)) for writer in range(WRITERS)]
    for process in writers:
        process.start()
    for process in writers:
        process.join(timeout=120)
    assert [process.exitcode for process in writers] == [0] * WRITERS

    expected = {
        _key(writer, index): {"key": _key(writer, index), **_row(writer, index)}
        for writer in range(WRITERS)
        for index in range(ROWS_PER_WRITER)
    }
    lines = path.read_text().splitlines()
    assert len(lines) == len(expected)
    assert sorted(json.loads(line)["key"] for line in lines) == sorted(expected)

    fresh = PersistentEvaluationStore(path)
    assert fresh.skipped_lines == 0
    assert {key: fresh.get(key) for key in fresh.keys()} == expected
    assert reader.refresh() is True
    assert reader.skipped_lines == 0
    assert {key: reader.get(key) for key in reader.keys()} == expected
    assert reader.refresh() is False


@pytest.mark.parametrize("method", START_METHODS)
def test_torn_line_of_a_killed_writer_is_skipped(tmp_path, method):
    path = tmp_path / "evals.jsonl"
    path.touch()
    reader = PersistentEvaluationStore(path)
    process = multiprocessing.get_context(method).Process(target=_append_then_die, args=(path,))
    process.start()
    process.join(timeout=120)
    assert process.exitcode == -signal.SIGKILL
    assert not path.read_text().endswith("\n")

    fresh = PersistentEvaluationStore(path)
    assert fresh.keys() == ["before"] and fresh.skipped_lines == 1
    assert reader.refresh() is True
    assert reader.keys() == ["before"] and reader.skipped_lines == 1

    # the next append, from either store, starts on a fresh line
    reader.put("after", _row(1, 0))
    fresh.put("later", _row(1, 1))
    reloaded = PersistentEvaluationStore(path)
    assert sorted(reloaded.keys()) == ["after", "before", "later"]
    assert reloaded.skipped_lines == 1
    assert reloaded.get("after") == {"key": "after", **_row(1, 0)}


@pytest.mark.parametrize("method", START_METHODS)
def test_two_writer_processes_match_single_writer_view(tmp_path, method):
    path = tmp_path / "evals.jsonl"
    context = multiprocessing.get_context(method)
    start = context.Barrier(2)
    writers = [context.Process(target=_append_rows, args=(path, writer, start)) for writer in (1, 2)]
    for process in writers:
        process.start()
    for process in writers:
        process.join(timeout=120)
    assert [process.exitcode for process in writers] == [0, 0]

    reference = PersistentEvaluationStore(tmp_path / "reference.jsonl")
    for writer in (1, 2):
        for index in range(ROWS_PER_WRITER):
            reference.put(_key(writer, index), _row(writer, index))
    shared = PersistentEvaluationStore(path)
    assert {key: shared.get(key) for key in shared.keys()} == {
        key: reference.get(key) for key in reference.keys()
    }


@pytest.mark.parametrize("method", START_METHODS)
def test_two_search_processes_share_one_cache(tmp_path, method):
    path = tmp_path / "evals.jsonl"
    context = multiprocessing.get_context(method)
    searches = [context.Process(target=_evaluate_specs, args=(path, seed)) for seed in (0, 1)]
    for process in searches:
        process.start()
    for process in searches:
        process.join(timeout=120)
    assert [process.exitcode for process in searches] == [0, 0]

    specs = [spec for seed in (0, 1) for spec in _space().sample_batch(4, rng=seed)]
    store = PersistentEvaluationStore(path)
    assert set(store.keys()) == {spec_key(spec) for spec in specs}
    # a fresh CachedObjective answers every candidate from the shared file
    probe = SyntheticWeightObjective()
    cached = CachedObjective(probe, store=store)
    for spec in specs:
        cached(spec)
    assert probe.num_evaluations == 0


def test_stores_on_one_file_see_each_others_rows_after_refresh(tmp_path):
    path = tmp_path / "evals.jsonl"
    first, second = PersistentEvaluationStore(path), PersistentEvaluationStore(path)
    assert second.refresh() is False
    first.put("k", {"objective_value": 1.0})
    assert "k" not in second
    assert second.refresh() is True and second.get("k")["objective_value"] == 1.0
    # the latest append wins a duplicate key, whichever store wrote it
    second.put("k", {"objective_value": 2.0})
    assert first.refresh() is True and first.get("k")["objective_value"] == 2.0
    assert PersistentEvaluationStore(path).get("k")["objective_value"] == 2.0


def test_store_sees_the_file_once_another_writer_creates_it(tmp_path):
    path = tmp_path / "evals.jsonl"
    reader = PersistentEvaluationStore(path)
    assert len(reader) == 0 and not path.exists() and reader.refresh() is False
    PersistentEvaluationStore(path).put("k", {"objective_value": 1.0})
    assert reader.refresh() is True and reader.keys() == ["k"]


def test_pickled_store_appends_to_the_same_file(tmp_path):
    """A worker process receives the store pickled inside its objective."""
    store = PersistentEvaluationStore(tmp_path / "evals.jsonl")
    store.put("k", {"objective_value": 1.0})
    clone = pickle.loads(pickle.dumps(store))
    clone.put("q", {"objective_value": 2.0})
    assert clone.path == store.path and os.listdir(tmp_path) == ["evals.jsonl"]
    assert store.refresh() is True and sorted(store.keys()) == ["k", "q"]


def test_every_writer_resolves_one_snapshot_directory(tmp_path):
    writer = evaluation_store_for(tmp_path, ["exp"], seed=0)
    assert type(writer) is PersistentEvaluationStore
    reader = PersistentEvaluationStore(writer.path)
    weights = writer.path.with_suffix(".weights")
    assert snapshot_store_for(writer).directory == snapshot_store_for(reader).directory == weights
    digest = snapshot_store_for(writer).put({"w": np.ones(3)}, score=0.5)
    np.testing.assert_array_equal(snapshot_store_for(reader).get(digest)["w"], np.ones(3))


def test_rows_under_a_shards_directory_are_not_read(tmp_path):
    """Rows of the earlier per-writer layout are ignored; their candidates are re-evaluated."""
    spec, other = _space().sample_batch(2, rng=0)
    path = tmp_path / "evals.jsonl"
    PersistentEvaluationStore(path).put(spec_key(spec), {"objective_value": 0.5})
    (tmp_path / "evals.shards").mkdir()
    (tmp_path / "evals.shards" / "123-abcd.jsonl").write_text(
        json.dumps({"key": spec_key(other), "objective_value": 0.25}) + "\n"
    )
    probe = SyntheticWeightObjective()
    cached = CachedObjective(probe, store=PersistentEvaluationStore(path))
    assert cached(spec).objective_value == 0.5
    cached(other)
    assert probe.num_evaluations == 1
