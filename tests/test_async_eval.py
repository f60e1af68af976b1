"""The async executor must beat the barrier without changing search semantics.

Three guarantees are load-bearing and covered here:

* **interface** — the executor's submit / next-completed protocol behaves
  identically in serial fallback and parallel mode (tickets, ordering,
  exception propagation, drain);
* **determinism** — result-carried weight updates are applied in submission
  order whatever the completion order, so an ``async_workers=2`` search
  accumulates *exactly* the ``WeightStore`` state a sequential replay of the
  same evaluation sequence produces (the PR acceptance check);
* **budget** — the async engine evaluates the same
  ``initial_points + num_iterations * batch_size`` budget as the batch path,
  never proposes a duplicate of an evaluated or in-flight candidate, and
  drives the callback at iteration boundaries.

CI re-runs this file under ``REPRO_MP_START_METHOD=spawn`` so every workload
provably crosses a fresh-interpreter process boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.async_eval import (
    AsyncEvaluationExecutor,
    WeightUpdateSequencer,
    evaluate_ordered,
)
from repro.core.bayes_opt import BayesianOptimizer
from repro.core.cache import CachedObjective, PersistentEvaluationStore, store_counters
from repro.core.objectives import EvaluationResult, SyntheticWeightObjective
from repro.core.search_space import BlockSearchInfo, SearchSpace
from repro.core.weight_sharing import WeightStore, WeightUpdate


class _StateEcho:
    """Objective whose score is whatever ``state`` held when it was shipped."""

    def __init__(self) -> None:
        self.state = 0.0

    def __call__(self, spec):
        return EvaluationResult(spec=spec, objective_value=self.state, accuracy=0.0)


class _StoreReadingObjective(SyntheticWeightObjective):
    """Synthetic objective whose score is the shared store's total when it runs.

    Any update that reaches the store before an evaluation changes that
    evaluation's result, so results expose when updates were applied.
    """

    def __call__(self, spec):
        seen = float(sum(np.sum(value) for value in self.weight_store.state_dict().values()))
        result = super().__call__(spec)
        result.objective_value = seen
        return result


def make_space(depth: int = 4) -> SearchSpace:
    return SearchSpace([BlockSearchInfo(depth=depth, name="block")], name="async-test")


def assert_stores_equal(first: WeightStore, second: WeightStore) -> None:
    state_a, state_b = first.state_dict(), second.state_dict()
    assert sorted(state_a) == sorted(state_b)
    for key in state_a:
        np.testing.assert_allclose(state_a[key], state_b[key], err_msg=key)


class TestWeightUpdateSequencer:
    def _update(self, value: float, score: float) -> WeightUpdate:
        return WeightUpdate(state={"w": np.full(3, value), f"k{value}": np.ones(1)}, score=score)

    def test_out_of_order_matches_in_order(self):
        updates = [self._update(float(i), score=0.1 * i) for i in range(4)]

        ordered = WeightStore()
        sequencer = WeightUpdateSequencer(ordered)
        for ticket in range(4):
            sequencer.add(ticket, updates[ticket])

        shuffled = WeightStore()
        sequencer = WeightUpdateSequencer(shuffled)
        for ticket in (2, 0, 3, 1):
            sequencer.add(ticket, updates[ticket])
        assert sequencer.pending == 0
        assert sequencer.applied == 4
        assert_stores_equal(ordered, shuffled)

    def test_buffers_until_gap_closes(self):
        sequencer = WeightUpdateSequencer(WeightStore())
        sequencer.add(1, self._update(1.0, 0.5))
        assert sequencer.applied == 0 and sequencer.pending == 1
        sequencer.add(0, self._update(0.0, 0.9))
        assert sequencer.applied == 2 and sequencer.pending == 0

    def test_none_updates_are_skipped_but_sequenced(self):
        sequencer = WeightUpdateSequencer(WeightStore())
        sequencer.add(1, self._update(1.0, 0.5))
        sequencer.add(0, None)
        assert sequencer.applied == 1 and sequencer.pending == 0

    def test_duplicate_ticket_raises(self):
        sequencer = WeightUpdateSequencer(WeightStore())
        sequencer.add(0, None)
        with pytest.raises(ValueError):
            sequencer.add(0, None)


class TestAsyncEvaluationExecutor:
    def test_serial_mode_is_fifo(self):
        objective = SyntheticWeightObjective(weight_store=WeightStore())
        specs = make_space().sample_batch(4, rng=0)
        with AsyncEvaluationExecutor(objective, workers=1) as executor:
            assert not executor.is_parallel
            tickets = [executor.submit(spec) for spec in specs]
            assert tickets == [0, 1, 2, 3]
            completed = list(executor.drain())
        assert [done.ticket for done in completed] == tickets
        assert objective.num_evaluations == 4

    def test_parallel_mode_completes_every_ticket(self):
        objective = SyntheticWeightObjective(weight_store=WeightStore())
        specs = make_space().sample_batch(5, rng=1)
        with AsyncEvaluationExecutor(objective, workers=2) as executor:
            for spec in specs:
                executor.submit(spec)
            completed = {done.ticket: done for done in executor.drain()}
        assert sorted(completed) == [0, 1, 2, 3, 4]
        for ticket, spec in enumerate(specs):
            np.testing.assert_array_equal(completed[ticket].spec.encode(), spec.encode())
            # results must describe the submitted spec, whatever worker ran it
            np.testing.assert_array_equal(completed[ticket].result.spec.encode(), spec.encode())

    def test_worker_sees_the_objective_as_of_submission(self):
        """A state change right after ``submit`` must not reach the submitted task."""
        objective = _StateEcho()
        specs = make_space().sample_batch(4, rng=2)
        with AsyncEvaluationExecutor(objective, workers=2) as executor:
            assert executor.is_parallel
            for value, spec in enumerate(specs):
                objective.state = float(value)
                executor.submit(spec)
                objective.state = -1.0
            completed = {done.ticket: done.result.objective_value for done in executor.drain()}
        assert completed == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}

    def test_unpicklable_objective_falls_back_to_serial(self):
        store = WeightStore()
        base = SyntheticWeightObjective(weight_store=store)
        executor = AsyncEvaluationExecutor(lambda spec: base(spec), workers=4)
        try:
            assert not executor.is_parallel
            executor.submit(make_space().sample(rng=0))
            done = executor.next_completed()
            assert done.ticket == 0
        finally:
            executor.close()

    def test_next_completed_without_submissions_raises(self):
        executor = AsyncEvaluationExecutor(SyntheticWeightObjective(), workers=1)
        with pytest.raises(RuntimeError):
            executor.next_completed()

    def test_evaluate_ordered_aligns_results_and_sequences_store(self):
        space = make_space()
        specs = space.sample_batch(5, rng=3)

        sequential = SyntheticWeightObjective(weight_store=WeightStore())
        expected = [sequential(spec) for spec in specs]

        objective = SyntheticWeightObjective(weight_store=WeightStore())
        objective.defer_updates = True
        results = evaluate_ordered(objective, specs, workers=2, weight_store=objective.weight_store)
        assert [r.objective_value for r in results] == pytest.approx(
            [r.objective_value for r in expected]
        )
        assert_stores_equal(sequential.weight_store, objective.weight_store)

    def test_evaluate_ordered_is_worker_count_independent(self):
        """Updates land after the whole batch returns, so a store-reading
        objective scores the same in the lazy serial mode as in the pool."""
        specs = make_space().sample_batch(3, rng=4)
        runs = {}
        for workers in (1, 2):
            objective = _StoreReadingObjective(weight_store=WeightStore())
            objective.defer_updates = True
            results = evaluate_ordered(objective, specs, workers=workers, weight_store=objective.weight_store)
            runs[workers] = ([r.objective_value for r in results], objective.weight_store)
        assert runs[1][0] == runs[2][0] == [0.0, 0.0, 0.0]
        assert not runs[1][1].is_empty
        assert_stores_equal(runs[1][1], runs[2][1])


class TestBatchPathTelemetry:
    def test_worker_store_counters_reach_the_parent(self, tmp_path):
        """Every store lookup a ``workers=2`` batch search makes in its
        workers shows up in the parent's process-wide tallies."""
        objective = CachedObjective(
            SyntheticWeightObjective(weight_store=WeightStore()),
            store=PersistentEvaluationStore(tmp_path),
        )
        optimizer = BayesianOptimizer(
            make_space(), objective, initial_points=4, batch_size=2,
            candidate_pool_size=12, workers=2, rng=7,
        )
        before = store_counters()
        history = optimizer.optimize(3)
        after = store_counters()
        lookups = sum(after[key] - before[key] for key in ("hits", "misses"))
        assert lookups == len(history) == 4 + 3 * 2


class TestAsyncBayesianOptimizer:
    def run_async(self, workers: int, rng: int = 7):
        objective = SyntheticWeightObjective(weight_store=WeightStore())
        optimizer = BayesianOptimizer(
            make_space(),
            objective,
            initial_points=4,
            batch_size=2,
            candidate_pool_size=12,
            async_workers=workers,
            rng=rng,
        )
        history = optimizer.optimize(3)
        return objective, optimizer, history

    def test_async_budget_matches_batch_path(self):
        _, _, history = self.run_async(workers=2)
        assert len(history) == 4 + 3 * 2
        assert [r.source for r in history] == ["init"] * 4 + ["bo"] * 6

    def test_async_never_duplicates_candidates(self):
        _, _, history = self.run_async(workers=3)
        keys = [record.spec.encode().tobytes() for record in history]
        assert len(keys) == len(set(keys))

    def test_propose_async_excludes_in_flight_candidates(self):
        """A still-running candidate must never be proposed again (the
        exclusion keys must match the dedup set's raw-encoding dtype)."""
        space = make_space()
        optimizer = BayesianOptimizer(
            space,
            SyntheticWeightObjective(weight_store=WeightStore()),
            initial_points=3,
            batch_size=1,
            candidate_pool_size=96,
            async_workers=1,
            rng=0,
        )
        optimizer.optimize(0)  # evaluate the initial points only
        in_flight = space.sample_batch(6, rng=1, exclude=set(optimizer._dedup_keys()))
        in_flight_keys = {spec.encode().tobytes() for spec in in_flight}
        for iteration in range(1, 16):
            proposal = optimizer._propose_async(in_flight, iteration=iteration)
            assert proposal is not None
            assert proposal.encode().tobytes() not in in_flight_keys

    def test_async_workers2_accumulates_exactly_sequential_store_state(self):
        """PR acceptance: whatever order workers finish in, the shared store
        ends in the state a sequential run over the submission sequence
        produces (updates are applied in ticket order, never completion
        order)."""
        objective, _, history = self.run_async(workers=2)
        assert not objective.weight_store.is_empty
        assert sorted(record.ticket for record in history) == list(range(len(history)))

        replay = SyntheticWeightObjective(weight_store=WeightStore())
        for record in sorted(history, key=lambda record: record.ticket):
            replay(record.spec)
        assert_stores_equal(objective.weight_store, replay.weight_store)

    def test_async_serial_mode_accumulates_exactly_sequential_store_state(self):
        objective, _, history = self.run_async(workers=1)
        # serial fallback: completion order == submission order
        assert [record.ticket for record in history] == list(range(len(history)))
        replay = SyntheticWeightObjective(weight_store=WeightStore())
        for record in history:
            replay(record.spec)
        assert_stores_equal(objective.weight_store, replay.weight_store)

    def test_async_restores_defer_flag(self):
        objective, optimizer, _ = self.run_async(workers=2)
        assert objective.defer_updates is False
        assert optimizer.weight_store is objective.weight_store

    def test_async_callback_fires_on_iteration_boundaries(self):
        calls = []
        objective = SyntheticWeightObjective(weight_store=WeightStore())
        optimizer = BayesianOptimizer(
            make_space(),
            objective,
            initial_points=3,
            batch_size=2,
            candidate_pool_size=10,
            async_workers=2,
            rng=5,
        )
        optimizer.optimize(2, callback=lambda iteration, history: calls.append((iteration, len(history))))
        assert calls[0] == (0, 3)
        assert [iteration for iteration, _ in calls] == [0, 1, 2]
        assert calls[-1][1] == 3 + 2 * 2

    def test_async_continues_prepopulated_history(self):
        objective, optimizer, history = self.run_async(workers=2)
        before = len(history)
        optimizer.optimize(1)
        assert len(optimizer.history) == before + 2

    def test_negative_async_workers_rejected(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(make_space(), SyntheticWeightObjective(), async_workers=-1)
