"""The executor and the search loop must beat the barrier without changing results.

Three guarantees are load-bearing and covered here:

* **interface** — the executor's submit / next-completed protocol behaves
  identically in serial fallback and parallel mode (tickets, ordering,
  exception propagation, drain), and a serial task sees the objective as of
  its submission, as a pickled pool task does;
* **determinism** — :func:`~repro.core.async_eval.run_search` absorbs
  results, and applies their weight updates, in submission order whatever
  the completion order, so an ``async_workers=2`` search is a pure function
  of its seed and accumulates *exactly* the ``WeightStore`` state a
  sequential replay of its history produces;
* **budget** — the asynchronous loop evaluates the same
  ``initial_points + num_iterations * batch_size`` budget as barrier
  iterations, never proposes a duplicate of an evaluated or pending
  candidate, and drives the callback at iteration boundaries.

CI re-runs this file under ``REPRO_MP_START_METHOD=spawn`` so every workload
provably crosses a fresh-interpreter process boundary.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.core.async_eval as async_eval
from repro.core.async_eval import AsyncEvaluationExecutor, run_search
from repro.core.bayes_opt import BayesianOptimizer
from repro.core.cache import CachedObjective, PersistentEvaluationStore, store_counters
from repro.core.objectives import EvaluationResult, SyntheticWeightObjective
from repro.core.search_space import BlockSearchInfo, SearchSpace
from repro.core.weight_sharing import WeightStore


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


class _SaltedSleepObjective(SyntheticWeightObjective):
    """Synthetic objective that sleeps on half the specs; ``salt`` flips which half.

    Two searches over the same proposals, one per salt, see every pair of
    concurrent evaluations finish in opposite orders.
    """

    def __init__(self, salt: int, weight_store=None) -> None:
        super().__init__(weight_store=weight_store)
        self.salt = int(salt)

    def __call__(self, spec):
        if (int(spec.encode().sum()) + self.salt) % 2:
            time.sleep(0.2)
        return super().__call__(spec)


def make_space(depth: int = 4) -> SearchSpace:
    return SearchSpace([BlockSearchInfo(depth=depth, name="block")], name="async-test")


def assert_stores_equal(first: WeightStore, second: WeightStore) -> None:
    state_a, state_b = first.state_dict(), second.state_dict()
    assert sorted(state_a) == sorted(state_b)
    for key in state_a:
        np.testing.assert_allclose(state_a[key], state_b[key], err_msg=key)


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

    def test_serial_task_sees_the_objective_as_of_submission(self):
        """The serial mode evaluates at ``submit``, so a later state change
        does not reach a submitted task (as for a pickled pool task)."""
        objective = _StateEcho()
        specs = make_space().sample_batch(3, rng=2)
        with AsyncEvaluationExecutor(objective, workers=1) as executor:
            for value, spec in enumerate(specs):
                objective.state = float(value)
                executor.submit(spec)
                objective.state = -1.0
            completed = [done.result.objective_value for done in executor.drain()]
        assert completed == [0.0, 1.0, 2.0]


def _absorbed_run(objective, specs, workers):
    """Run ``specs`` as one initial barrier; returns the absorbed results."""
    absorbed = []
    run_search(
        objective,
        lambda pending, iteration: [],
        lambda result, iteration: absorbed.append(result),
        0,
        initial=specs,
        workers=workers,
    )
    return absorbed


class TestRunSearch:
    def test_barrier_results_follow_submission_order_and_sequence_the_store(self):
        specs = make_space().sample_batch(5, rng=3)
        sequential = SyntheticWeightObjective(weight_store=WeightStore())
        expected = [sequential(spec).objective_value for spec in specs]

        objective = SyntheticWeightObjective(weight_store=WeightStore())
        results = _absorbed_run(objective, specs, workers=2)
        assert [r.objective_value for r in results] == pytest.approx(expected)
        assert [r.spec for r in results] == specs
        assert_stores_equal(sequential.weight_store, objective.weight_store)
        assert objective.defer_updates is False

    def test_barrier_is_worker_count_independent(self):
        """No barrier task sees another's update, in the serial mode or the
        pool, so a store-reading objective scores the same in both."""
        specs = make_space().sample_batch(3, rng=4)
        runs = {}
        for workers in (0, 2):
            objective = _StoreReadingObjective(weight_store=WeightStore())
            results = _absorbed_run(objective, specs, workers=workers)
            runs[workers] = ([r.objective_value for r in results], objective.weight_store)
        assert runs[0][0] == runs[2][0] == [0.0, 0.0, 0.0]
        assert not runs[0][1].is_empty
        assert_stores_equal(runs[0][1], runs[2][1])

    def test_out_of_order_completions_are_absorbed_in_ticket_order(self, monkeypatch):
        """Tickets finish out of order in the pool; absorption and the store
        still follow submission order."""
        completions = []
        next_completed = AsyncEvaluationExecutor.next_completed

        def recording(executor):
            done = next_completed(executor)
            completions.append(done.ticket)
            return done

        monkeypatch.setattr(AsyncEvaluationExecutor, "next_completed", recording)
        specs = make_space().sample_batch(6, rng=5)
        objective = _SaltedSleepObjective(salt=int(specs[0].encode().sum()) % 2 + 1, weight_store=WeightStore())
        results = _absorbed_run(objective, specs, workers=2)
        assert completions != sorted(completions)
        assert [r.spec for r in results] == specs
        replay = SyntheticWeightObjective(weight_store=WeightStore())
        for spec in specs:
            replay(spec)
        assert_stores_equal(objective.weight_store, replay.weight_store)


class TestPoolTelemetry:
    def test_worker_store_counters_reach_the_parent(self, tmp_path):
        """Every store lookup an ``async_workers=2`` search makes in its
        workers shows up in the parent's process-wide tallies."""
        objective = CachedObjective(
            SyntheticWeightObjective(weight_store=WeightStore()),
            store=PersistentEvaluationStore(tmp_path),
        )
        optimizer = BayesianOptimizer(
            make_space(), objective, initial_points=4, batch_size=2,
            candidate_pool_size=12, async_workers=2, rng=7,
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
        """Whatever order workers finish in, the shared store ends in the
        state a sequential replay of the history produces (the history is in
        submission order, and updates are applied as results are absorbed)."""
        objective, _, history = self.run_async(workers=2)
        assert not objective.weight_store.is_empty

        replay = SyntheticWeightObjective(weight_store=WeightStore())
        for record in history:
            replay(record.spec)
        assert_stores_equal(objective.weight_store, replay.weight_store)

    def test_async_serial_mode_accumulates_exactly_sequential_store_state(self):
        objective, _, history = self.run_async(workers=1)
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

    def test_async_history_does_not_depend_on_completion_order(self, monkeypatch):
        """Two ``async_workers=2`` searches whose evaluations finish in
        opposite orders give identical histories and stores."""
        completions = {}
        next_completed = AsyncEvaluationExecutor.next_completed

        def recording(executor):
            done = next_completed(executor)
            completions.setdefault(id(executor), []).append(done.ticket)
            return done

        monkeypatch.setattr(AsyncEvaluationExecutor, "next_completed", recording)
        runs = []
        for salt in (0, 1):
            objective = _SaltedSleepObjective(salt, weight_store=WeightStore())
            optimizer = BayesianOptimizer(
                make_space(5), objective, initial_points=3, batch_size=1,
                candidate_pool_size=24, async_workers=2, rng=3,
            )
            optimizer.optimize(6)
            runs.append((optimizer.history, objective.weight_store))
        first, second = list(completions.values())
        assert first != second
        (history_a, store_a), (history_b, store_b) = runs
        assert [(r.spec, r.objective_value, r.iteration, r.source) for r in history_a] == [
            (r.spec, r.objective_value, r.iteration, r.source) for r in history_b
        ]
        assert_stores_equal(store_a, store_b)

    def test_serial_fallback_matches_the_pool(self, monkeypatch):
        """An objective that cannot be shipped to workers is evaluated in the
        parent at submission, against the same store a pool task would see."""
        runs = {}
        for forced_serial in (False, True):
            if forced_serial:
                monkeypatch.setattr(async_eval, "func_is_picklable", lambda func: False)
            objective = _StoreReadingObjective(weight_store=WeightStore())
            optimizer = BayesianOptimizer(
                make_space(), objective, initial_points=3, batch_size=1,
                candidate_pool_size=12, async_workers=2, rng=0,
            )
            optimizer.optimize(4)
            runs[forced_serial] = ([r.objective_value for r in optimizer.history], objective.weight_store)
        assert runs[False][0][:3] == [0.0, 0.0, 0.0]
        assert runs[True][0] == runs[False][0]
        assert_stores_equal(runs[True][1], runs[False][1])

    def test_one_async_worker_matches_the_barrier_at_batch_size_one(self):
        """At ``batch_size=1`` the initial points form one barrier either way,
        and every later candidate sees the updates of all earlier ones."""
        runs = {}
        for workers in (0, 1):
            objective = _StoreReadingObjective(weight_store=WeightStore())
            optimizer = BayesianOptimizer(
                make_space(), objective, initial_points=3, batch_size=1,
                candidate_pool_size=12, async_workers=workers, rng=0,
            )
            optimizer.optimize(4)
            runs[workers] = ([(r.spec, r.objective_value) for r in optimizer.history], objective.weight_store)
        assert [value for _, value in runs[0][0][:3]] == [0.0, 0.0, 0.0]
        assert runs[1][0] == runs[0][0]
        assert_stores_equal(runs[0][1], runs[1][1])

    def test_negative_async_workers_rejected(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(make_space(), SyntheticWeightObjective(), async_workers=-1)
