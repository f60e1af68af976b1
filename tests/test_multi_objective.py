"""Multi-objective Bayesian optimizer: specs, constraints, engines, caching.

The synthetic objective used throughout derives every metric purely from the
architecture encoding (instant, deterministic, picklable), so engine variants
can be compared bit-for-bit.
"""

import numpy as np
import pytest

from repro.core.cache import CachedObjective, PersistentEvaluationStore, spec_key
from repro.core.multi_objective import (
    MultiObjectiveBayesianOptimizer,
    ObjectiveConstraint,
    ObjectiveSpec,
    get_objective_spec,
    resolve_objective_specs,
)
from repro.core.objectives import SyntheticWeightObjective
from repro.core.pareto import non_dominated_mask
from repro.core.search_space import BlockSearchInfo, SearchSpace


def make_space(depth: int = 5) -> SearchSpace:
    return SearchSpace([BlockSearchInfo(depth=depth, name="block")], name="mo-test")


def make_optimizer(objective=None, **kwargs) -> MultiObjectiveBayesianOptimizer:
    defaults = dict(
        objectives=("accuracy", "energy"),
        initial_points=4,
        batch_size=1,
        candidate_pool_size=32,
        rng=0,
    )
    defaults.update(kwargs)
    if objective is None:
        objective = SyntheticWeightObjective()
    return MultiObjectiveBayesianOptimizer(make_space(), objective, **defaults)


# ---------------------------------------------------------------------------
# objective specs and constraints
# ---------------------------------------------------------------------------


class TestObjectiveSpecs:
    def test_builtin_lookup_normalises_names(self):
        assert get_objective_spec("Energy").metric == "energy_nj"
        assert get_objective_spec("firing-rate").metric == "firing_rate"
        with pytest.raises(KeyError):
            get_objective_spec("latencyy")

    def test_maximised_metric_is_sign_flipped(self):
        spec = get_objective_spec("accuracy")
        assert spec.value({"val_accuracy": 0.8}) == pytest.approx(-0.8)
        assert spec.raw({"val_accuracy": 0.8}) == pytest.approx(0.8)

    def test_missing_metric_raises_with_guidance(self):
        with pytest.raises(KeyError, match="measure_energy"):
            get_objective_spec("energy").raw({"val_accuracy": 0.5})

    def test_resolution_rejects_duplicates_and_singletons(self):
        with pytest.raises(ValueError):
            resolve_objective_specs(["accuracy"])
        with pytest.raises(ValueError):
            resolve_objective_specs(["accuracy", "Accuracy"])
        specs = resolve_objective_specs(["accuracy", ObjectiveSpec("e", metric="energy_nj")])
        assert [s.name for s in specs] == ["accuracy", "e"]

    def test_constraint_feasibility_and_value_bounds(self):
        energy = get_objective_spec("energy")
        accuracy = get_objective_spec("accuracy")
        constraint = ObjectiveConstraint("energy", upper=2.0)
        assert constraint.feasible(energy, {"energy_nj": 1.5})
        assert not constraint.feasible(energy, {"energy_nj": 2.5})
        assert constraint.value_bounds(energy) == (None, 2.0)
        # raw accuracy >= 0.5 maps to minimisation value <= -0.5
        floor = ObjectiveConstraint("accuracy", lower=0.5)
        assert floor.value_bounds(accuracy) == (None, -0.5)
        with pytest.raises(ValueError):
            ObjectiveConstraint("energy")


# ---------------------------------------------------------------------------
# the optimizer
# ---------------------------------------------------------------------------


class TestMultiObjectiveOptimizer:
    def test_front_is_non_dominated_and_hypervolume_monotone(self):
        optimizer = make_optimizer(batch_size=2)
        history = optimizer.optimize(5)
        assert len(history) == 4 + 5 * 2
        values = optimizer.front.values_array()
        assert len(values) >= 1
        assert non_dominated_mask(values).all()
        curve = optimizer.hypervolume_history
        assert curve and all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
        assert optimizer.hypervolume() == pytest.approx(curve[-1])

    def test_records_carry_metrics_and_primary_objective(self):
        optimizer = make_optimizer()
        optimizer.optimize(3)
        for record in optimizer.history:
            assert "val_accuracy" in record.metrics and "energy_nj" in record.metrics
        # history.best() keeps working on the scalar objective_value
        assert optimizer.history.best().objective_value == min(
            r.objective_value for r in optimizer.history
        )

    def test_front_records_sorted_by_first_objective(self):
        optimizer = make_optimizer()
        optimizer.optimize(4)
        records = optimizer.front_records()
        firsts = [optimizer.record_values(r)[0] for r in records]
        assert firsts == sorted(firsts)

    def test_unknown_constraint_objective_rejected(self):
        with pytest.raises(ValueError, match="not among the search objectives"):
            make_optimizer(constraints=[ObjectiveConstraint("latency", upper=4.0)])

    def test_constrained_search_prefers_the_feasible_region(self):
        """With a tight energy budget, the constrained run spends more of its
        budget on feasible candidates than the unconstrained twin."""
        budget = 2.0
        plain = make_optimizer(rng=3)
        plain.optimize(8)
        constrained = make_optimizer(
            rng=3, constraints=[ObjectiveConstraint("energy", upper=budget)]
        )
        constrained.optimize(8)
        feasible = sum(constrained._observed_feasible)
        assert feasible >= sum(
            1 for r in plain.history if r.metrics["energy_nj"] <= budget
        )
        assert any(constrained._observed_feasible)

    def test_fixed_reference_point_is_respected(self):
        optimizer = make_optimizer(reference_point=[0.5, 20.0])
        optimizer.optimize(2)
        np.testing.assert_allclose(optimizer.reference_point, [0.5, 20.0])
        with pytest.raises(ValueError):
            make_optimizer(reference_point=[1.0])

    def test_missing_metrics_fail_loudly(self):
        # the synthetic objective measures latency_ms but never macs or the
        # latency_steps proxy, so those objectives must fail loudly
        optimizer = make_optimizer(objectives=("accuracy", "macs"))
        with pytest.raises(KeyError, match="macs"):
            optimizer.optimize(1)
        optimizer = make_optimizer(objectives=("accuracy", "latency_steps"))
        with pytest.raises(KeyError, match="latency_steps"):
            optimizer.optimize(1)

    def test_history_swap_rebuilds_front_and_observations(self):
        """Swapping the history (the base class's supported pattern) must
        rebuild every observation-derived structure, not desync it."""
        from repro.core.bayes_opt import OptimizationHistory

        optimizer = make_optimizer()
        optimizer.optimize(3)
        stale_front = {tuple(p.values) for p in optimizer.front}
        donor = make_optimizer(rng=5)
        donor.optimize(2)
        optimizer.history = donor.history
        optimizer.optimize(2)
        assert len(optimizer._observed) == len(optimizer.history)
        history_ids = {id(r) for r in optimizer.history.records}
        assert all(id(p.payload["record"]) in history_ids for p in optimizer.front)
        values = optimizer.front.values_array()
        assert non_dominated_mask(values).all()
        # the pre-swap front is gone unless re-derived from the new history
        rebuilt = {tuple(p.values) for p in optimizer.front}
        assert rebuilt != stale_front or len(optimizer.history) == 0

        # a fresh empty history also replays cleanly (no stale observations)
        optimizer.history = OptimizationHistory()
        optimizer.optimize(1)
        assert len(optimizer._observed) == len(optimizer.history)

    def test_externally_appended_records_are_replayed(self):
        donor = make_optimizer(rng=9)
        donor.optimize(2)
        optimizer = make_optimizer()
        optimizer.optimize(2)
        optimizer.history.records.extend(donor.history.records[:2])
        optimizer.optimize(1)
        assert len(optimizer._observed) == len(optimizer.history)
        assert non_dominated_mask(optimizer.front.values_array()).all()


# ---------------------------------------------------------------------------
# engine equivalence and determinism
# ---------------------------------------------------------------------------


def _run(engine_kwargs, iterations=6, rng=0):
    optimizer = make_optimizer(rng=rng, **engine_kwargs)
    optimizer.optimize(iterations)
    proposals = [tuple(int(v) for v in r.spec.encode()) for r in optimizer.history]
    return proposals, optimizer


class TestEngines:
    def test_async_engine_is_deterministic(self):
        first, opt_a = _run({"async_workers": 2})
        second, opt_b = _run({"async_workers": 2})
        assert first == second
        np.testing.assert_allclose(
            np.sort(opt_a.front.values_array(), axis=0),
            np.sort(opt_b.front.values_array(), axis=0),
        )
        assert opt_a.hypervolume_history == opt_b.hypervolume_history

    def test_async_engine_matches_serial_budget_and_invariants(self):
        proposals, optimizer = _run({"async_workers": 3}, iterations=5)
        assert len(proposals) == 4 + 5
        assert non_dominated_mask(optimizer.front.values_array()).all()
        curve = optimizer.hypervolume_history
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
        # the history is in submission order: warm start first, then one
        # iteration per absorbed proposal
        assert [(r.source, r.iteration) for r in optimizer.history] == [("init", 0)] * 4 + [
            ("bo", i) for i in range(1, 6)
        ]

    def test_async_store_equals_sequential_replay_of_the_history(self):
        """The search loop absorbs results, and applies their weight updates,
        in submission order, so the async run's store must equal a
        sequential evaluation of its history in order."""
        from repro.core.weight_sharing import WeightStore

        store = WeightStore()
        objective = SyntheticWeightObjective(weight_store=store)
        optimizer = make_optimizer(objective=objective, rng=1, async_workers=2)
        optimizer.optimize(5)

        replay_store = WeightStore()
        replay = SyntheticWeightObjective(weight_store=replay_store)
        for record in optimizer.history:
            replay(record.spec)
        assert sorted(store.state_dict()) == sorted(replay_store.state_dict())
        for key, value in store.state_dict().items():
            np.testing.assert_array_equal(value, replay_store.state_dict()[key])


# ---------------------------------------------------------------------------
# cache round trips: a fully-cached re-run replays the identical front
# ---------------------------------------------------------------------------


class PoisonObjective(SyntheticWeightObjective):
    """Raises on any real evaluation — proves a re-run was answered from disk.

    Module-level so it pickles into worker processes, where an attempted
    evaluation would otherwise go unnoticed by parent-side counters.
    """

    def __call__(self, spec):
        raise RuntimeError(f"cache miss: candidate {spec} was re-evaluated")


def _cached_run(store, async_workers=0, rng=0, iterations=6, poison=False):
    probe = PoisonObjective() if poison else SyntheticWeightObjective()
    optimizer = make_optimizer(
        objective=CachedObjective(probe, store=store),
        rng=rng,
        async_workers=async_workers,
    )
    optimizer.optimize(iterations)
    return probe, optimizer


class TestCachedReplay:
    @pytest.mark.parametrize("async_workers", [0, 2])
    def test_fully_cached_rerun_reproduces_the_front(self, tmp_path, async_workers):
        store_path = tmp_path / "evals.jsonl"
        _, first = _cached_run(
            PersistentEvaluationStore(store_path), async_workers=async_workers
        )
        assert len(first.history) == 4 + 6
        # the re-run evaluates nothing: a single cache miss raises (also from
        # inside a worker process, where parent-side counters cannot see it)
        _, second = _cached_run(
            PersistentEvaluationStore(store_path), async_workers=async_workers, poison=True
        )
        np.testing.assert_allclose(
            first.front.values_array(), second.front.values_array()
        )
        assert first.hypervolume_history == pytest.approx(second.hypervolume_history)

    def test_worker_rows_replay_from_one_file(self, tmp_path):
        """Both worker processes append to one file, and a fresh store over it
        replays the search."""
        path = tmp_path / "evals.jsonl"
        _, first = _cached_run(PersistentEvaluationStore(path), async_workers=2)
        store = PersistentEvaluationStore(path)
        assert set(store.keys()) == {spec_key(record.spec) for record in first.history}
        assert store.skipped_lines == 0 and [p.name for p in tmp_path.iterdir()] == ["evals.jsonl"]
        _, second = _cached_run(store, async_workers=2, poison=True)
        np.testing.assert_allclose(
            first.front.values_array(), second.front.values_array()
        )

    def test_rows_persist_the_metrics_dict(self, tmp_path):
        store = PersistentEvaluationStore(tmp_path / "evals.jsonl")
        _cached_run(store, iterations=2)
        rows = store.rows()
        assert rows and all("metrics" in row for row in rows)
        reloaded = PersistentEvaluationStore(tmp_path / "evals.jsonl")
        row = reloaded.rows()[0]
        assert "energy_nj" in row["metrics"] and "val_accuracy" in row["metrics"]


class TestFeasibilityProbability:
    def test_one_sided_bounds(self):
        from scipy.stats import norm

        from repro.gp.acquisition import probability_in_bounds

        mean, std = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        assert np.array_equal(
            probability_in_bounds(mean, std, upper=0.5), norm.cdf((0.5 - mean) / std)
        )
        assert np.array_equal(
            probability_in_bounds(mean, std, lower=0.5), 1.0 - norm.cdf((0.5 - mean) / std)
        )

    def test_two_sided_bound_is_the_interval_probability(self):
        """cdf(upper) - cdf(lower), not the product of one-sided tails."""
        from scipy.stats import norm

        from repro.gp.acquisition import probability_in_bounds

        prob = probability_in_bounds(np.zeros(1), np.ones(1), lower=-0.5, upper=0.5)
        assert np.array_equal(prob, [norm.cdf(0.5) - norm.cdf(-0.5)])

    def test_degenerate_posterior_is_an_indicator(self):
        from repro.gp.acquisition import probability_in_bounds

        prob = probability_in_bounds(np.array([1.0, 3.0]), np.zeros(2), upper=2.0)
        np.testing.assert_allclose(prob, [1.0, 0.0])


class TestAcquisitionMatchesScipyNorm:
    """EI and PI score exactly as the ``scipy.stats.norm`` formulas would."""

    @staticmethod
    def _grid():
        # std 0 and 1e-12 both land on the 1e-12 floor; the means give |z| up to ~1e12
        mean = np.array([-1e3, -40.0, -8.0, -1.0, 0.0, 0.25, 0.5, 1.0, 8.0, 40.0, 1e3])
        std = np.array([0.0, 1e-12, 1e-6, 0.01, 0.5, 1.0, 3.0, 1e3])
        mean, std = np.meshgrid(mean, std)
        return mean.ravel(), std.ravel()

    def test_expected_improvement_is_exact(self):
        from scipy.stats import norm

        from repro.gp.acquisition import ExpectedImprovement

        mean, std = self._grid()
        acquisition = ExpectedImprovement(xi=0.01)
        floored = np.maximum(std, 1e-12)
        improvement = 0.5 - mean - 0.01
        z = improvement / floored
        expected = improvement * norm.cdf(z) + floored * norm.pdf(z)
        assert np.abs(z).max() > 1e12
        assert np.array_equal(acquisition(mean, std, 0.5), expected)

    def test_probability_of_improvement_is_exact(self):
        from scipy.stats import norm

        from repro.gp.acquisition import ProbabilityOfImprovement

        mean, std = self._grid()
        acquisition = ProbabilityOfImprovement(xi=0.01)
        z = (0.5 - mean - 0.01) / np.maximum(std, 1e-12)
        assert np.array_equal(acquisition(mean, std, 0.5), norm.cdf(z))
