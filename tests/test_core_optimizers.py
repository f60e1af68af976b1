"""Tests of Bayesian optimization, random search and weight sharing.

To keep these fast the optimizers are exercised against *synthetic* objectives
defined directly on the architecture encoding (no network training); the
integration with real training objectives is covered by the Table-I smoke
tests in ``test_integration.py``.
"""

import numpy as np
import pytest

from repro.core.adjacency import ASC, DSC, BlockAdjacency
from repro.core.bayes_opt import BayesianOptimizer, OptimizationHistory, OptimizationRecord
from repro.core.objectives import EvaluationResult, Objective
from repro.core.random_search import RandomSearch
from repro.core.search_space import ArchitectureSpec, BlockSearchInfo, SearchSpace
from repro.core.weight_sharing import WeightStore
from repro.gp.kernels import Matern52Kernel
from repro.nn import Linear, Sequential, ReLU


class CountingObjective(Objective):
    """Synthetic objective: fewer missing ASC connections = better.

    The optimum is the all-ASC architecture; the value is deterministic and
    cheap, which lets the tests verify search behaviour exactly.
    """

    def __init__(self, noise=0.0, seed=0):
        self.calls = 0
        self.noise = noise
        self._rng = np.random.default_rng(seed)

    def __call__(self, spec: ArchitectureSpec) -> EvaluationResult:
        self.calls += 1
        encoding = spec.encode()
        value = float(np.sum(encoding != ASC)) / max(len(encoding), 1)
        if self.noise:
            value += self.noise * self._rng.standard_normal()
        accuracy = 1.0 - value
        return EvaluationResult(spec=spec, objective_value=value, accuracy=accuracy, firing_rate=0.1)


def _space(depth=4, blocks=1):
    return SearchSpace([BlockSearchInfo(depth=depth, name=f"b{i}") for i in range(blocks)])


class TestOptimizationHistory:
    def _record(self, value, iteration=0):
        spec = ArchitectureSpec([BlockAdjacency(3)])
        return OptimizationRecord(iteration=iteration, spec=spec, objective_value=value, accuracy=1 - value)

    def test_best_and_incumbent(self):
        history = OptimizationHistory()
        for value in (0.5, 0.3, 0.4, 0.1):
            history.append(self._record(value))
        assert history.best().objective_value == 0.1
        assert history.incumbent_values() == [0.5, 0.3, 0.3, 0.1]
        assert history.incumbent_accuracies() == [0.5, 0.7, 0.7, 0.9]

    def test_best_on_empty_raises(self):
        with pytest.raises(ValueError):
            OptimizationHistory().best()

    def test_len_and_iter(self):
        history = OptimizationHistory()
        history.append(self._record(0.2))
        assert len(history) == 1
        assert list(history)[0].objective_value == 0.2


class TestBayesianOptimizer:
    def test_finds_good_solution_on_synthetic_objective(self):
        space = _space(depth=4)
        objective = CountingObjective()
        optimizer = BayesianOptimizer(space, objective, initial_points=3, candidate_pool_size=40, rng=0)
        history = optimizer.optimize(8)
        best = history.best()
        # after 11 evaluations of a 729-point space BO should be well below random-start quality
        assert best.objective_value <= 0.5
        assert objective.calls == len(history)

    def test_bo_beats_random_start(self):
        space = _space(depth=4)
        optimizer = BayesianOptimizer(space, CountingObjective(), initial_points=3, rng=0)
        history = optimizer.optimize(8)
        initial_best = min(r.objective_value for r in list(history)[:3])
        final_best = history.best().objective_value
        assert final_best <= initial_best

    def test_default_spec_evaluated_first(self):
        space = _space(depth=3)
        optimizer = BayesianOptimizer(space, CountingObjective(), initial_points=2, rng=0)
        history = optimizer.optimize(0)
        first = list(history)[0]
        assert first.spec == space.default_spec()
        assert first.source == "init"

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_no_duplicate_evaluations(self, batch_size):
        space = _space(depth=3)
        optimizer = BayesianOptimizer(space, CountingObjective(), initial_points=3, batch_size=batch_size, rng=1)
        history = optimizer.optimize(6)
        keys = [record.spec.encode().tobytes() for record in history]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("acquisition", ["ucb", "ei", "pi"])
    def test_batch_proposals(self, acquisition):
        space = _space(depth=4)
        optimizer = BayesianOptimizer(
            space, CountingObjective(), acquisition=acquisition, initial_points=2, batch_size=3, rng=0
        )
        history = optimizer.optimize(2)
        assert history.num_evaluations == 2 + 2 * 3
        # proposals within an iteration are distinct
        per_iteration = {}
        for record in history:
            per_iteration.setdefault(record.iteration, []).append(record.spec.encode().tobytes())
        for keys in per_iteration.values():
            assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_small_space_exhausts_gracefully(self, batch_size):
        space = SearchSpace([BlockSearchInfo(depth=2)])  # 3 architectures total
        optimizer = BayesianOptimizer(space, CountingObjective(), initial_points=2, batch_size=batch_size, rng=0)
        history = optimizer.optimize(10)
        assert history.num_evaluations == 3  # the pool runs dry, mid-batch for batch_size 4

    def test_callback_invoked(self):
        space = _space(depth=3)
        seen = []
        optimizer = BayesianOptimizer(space, CountingObjective(), initial_points=2, rng=0)
        optimizer.optimize(2, callback=lambda it, hist: seen.append(it))
        assert seen == [0, 1, 2]

    def test_alternative_kernel_and_acquisition(self):
        space = _space(depth=3)
        optimizer = BayesianOptimizer(
            space, CountingObjective(), kernel=Matern52Kernel(), acquisition="ei", initial_points=2, rng=0
        )
        history = optimizer.optimize(3)
        assert history.num_evaluations == 5

    def test_best_spec_matches_history(self):
        space = _space(depth=3)
        optimizer = BayesianOptimizer(space, CountingObjective(), initial_points=2, rng=0)
        optimizer.optimize(3)
        assert optimizer.best_spec() == optimizer.history.best().spec

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_history_swap_resets_what_the_surrogate_models(self, batch_size):
        """A swapped-in history of the same length must not blend the old
        run's observations into the surrogate or the dedup keys."""
        def make(rng):
            return BayesianOptimizer(
                _space(depth=5), CountingObjective(), initial_points=4, batch_size=batch_size,
                candidate_pool_size=8, rng=rng,
            )

        first = make(2)
        first.optimize(2)
        donor = make(99)
        donor.optimize(2)

        first.history = donor.history
        first.optimize(1)
        encodings = {record.spec.encode().tobytes() for record in first.history}
        surrogate = first._fit_surrogate()
        assert len(surrogate._x_train) == len(first.history)
        assert {row.tobytes() for row in surrogate._x_train.astype(np.int64)} == encodings
        assert first._dedup_keys() == encodings

    def test_parameter_validation(self):
        space = _space(depth=3)
        with pytest.raises(ValueError):
            BayesianOptimizer(space, CountingObjective(), initial_points=0)
        with pytest.raises(ValueError):
            BayesianOptimizer(space, CountingObjective(), batch_size=0)
        with pytest.raises(ValueError):
            BayesianOptimizer(space, CountingObjective(), candidate_pool_size=0)
        optimizer = BayesianOptimizer(space, CountingObjective())
        with pytest.raises(ValueError):
            optimizer.optimize(-1)


class TestRandomSearch:
    def test_evaluates_requested_number(self):
        space = _space(depth=4)
        objective = CountingObjective()
        search = RandomSearch(space, objective, rng=0)
        history = search.optimize(10)
        assert history.num_evaluations == 10
        assert objective.calls == 10

    def test_no_replacement(self):
        space = _space(depth=3)
        search = RandomSearch(space, CountingObjective(), rng=0)
        history = search.optimize(15)
        keys = [record.spec.encode().tobytes() for record in history]
        assert len(keys) == len(set(keys))

    def test_exhausts_small_space(self):
        space = SearchSpace([BlockSearchInfo(depth=2)])
        search = RandomSearch(space, CountingObjective(), rng=0)
        history = search.optimize(10)
        assert history.num_evaluations == 3

    def test_incumbent_monotonically_improves(self):
        space = _space(depth=4)
        search = RandomSearch(space, CountingObjective(), rng=2)
        history = search.optimize(12)
        incumbents = history.incumbent_values()
        assert all(incumbents[i + 1] <= incumbents[i] for i in range(len(incumbents) - 1))

    def test_bo_converges_at_least_as_well_as_rs_on_average(self):
        """Sanity check of the Fig. 3 qualitative claim on the synthetic objective."""
        bo_final, rs_final = [], []
        for seed in range(3):
            space = _space(depth=4)
            bo = BayesianOptimizer(space, CountingObjective(noise=0.02, seed=seed), initial_points=3, rng=seed)
            bo_final.append(bo.optimize(7).best().objective_value)
            rs = RandomSearch(space, CountingObjective(noise=0.02, seed=seed), rng=seed)
            rs_final.append(rs.optimize(10).best().objective_value)
        assert np.mean(bo_final) <= np.mean(rs_final) + 0.05


class TestWeightStore:
    def _model(self, seed=0, hidden=5):
        rng = np.random.default_rng(seed)
        return Sequential(Linear(4, hidden, rng=rng), ReLU(), Linear(hidden, 2, rng=rng))

    def test_from_model_and_apply(self):
        source = self._model(seed=0)
        target = self._model(seed=1)
        store = WeightStore.from_model(source)
        report = store.apply_to(target)
        assert report["loaded"] == len(store)
        np.testing.assert_allclose(source[0].weight.data, target[0].weight.data)

    def test_empty_store_is_noop(self):
        store = WeightStore()
        model = self._model()
        before = model[0].weight.data.copy()
        assert store.apply_to(model) == {"loaded": 0, "skipped": 0}
        np.testing.assert_allclose(model[0].weight.data, before)

    def test_shape_mismatch_skipped(self):
        store = WeightStore.from_model(self._model(seed=0, hidden=5))
        target = self._model(seed=1, hidden=7)
        report = store.apply_to(target)
        assert report["skipped"] > 0
        assert report["loaded"] > 0  # final layer bias and first layer bias mismatched? first Linear weight mismatched, second layer weight mismatched

    def test_update_only_if_better(self):
        store = WeightStore.from_model(self._model(seed=0))
        better = self._model(seed=1)
        worse = self._model(seed=2)
        assert store.update_from(better, score=0.8, only_if_better=True)
        assert not store.update_from(worse, score=0.5, only_if_better=True)
        target = self._model(seed=3)
        store.apply_to(target)
        np.testing.assert_allclose(target[0].weight.data, better[0].weight.data)

    def test_merge_from_adds_missing_keys_only(self):
        small = Sequential(Linear(4, 5, rng=np.random.default_rng(0)))
        store = WeightStore.from_model(small)
        big = Sequential(Linear(4, 5, rng=np.random.default_rng(1)), ReLU(), Linear(5, 2, rng=np.random.default_rng(2)))
        added = store.merge_from(big)
        assert added > 0
        # existing key kept from the original model
        np.testing.assert_allclose(store.get("0.weight"), small[0].weight.data)

    def test_keys_and_len(self):
        store = WeightStore.from_model(self._model())
        assert len(store) == len(store.keys()) > 0
        assert store.get("not-a-key") is None


class TestCandidatePoolReuse:
    """The persistent candidate pool and its encoded matrix."""

    def _seeded(self, rng=0, **kwargs):
        defaults = dict(initial_points=3, candidate_pool_size=24, batch_size=2)
        defaults.update(kwargs)
        return BayesianOptimizer(_space(depth=4), CountingObjective(), rng=rng, **defaults)

    def test_pool_persists_and_tops_up_across_iterations(self):
        optimizer = self._seeded()
        optimizer.optimize(1)
        survivors = list(optimizer._pool_keys)
        assert len(optimizer._pool_specs) == optimizer.candidate_pool_size - optimizer.batch_size
        optimizer.optimize(1)
        # previous survivors are still candidates (minus any that were proposed)
        assert len(set(survivors) & set(optimizer._pool_keys)) >= len(survivors) - optimizer.batch_size
        assert optimizer._pool_matrix.shape == (
            len(optimizer._pool_specs),
            optimizer.search_space.encoding_length(),
        )

    def test_pool_matrix_rows_track_specs(self):
        optimizer = self._seeded()
        optimizer.optimize(3)
        optimizer._refresh_pool()
        expected = np.array([s.encode() for s in optimizer._pool_specs], dtype=np.float64)
        np.testing.assert_array_equal(optimizer._pool_matrix, expected)
        assert optimizer._pool_keys == [s.encode().tobytes() for s in optimizer._pool_specs]

    def test_pool_never_contains_evaluated_candidates(self):
        optimizer = self._seeded()
        history = optimizer.optimize(5)
        evaluated = {r.spec.encode().tobytes() for r in history}
        assert not (evaluated & set(optimizer._pool_keys))

    def test_pool_resets_on_history_swap(self):
        optimizer = self._seeded()
        optimizer.optimize(2)
        assert optimizer._pool_specs
        optimizer.history = OptimizationHistory()
        optimizer.optimize(1)
        assert len(optimizer._pool_specs) <= optimizer.candidate_pool_size
        keys = [r.spec.encode().tobytes() for r in optimizer.history]
        assert len(keys) == len(set(keys))
