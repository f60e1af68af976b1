"""Tests of the incremental GP machinery: rank-k updates and fantasy posteriors.

The contract under test is *exact* equivalence: observing points through
:meth:`GaussianProcessRegressor.update` must produce the same posterior
(mean and variance to 1e-8) as refitting from scratch on the concatenated
data, across random sequences, batch shapes and the jitter-escalation path.
"""

import numpy as np
import pytest

from repro.core.bayes_opt import BayesianOptimizer
from repro.core.objectives import EvaluationResult, Objective
from repro.core.search_space import BlockSearchInfo, SearchSpace
from repro.gp import (
    FantasizedPosterior,
    GaussianProcessRegressor,
    HammingKernel,
    Matern52Kernel,
    RBFKernel,
)

KERNELS = [RBFKernel(), Matern52Kernel(), HammingKernel()]


def _random_sequence(rng, total, dim):
    x = rng.integers(0, 3, size=(total, dim)).astype(np.float64)
    y = rng.normal(size=total)
    return x, y


class TestIncrementalUpdateEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_matches_full_refit(self, kernel, seed):
        """Rank-1 and rank-k updates agree with a full refit to 1e-8."""
        rng = np.random.default_rng(seed)
        x, y = _random_sequence(rng, 40, 7)
        incremental = GaussianProcessRegressor(kernel, noise=1e-3).fit(x[:8], y[:8])
        step = 0
        index = 8
        while index < len(x):
            # alternate rank-1 and rank-3 updates across the sequence
            size = 1 if step % 2 == 0 else 3
            incremental.update(x[index : index + size], y[index : index + size])
            index += size
            step += 1
        full = GaussianProcessRegressor(kernel, noise=1e-3).fit(x, y)

        query = rng.integers(0, 3, size=(25, 7)).astype(np.float64)
        mean_inc, std_inc = incremental.predict(query)
        mean_full, std_full = full.predict(query)
        np.testing.assert_allclose(mean_inc, mean_full, atol=1e-8)
        np.testing.assert_allclose(std_inc, std_full, atol=1e-8)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_update_matches_refit_through_jitter_escalation(self, kernel):
        """Near-duplicate points force the fallback; the result still matches a refit."""
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, size=(10, 5)).astype(np.float64)
        y = rng.normal(size=10)
        duplicates = np.repeat(x[:3], 3, axis=0)  # exact duplicates of training rows
        dup_y = rng.normal(size=len(duplicates))

        incremental = GaussianProcessRegressor(kernel, noise=0.0).fit(x, y)
        incremental.update(duplicates, dup_y)
        full = GaussianProcessRegressor(kernel, noise=0.0).fit(
            np.concatenate([x, duplicates]), np.concatenate([y, dup_y])
        )
        query = rng.integers(0, 3, size=(12, 5)).astype(np.float64)
        mean_inc, std_inc = incremental.predict(query)
        mean_full, std_full = full.predict(query)
        np.testing.assert_allclose(mean_inc, mean_full, atol=1e-8)
        np.testing.assert_allclose(std_inc, std_full, atol=1e-8)

    def test_update_on_unfitted_gp_is_a_fit(self):
        gp = GaussianProcessRegressor(RBFKernel(), noise=1e-4)
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 4.0])
        gp.update(x, y)
        assert gp.is_fitted
        mean, _ = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-1)

    def test_update_log_marginal_likelihood_matches_refit(self):
        rng = np.random.default_rng(4)
        x, y = _random_sequence(rng, 20, 4)
        incremental = GaussianProcessRegressor(HammingKernel(), noise=1e-3).fit(x[:10], y[:10])
        incremental.update(x[10:], y[10:])
        full = GaussianProcessRegressor(HammingKernel(), noise=1e-3).fit(x, y)
        assert incremental.log_marginal_likelihood() == pytest.approx(
            full.log_marginal_likelihood(), abs=1e-8
        )

    def test_update_validation(self):
        gp = GaussianProcessRegressor(RBFKernel(), noise=1e-4).fit(
            np.zeros((3, 2)), np.arange(3.0)
        )
        with pytest.raises(ValueError):
            gp.update(np.zeros((2, 2)), np.zeros(3))  # count mismatch
        with pytest.raises(ValueError):
            gp.update(np.zeros((2, 5)), np.zeros(2))  # feature mismatch
        # empty update is a no-op
        gp.update(np.zeros((0, 2)), np.zeros(0))
        assert len(gp._x_train) == 3

    def test_many_small_updates_grow_through_buffer_reallocation(self):
        """Repeated rank-1 updates cross the capacity boundary and stay exact."""
        rng = np.random.default_rng(5)
        x, y = _random_sequence(rng, 120, 6)
        incremental = GaussianProcessRegressor(Matern52Kernel(), noise=1e-3).fit(x[:2], y[:2])
        for i in range(2, 120):
            incremental.update(x[i : i + 1], y[i : i + 1])
        full = GaussianProcessRegressor(Matern52Kernel(), noise=1e-3).fit(x, y)
        query = rng.integers(0, 3, size=(10, 6)).astype(np.float64)
        mean_inc, std_inc = incremental.predict(query)
        mean_full, std_full = full.predict(query)
        np.testing.assert_allclose(mean_inc, mean_full, atol=1e-8)
        np.testing.assert_allclose(std_inc, std_full, atol=1e-8)


class TestFantasizedPosterior:
    def test_matches_refit_with_lies(self):
        """Conditioning on lies equals refitting with the lies appended.

        ``normalize_y=False`` makes the comparison exact: the fantasy posterior
        deliberately keeps the base GP's target standardisation, while a refit
        recomputes it with the lies included.
        """
        rng = np.random.default_rng(6)
        x, y = _random_sequence(rng, 30, 6)
        pool = rng.integers(0, 3, size=(12, 6)).astype(np.float64)
        gp = GaussianProcessRegressor(HammingKernel(), noise=1e-3, normalize_y=False).fit(x, y)

        fantasy = gp.fantasize(pool)
        lie_value = float(y.min())
        lies = []
        for _ in range(3):
            encoding = fantasy.remove(0)
            fantasy.condition(encoding, lie_value)
            lies.append(encoding)

        reference = GaussianProcessRegressor(HammingKernel(), noise=1e-3, normalize_y=False).fit(
            np.concatenate([x, np.array(lies)]), np.concatenate([y, [lie_value] * 3])
        )
        mean_fantasy, std_fantasy = fantasy.predict()
        mean_ref, std_ref = reference.predict(pool[3:])
        np.testing.assert_allclose(mean_fantasy, mean_ref, atol=1e-8)
        np.testing.assert_allclose(std_fantasy, std_ref, atol=1e-8)

    def test_initial_prediction_matches_gp_predict(self):
        rng = np.random.default_rng(7)
        x, y = _random_sequence(rng, 15, 5)
        pool = rng.integers(0, 3, size=(9, 5)).astype(np.float64)
        gp = GaussianProcessRegressor(HammingKernel(), noise=1e-3).fit(x, y)
        fantasy = gp.fantasize(pool)
        mean_f, std_f = fantasy.predict()
        mean_g, std_g = gp.predict(pool)
        np.testing.assert_allclose(mean_f, mean_g, atol=1e-10)
        np.testing.assert_allclose(std_f, std_g, atol=1e-10)

    def test_base_gp_not_mutated(self):
        rng = np.random.default_rng(8)
        x, y = _random_sequence(rng, 10, 4)
        gp = GaussianProcessRegressor(HammingKernel(), noise=1e-3).fit(x, y)
        before = gp._cholesky.copy()
        fantasy = gp.fantasize(rng.integers(0, 3, size=(5, 4)).astype(np.float64))
        fantasy.condition(fantasy.remove(0), 0.0)
        np.testing.assert_array_equal(gp._cholesky, before)
        assert len(gp._x_train) == 10
        assert fantasy.num_fantasies == 1

    def test_fantasize_requires_fitted_gp(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().fantasize(np.zeros((2, 3)))

    def test_isinstance_export(self):
        rng = np.random.default_rng(9)
        x, y = _random_sequence(rng, 6, 3)
        gp = GaussianProcessRegressor(HammingKernel(), noise=1e-3).fit(x, y)
        assert isinstance(gp.fantasize(x), FantasizedPosterior)


class _CountingObjective(Objective):
    def __init__(self):
        self.calls = 0

    def __call__(self, spec):
        self.calls += 1
        encoding = spec.encode()
        return EvaluationResult(
            spec=spec,
            objective_value=float(np.sin(encoding).sum()),
            accuracy=0.5,
        )


class TestIncrementalOptimizerEngine:
    def _space(self):
        return SearchSpace([BlockSearchInfo(depth=4, name="b0"), BlockSearchInfo(depth=4, name="b1")])

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_incremental_engine_runs_and_respects_budget(self, batch_size):
        objective = _CountingObjective()
        optimizer = BayesianOptimizer(
            self._space(),
            objective,
            initial_points=4,
            batch_size=batch_size,
            candidate_pool_size=16,
            rng=0,
        )
        history = optimizer.optimize(3)
        assert len(history) == 4 + 3 * batch_size
        assert objective.calls == len(history)
        # no architecture evaluated twice
        assert len(history.evaluated_keys()) == len(history)

    def test_history_replacement_resets_incremental_state(self):
        """Swapping in a different (equal-length or longer) history must not
        blend the old run's observations into the surrogate or dedup keys."""
        first = BayesianOptimizer(
            self._space(), _CountingObjective(), initial_points=4, batch_size=1,
            candidate_pool_size=8, rng=2,
        )
        first.optimize(2)
        donor = BayesianOptimizer(
            self._space(), _CountingObjective(), initial_points=4, batch_size=1,
            candidate_pool_size=8, rng=99,
        )
        donor.optimize(2)

        first.history = donor.history  # same length, different records
        first.optimize(1)
        first._fit_surrogate()  # absorb the final, not-yet-modelled batch
        surrogate = first._surrogate
        assert len(surrogate._x_train) == len(first.history)
        encodings = {record.spec.encode().tobytes() for record in first.history}
        modelled = {row.tobytes() for row in surrogate._x_train.astype(np.int64)}
        assert modelled == encodings  # only the new history's points are modelled

    def test_surrogate_persists_across_iterations(self):
        optimizer = BayesianOptimizer(
            self._space(),
            _CountingObjective(),
            initial_points=3,
            batch_size=1,
            candidate_pool_size=8,
            rng=1,
        )
        optimizer.optimize(2)
        first = optimizer._surrogate
        assert first is not None
        optimizer.optimize(2)
        assert optimizer._surrogate is first  # updated in place, never rebuilt
        # the surrogate lags by the final (not yet absorbed) batch; one more
        # fit call absorbs it through the incremental path
        optimizer._fit_surrogate()
        assert optimizer._surrogate is first
        assert len(first._x_train) == len(optimizer.history)
