"""Tests of the Gaussian-process substrate: kernels, regression, acquisitions."""

import numpy as np
import pytest

from repro.gp import (
    ExpectedImprovement,
    GaussianProcessRegressor,
    HammingKernel,
    Matern52Kernel,
    ProbabilityOfImprovement,
    RBFKernel,
    UpperConfidenceBound,
    get_acquisition,
)


class TestKernels:
    @pytest.mark.parametrize("kernel", [RBFKernel(), Matern52Kernel(), HammingKernel()])
    def test_symmetry(self, rng, kernel):
        x = rng.integers(0, 3, size=(6, 5)).astype(float)
        gram = kernel(x, x)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)

    @pytest.mark.parametrize("kernel", [RBFKernel(), Matern52Kernel(), HammingKernel()])
    def test_diagonal_is_variance(self, rng, kernel):
        x = rng.normal(size=(4, 3))
        gram = kernel(x, x)
        np.testing.assert_allclose(np.diag(gram), kernel.diag(x), atol=1e-12)
        np.testing.assert_allclose(np.diag(gram), np.ones(4), atol=1e-12)

    @pytest.mark.parametrize("kernel", [RBFKernel(), Matern52Kernel(), HammingKernel()])
    def test_positive_semidefinite(self, rng, kernel):
        x = rng.integers(0, 3, size=(8, 6)).astype(float)
        gram = kernel(x, x)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-9

    def test_rbf_decreases_with_distance(self):
        kernel = RBFKernel(length_scale=1.0)
        near = kernel(np.zeros((1, 2)), np.full((1, 2), 0.1))[0, 0]
        far = kernel(np.zeros((1, 2)), np.full((1, 2), 3.0))[0, 0]
        assert near > far

    def test_rbf_identical_points_equal_variance(self):
        kernel = RBFKernel(variance=2.0)
        assert kernel(np.zeros((1, 3)), np.zeros((1, 3)))[0, 0] == pytest.approx(2.0)

    def test_hamming_counts_mismatches(self):
        kernel = HammingKernel(gamma=1.0)
        a = np.array([[0, 1, 2, 0]])
        b = np.array([[0, 1, 2, 1]])  # one mismatch out of 4
        assert kernel(a, b)[0, 0] == pytest.approx(np.exp(-0.25))

    def test_hamming_ignores_label_magnitude(self):
        kernel = HammingKernel()
        a, b = np.array([[0, 2]]), np.array([[0, 1]])
        c, d = np.array([[0, 1]]), np.array([[0, 2]])
        assert kernel(a, b)[0, 0] == pytest.approx(kernel(c, d)[0, 0])

    def test_matern_smoothness_params_validated(self):
        with pytest.raises(ValueError):
            Matern52Kernel(length_scale=-1.0)
        with pytest.raises(ValueError):
            RBFKernel(variance=0.0)
        with pytest.raises(ValueError):
            HammingKernel(gamma=0.0)

    def test_one_dimensional_input_promoted(self):
        kernel = RBFKernel()
        assert kernel(np.array([1.0, 2.0]), np.array([1.0, 2.0])).shape == (1, 1)


class TestGaussianProcess:
    def test_interpolates_training_points_with_small_noise(self, rng):
        x = rng.uniform(-2, 2, size=(8, 1))
        y = np.sin(x[:, 0])
        gp = GaussianProcessRegressor(RBFKernel(length_scale=0.7), noise=1e-8)
        gp.fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-4)
        assert np.all(std < 0.05)

    def test_uncertainty_grows_away_from_data(self, rng):
        x = rng.uniform(-1, 1, size=(6, 1))
        y = x[:, 0] ** 2
        gp = GaussianProcessRegressor(RBFKernel(), noise=1e-6).fit(x, y)
        _, std_near = gp.predict(np.array([[0.0]]))
        _, std_far = gp.predict(np.array([[5.0]]))
        assert std_far[0] > std_near[0]

    def test_prediction_before_fit_returns_prior(self):
        gp = GaussianProcessRegressor()
        mean, std = gp.predict(np.zeros((3, 2)))
        np.testing.assert_allclose(mean, np.zeros(3))
        np.testing.assert_allclose(std, np.ones(3))

    def test_normalization_handles_large_targets(self, rng):
        x = rng.uniform(-1, 1, size=(10, 2))
        y = 1000.0 + 50.0 * x[:, 0]
        gp = GaussianProcessRegressor(RBFKernel(), noise=1e-6).fit(x, y)
        mean, _ = gp.predict(x)
        assert abs(mean.mean() - y.mean()) < 5.0

    def test_reasonable_generalisation(self, rng):
        x = np.linspace(-3, 3, 25).reshape(-1, 1)
        y = np.sin(x[:, 0])
        gp = GaussianProcessRegressor(RBFKernel(length_scale=1.0), noise=1e-6).fit(x, y)
        query = np.array([[0.5]])
        mean, _ = gp.predict(query)
        assert abs(mean[0] - np.sin(0.5)) < 0.05

    def test_log_marginal_likelihood_prefers_good_lengthscale(self, rng):
        x = np.linspace(-3, 3, 20).reshape(-1, 1)
        y = np.sin(x[:, 0])
        good = GaussianProcessRegressor(RBFKernel(length_scale=1.0), noise=1e-4).fit(x, y)
        bad = GaussianProcessRegressor(RBFKernel(length_scale=0.01), noise=1e-4).fit(x, y)
        assert good.log_marginal_likelihood() > bad.log_marginal_likelihood()

    def test_duplicate_points_do_not_crash(self):
        x = np.zeros((5, 3))
        y = np.ones(5)
        gp = GaussianProcessRegressor(HammingKernel(), noise=1e-6).fit(x, y)
        mean, std = gp.predict(np.zeros((1, 3)))
        assert np.isfinite(mean).all() and np.isfinite(std).all()

    def test_shape_validation(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))

    def test_posterior_samples_shape(self, rng):
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        gp = GaussianProcessRegressor(RBFKernel(), noise=1e-4).fit(x, y)
        samples = gp.sample_posterior(rng.normal(size=(4, 2)), num_samples=3, rng=rng)
        assert samples.shape == (3, 4)

    def test_categorical_objective_with_hamming_kernel(self, rng):
        """GP over a discrete encoding must rank a clearly better region first."""
        x = rng.integers(0, 3, size=(30, 6)).astype(float)
        y = (x == 2).sum(axis=1) * 0.1  # objective: fewer 2s is better (minimisation)
        gp = GaussianProcessRegressor(HammingKernel(gamma=2.0), noise=1e-4).fit(x, y)
        good = np.zeros((1, 6))
        bad = np.full((1, 6), 2.0)
        mean_good, _ = gp.predict(good)
        mean_bad, _ = gp.predict(bad)
        assert mean_good[0] < mean_bad[0]


def _categorical(rng, total, dim):
    return rng.integers(0, 3, size=(total, dim)).astype(np.float64)


KERNELS = [RBFKernel(), Matern52Kernel(), HammingKernel()]


class TestUpdateAndFantasy:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_is_a_fit_on_the_joined_data(self, kernel, seed):
        """Rank-1 and rank-3 updates give the posterior of one fit, bit for bit."""
        rng = np.random.default_rng(seed)
        x, y = _categorical(rng, 20, 7), rng.normal(size=20)
        updated = GaussianProcessRegressor(kernel, noise=1e-3).update(x[:8], y[:8])  # unfitted: a fit
        for start, stop in ((8, 9), (9, 12), (12, 20)):
            updated.update(x[start:stop], y[start:stop])
        full = GaussianProcessRegressor(kernel, noise=1e-3).fit(x, y)
        query = _categorical(rng, 25, 7)
        for got, want in zip(updated.predict(query), full.predict(query)):
            np.testing.assert_array_equal(got, want)
        assert updated.log_marginal_likelihood() == full.log_marginal_likelihood()

    def test_update_validation(self):
        gp = GaussianProcessRegressor(RBFKernel(), noise=1e-4).fit(np.zeros((3, 2)), np.arange(3.0))
        with pytest.raises(ValueError):
            gp.update(np.zeros((2, 2)), np.zeros(3))  # count mismatch
        with pytest.raises(ValueError):
            gp.update(np.zeros((2, 5)), np.zeros(2))  # feature mismatch
        gp.update(np.zeros((0, 2)), np.zeros(0))  # an empty update observes nothing
        assert len(gp._x_train) == 3

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fantasy_keeps_the_base_target_scaling(self, kernel):
        """Lies are standardised with the base GP's mean and std, which they never shift."""
        rng = np.random.default_rng(6)
        x, y, lies = _categorical(rng, 30, 6), rng.normal(size=30), _categorical(rng, 3, 6)
        gp = GaussianProcessRegressor(kernel, noise=1e-3).fit(x, y)
        fantasy = gp.fantasize(lies, [y.min()] * 3)
        assert (fantasy._y_mean, fantasy._y_std) == (gp._y_mean, gp._y_std)

        standardised = (np.concatenate([y, [y.min()] * 3]) - gp._y_mean) / gp._y_std
        reference = GaussianProcessRegressor(kernel, noise=1e-3, normalize_y=False)
        reference.fit(np.concatenate([x, lies]), standardised)
        pool = _categorical(rng, 12, 6)
        mean_ref, std_ref = reference.predict(pool)
        mean, std = fantasy.predict(pool)
        np.testing.assert_allclose(mean, mean_ref * gp._y_std + gp._y_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(std, std_ref * gp._y_std, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fantasy_leaves_the_base_gp_unchanged(self, kernel):
        rng = np.random.default_rng(8)
        gp = GaussianProcessRegressor(kernel, noise=1e-3).fit(_categorical(rng, 10, 4), rng.normal(size=10))
        pool = _categorical(rng, 5, 4)
        before, factor = gp.predict(pool), gp._cholesky.copy()
        assert len(gp.fantasize(pool[:1], [0.0])._x_train) == 11
        assert len(gp._x_train) == 10
        np.testing.assert_array_equal(gp._cholesky, factor)
        for got, want in zip(gp.predict(pool), before):
            np.testing.assert_array_equal(got, want)
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().fantasize(np.zeros((2, 3)), np.zeros(2))  # nothing to condition


class TestAcquisitions:
    def test_ucb_prefers_low_mean_and_high_std(self):
        acq = UpperConfidenceBound(kappa=1.0, decay=1.0)
        scores = acq(np.array([0.5, 0.5, 0.2]), np.array([0.0, 0.5, 0.0]), best_observed=0.4)
        assert np.argmax(scores) in (1, 2)
        # low mean wins when stds are equal
        scores2 = acq(np.array([0.5, 0.2]), np.array([0.1, 0.1]), best_observed=0.4)
        assert np.argmax(scores2) == 1

    def test_ucb_kappa_decay(self):
        acq = UpperConfidenceBound(kappa=2.0, decay=0.5, min_kappa=0.1)
        assert acq.effective_kappa(0) == 2.0
        assert acq.effective_kappa(1) == 1.0
        assert acq.effective_kappa(100) == pytest.approx(0.1)

    def test_ei_zero_when_no_improvement_possible(self):
        acq = ExpectedImprovement(xi=0.0)
        scores = acq(np.array([1.0]), np.array([1e-9]), best_observed=0.0)
        assert scores[0] == pytest.approx(0.0, abs=1e-6)

    def test_ei_positive_when_improvement_likely(self):
        acq = ExpectedImprovement(xi=0.0)
        scores = acq(np.array([-1.0]), np.array([0.1]), best_observed=0.0)
        assert scores[0] > 0.9

    def test_pi_bounded_in_unit_interval(self, rng):
        acq = ProbabilityOfImprovement()
        scores = acq(rng.normal(size=10), np.abs(rng.normal(size=10)) + 0.01, best_observed=0.0)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_registry(self):
        assert isinstance(get_acquisition("ucb"), UpperConfidenceBound)
        assert isinstance(get_acquisition("ei"), ExpectedImprovement)
        assert isinstance(get_acquisition("pi"), ProbabilityOfImprovement)
        instance = UpperConfidenceBound()
        assert get_acquisition(instance) is instance
        with pytest.raises(KeyError):
            get_acquisition("nope")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UpperConfidenceBound(kappa=-1.0)
        with pytest.raises(ValueError):
            ExpectedImprovement(xi=-0.1)
        with pytest.raises(ValueError):
            UpperConfidenceBound(kappa=1.0, decay=1.5)
