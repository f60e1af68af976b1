"""Exact Gaussian-process regression.

Implements the textbook GP posterior (Rasmussen & Williams, 2006, Algorithm
2.1): given observations ``(X, y)``, kernel ``k`` and noise variance
``sigma^2``,

    L = cholesky(K(X, X) + sigma^2 I)
    alpha = L^-T L^-1 y
    mean(x*)  = k(x*, X) alpha
    var(x*)   = k(x*, x*) - || L^-1 k(X, x*) ||^2

Targets are standardised internally so kernel hyperparameters on the default
scale work across objectives of very different magnitude (accuracy drops in
[0, 1] vs. percentages).  This is the surrogate model used by the paper's
Bayesian optimizer (Section III-B, "The Prior").

The Bayesian optimizer refits the posterior from its whole history at every
proposal: at the sizes a search reaches (tens of observations) a full
O(n^3) fit costs about the same as a rank-1 Cholesky extension, and a fit
is one code path with one jitter policy.  A constant-liar fantasy
(:meth:`GaussianProcessRegressor.fantasize`) is a refit too.
"""

from __future__ import annotations

import copy
from typing import Optional, Tuple

import numpy as np

from repro.gp.kernels import Kernel, Matern52Kernel
from repro.gp.lapack import cholesky, solve_triangular


class GaussianProcessRegressor:
    """Exact GP regression with a fixed kernel and observation noise.

    Parameters
    ----------
    kernel:
        Covariance function; defaults to Matérn 5/2 with unit length scale.
    noise:
        Observation noise variance added to the kernel diagonal.  The paper's
        objective (validation accuracy after a short fine-tune) is noisy, so a
        non-trivial default is used.
    normalize_y:
        When ``True`` (default) targets are standardised to zero mean / unit
        variance before fitting and predictions are transformed back.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise: float = 1e-4,
        normalize_y: bool = True,
    ) -> None:
        if noise < 0:
            raise ValueError(f"noise must be non-negative, got {noise}")
        self.kernel = kernel if kernel is not None else Matern52Kernel()
        self.noise = float(noise)
        self.normalize_y = bool(normalize_y)
        self._x_train: Optional[np.ndarray] = None
        self._y_train: Optional[np.ndarray] = None
        self._y_raw: Optional[np.ndarray] = None
        self._y_mean: float = 0.0
        self._y_std: float = 1.0
        self._cholesky: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        #: the diagonal jitter the last fit needed for a stable Cholesky
        self._jitter: float = 0.0

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called with at least one observation."""
        return self._x_train is not None and len(self._x_train) > 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Fit the posterior to observations ``x`` (n, d) and targets ``y`` (n,)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x and y disagree on the number of points: {x.shape[0]} vs {y.shape[0]}")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a GP to zero observations")

        self._x_train = x
        self._y_raw = y

        gram = self.kernel(x, x)
        gram[np.diag_indices_from(gram)] += self.noise
        # jitter escalation keeps the Cholesky stable for near-duplicate points
        jitter = 1e-10
        for _ in range(8):
            try:
                self._cholesky = cholesky(gram + jitter * np.eye(len(x)))
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        else:  # pragma: no cover - pathological kernels only
            raise RuntimeError("GP covariance matrix is not positive definite even with jitter")
        self._jitter = jitter

        if self.normalize_y:
            self._y_mean = float(y.mean())
            self._y_std = float(y.std())
            if self._y_std < 1e-12:
                self._y_std = 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        self._y_train = (y - self._y_mean) / self._y_std
        # two triangular solves instead of cho_solve: no O(n^2) finiteness
        # re-validation of a factor we built and already trust
        beta = solve_triangular(self._cholesky, self._y_train)
        self._alpha = solve_triangular(self._cholesky, beta, trans="T")
        return self

    def update(self, x_new: np.ndarray, y_new: np.ndarray) -> "GaussianProcessRegressor":
        """Observe new points: :meth:`fit` on the training data joined with them."""
        x_new = np.asarray(x_new, dtype=np.float64)
        y_new = np.asarray(y_new, dtype=np.float64).reshape(-1)
        if x_new.ndim == 1:
            # mirror fit(): 1-D inputs are a column of scalar points
            x_new = x_new.reshape(-1, 1)
        if not self.is_fitted:
            return self.fit(x_new, y_new)
        if x_new.shape[1] != self._x_train.shape[1]:
            raise ValueError(
                f"new points have {x_new.shape[1]} features, training data has {self._x_train.shape[1]}"
            )
        return self.fit(np.concatenate([self._x_train, x_new]), np.concatenate([self._y_raw, y_new]))

    def fantasize(self, x_lies: np.ndarray, y_lies: np.ndarray) -> "GaussianProcessRegressor":
        """Constant-liar posterior: a new GP refitted with fantasy observations appended.

        The lies are standardised with this GP's target mean and std, so they
        never shift the normalisation; this GP is left unchanged.
        """
        if not self.is_fitted:
            raise RuntimeError("GP is not fitted; fantasize() needs a posterior to condition")
        x_lies = np.asarray(x_lies, dtype=np.float64).reshape(-1, self._x_train.shape[1])
        y_lies = (np.asarray(y_lies, dtype=np.float64).reshape(-1) - self._y_mean) / self._y_std
        fantasy = GaussianProcessRegressor(self.kernel, self.noise, normalize_y=False)
        fantasy.fit(np.concatenate([self._x_train, x_lies]), np.concatenate([self._y_train, y_lies]))
        fantasy._y_mean, fantasy._y_std = self._y_mean, self._y_std
        return fantasy

    def predict(self, x: np.ndarray, return_std: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and standard deviation) at query points ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if not self.is_fitted:
            mean = np.zeros(x.shape[0]) + self._y_mean
            std = np.ones(x.shape[0])
            return (mean, std) if return_std else (mean, np.zeros_like(mean))

        k_star = self.kernel(self._x_train, x)  # (n_train, n_query)
        mean = k_star.T @ self._alpha
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean, np.zeros_like(mean)
        v = solve_triangular(self._cholesky, k_star)
        prior_var = self.kernel.diag(x)
        var = np.maximum(prior_var - (v ** 2).sum(axis=0), 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood of the standardised training targets."""
        if not self.is_fitted:
            raise RuntimeError("GP is not fitted")
        n = len(self._y_train)
        data_fit = -0.5 * float(self._y_train @ self._alpha)
        complexity = -float(np.sum(np.log(np.diag(self._cholesky))))
        return data_fit + complexity - 0.5 * n * np.log(2.0 * np.pi)

    def sample_posterior(self, x: np.ndarray, num_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``num_samples`` joint posterior function samples at points ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        mean, _ = self.predict(x, return_std=False)
        if not self.is_fitted:
            cov = self.kernel(x, x)
        else:
            k_star = self.kernel(self._x_train, x)
            v = solve_triangular(self._cholesky, k_star)
            cov = self.kernel(x, x) - v.T @ v
            cov *= self._y_std ** 2
        cov[np.diag_indices_from(cov)] += 1e-10
        # "eigh" tolerates the slight asymmetry / near-singularity of GP posteriors
        return rng.multivariate_normal(mean, cov, size=num_samples, method="eigh")


def tune_kernel(
    kernel: Kernel,
    x: np.ndarray,
    y: np.ndarray,
    noise: float,
    factors: Tuple[float, ...] = (0.25, 0.5, 2.0, 4.0),
    rounds: int = 2,
) -> Tuple[Kernel, float]:
    """Retune a kernel's scalar hyperparameters by marginal likelihood.

    Coordinate descent over the kernel's :attr:`~repro.gp.kernels.Kernel.TUNABLE`
    parameters (length scale / gamma and signal variance): each round tries
    multiplying every parameter in turn by each ``factor`` and keeps the value
    with the best log marginal likelihood, evaluated by a full GP fit on
    ``(x, y)``.  The grid is deterministic — no random restarts — so a seeded
    search that adapts its hyperparameters stays reproducible.

    Each candidate evaluation is an O(n^3) fit; the Bayesian optimizer
    amortises the cost by calling this only every ``hyperopt_every``
    observations (see :class:`~repro.core.bayes_opt.BayesianOptimizer`).

    Returns ``(kernel, lml)`` — a **new** kernel instance (the input is never
    mutated; it is returned unchanged when it has no tunables or already
    maximises the likelihood over the grid) and the winning log marginal
    likelihood.
    """

    def lml(candidate: Kernel) -> float:
        model = GaussianProcessRegressor(kernel=candidate, noise=noise)
        model.fit(x, y)
        return model.log_marginal_likelihood()

    best = kernel
    best_lml = lml(kernel)
    if not kernel.TUNABLE:
        return best, best_lml
    for _ in range(max(1, int(rounds))):
        improved = False
        for name in best.TUNABLE:
            current = float(getattr(best, name))
            for factor in factors:
                candidate = copy.copy(best)
                setattr(candidate, name, current * factor)
                try:
                    candidate_lml = lml(candidate)
                except (np.linalg.LinAlgError, RuntimeError):  # pragma: no cover
                    continue
                if candidate_lml > best_lml + 1e-12:
                    best, best_lml = candidate, candidate_lml
                    improved = True
        if not improved:
            break
    return best, best_lml
