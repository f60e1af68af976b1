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

Two incremental extensions keep the Bayesian-optimization loop out of the
O(n^3)-per-step regime:

* :meth:`GaussianProcessRegressor.update` observes new points by *extending*
  the cached Cholesky factor with a rank-k block update — O(n^2 k) instead of
  the O(n^3) full refit (the factored matrix ``K + (noise + jitter) I`` does
  not depend on the targets, so target re-standardisation stays exact);
* :class:`FantasizedPosterior` is a lightweight constant-liar view over a
  fixed candidate pool: the train-pool cross-kernel block is computed once and
  every fantasy observation ("lie") is a rank-1 extension, so proposing a
  batch of k candidates costs O(k (n^2 + n m)) instead of k full refits.
"""

from __future__ import annotations

import copy
from typing import Optional, Tuple

import numpy as np

from repro.gp.kernels import Kernel, Matern52Kernel
from repro.gp.lapack import cholesky, solve_triangular


def _ensure_capacity(
    buffer: Optional[np.ndarray], factor: np.ndarray, needed: int, slack: int
) -> np.ndarray:
    """Return a zeroed square buffer of size >= ``needed`` holding ``factor``.

    The single growth policy behind every incrementally-extended Cholesky
    factor in this module: if ``buffer`` already has the capacity it is
    returned untouched (the factor is assumed to live in its top-left
    corner); otherwise a fresh zeroed buffer with ``slack`` spare rows is
    allocated and the factor copied once — amortised O(1) per extension.
    """
    if buffer is not None and buffer.shape[0] >= needed:
        return buffer
    capacity = max(64, needed + slack)
    grown = np.zeros((capacity, capacity))
    n = factor.shape[0]
    grown[:n, :n] = factor
    return grown


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
                factor = cholesky(gram + jitter * np.eye(len(x)))
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        else:  # pragma: no cover - pathological kernels only
            raise RuntimeError("GP covariance matrix is not positive definite even with jitter")
        self._jitter = jitter
        self._install_factor(factor)
        self._refresh_targets()
        return self

    def _install_factor(self, factor: np.ndarray) -> None:
        """Move a fresh Cholesky factor into a buffer with spare capacity.

        ``_cholesky`` is a view into ``_chol_buffer``; :meth:`update` writes
        the new rank-k block straight into the spare rows, so growing the
        factor costs no O(n^2) copy until the capacity is exhausted (then one
        amortised reallocation).
        """
        n = factor.shape[0]
        self._chol_buffer = _ensure_capacity(None, factor, n, n // 2)
        self._cholesky = self._chol_buffer[:n, :n]

    def _refresh_targets(self) -> None:
        """Re-standardise the raw targets and recompute ``alpha`` — O(n^2).

        The Cholesky factor depends only on ``X``, the kernel and the noise, so
        both :meth:`fit` and :meth:`update` share this exact O(n^2) tail.
        """
        y = self._y_raw
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

    def update(self, x_new: np.ndarray, y_new: np.ndarray) -> "GaussianProcessRegressor":
        """Observe new points with a rank-k Cholesky extension — O(n^2 k).

        Produces the same posterior as refitting on the concatenated data (to
        floating-point rounding): the extended matrix uses the jitter of the
        cached factor, and targets are re-standardised exactly as in
        :meth:`fit`.  When the extension is numerically unstable (e.g. the new
        points duplicate training points so the Schur complement loses positive
        definiteness) the method falls back to a full refit, which re-runs the
        jitter escalation.
        """
        x_new = np.asarray(x_new, dtype=np.float64)
        y_new = np.asarray(y_new, dtype=np.float64).reshape(-1)
        if x_new.ndim == 1:
            # mirror fit(): 1-D inputs are a column of scalar points
            x_new = x_new.reshape(-1, 1)
        if x_new.shape[0] != y_new.shape[0]:
            raise ValueError(
                f"x and y disagree on the number of points: {x_new.shape[0]} vs {y_new.shape[0]}"
            )
        if x_new.shape[0] == 0:
            return self
        if not self.is_fitted:
            return self.fit(x_new, y_new)
        if x_new.shape[1] != self._x_train.shape[1]:
            raise ValueError(
                f"new points have {x_new.shape[1]} features, training data has {self._x_train.shape[1]}"
            )

        x_all = np.concatenate([self._x_train, x_new], axis=0)
        y_all = np.concatenate([self._y_raw, y_new])

        k_cross = self.kernel(self._x_train, x_new)  # (n, k)
        k_new = self.kernel(x_new, x_new)  # (k, k)
        k_new[np.diag_indices_from(k_new)] += self.noise + self._jitter
        l21 = solve_triangular(self._cholesky, k_cross)  # (n, k)
        schur = k_new - l21.T @ l21
        # conditioning guard: a near-singular Schur complement (new points
        # duplicating training points) would make the extension numerically
        # worthless — take the jitter-escalation path through a full refit
        tiny = 1e-8 * float(np.max(np.diag(k_new)))
        if np.any(np.diag(schur) <= tiny):
            return self.fit(x_all, y_all)
        try:
            l22 = cholesky(schur)
        except np.linalg.LinAlgError:
            return self.fit(x_all, y_all)

        n, k = self._cholesky.shape[0], x_new.shape[0]
        total = n + k
        self._chol_buffer = _ensure_capacity(self._chol_buffer, self._cholesky, total, total // 2)
        self._chol_buffer[n:total, :n] = l21.T
        self._chol_buffer[n:total, n:total] = l22
        self._cholesky = self._chol_buffer[:total, :total]
        self._x_train = x_all
        self._y_raw = y_all
        self._refresh_targets()
        return self

    def fantasize(self, pool: np.ndarray) -> "FantasizedPosterior":
        """Constant-liar view of this posterior over a fixed candidate ``pool``."""
        if not self.is_fitted:
            raise RuntimeError("GP is not fitted; fantasize() needs a posterior to condition")
        return FantasizedPosterior(self, pool)

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


class FantasizedPosterior:
    """Incremental constant-liar posterior over a fixed candidate pool.

    Built once per proposal round from a fitted GP, this caches the two
    quantities every prediction needs —

        beta = L^-1 y_std            (n,)
        V    = L^-1 K(X, pool)       (n, m)

    — so that the pool posterior is ``mean = V^T beta`` and
    ``var = diag(K(pool, pool)) - sum(V^2, axis=0)`` in O(n m), with no
    re-factorisation.  :meth:`condition` adds a fantasy observation (a "lie")
    by extending ``L`` one rank at a time: the new row of ``V`` and entry of
    ``beta`` each cost O(n^2 + n m), versus the O((n+j)^3) refit the naive
    constant-liar loop performs per lie.

    Fantasy targets are standardised with the *base* GP's statistics (lies
    never shift the target normalisation), so conditioning is a pure posterior
    update of the fitted model.  The base GP itself is never mutated.
    """

    def __init__(self, gp: GaussianProcessRegressor, pool: np.ndarray) -> None:
        pool = np.asarray(pool, dtype=np.float64)
        if pool.ndim == 1:
            pool = pool.reshape(1, -1)
        if pool.shape[1] != gp._x_train.shape[1]:
            raise ValueError(
                f"pool has {pool.shape[1]} features, training data has {gp._x_train.shape[1]}"
            )
        self.kernel = gp.kernel
        self._y_mean = gp._y_mean
        self._y_std = gp._y_std
        self._diag_shift = gp.noise + gp._jitter
        self._x = gp._x_train
        # private factor buffer with slack for a typical batch of lies; the
        # base GP's factor is copied once per proposal round, never per lie
        n = gp._cholesky.shape[0]
        self._buffer = _ensure_capacity(None, gp._cholesky, n, 8)
        self._chol = self._buffer[:n, :n]
        self._beta = solve_triangular(gp._cholesky, gp._y_train)
        self._pool = pool
        self._v = solve_triangular(gp._cholesky, self.kernel(gp._x_train, pool))  # (n, m)
        self._prior_diag = self.kernel.diag(pool)
        self.num_fantasies = 0

    # ------------------------------------------------------------------
    @property
    def pool_size(self) -> int:
        """Number of candidates still in the pool."""
        return self._pool.shape[0]

    def predict(self) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation over the remaining pool."""
        mean = self._v.T @ self._beta * self._y_std + self._y_mean
        var = np.maximum(self._prior_diag - (self._v ** 2).sum(axis=0), 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def remove(self, index: int) -> np.ndarray:
        """Drop pool candidate ``index`` (e.g. once proposed); returns its encoding."""
        chosen = self._pool[index].copy()
        self._pool = np.delete(self._pool, index, axis=0)
        self._v = np.delete(self._v, index, axis=1)
        self._prior_diag = np.delete(self._prior_diag, index)
        return chosen

    def condition(self, x: np.ndarray, y: float) -> "FantasizedPosterior":
        """Add one fantasy observation ``(x, y)`` via a rank-1 extension."""
        x = np.asarray(x, dtype=np.float64).reshape(1, -1)
        k_x = self.kernel(self._x, x)[:, 0]  # (n,)
        ell = solve_triangular(self._chol, k_x)
        k_self = float(self.kernel.diag(x)[0]) + self._diag_shift
        # clamp rather than escalate jitter: lies near training points carry no
        # new information, and the fantasy posterior only steers one proposal
        d = np.sqrt(max(k_self - float(ell @ ell), 1e-12))

        n = self._chol.shape[0]
        self._buffer = _ensure_capacity(self._buffer, self._chol, n + 1, 8)
        self._buffer[n, :n] = ell
        self._buffer[n, n] = d
        self._chol = self._buffer[: n + 1, : n + 1]
        self._x = np.concatenate([self._x, x], axis=0)

        y_standardised = (float(y) - self._y_mean) / self._y_std
        beta_new = (y_standardised - float(ell @ self._beta)) / d
        self._beta = np.append(self._beta, beta_new)

        if self.pool_size:
            row = (self.kernel(x, self._pool)[0] - ell @ self._v) / d
        else:
            row = np.zeros(0)
        self._v = np.concatenate([self._v, row.reshape(1, -1)], axis=0)
        self.num_fantasies += 1
        return self
