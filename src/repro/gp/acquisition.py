"""Acquisition functions for Bayesian optimization.

All acquisitions are written for **minimisation** of the objective (the paper
minimises the ANN→SNN accuracy drop) and return scores where *larger is
better* — the optimizer picks ``argmax`` over candidate scores.

The paper uses the Upper Confidence Bound (Auer, 2002 — reference [13]):
it "shifts from concentrating on exploration ... to focusing on
exploitation"; we implement the standard ``mean - kappa * std`` lower
confidence bound for minimisation (often still called UCB in the BO
literature) with an optional schedule that decays ``kappa`` over iterations.
Expected Improvement and Probability of Improvement are provided as the
common alternatives mentioned in Section III-B.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, ``scipy.special.ndtr``, imported on first use.

    UCB, the paper's acquisition and the default, needs no CDF, so a search
    without constraints never loads ``scipy.special``; EI, PI and
    :func:`probability_in_bounds` pay for the import at their first call.
    """
    from scipy.special import ndtr

    return ndtr(z)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density, written exactly as SciPy's own ``_norm_pdf``."""
    return np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)


class AcquisitionFunction:
    """Base class; subclasses score candidate points given the GP posterior."""

    #: registry name used by :func:`get_acquisition`
    name = "base"

    def __call__(
        self,
        mean: np.ndarray,
        std: np.ndarray,
        best_observed: float,
        iteration: int = 0,
    ) -> np.ndarray:
        """Return per-candidate scores (larger = more promising to evaluate)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v}" for k, v in vars(self).items())
        return f"{type(self).__name__}({params})"


class UpperConfidenceBound(AcquisitionFunction):
    """Confidence-bound acquisition for minimisation.

    score = -(mean - kappa * std)

    ``kappa`` controls the exploration/exploitation balance; with
    ``decay < 1`` the effective kappa shrinks as ``kappa * decay**iteration``,
    reproducing the paper's description of UCB moving from exploration to
    exploitation over the course of the search.
    """

    name = "ucb"

    def __init__(self, kappa: float = 2.0, decay: float = 0.97, min_kappa: float = 0.1) -> None:
        if kappa <= 0:
            raise ValueError(f"kappa must be positive, got {kappa}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.kappa = float(kappa)
        self.decay = float(decay)
        self.min_kappa = float(min_kappa)

    def effective_kappa(self, iteration: int) -> float:
        """Exploration weight at a given iteration."""
        return max(self.kappa * self.decay ** iteration, self.min_kappa)

    def __call__(self, mean, std, best_observed, iteration: int = 0) -> np.ndarray:
        kappa = self.effective_kappa(iteration)
        return -(mean - kappa * std)


class ExpectedImprovement(AcquisitionFunction):
    """Expected improvement over the best observed objective value."""

    name = "ei"

    def __init__(self, xi: float = 0.01) -> None:
        if xi < 0:
            raise ValueError(f"xi must be non-negative, got {xi}")
        self.xi = float(xi)

    def __call__(self, mean, std, best_observed, iteration: int = 0) -> np.ndarray:
        std = np.maximum(std, 1e-12)
        improvement = best_observed - mean - self.xi
        z = improvement / std
        return improvement * _ndtr(z) + std * _norm_pdf(z)


class ProbabilityOfImprovement(AcquisitionFunction):
    """Probability that a candidate improves on the best observed value."""

    name = "pi"

    def __init__(self, xi: float = 0.01) -> None:
        if xi < 0:
            raise ValueError(f"xi must be non-negative, got {xi}")
        self.xi = float(xi)

    def __call__(self, mean, std, best_observed, iteration: int = 0) -> np.ndarray:
        std = np.maximum(std, 1e-12)
        z = (best_observed - mean - self.xi) / std
        return _ndtr(z)


def probability_in_bounds(
    mean: np.ndarray,
    std: np.ndarray,
    lower: Optional[float] = None,
    upper: Optional[float] = None,
) -> np.ndarray:
    """Gaussian probability that each candidate's value lands in ``[lower, upper]``.

    The feasibility model behind constrained acquisition: a constraint
    ``g(x) <= budget`` is scored as ``P(g(x) <= budget)`` under the GP
    posterior of ``g``.  ``None`` bounds are open; with both bounds set the
    exact interval probability ``cdf(upper) - cdf(lower)`` is returned (not
    the product of the one-sided probabilities, which overestimates it).  A
    degenerate posterior (``std ~ 0``) degrades to the 0/1 indicator of the
    mean.
    """
    std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
    mean = np.asarray(mean, dtype=np.float64)
    upper_cdf = _ndtr((float(upper) - mean) / std) if upper is not None else np.ones_like(mean)
    lower_cdf = _ndtr((float(lower) - mean) / std) if lower is not None else np.zeros_like(mean)
    return np.maximum(upper_cdf - lower_cdf, 0.0)


def feasibility_weighted(scores: np.ndarray, probability: np.ndarray) -> np.ndarray:
    """Weight acquisition scores by a feasibility probability.

    Classic constrained EI multiplies the (non-negative) acquisition by the
    feasibility probability; confidence-bound scores can be negative, so the
    scores are first shifted to a non-negative scale (which preserves their
    ``argmax``) before weighting.  A tiny range-scaled floor keeps the
    feasibility signal decisive even when the shifted worst score is zero.
    """
    scores = np.asarray(scores, dtype=np.float64)
    probability = np.asarray(probability, dtype=np.float64)
    if scores.size == 0:
        return scores
    spread = float(scores.max() - scores.min())
    floor = 1e-3 * spread if spread > 0 else 1.0
    return (scores - scores.min() + floor) * probability


_REGISTRY = {cls.name: cls for cls in (UpperConfidenceBound, ExpectedImprovement, ProbabilityOfImprovement)}


def get_acquisition(name_or_instance, **kwargs) -> AcquisitionFunction:
    """Resolve an acquisition by name (``"ucb"``, ``"ei"``, ``"pi"``) or pass through."""
    if isinstance(name_or_instance, AcquisitionFunction):
        return name_or_instance
    name = str(name_or_instance)
    if name not in _REGISTRY:
        raise KeyError(f"unknown acquisition {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)
