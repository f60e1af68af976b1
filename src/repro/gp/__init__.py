"""Gaussian-process regression and acquisition functions for Bayesian optimization.

The paper's hyperparameter-optimization strategy (Section III-B) models the
accuracy drop ``f(A)`` over adjacency matrices ``A`` with a Gaussian process
prior and selects new candidates with the Upper Confidence Bound acquisition
function.  This package provides the required machinery:

* :mod:`repro.gp.kernels` — RBF and Matérn kernels over continuous encodings
  plus a Hamming kernel tailored to the discrete adjacency-matrix encoding;
* :mod:`repro.gp.gp` — exact GP regression (Cholesky-based) with observation
  noise and standardised targets;
* :mod:`repro.gp.acquisition` — UCB (used by the paper), Expected Improvement
  and Probability of Improvement (mentioned as the common alternatives).
"""

from repro._lazy import lazy_exports

# each name's module is imported on first access (PEP 562, see repro._lazy)
_LAZY_EXPORTS = {
    "HammingKernel": "repro.gp.kernels",
    "Kernel": "repro.gp.kernels",
    "Matern52Kernel": "repro.gp.kernels",
    "RBFKernel": "repro.gp.kernels",
    "GaussianProcessRegressor": "repro.gp.gp",
    "tune_kernel": "repro.gp.gp",
    "AcquisitionFunction": "repro.gp.acquisition",
    "ExpectedImprovement": "repro.gp.acquisition",
    "ProbabilityOfImprovement": "repro.gp.acquisition",
    "UpperConfidenceBound": "repro.gp.acquisition",
    "get_acquisition": "repro.gp.acquisition",
}
__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
