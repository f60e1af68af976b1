"""The GP's LAPACK wrappers are bit-identical to ``scipy.linalg``.

:mod:`repro.gp.lapack` loads scipy's ``_flapack`` extension without
importing ``scipy.linalg`` and mirrors scipy's ``cholesky`` and
``solve_triangular`` call for call.  Pinned here:

* factors of GP-shaped Gram matrices (Hamming kernel over binary
  encodings, plus noise and jitter) equal ``scipy.linalg.cholesky``'s bit
  for bit, for n = 1..80 and a few sizes up to 300;
* triangular solves equal ``scipy.linalg.solve_triangular``'s for the
  F-ordered factors the GP keeps, with 1-D and 2-D right-hand sides, plain
  and transposed;
* a matrix that is not positive definite raises ``LinAlgError``, so the
  GP's jitter escalation still fires;
* importing ``repro.cli`` and the search it dispatches to loads no scipy
  module but ``_flapack``, and a later ``import scipy.linalg`` reuses that
  one copy, whose OpenBLAS is mapped early enough for
  ``use_one_blas_thread`` to pin it;
* that OpenBLAS starts on one thread, so no worker thread of it spins
  through the rest of the import, unless the user set a count.

NumPy's own LAPACK links a different OpenBLAS build and fails the
bit-equality cases, so these tests tell the two apart.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from repro.gp.kernels import HammingKernel, Kernel
from repro.gp.lapack import cholesky, solve_triangular

SRC = Path(__file__).resolve().parents[1] / "src"

SIZES = list(range(1, 81)) + [97, 128, 150, 200, 256, 300]


def _gram(n: int, seed: int) -> np.ndarray:
    """A GP Gram matrix as ``GaussianProcessRegressor.fit`` factors it."""
    rng = np.random.default_rng(seed)
    encodings = rng.integers(0, 2, size=(n, 24)).astype(np.float64)
    gram = HammingKernel()(encodings, encodings)
    gram[np.diag_indices_from(gram)] += 1e-3
    return gram + 1e-10 * np.eye(n)


@pytest.mark.parametrize("n", SIZES)
def test_cholesky_matches_scipy_bit_for_bit(n):
    gram = _gram(n, seed=n)
    expected = scipy.linalg.cholesky(gram, lower=True)
    factor = cholesky(gram)
    assert np.array_equal(factor, expected)
    assert factor.flags.f_contiguous == expected.flags.f_contiguous


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("trans", ["N", "T"])
def test_solve_triangular_matches_scipy_bit_for_bit(n, trans):
    factor = scipy.linalg.cholesky(_gram(n, seed=n), lower=True)
    rng = np.random.default_rng(1000 + n)
    assert factor.flags.f_contiguous
    for b in (rng.standard_normal(n), rng.standard_normal((n, 7))):
        expected = scipy.linalg.solve_triangular(factor, b, lower=True, trans=trans, check_finite=False)
        got = solve_triangular(factor, b, trans=trans)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_empty_right_hand_side_returns_empty():
    factor = cholesky(_gram(5, seed=0))
    assert solve_triangular(factor, np.zeros((5, 0))).shape == (5, 0)


def test_not_positive_definite_raises_linalg_error():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        cholesky(indefinite)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cholesky(indefinite, lower=True)


def test_non_finite_input_raises_like_scipy():
    with pytest.raises(ValueError):
        cholesky(np.array([[np.nan]]))


class _SlightlyIndefiniteKernel(Kernel):
    """All-ones covariance minus 5e-9 on the diagonal: two eigenvalues are -5e-9."""

    def __call__(self, x1, x2):
        return np.ones((len(x1), len(x2))) - 5e-9 * (x1[:, None, 0] == x2[None, :, 0])


def test_gp_fit_escalates_jitter_until_the_gram_is_positive_definite():
    from repro.gp import GaussianProcessRegressor

    x = np.arange(3.0).reshape(-1, 1)
    model = GaussianProcessRegressor(kernel=_SlightlyIndefiniteKernel(), noise=0.0)
    model.fit(x, np.array([0.0, 1.0, 2.0]))
    assert model._jitter == pytest.approx(1e-8)


def _run(script: str, **variables) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    env.update({name: value for name, value in variables.items() if value is not None})
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)


def test_scipy_linalg_reuses_the_gp_extension_after_repro_cli():
    # pin the threads before scipy.linalg is imported, as repro.cli.main does:
    # the GP's OpenBLAS must already be mapped, or it would keep its default
    script = """
import numpy as np
import repro.cli
from repro.gp import lapack
from repro.tensor.blas import blas_threads, use_one_blas_thread
use_one_blas_thread()
import scipy.linalg, scipy.special
assert scipy.linalg.lapack.dpotrf is lapack.dpotrf
assert scipy.linalg.lapack.dtrtrs is lapack.dtrtrs
gram = np.array([[4.0, 2.0], [2.0, 3.0]])
factor = scipy.linalg.cholesky(gram, lower=True)
assert np.allclose(factor @ factor.T, gram)
print(sorted(set(blas_threads().values())))
"""
    completed = _run(script)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() in ("[1]", "[]")


@pytest.mark.parametrize("user_count", [None, "2"])
def test_the_gp_openblas_starts_on_one_thread_unless_the_user_set_a_count(user_count):
    script = """
import os
def openblas():
    return {line.split(None, 5)[-1].strip() for line in open("/proc/self/maps") if "openblas" in line.lower()}
import numpy
before = openblas()
import repro.cli, repro.experiments.pareto_front
from repro.tensor.blas import blas_threads
threads = blas_threads()
print([threads[path] for path in sorted(openblas() - before)], os.environ.get("OPENBLAS_NUM_THREADS"))
"""
    completed = _run(script, OPENBLAS_NUM_THREADS=user_count)
    assert completed.returncode == 0, completed.stderr
    if completed.stdout.startswith("[] "):
        pytest.skip("the GP's LAPACK links no separate OpenBLAS")
    expected = ["[1]", "None"] if user_count is None else ["[2]", "2"]
    assert completed.stdout.split() == expected


def test_without_the_extension_file_the_normal_import_gives_the_same_routines():
    script = """
import importlib.util
importlib.util.find_spec = lambda name, package=None: None
from repro.gp import lapack
import scipy.linalg
assert lapack.dpotrf is scipy.linalg.lapack.dpotrf
"""
    completed = _run(script)
    assert completed.returncode == 0, completed.stderr
