"""The two LAPACK routines the GP needs, without importing ``scipy.linalg``.

The GP factors and solves with ``dpotrf`` (Cholesky) and ``dtrtrs``
(triangular solve).  ``import scipy.linalg`` costs about half of a search
process's start-up, because scipy's ``__init__`` pulls in its array-API
layer (``array_api_compat``, ``numpy.f2py``, ``numpy.testing``).  The
routines themselves live in one f2py extension, ``scipy.linalg._flapack``,
which imports nothing but NumPy.  This module loads that extension file
directly, under its real name, so a later ``import scipy.linalg`` finds it
in ``sys.modules`` and reuses it: ``scipy.linalg.lapack.dpotrf`` is the
function the GP calls.  If the file is not where scipy's package layout puts
it, the module falls back to the normal import, which yields the same
extension, so there is only ever one arithmetic path.  The extension's
OpenBLAS is loaded with it and starts on one thread unless the user set a
count (:func:`repro.tensor.blas.one_thread_at_load`): the GP's matrices
never need more, and a thread pool started during the import spins for
about 0.1 s, often on the importing core.  If ``scipy.linalg`` was imported
first, the library is already loaded and keeps its count.

:func:`cholesky` and :func:`solve_triangular` hand LAPACK the same operands
with the same flags as scipy 1.17's ``_cholesky`` and ``_solve_triangular``,
so every factor and solve is bit-identical to ``scipy.linalg``.  They cover
only what the GP asks for: float64 input and a lower-triangular factor.
NumPy's own LAPACK is not a substitute: NumPy and SciPy bundle different
OpenBLAS builds, and their ``dpotrf``/``dtrtrs`` differ in the last bits on
GP-sized matrices.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from repro.tensor.blas import one_thread_at_load

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """``scipy.linalg._flapack`` without running ``scipy/__init__.py``."""
    loaded = sys.modules.get(_FLAPACK)
    if loaded is not None:
        return loaded
    # find_spec on a top-level name locates the package without executing it
    spec = importlib.util.find_spec("scipy")
    directories = spec.submodule_search_locations if spec is not None else None
    for directory in directories or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader)
                )
                loader.exec_module(module)
                sys.modules[_FLAPACK] = module
                return module
    from scipy.linalg import _flapack

    return _flapack


# the GP's matrices are far too small for BLAS threads to help, and a thread
# pool started here would spin through the rest of the import
with one_thread_at_load():
    _flapack = _load_flapack()
dpotrf = _flapack.dpotrf
dtrtrs = _flapack.dtrtrs


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor of a float64 matrix.

    Same factor and errors as ``scipy.linalg.cholesky(a, lower=True)``:
    non-finite entries raise ``ValueError`` and a matrix that is not positive
    definite raises ``numpy.linalg.LinAlgError``.
    """
    factor, info = dpotrf(np.asarray_chkfinite(a), lower=True, clean=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".')
    return factor


def solve_triangular(a, b, trans: str = "N") -> np.ndarray:
    """Solve ``a x = b`` (``trans="N"``) or ``a.T x = b`` (``"T"``) for lower-triangular ``a``.

    Same result as ``scipy.linalg.solve_triangular(a, b, lower=True,
    trans=trans, check_finite=False)`` for an F-contiguous ``a``, which is
    what :func:`cholesky` returns.
    """
    a1 = np.asarray(a)
    b1 = np.asarray(b)
    if b1.size == 0:
        return np.empty_like(b1, dtype=np.float64)
    x, info = dtrtrs(a1, b1, lower=True, trans={"N": 0, "T": 1}[trans])
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x
