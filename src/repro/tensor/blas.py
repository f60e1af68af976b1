"""Thread control for the OpenBLAS libraries loaded into this process.

At smoke and default scale the substrate's GEMMs (im2col convolutions over
a few channels and small spatial maps, per-timestep linear layers) are too
small for OpenBLAS's threads to cut their time: the extra threads spin-wait
and burn CPU.  The search already runs candidate evaluations in parallel
across worker processes, so each process runs BLAS on one thread, and no
process the program owns starts a BLAS worker thread at all.

That takes more than setting the count after the fact.  An OpenBLAS loaded
with no thread variable set starts one worker per core, and on a 2-vCPU VM
(OpenBLAS 0.3.31) the spare worker spin-waits about 0.1 s before it sleeps:
``import repro.cli`` then 0.3 s idle cost 0.22 s of CPU, against 0.09 s for
a library loaded on one thread.  And in a forked child, which inherits the
count but not the threads, ``openblas_set_num_threads`` rebuilds the pool
from the count the library loaded with, even when asked for the one thread
it already runs: 130 ms of spin per pool worker.  So every OpenBLAS the
program owns is loaded inside :func:`one_thread_at_load`: ``repro.cli``
imports NumPy in it before anything else, the GP loads its LAPACK in it,
and :func:`use_one_blas_thread` (run by ``repro.cli.main`` before it
dispatches a command, and by the evaluation pool as every worker's
initializer) imports NumPy in it for a spawned worker's first load.  It
then sets the count only where it is not 1 already.

NumPy and SciPy wheels each bundle their own OpenBLAS (``libscipy_openblas64_``
and ``libscipy_openblas``), so every function here acts on each OpenBLAS
mapped into the process, found through ``/proc/self/maps``.  Where none is
found (MKL, Accelerate, a non-Linux system) they do nothing.  OpenBLAS
threads split a GEMM's output, not its reductions, so the thread count does
not change any result.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Union

#: the variables OpenBLAS reads its thread count from; a user who sets one
#: has chosen the count, and :func:`use_one_blas_thread` leaves it alone
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS")


def _loaded_openblas() -> Dict[str, ctypes.CDLL]:
    """Every OpenBLAS mapped into this process, keyed by file path."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    paths = sorted({line.split(None, 5)[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    libraries = {}
    for path in paths:
        try:
            libraries[path] = ctypes.CDLL(path)
        except OSError:
            continue
    return libraries


def _export(library: ctypes.CDLL, name: str, argtypes, restype):
    """``openblas_<name>`` under whichever of its export names ``library`` uses."""
    for symbol in (f"openblas_{name}", f"openblas_{name}64_", f"scipy_openblas_{name}64_", f"scipy_openblas_{name}"):
        function = getattr(library, symbol, None)
        if function is not None:
            function.argtypes = argtypes
            function.restype = restype
            return function
    return None


def blas_threads() -> Dict[str, int]:
    """The thread count of each loaded OpenBLAS, keyed by library path."""
    threads = {}
    for path, library in _loaded_openblas().items():
        get = _export(library, "get_num_threads", [], ctypes.c_int)
        if get is not None:
            threads[path] = int(get())
    return threads


def set_blas_threads(threads: Union[int, Mapping[str, int]]) -> None:
    """Set the thread count of the loaded OpenBLAS libraries.

    ``threads`` is one count for every library, or a per-library mapping as
    :func:`blas_threads` returns it (libraries it does not name are left
    alone).
    """
    for path, library in _loaded_openblas().items():
        wanted: Optional[int] = threads if isinstance(threads, int) else threads.get(path)
        setter = _export(library, "set_num_threads", [ctypes.c_int], None)
        if wanted is not None and setter is not None:
            setter(int(wanted))


def native_threads() -> Optional[int]:
    """The OS threads of this process that :mod:`threading` does not know of; None without ``/proc``.

    In this program those are BLAS workers, so a process that started none reads 0.
    """
    try:
        return len(os.listdir("/proc/self/task")) - threading.active_count()
    except OSError:
        return None


def use_one_blas_thread() -> None:
    """Run every loaded OpenBLAS on one thread, unless the user chose a count.

    Call it only where the code owns the process: a command-line entry point
    or a worker-pool initializer.  NumPy is imported first, inside
    :func:`one_thread_at_load`: a spawned worker runs its initializer before
    anything else loads NumPy, so its OpenBLAS loads here and starts no
    worker thread.  The count is then set only for a library that does not
    run one thread already.  A forked worker inherits its parent's count but
    none of its threads, and setting the count there, even to the 1 it
    already is, rebuilds the thread pool the library loaded with: a worker
    that spins for ~0.1 s of CPU.
    """
    with one_thread_at_load():
        import numpy  # loads NumPy's OpenBLAS, the one the substrate's GEMMs run on

    if not any(os.environ.get(name) for name in THREAD_ENV_VARS):
        set_blas_threads({path: 1 for path, count in blas_threads().items() if count != 1})


@contextlib.contextmanager
def one_thread_at_load() -> Iterator[None]:
    """Start an OpenBLAS loaded inside the block on one thread, unless the user chose a count.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it is loaded, and
    starts one worker thread per core beyond the first right then.  A new
    worker spins for about 0.1 s before it sleeps, so it costs that much
    CPU, and, when the scheduler puts it on the core of the thread that
    loaded it, as much wall time in the import.  Inside the block the
    variable is set to 1, so the library starts no worker, and a forked
    child that sets its count later finds no pool to rebuild; the variable
    is removed again on exit.  :func:`set_blas_threads` can still raise the
    count later.
    """
    if any(os.environ.get(name) for name in THREAD_ENV_VARS):
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
