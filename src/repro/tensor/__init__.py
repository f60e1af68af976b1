"""Reverse-mode automatic differentiation on top of NumPy.

This package is the lowest-level substrate of the reproduction.  The paper
trains spiking neural networks with surrogate-gradient backpropagation through
time using snnTorch/PyTorch; since no deep-learning framework is available in
this environment we implement the required machinery from scratch:

* :class:`repro.tensor.Tensor` — an n-dimensional array with a ``grad`` buffer
  and a recorded backward graph (define-by-run, reverse-mode).
* :mod:`repro.tensor.primitives` — the primitive IR: a registry declaring
  every op's forward and vjp explicitly, shared by graph autograd, the
  graph-free inference path and the fused temporal training kernels.
* :mod:`repro.tensor.ops` — differentiable primitives (arithmetic, matmul,
  reductions, reshaping, concatenation, relu, log-softmax), each one
  :func:`~repro.tensor.primitives.apply` call on the primitive IR.
* :mod:`repro.tensor.conv` — im2col-based 2-D convolution and average
  pooling with hand-written backward passes (the hot path of every
  experiment).
* :mod:`repro.tensor.blas` — thread control for the loaded OpenBLAS
  libraries: every search process runs BLAS on one thread.

Only vectorised NumPy is used in the hot paths (see the HPC guide: avoid
Python-level loops over array elements, prefer views over copies, use in-place
accumulation for gradients).
"""

from repro._lazy import lazy_exports

# each name's module is imported on first access (PEP 562, see repro._lazy)
_LAZY_EXPORTS = {
    "Tensor": "repro.tensor.tensor",
    "graph_free": "repro.tensor.tensor",
    "no_grad": "repro.tensor.tensor",
    "is_grad_enabled": "repro.tensor.tensor",
    "WorkspacePool": "repro.tensor.workspace",
    "clear_workspaces": "repro.tensor.workspace",
    "ops": "repro.tensor.ops",
    "add": "repro.tensor.ops",
    "concat": "repro.tensor.ops",
    "div": "repro.tensor.ops",
    "log_softmax": "repro.tensor.ops",
    "matmul": "repro.tensor.ops",
    "mean": "repro.tensor.ops",
    "mul": "repro.tensor.ops",
    "neg": "repro.tensor.ops",
    "power": "repro.tensor.ops",
    "relu": "repro.tensor.ops",
    "reshape": "repro.tensor.ops",
    "sub": "repro.tensor.ops",
    "tensor_sum": "repro.tensor.ops:sum",
    "transpose": "repro.tensor.ops",
    "avg_pool2d": "repro.tensor.conv",
    "conv2d": "repro.tensor.conv",
    "global_avg_pool2d": "repro.tensor.conv",
    "Primitive": "repro.tensor.primitives",
    "all_primitives": "repro.tensor.primitives",
    "apply": "repro.tensor.primitives",
    "get_primitive": "repro.tensor.primitives",
    "register": "repro.tensor.primitives",
    "default_rng": "repro.tensor.random",
    "seed_everything": "repro.tensor.random",
}
__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
