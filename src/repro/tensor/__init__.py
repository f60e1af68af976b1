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

from repro.tensor.tensor import Tensor, graph_free, no_grad, is_grad_enabled
from repro.tensor.workspace import WorkspacePool, clear_workspaces
from repro.tensor import ops
from repro.tensor.ops import (
    add,
    concat,
    div,
    log_softmax,
    matmul,
    mean,
    mul,
    neg,
    power,
    relu,
    reshape,
    sub,
    sum as tensor_sum,
    transpose,
)
from repro.tensor.conv import avg_pool2d, conv2d, global_avg_pool2d
from repro.tensor.primitives import Primitive, all_primitives, apply, get_primitive, register
from repro.tensor.random import default_rng, seed_everything

__all__ = [
    "Tensor",
    "graph_free",
    "no_grad",
    "is_grad_enabled",
    "WorkspacePool",
    "clear_workspaces",
    "ops",
    "add",
    "concat",
    "div",
    "log_softmax",
    "matmul",
    "mean",
    "mul",
    "neg",
    "power",
    "relu",
    "reshape",
    "sub",
    "tensor_sum",
    "transpose",
    "avg_pool2d",
    "conv2d",
    "global_avg_pool2d",
    "Primitive",
    "register",
    "get_primitive",
    "all_primitives",
    "apply",
    "default_rng",
    "seed_everything",
]
