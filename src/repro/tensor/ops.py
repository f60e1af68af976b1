"""Differentiable ops on :class:`repro.tensor.Tensor`, on the primitive IR.

Every function here is operand coercion plus one call to
:func:`repro.tensor.primitives.apply`, which runs the registered
:class:`~repro.tensor.primitives.Primitive`'s forward and either returns the
result through :func:`repro.tensor.tensor.graph_free` (no gradient needed:
no parent bookkeeping, no residuals) or captures the residuals and wires the
primitive's vjp into the tape.  Each op's forward therefore has exactly one
definition, shared by the evaluation substrate (an SNN validation pass under
:func:`~repro.tensor.tensor.no_grad` executes thousands of these ops per
batch) and by graph autograd.  The fused temporal training kernels
(:mod:`repro.snn.fused_step`) reuse the same registered vjp formulas outside
the tape and are pinned bit-for-bit against the graph path.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import primitives as P
from repro.tensor.primitives import apply as _apply
from repro.tensor.tensor import Tensor, ensure_tensor, graph_free
from repro.trace import ops_span

Axis = Union[None, int, Tuple[int, ...]]


def _ensure_pair(a, b) -> Tuple[Tensor, Tensor]:
    """:func:`ensure_tensor` for binary-op operands, dtype-aware for scalars.

    A bare Python ``int``/``float`` operand becomes a 0-d array in the tensor
    operand's dtype; the fused training kernels replicate this promotion
    (:mod:`repro.snn.fused_step`).  (Bools are excluded: ``True * x`` should
    keep its established semantics.)
    """
    if isinstance(a, Tensor) and not isinstance(b, Tensor) and type(b) in (int, float):
        return a, graph_free(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor) and type(a) in (int, float):
        return graph_free(np.asarray(a, dtype=b.data.dtype)), b
    return ensure_tensor(a), ensure_tensor(b)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    """Elementwise/broadcasted addition."""
    return _apply(P.ADD, _ensure_pair(a, b))


def sub(a, b) -> Tensor:
    """Elementwise/broadcasted subtraction ``a - b``."""
    return _apply(P.SUB, _ensure_pair(a, b))


def mul(a, b) -> Tensor:
    """Elementwise/broadcasted multiplication."""
    return _apply(P.MUL, _ensure_pair(a, b))


def div(a, b) -> Tensor:
    """Elementwise/broadcasted division ``a / b``."""
    return _apply(P.DIV, _ensure_pair(a, b))


def neg(a) -> Tensor:
    """Elementwise negation."""
    return _apply(P.NEG, (ensure_tensor(a),))


def power(a, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    return _apply(P.POWER, (ensure_tensor(a),), exponent=exponent)


def matmul(a, b) -> Tensor:
    """Matrix product supporting 2-D weight matrices and batched inputs."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    with ops_span("op.matmul") as op:
        if op:
            op.set(shape=f"{'x'.join(map(str, a.data.shape))}@{'x'.join(map(str, b.data.shape))}")
        return _apply(P.MATMUL, (a, b))


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    """Elementwise rectified linear unit."""
    return _apply(P.RELU, (ensure_tensor(a),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all axes by default)."""
    return _apply(P.SUM, (ensure_tensor(a),), axis=axis, keepdims=keepdims)


def mean(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis`` (all axes by default)."""
    return _apply(P.MEAN, (ensure_tensor(a),), axis=axis, keepdims=keepdims)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape: Sequence[int]) -> Tensor:
    """Reshape without copying data."""
    return _apply(P.RESHAPE, (ensure_tensor(a),), shape=shape)


def transpose(a, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute axes (reverse order by default)."""
    return _apply(P.TRANSPOSE, (ensure_tensor(a),), axes=axes)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` — the DSC (DenseNet-like) skip primitive."""
    return _apply(P.CONCAT, [ensure_tensor(t) for t in tensors], axis=axis)


# ---------------------------------------------------------------------------
# composite ops
# ---------------------------------------------------------------------------

def log_softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return _apply(P.LOG_SOFTMAX, (ensure_tensor(a),), axis=axis)
