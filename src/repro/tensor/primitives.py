"""Primitive IR: explicit forward / vjp declarations for every op.

Each operation of the substrate is defined once, as a named
:class:`Primitive` record holding

* ``forward(*arrays, want_ctx=False, **params) -> (out, ctx)`` — the pure
  NumPy forward.  ``ctx`` is the tuple of residuals the backward pass needs
  (input shapes, masks, the output itself, ...) and is only computed when
  ``want_ctx`` is true.  The ``want_ctx=False`` branch is the graph-free
  inference kernel: it skips every residual and may take a cheaper route to
  the same bits (pooled workspaces, a GEMM instead of an einsum);
* ``vjp(ctx, grad, needs, **params) -> grads`` — the vector-Jacobian product
  mapping the output cotangent to one cotangent per input.  ``needs`` is a
  tuple of booleans (one per input); entries that are not needed may be
  returned as ``None`` and must not be computed.

:func:`apply` is the only place where IR meets tape: the ops in
:mod:`repro.tensor.ops` and :mod:`repro.tensor.conv` are operand coercion
plus one ``apply`` call.  The fused temporal training kernels
(:mod:`repro.snn.fused_step`) are built directly on the registered vjp
formulas instead of the tape.

Declarations for the dense core ops live here; convolution/pooling primitives
are declared in :mod:`repro.tensor.conv` and the surrogate spike primitive in
:mod:`repro.snn.surrogate` (they need those modules' kernels), all landing in
the same registry.

Every primitive also carries ``samples`` — callables ``(rng, dtype) ->
(inputs, params)`` producing representative inputs — so the test-suite can
check the whole registry automatically (``tests/test_primitives.py``).
``fd_exempt`` marks primitives whose vjp is intentionally *not* the true
derivative (the surrogate spike), which the finite-difference check skips.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.tensor.tensor import Tensor, _unbroadcast, graph_free, is_grad_enabled

Array = np.ndarray


class Primitive:
    """One differentiable operation: named forward with an explicit adjoint."""

    __slots__ = ("name", "forward", "vjp", "samples", "fd_exempt")

    def __init__(
        self,
        name: str,
        *,
        forward: Callable,
        vjp: Callable,
        samples: Sequence[Callable] = (),
        fd_exempt: bool = False,
    ) -> None:
        if vjp is None:
            raise ValueError(f"primitive {name!r} must declare a vjp")
        self.name = str(name)
        self.forward = forward
        self.vjp = vjp
        self.samples = tuple(samples)
        self.fd_exempt = bool(fd_exempt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Primitive({self.name!r}, fd_exempt={self.fd_exempt})"


_REGISTRY: Dict[str, Primitive] = {}


def register(primitive: Primitive) -> Primitive:
    """Add ``primitive`` to the registry (names must be unique)."""
    if primitive.name in _REGISTRY:
        raise ValueError(f"primitive {primitive.name!r} is already registered")
    _REGISTRY[primitive.name] = primitive
    return primitive


def get_primitive(name: str) -> Primitive:
    """Look up a registered primitive by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown primitive {name!r}; available: {sorted(_REGISTRY)}") from None


def all_primitives() -> Dict[str, Primitive]:
    """A copy of the registry (name -> primitive)."""
    return dict(_REGISTRY)


def apply(primitive: Primitive, inputs: Sequence[Tensor], **params) -> Tensor:
    """Apply ``primitive`` to tensors, recording the graph when grad is on.

    When no input requires grad (or under :func:`~repro.tensor.tensor.no_grad`)
    the forward runs without residuals and the result is wrapped by
    :func:`~repro.tensor.tensor.graph_free`; this branch serves every op of
    an evaluation pass, so it stays a bare loop.  Otherwise the residuals are
    captured and the vjp is wired into the tape, accumulating into the inputs
    in declaration order.
    """
    if is_grad_enabled():
        for t in inputs:
            if t.requires_grad:
                return _record(primitive, inputs, params)
    out, _ = primitive.forward(*[t.data for t in inputs], **params)
    return graph_free(out)


def _record(primitive: Primitive, inputs: Sequence[Tensor], params) -> Tensor:
    """Tracked branch of :func:`apply`: forward with residuals plus a tape node."""
    data, ctx = primitive.forward(*[t.data for t in inputs], want_ctx=True, **params)
    out = Tensor(
        data, requires_grad=True, _prev=[t for t in inputs if t.requires_grad or t._prev]
    )
    needs = tuple(t.requires_grad for t in inputs)

    def _backward() -> None:
        grads = primitive.vjp(ctx, out.grad, needs, **params)
        for tensor, grad in zip(inputs, grads):
            if grad is not None and tensor.requires_grad:
                tensor.accumulate_grad(grad)

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# sample helpers (for the registry-driven differential harness)
# ---------------------------------------------------------------------------

def _away(values: Array, *points: float, margin: float = 1e-3) -> Array:
    """Shift entries lying within ``margin`` of a non-smooth point past it.

    Finite differences are meaningless straddling a kink (relu at 0);
    nudging the offending entries keeps samples well-posed without changing
    their distribution meaningfully.
    """
    for point in points:
        values = values + (np.abs(values - point) < margin) * (2.0 * margin)
    return values


def _sample(shapes: Sequence[Tuple[int, ...]], **params):
    """Standard-normal inputs of the given shapes."""

    def make(rng: np.random.Generator, dtype):
        inputs = tuple(rng.standard_normal(shape).astype(dtype, copy=False) for shape in shapes)
        return inputs, dict(params)

    return make


def _positive_sample(shapes: Sequence[Tuple[int, ...]], **params):
    """Inputs bounded away from zero from above (for div / power)."""

    def make(rng: np.random.Generator, dtype):
        inputs = tuple(
            (np.abs(rng.standard_normal(shape)) + 0.5).astype(dtype, copy=False)
            for shape in shapes
        )
        return inputs, dict(params)

    return make


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def _add_fwd(a, b, want_ctx=False):
    out = a + b
    return out, ((a.shape, b.shape) if want_ctx else None)


def _add_vjp(ctx, g, needs):
    a_shape, b_shape = ctx
    return (
        _unbroadcast(g, a_shape) if needs[0] else None,
        _unbroadcast(g, b_shape) if needs[1] else None,
    )


ADD = register(
    Primitive(
        "add",
        forward=_add_fwd,
        vjp=_add_vjp,
        samples=[_sample([(3, 4), (3, 4)]), _sample([(3, 4), (4,)]), _sample([(2, 1, 3), (1, 4, 3)])],
    )
)


def _sub_fwd(a, b, want_ctx=False):
    out = a - b
    return out, ((a.shape, b.shape) if want_ctx else None)


def _sub_vjp(ctx, g, needs):
    a_shape, b_shape = ctx
    return (
        _unbroadcast(g, a_shape) if needs[0] else None,
        _unbroadcast(-g, b_shape) if needs[1] else None,
    )


SUB = register(
    Primitive(
        "sub",
        forward=_sub_fwd,
        vjp=_sub_vjp,
        samples=[_sample([(3, 4), (3, 4)]), _sample([(3, 4), (4,)])],
    )
)


def _mul_fwd(a, b, want_ctx=False):
    out = a * b
    return out, ((a, b) if want_ctx else None)


def _mul_vjp(ctx, g, needs):
    a, b = ctx
    return (
        _unbroadcast(g * b, a.shape) if needs[0] else None,
        _unbroadcast(g * a, b.shape) if needs[1] else None,
    )


MUL = register(
    Primitive(
        "mul",
        forward=_mul_fwd,
        vjp=_mul_vjp,
        samples=[_sample([(3, 4), (3, 4)]), _sample([(3, 4), (4,)])],
    )
)


def _div_fwd(a, b, want_ctx=False):
    out = a / b
    return out, ((a, b) if want_ctx else None)


def _div_vjp(ctx, g, needs):
    a, b = ctx
    return (
        _unbroadcast(g / b, a.shape) if needs[0] else None,
        _unbroadcast(-g * a / (b ** 2), b.shape) if needs[1] else None,
    )


DIV = register(
    Primitive(
        "div",
        forward=_div_fwd,
        vjp=_div_vjp,
        samples=[_positive_sample([(3, 4), (3, 4)]), _positive_sample([(3, 4), (4,)])],
    )
)


def _neg_fwd(a, want_ctx=False):
    return -a, None


def _neg_vjp(ctx, g, needs):
    return ((-g) if needs[0] else None,)


NEG = register(Primitive("neg", forward=_neg_fwd, vjp=_neg_vjp, samples=[_sample([(3, 4)])]))


def _power_fwd(a, want_ctx=False, *, exponent):
    out = a ** exponent
    return out, ((a,) if want_ctx else None)


def _power_vjp(ctx, g, needs, *, exponent):
    (a,) = ctx
    return ((g * exponent * a ** (exponent - 1)) if needs[0] else None,)


POWER = register(
    Primitive(
        "power",
        forward=_power_fwd,
        vjp=_power_vjp,
        samples=[_positive_sample([(3, 4)], exponent=2.0), _positive_sample([(3, 4)], exponent=0.5)],
    )
)


def _matmul_fwd(a, b, want_ctx=False):
    out = a @ b
    return out, ((a, b) if want_ctx else None)


def _matmul_vjp(ctx, g, needs):
    a, b = ctx
    grad_a = grad_b = None
    if needs[0]:
        grad_a = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
    if needs[1]:
        grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
    return grad_a, grad_b


MATMUL = register(
    Primitive(
        "matmul",
        forward=_matmul_fwd,
        vjp=_matmul_vjp,
        samples=[_sample([(3, 4), (4, 5)]), _sample([(2, 3, 4), (4, 5)])],
    )
)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

def _relu_fwd(a, want_ctx=False):
    mask = a > 0
    out = a * mask
    return out, ((mask,) if want_ctx else None)


def _relu_vjp(ctx, g, needs):
    (mask,) = ctx
    return ((g * mask) if needs[0] else None,)


def _relu_sample(rng, dtype):
    return (_away(rng.standard_normal((3, 4)), 0.0).astype(dtype, copy=False),), {}


RELU = register(Primitive("relu", forward=_relu_fwd, vjp=_relu_vjp, samples=[_relu_sample]))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _reduce_expand(grad, axis, keepdims, ndim):
    """Re-insert reduced axes exactly the way the old closures did."""
    if not keepdims and axis is not None:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        grad = np.expand_dims(grad, axis=tuple(ax % ndim for ax in axes))
    return grad


def _sum_fwd(a, want_ctx=False, *, axis=None, keepdims=False):
    out = a.sum(axis=axis, keepdims=keepdims)
    return out, ((a.shape,) if want_ctx else None)


def _sum_vjp(ctx, g, needs, *, axis=None, keepdims=False):
    if not needs[0]:
        return (None,)
    (shape,) = ctx
    grad = _reduce_expand(g, axis, keepdims, len(shape))
    return (np.broadcast_to(grad, shape).astype(np.float64),)


SUM = register(
    Primitive(
        "sum",
        forward=_sum_fwd,
        vjp=_sum_vjp,
        samples=[
            _sample([(3, 4)]),
            _sample([(3, 4)], axis=0),
            _sample([(2, 3, 4)], axis=(0, 2), keepdims=True),
        ],
    )
)


def _reduce_count(shape, axis):
    if axis is None:
        count = 1
        for size in shape:
            count *= size
        return count
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    count = 1
    for ax in axes:
        count *= shape[ax]
    return count


def _mean_fwd(a, want_ctx=False, *, axis=None, keepdims=False):
    out = a.mean(axis=axis, keepdims=keepdims)
    return out, ((a.shape,) if want_ctx else None)


def _mean_vjp(ctx, g, needs, *, axis=None, keepdims=False):
    if not needs[0]:
        return (None,)
    (shape,) = ctx
    grad = g / _reduce_count(shape, axis)
    grad = _reduce_expand(grad, axis, keepdims, len(shape))
    return (np.broadcast_to(grad, shape).astype(np.float64),)


MEAN = register(
    Primitive(
        "mean",
        forward=_mean_fwd,
        vjp=_mean_vjp,
        samples=[
            _sample([(3, 4)]),
            _sample([(2, 3, 4)], axis=(0, 2)),
            _sample([(2, 3, 4, 2)], axis=(0, 2, 3), keepdims=True),
        ],
    )
)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def _reshape_fwd(a, want_ctx=False, *, shape):
    out = a.reshape(shape)
    return out, ((a.shape,) if want_ctx else None)


def _reshape_vjp(ctx, g, needs, *, shape):
    (a_shape,) = ctx
    return (g.reshape(a_shape) if needs[0] else None,)


RESHAPE = register(
    Primitive(
        "reshape",
        forward=_reshape_fwd,
        vjp=_reshape_vjp,
        samples=[_sample([(3, 4)], shape=(2, 6)), _sample([(2, 3, 4)], shape=(6, 4))],
    )
)


def _transpose_fwd(a, want_ctx=False, *, axes=None):
    out = np.transpose(a, axes=axes)
    if not want_ctx:
        return out, None
    inverse = None if axes is None else np.argsort(axes)
    return out, (inverse,)


def _transpose_vjp(ctx, g, needs, *, axes=None):
    (inverse,) = ctx
    return (np.transpose(g, axes=inverse) if needs[0] else None,)


TRANSPOSE = register(
    Primitive(
        "transpose",
        forward=_transpose_fwd,
        vjp=_transpose_vjp,
        samples=[_sample([(3, 4)]), _sample([(2, 3, 4)], axes=(1, 2, 0))],
    )
)


def _concat_fwd(*arrays, want_ctx=False, axis=0):
    out = np.concatenate(arrays, axis=axis)
    if not want_ctx:
        return out, None
    sizes = [array.shape[axis] for array in arrays]
    offsets = np.cumsum([0] + sizes)
    return out, (offsets,)


def _concat_vjp(ctx, g, needs, *, axis=0):
    (offsets,) = ctx
    grads = []
    for index, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
        if not needs[index]:
            grads.append(None)
            continue
        slicer = [slice(None)] * g.ndim
        slicer[axis] = slice(start, stop)
        grads.append(g[tuple(slicer)])
    return grads


CONCAT = register(
    Primitive(
        "concat",
        forward=_concat_fwd,
        vjp=_concat_vjp,
        samples=[_sample([(2, 3), (2, 3), (2, 3)], axis=0), _sample([(2, 2), (2, 3)], axis=1)],
    )
)


# ---------------------------------------------------------------------------
# composite ops
# ---------------------------------------------------------------------------

def _log_softmax_fwd(a, want_ctx=False, *, axis=-1):
    shifted = a - a.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    return out, ((out,) if want_ctx else None)


def _log_softmax_vjp(ctx, g, needs, *, axis=-1):
    if not needs[0]:
        return (None,)
    (out,) = ctx
    softmax_vals = np.exp(out)
    grad_sum = g.sum(axis=axis, keepdims=True)
    return (g - softmax_vals * grad_sum,)


LOG_SOFTMAX = register(
    Primitive(
        "log_softmax",
        forward=_log_softmax_fwd,
        vjp=_log_softmax_vjp,
        samples=[_sample([(3, 4)]), _sample([(2, 3, 4)], axis=1)],
    )
)
