"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

The design follows the classic define-by-run tape: every differentiable
operation produces a new :class:`Tensor` whose ``_backward`` closure knows how
to push the output gradient into the gradients of its parents.  Calling
:meth:`Tensor.backward` topologically sorts the recorded graph and runs the
closures in reverse order.

Performance notes (see ``/opt/skills/guides/python/hpc-parallel``):

* gradients are accumulated **in place** (``+=``) into pre-allocated buffers;
* broadcasting in the forward pass is undone in the backward pass by summing
  over the broadcast axes (``_unbroadcast``) rather than materialising
  intermediate copies;
* the graph bookkeeping uses ``__slots__`` to keep per-node overhead small —
  a BPTT-unrolled SNN creates tens of thousands of nodes per step.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple, "Tensor"]

_DEFAULT_DTYPE = np.float64

# ---------------------------------------------------------------------------
# global grad-mode switch (mirrors torch.no_grad)
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return ``True`` when operations record a backward graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording.

    Used by evaluation loops and by the firing-rate monitors so that pure
    inference does not pay the memory cost of the tape.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a float ndarray without copying when possible."""
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype if dtype is not None else None)
    if arr.dtype.kind not in "fc":
        arr = arr.astype(_DEFAULT_DTYPE)
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Implements the adjoint of NumPy broadcasting: any axis of size 1 that was
    expanded, and any prepended axis, must be summed over.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with an optional gradient and a recorded backward graph.

    Parameters
    ----------
    data:
        Anything convertible to a NumPy array.  Integer inputs are promoted
        to ``float64`` so that gradients are well defined.
    requires_grad:
        When ``True`` the tensor participates in autodiff: a ``grad`` buffer
        is allocated lazily on the first backward pass.
    name:
        Optional label used by debugging helpers and the parameter registry.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
        _prev: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[], None]] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[], None]] = _backward
        self._prev: Tuple[Tensor, ...] = tuple(_prev)
        self.name: str = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(shape: Sequence[int], requires_grad: bool = False, dtype=_DEFAULT_DTYPE) -> "Tensor":
        """Return a tensor of zeros with the given ``shape``."""
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(shape: Sequence[int], requires_grad: bool = False, dtype=_DEFAULT_DTYPE) -> "Tensor":
        """Return a tensor of ones with the given ``shape``."""
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def full(shape: Sequence[int], fill_value: float, requires_grad: bool = False) -> "Tensor":
        """Return a constant tensor filled with ``fill_value``."""
        return Tensor(np.full(shape, fill_value, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def from_numpy(array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        """Wrap an existing ndarray (no copy for float arrays)."""
        return Tensor(array, requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """NumPy dtype of the underlying array."""
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the raw ndarray (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the single scalar value stored in this tensor."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a tensor with copied data, detached from the graph."""
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Return a detached copy cast to ``dtype``."""
        return Tensor(self.data.astype(dtype), requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # autodiff machinery
    # ------------------------------------------------------------------
    def _ensure_grad(self) -> np.ndarray:
        """Allocate the gradient buffer on demand (always float64)."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=_DEFAULT_DTYPE)
        return self.grad

    def accumulate_grad(self, value: np.ndarray) -> None:
        """Add ``value`` (already shaped like ``self``) into the grad buffer."""
        self._ensure_grad()
        self.grad += value

    def zero_grad(self) -> None:
        """Reset the gradient buffer to zeros (keeps the allocation)."""
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1`` for scalar tensors; required for
            non-scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() on a non-scalar tensor requires an explicit gradient")
            seed = np.ones_like(self.data, dtype=_DEFAULT_DTYPE)
        else:
            seed = _as_array(grad).astype(_DEFAULT_DTYPE, copy=False)
            if seed.shape != self.data.shape:
                seed = np.broadcast_to(seed, self.data.shape).astype(_DEFAULT_DTYPE)

        topo = self._topological_order()
        self._ensure_grad()
        self.grad += seed
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()

    def _topological_order(self) -> List["Tensor"]:
        """Iterative topological sort of the subgraph reachable from ``self``.

        An explicit stack is used instead of recursion because deeply unrolled
        SNNs (many time steps x many layers) easily exceed Python's recursion
        limit.
        """
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, int]] = [(self, 0)]
        while stack:
            node, child_index = stack.pop()
            node_id = id(node)
            if child_index == 0:
                if node_id in visited:
                    continue
                visited.add(node_id)
            if child_index < len(node._prev):
                stack.append((node, child_index + 1))
                child = node._prev[child_index]
                if id(child) not in visited:
                    stack.append((child, 0))
            else:
                order.append(node)
        return order

    def graph_size(self) -> int:
        """Return the number of nodes in the recorded backward graph."""
        return len(self._topological_order())

    # ------------------------------------------------------------------
    # operator overloads — delegate to repro.tensor.ops
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.add(self, other)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.add(other, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.mul(self, other)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.mul(other, self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.div(other, self)

    def __neg__(self) -> "Tensor":
        from repro.tensor import ops

        return ops.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.tensor import ops

        return ops.power(self, exponent)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.matmul(self, other)

    # comparison operators return plain (non-differentiable) tensors
    def __gt__(self, other: ArrayLike) -> "Tensor":
        return Tensor((self.data > _as_array(other)).astype(_DEFAULT_DTYPE))

    def __ge__(self, other: ArrayLike) -> "Tensor":
        return Tensor((self.data >= _as_array(other)).astype(_DEFAULT_DTYPE))

    def __lt__(self, other: ArrayLike) -> "Tensor":
        return Tensor((self.data < _as_array(other)).astype(_DEFAULT_DTYPE))

    def __le__(self, other: ArrayLike) -> "Tensor":
        return Tensor((self.data <= _as_array(other)).astype(_DEFAULT_DTYPE))

    # ------------------------------------------------------------------
    # method-style wrappers around ops (convenience for model code)
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        from repro.tensor import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def flatten_batch(self) -> "Tensor":
        """Flatten every axis except the leading batch axis."""
        return self.reshape(self.shape[0], -1)

    def transpose(self, axes=None) -> "Tensor":
        from repro.tensor import ops

        return ops.transpose(self, axes=axes)

    def relu(self) -> "Tensor":
        from repro.tensor import ops

        return ops.relu(self)


def ensure_tensor(value: ArrayLike) -> Tensor:
    """Return ``value`` as a :class:`Tensor`, wrapping raw arrays/scalars."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def graph_free(data: np.ndarray) -> Tensor:
    """Wrap an ndarray in a :class:`Tensor` with no graph, as cheaply as possible.

    This is the constructor of the inference fast path: callers guarantee
    ``data`` is already a float ndarray (the result of a NumPy kernel), so the
    coercion and flag logic of :meth:`Tensor.__init__` is skipped entirely.
    An SNN evaluation creates one output tensor per op per time step; at smoke
    feature-map sizes the ``__init__`` bookkeeping is a measurable slice of
    the whole step.  The one exception to "no coercion": full reductions
    return NumPy scalars, which are promoted to 0-d arrays so ``Tensor.data``
    is always an ndarray, exactly as :meth:`Tensor.__init__` guarantees.
    """
    if type(data) is not np.ndarray:
        data = np.asarray(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._backward = None
    out._prev = ()
    out.name = ""
    return out
