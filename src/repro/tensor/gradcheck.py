"""Finite-difference gradient checking and the registry-driven harness.

Used throughout the test-suite to validate every differentiable primitive and
layer against a central-difference approximation.  The check is the standard

    (f(x + eps) - f(x - eps)) / (2 * eps)

applied element by element to each input that requires gradients.

:func:`check_primitive` extends this into a differential harness over the
primitive IR (:mod:`repro.tensor.primitives`): every registered
:class:`~repro.tensor.primitives.Primitive` carries sample inputs, and for
each sample the harness runs a finite-difference check of the declared vjp,
skipped for primitives marked ``fd_exempt`` (the surrogate spike, whose vjp is
deliberately not the derivative of its Heaviside forward).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


def numerical_gradient(
    func: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of ``func(*inputs).sum()`` w.r.t. ``inputs[index]``.

    The function output is reduced with ``sum()`` so the result has the same
    shape as the chosen input.
    """
    target = inputs[index]
    grad = np.zeros_like(target.data, dtype=np.float64)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(func(*inputs).data.sum())
        flat[i] = original - eps
        minus = float(func(*inputs).data.sum())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(
    func: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    atol: float = 1e-4,
    rtol: float = 1e-3,
) -> Tuple[bool, float]:
    """Compare analytic and numerical gradients of ``func``.

    Parameters
    ----------
    func:
        Callable mapping the input tensors to an output tensor.  The scalar
        loss used for differentiation is ``output.sum()``.
    inputs:
        Tensors passed positionally to ``func``.  Only those with
        ``requires_grad=True`` are checked.
    eps, atol, rtol:
        Finite-difference step and comparison tolerances.

    Returns
    -------
    (ok, max_abs_error):
        ``ok`` is True when every checked gradient matches within tolerance;
        ``max_abs_error`` is the largest absolute deviation observed.
    """
    for tensor in inputs:
        if tensor.grad is not None:
            tensor.zero_grad()
    output = func(*inputs)
    loss = output.sum()
    loss.backward()

    max_error = 0.0
    ok = True
    for index, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = numerical_gradient(func, inputs, index, eps=eps)
        error = np.abs(analytic - numeric)
        max_error = max(max_error, float(error.max()) if error.size else 0.0)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            ok = False
    return ok, max_error


def _fd_vjp_check(primitive, inputs, params, eps, atol, rtol) -> float:
    """Central-difference check of the declared vjp on ``sum(forward)``."""
    out, ctx = primitive.forward(*inputs, want_ctx=True, **params)
    needs = tuple(True for _ in inputs)
    grads = primitive.vjp(ctx, np.ones_like(out, dtype=np.float64), needs, **params)
    max_error = 0.0
    for index, analytic in enumerate(grads):
        probe = [np.array(arr, dtype=np.float64) for arr in inputs]
        numeric = np.zeros(probe[index].shape, dtype=np.float64)
        flat = probe[index].reshape(-1)
        numeric_flat = numeric.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = float(primitive.forward(*probe, **params)[0].sum())
            flat[i] = original - eps
            minus = float(primitive.forward(*probe, **params)[0].sum())
            flat[i] = original
            numeric_flat[i] = (plus - minus) / (2.0 * eps)
        error = np.abs(np.asarray(analytic, dtype=np.float64) - numeric)
        max_error = max(max_error, float(error.max()) if error.size else 0.0)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            raise AssertionError(
                f"primitive {primitive.name!r} input {index}: vjp disagrees with "
                f"finite differences (max abs error {error.max():.3e})"
            )
    return max_error


def check_primitive(
    primitive,
    rng: Optional[np.random.Generator] = None,
    eps: float = 1e-5,
    atol: float = 1e-4,
    rtol: float = 1e-3,
) -> int:
    """Run the registry-driven differential checks over a primitive's samples.

    Returns the number of samples checked (so callers can assert coverage).
    Raises :class:`AssertionError` on the first violated check.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not primitive.samples:
        raise ValueError(f"primitive {primitive.name!r} declares no samples to check")
    checked = 0
    for sample in primitive.samples:
        inputs, params = sample(rng, np.float64)
        if not primitive.fd_exempt:
            _fd_vjp_check(primitive, inputs, params, eps, atol, rtol)
        checked += 1
    return checked
