"""Differentiable 2-D convolution and pooling built on im2col.

These are the hot paths of every experiment in the paper (all three adapted
architectures are convolutional, and the SNN unrolls them over time), so the
implementation is fully vectorised:

* the im2col "lowering" is produced with :func:`numpy.lib.stride_tricks.as_strided`
  so no data is copied to build the patch view;
* the contraction between patches and filters is a single ``einsum`` call that
  also handles grouped convolution (needed for the MobileNetV2 depthwise
  blocks) without a Python loop over groups;
* the backward col2im accumulation loops only over the *kernel* positions
  (e.g. 9 iterations for a 3x3 kernel), never over batch or spatial positions.

Each op is one registered primitive.  Its ``want_ctx=False`` forward — the
branch :func:`~repro.tensor.primitives.apply` takes when no gradient will
ever be needed — is the **graph-free inference kernel**: the convolution
copies the grouped im2col view once into a per-thread workspace column matrix
(:mod:`repro.tensor.workspace`) and contracts it with a single batched GEMM
(``np.matmul``), and the pools reduce the strided window view of a pooled
padded buffer directly.  The GEMM reduces over the same ``(channel, kh, kw)``
axis order as the einsum, so both branches produce bit-identical outputs
(pinned by ``tests/test_inference_fastpath.py``) while the inference kernel
avoids the einsum dispatch overhead, the per-call padded-buffer allocation
and every residual — the im2col scratch is reused across the time steps of an
SNN simulation instead of being reallocated per step.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.tensor.primitives import Primitive, apply as _apply, register
from repro.tensor.tensor import Tensor, ensure_tensor
from repro.trace import ops_span
from repro.tensor.workspace import workspace

IntOrPair = Union[int, Tuple[int, int]]


def _pair(value: IntOrPair) -> Tuple[int, int]:
    """Normalise an int-or-pair argument to a pair."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_shape(
    height: int, width: int, kernel_size: IntOrPair, stride: IntOrPair = 1, padding: IntOrPair = 0
) -> Tuple[int, int]:
    """Return the spatial output shape of a conv/pool with the given geometry."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv geometry produces empty output: input {height}x{width}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, padding {ph}x{pw}"
        )
    return out_h, out_w


def _strided_view(arr: np.ndarray, shape: Tuple[int, ...], strides: Tuple[int, ...]) -> np.ndarray:
    """A read-only overlapping view, built the cheapest way the layout allows.

    The ``np.ndarray`` buffer constructor skips ``as_strided``'s interface
    round-trip (several µs per call, and the training kernels build hundreds
    of these views per step) but only accepts contiguous buffers; irregular
    layouts — transposed channel-major stashes — fall back.
    """
    if arr.flags["C_CONTIGUOUS"]:
        return np.ndarray(shape, dtype=arr.dtype, buffer=arr, strides=strides)
    return as_strided(arr, shape=shape, strides=strides, writeable=False)


def _im2col_view(padded: np.ndarray, kh: int, kw: int, sh: int, sw: int, out_h: int, out_w: int) -> np.ndarray:
    """Return a (N, C, KH, KW, OH, OW) strided view of the padded input."""
    n, c, _, _ = padded.shape
    stride_n, stride_c, stride_h, stride_w = padded.strides
    shape = (n, c, kh, kw, out_h, out_w)
    strides = (stride_n, stride_c, stride_h, stride_w, stride_h * sh, stride_w * sw)
    return _strided_view(padded, shape, strides)


def _col2im(
    col_grad: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
    ph: int,
    pw: int,
) -> np.ndarray:
    """Scatter-add a (N, C, KH, KW, OH, OW) gradient back onto the input."""
    n, c, h, w = input_shape
    out_h = col_grad.shape[4]
    out_w = col_grad.shape[5]
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=col_grad.dtype)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += col_grad[:, :, i, j]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + h, pw : pw + w]


def _padded_workspace(x: np.ndarray, ph: int, pw: int, key: str) -> np.ndarray:
    """Copy ``x`` into a pooled zero-bordered padded buffer.

    The pool key is qualified by the full geometry, so every distinct padded
    layer of a model owns its buffer: after a layer's first call, its border
    cells are still zero (only the interior is ever overwritten) and the
    per-step cost is the interior copy alone — even when many layers with
    different geometries interleave within one simulation step.
    """
    n, c, h, w = x.shape
    signature = (n, c, h, w, ph, pw)
    padded, matched = workspace(
        f"{key}:{signature}", (n, c, h + 2 * ph, w + 2 * pw), x.dtype, signature=signature
    )
    if not matched:
        padded[...] = 0.0
    padded[:, :, ph : ph + h, pw : pw + w] = x
    return padded


def _conv2d_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    groups: int,
    sh: int,
    sw: int,
    ph: int,
    pw: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Graph-free grouped convolution forward: pooled im2col + one batched GEMM.

    Reduces over ``(c_in_per_group, kh, kw)`` in exactly the order of the
    autograd path's einsum contraction, so outputs are bit-identical to it.
    Only the scratch (padded input, column matrix) lives in the workspace
    pool; the returned array is always freshly allocated by the GEMM.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_per_group, kh, kw = weight.shape
    out_per_group = c_out // groups
    if ph or pw:
        padded = _padded_workspace(x, ph, pw, "conv2d.pad")
    else:
        # the strided view below is valid for any regular layout, so even a
        # transposed view (e.g. a chained fast-path conv output) needs no copy
        padded = x
    stride_n, stride_c, stride_h, stride_w = padded.strides
    # grouped im2col view (G, Cg, KH, KW, N, OH, OW) — contraction axes lead
    view = _strided_view(
        padded,
        (groups, c_in_per_group, kh, kw, n, out_h, out_w),
        (
            stride_c * c_in_per_group,
            stride_c,
            stride_h,
            stride_w,
            stride_n,
            stride_h * sh,
            stride_w * sw,
        ),
    )
    m = n * out_h * out_w
    cols, _ = workspace("conv2d.cols", (groups, c_in_per_group * kh * kw, m), x.dtype)
    np.copyto(cols.reshape(groups, c_in_per_group, kh, kw, n, out_h, out_w), view)
    if groups == 1:
        # plain 2-D GEMM skips the batched-matmul dispatch overhead
        weight_mat = weight.reshape(c_out, c_in_per_group * kh * kw)
        out = weight_mat @ cols[0]  # (C_out, N*OH*OW), freshly allocated
        if bias is not None:
            out += bias.reshape(c_out, 1)
    else:
        weight_mat = weight.reshape(groups, out_per_group, c_in_per_group * kh * kw)
        out = np.matmul(weight_mat, cols)  # (G, Og, N*OH*OW), freshly allocated
        if bias is not None:
            out += bias.reshape(groups, out_per_group, 1)
    return out.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3)


# ---------------------------------------------------------------------------
# primitives: conv2d / avg_pool2d
# ---------------------------------------------------------------------------

def _conv2d_fwd(*arrays, want_ctx=False, stride, padding, groups):
    x, weight = arrays[0], arrays[1]
    bias = arrays[2] if len(arrays) > 2 else None
    n, c_in, h, w = x.shape
    c_out, c_in_per_group, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = conv_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))
    if not want_ctx:
        return _conv2d_infer(x, weight, bias, groups, sh, sw, ph, pw, out_h, out_w), None
    if ph or pw:
        padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    else:
        padded = x
    col = _im2col_view(padded, kh, kw, sh, sw, out_h, out_w)
    # (N, G, Cg, KH, KW, OH, OW) x (G, Og, Cg, KH, KW) -> (N, G, Og, OH, OW)
    col_g = col.reshape(n, groups, c_in_per_group, kh, kw, out_h, out_w)
    w_g = weight.reshape(groups, c_out // groups, c_in_per_group, kh, kw)
    out = np.einsum("ngcuvhw,gocuv->ngohw", col_g, w_g, optimize=True)
    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    geometry = (n, c_in, h, w, kh, kw, sh, sw, ph, pw, out_h, out_w, c_out, weight.shape)
    return out, (col_g, w_g, geometry)


def _conv2d_vjp(ctx, g, needs, *, stride, padding, groups):
    col_g, w_g, geometry = ctx
    n, c_in, h, w, kh, kw, sh, sw, ph, pw, out_h, out_w, c_out, weight_shape = geometry
    grads = [None] * len(needs)
    out_per_group = c_out // groups
    cpg = c_in // groups
    m = out_h * out_w
    grad_out = g.reshape(n, groups, out_per_group, out_h, out_w)
    go_mat = grad_out.reshape(n, groups, out_per_group, m)
    if needs[1]:
        # batched GEMM over (N, G) then a pairwise sum over the batch — an
        # order of magnitude faster than the equivalent einsum contraction at
        # the small per-layer sizes BPTT sweeps over
        col_mat = col_g.reshape(n, groups, cpg * kh * kw, m)
        grad_w = np.matmul(go_mat, col_mat.swapaxes(-1, -2)).sum(axis=0)
        grads[1] = grad_w.reshape(weight_shape)
    if len(needs) > 2 and needs[2]:
        grads[2] = g.sum(axis=(0, 2, 3))
    if needs[0]:
        if sh == 1 and sw == 1:
            # stride-1 input gradient as one GEMM: correlate the zero-padded
            # output gradient with the spatially flipped, channel-transposed
            # weight — no column gradient, no overlapping scatter-add.  Only
            # the h x w interior is computed: padding the output gradient by
            # k-1-p (cropping it where that is negative) lines its taps up
            # with the input pixels, never the forward's padding border
            wf = w_g[:, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4)
            wf = np.ascontiguousarray(wf).reshape(c_in, out_per_group, kh, kw)
            qh, qw = kh - 1 - ph, kw - 1 - pw
            go = grad_out.reshape(n, c_out, out_h, out_w)
            if qh < 0 or qw < 0:
                ch, cw = max(-qh, 0), max(-qw, 0)
                go = go[:, :, ch : out_h - ch, cw : out_w - cw]
            grads[0] = _conv2d_infer(
                go, wf, None, groups, 1, 1, max(qh, 0), max(qw, 0), h, w
            )
        else:
            grad_col = np.matmul(
                w_g.reshape(groups, out_per_group, cpg * kh * kw).swapaxes(-1, -2), go_mat
            )
            grad_col = grad_col.reshape(n, c_in, kh, kw, out_h, out_w)
            grads[0] = _col2im(grad_col, (n, c_in, h, w), kh, kw, sh, sw, ph, pw)
    return tuple(grads)


def _conv2d_sample(shapes, **params):
    def make(rng, dtype):
        inputs = tuple(rng.standard_normal(shape).astype(dtype, copy=False) for shape in shapes)
        return inputs, dict(params)

    return make


CONV2D = register(
    Primitive(
        "conv2d",
        forward=_conv2d_fwd,
        vjp=_conv2d_vjp,
        samples=[
            _conv2d_sample(
                [(2, 3, 5, 5), (4, 3, 3, 3), (4,)], stride=(1, 1), padding=(1, 1), groups=1
            ),
            _conv2d_sample([(2, 3, 6, 6), (4, 3, 3, 3)], stride=(2, 2), padding=(0, 0), groups=1),
            _conv2d_sample(
                [(2, 4, 5, 5), (6, 2, 3, 3), (6,)], stride=(1, 1), padding=(1, 1), groups=2
            ),
        ],
    )
)


def _pool_sample(shape, **params):
    def make(rng, dtype):
        return (rng.standard_normal(shape).astype(dtype, copy=False),), dict(params)

    return make


def _avg_pool2d_fwd(x, want_ctx=False, *, kernel, stride, padding):
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    n, c, h, w = x.shape
    out_h, out_w = conv_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))
    if not want_ctx:
        padded = _padded_workspace(x, ph, pw, "avg_pool2d.pad") if ph or pw else x
        return _im2col_view(padded, kh, kw, sh, sw, out_h, out_w).mean(axis=(2, 3)), None
    if ph or pw:
        padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    else:
        padded = x
    col = _im2col_view(padded, kh, kw, sh, sw, out_h, out_w)
    out = col.mean(axis=(2, 3))
    return out, (n, c, h, w, kh, kw, sh, sw, ph, pw, out_h, out_w)


def _avg_pool2d_vjp(ctx, g, needs, *, kernel, stride, padding):
    if not needs[0]:
        return (None,)
    n, c, h, w, kh, kw, sh, sw, ph, pw, out_h, out_w = ctx
    scale = 1.0 / (kh * kw)
    grad_col = np.broadcast_to(g[:, :, None, None] * scale, (n, c, kh, kw, out_h, out_w)).astype(
        np.float64
    )
    return (_col2im(grad_col, (n, c, h, w), kh, kw, sh, sw, ph, pw),)


AVG_POOL2D = register(
    Primitive(
        "avg_pool2d",
        forward=_avg_pool2d_fwd,
        vjp=_avg_pool2d_vjp,
        samples=[
            _pool_sample((2, 3, 6, 6), kernel=(2, 2), stride=(2, 2), padding=(0, 0)),
            _pool_sample((2, 3, 5, 5), kernel=(3, 3), stride=(2, 2), padding=(1, 1)),
        ],
    )
)


def conv2d(
    x,
    weight,
    bias=None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
    groups: int = 1,
) -> Tensor:
    """Grouped 2-D convolution over an NCHW tensor.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in // groups, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding:
        Convolution geometry (int or pair).
    groups:
        Number of channel groups; ``groups == C_in`` gives a depthwise
        convolution as used by MobileNetV2's inverted residual blocks.
    """
    x = ensure_tensor(x)
    weight = ensure_tensor(weight)
    bias = ensure_tensor(bias) if bias is not None else None

    n, c_in, h, w = x.shape
    c_out, c_in_per_group, kh, kw = weight.shape
    if c_in % groups != 0 or c_out % groups != 0:
        raise ValueError(f"groups={groups} must divide both C_in={c_in} and C_out={c_out}")
    if c_in // groups != c_in_per_group:
        raise ValueError(
            f"weight expects {c_in_per_group} input channels per group but input provides {c_in // groups}"
        )
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))

    with ops_span("op.conv2d") as op:
        if op:
            op.set(shape=f"{n}x{c_in}x{h}x{w}->{c_out}x{out_h}x{out_w}")
        parents = [p for p in (x, weight, bias) if p is not None]
        return _apply(CONV2D, parents, stride=(sh, sw), padding=(ph, pw), groups=groups)


def avg_pool2d(x, kernel_size: IntOrPair, stride: IntOrPair = None, padding: IntOrPair = 0) -> Tensor:
    """2-D average pooling over an NCHW tensor."""
    kernel = _pair(kernel_size)
    stride = kernel if stride is None else _pair(stride)
    return _apply(AVG_POOL2D, (ensure_tensor(x),), kernel=kernel, stride=stride, padding=_pair(padding))


def global_avg_pool2d(x) -> Tensor:
    """Average over the spatial dimensions, returning ``(N, C)``."""
    x = ensure_tensor(x)
    pooled = x.mean(axis=(2, 3))
    return pooled
