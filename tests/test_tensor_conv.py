"""Tests of im2col convolution and pooling: shapes, reference values, gradients."""

import numpy as np
import pytest

from gradcheck import gradcheck
from repro.tensor import Tensor, avg_pool2d, conv2d, global_avg_pool2d
from repro.tensor.conv import _conv2d_fwd, _conv2d_infer, _conv2d_vjp, conv_output_shape


def naive_conv2d(x, w, b=None, stride=1, padding=0, groups=1):
    """Straightforward reference convolution used to validate the fast path."""
    n, c_in, h, width = x.shape
    c_out, c_in_g, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kh) // stride + 1
    out_w = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    c_out_g = c_out // groups
    for sample in range(n):
        for oc in range(c_out):
            g = oc // c_out_g
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[
                        sample,
                        g * c_in_g : (g + 1) * c_in_g,
                        i * stride : i * stride + kh,
                        j * stride : j * stride + kw,
                    ]
                    out[sample, oc, i, j] = (patch * w[oc]).sum()
            if b is not None:
                out[sample, oc] += b[oc]
    return out


class TestConvOutputShape:
    def test_basic(self):
        assert conv_output_shape(8, 8, 3, 1, 1) == (8, 8)
        assert conv_output_shape(8, 8, 3, 2, 1) == (4, 4)
        assert conv_output_shape(7, 9, (3, 5), 1, 0) == (5, 5)

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            conv_output_shape(2, 2, 5, 1, 0)


class TestConv2dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        fast = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        ref = naive_conv2d(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(fast.data, ref, atol=1e-10)

    def test_grouped_matches_naive(self, rng):
        x = rng.normal(size=(2, 4, 5, 5))
        w = rng.normal(size=(8, 2, 3, 3))
        fast = conv2d(Tensor(x), Tensor(w), None, padding=1, groups=2)
        ref = naive_conv2d(x, w, None, padding=1, groups=2)
        np.testing.assert_allclose(fast.data, ref, atol=1e-10)

    def test_depthwise_matches_naive(self, rng):
        x = rng.normal(size=(1, 6, 5, 5))
        w = rng.normal(size=(6, 1, 3, 3))
        fast = conv2d(Tensor(x), Tensor(w), None, padding=1, groups=6)
        ref = naive_conv2d(x, w, None, padding=1, groups=6)
        np.testing.assert_allclose(fast.data, ref, atol=1e-10)

    def test_1x1_conv(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(5, 3, 1, 1))
        fast = conv2d(Tensor(x), Tensor(w))
        ref = naive_conv2d(x, w)
        np.testing.assert_allclose(fast.data, ref, atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w)

    def test_bad_groups_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(2, 1, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w, groups=2)


class TestConv2dBackward:
    def test_gradcheck_with_bias(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.4, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        ok, err = gradcheck(lambda x, w, b: conv2d(x, w, b, stride=1, padding=1), [x, w, b])
        assert ok, err

    def test_gradcheck_strided(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.4, requires_grad=True)
        ok, err = gradcheck(lambda x, w: conv2d(x, w, None, stride=2, padding=1), [x, w])
        assert ok, err

    def test_gradcheck_depthwise(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 1, 3, 3)) * 0.4, requires_grad=True)
        ok, err = gradcheck(lambda x, w: conv2d(x, w, None, padding=1, groups=3), [x, w])
        assert ok, err

    def test_no_grad_skips_graph(self, rng):
        from repro.tensor import no_grad

        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        with no_grad():
            out = conv2d(x, w, padding=1)
        assert not out.requires_grad


def full_correlation_input_grad(g, w_g, geometry, groups):
    """Stride-1 input gradient as the crop of the full padded-plane correlation."""
    n, c_in, h, w, kh, kw, _sh, _sw, ph, pw, out_h, out_w, c_out, _shape = geometry
    wf = w_g[:, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4)
    wf = np.ascontiguousarray(wf).reshape(c_in, c_out // groups, kh, kw)
    full = _conv2d_infer(
        g.reshape(n, c_out, out_h, out_w),
        wf, None, groups, 1, 1, kh - 1, kw - 1, h + 2 * ph, w + 2 * pw,
    )
    return full[:, :, ph : ph + h, pw : pw + w]


STRIDE1_GEOMETRIES = [((k, k), (p, p)) for k in (1, 3, 5) for p in (0, 1, 2)] + [
    ((1, 3), (2, 0)),
    ((3, 1), (0, 2)),
    ((5, 3), (2, 1)),
]


def stride1_input_grads(rng, batch, size, kernel, padding, groups, channel_major):
    """(interior-only vjp input grad, cropped full correlation) for one geometry."""
    (kh, kw), (ph, pw) = kernel, padding
    x = rng.normal(size=(batch, 4, size, size))
    weight = rng.normal(size=(6, 4 // groups, kh, kw))
    out, ctx = _conv2d_fwd(x, weight, want_ctx=True, stride=(1, 1), padding=(ph, pw), groups=groups)
    g = rng.normal(size=out.shape)
    if channel_major:
        # conv outputs (and the fused kernel's scratches) are (C, N, H, W)-backed
        g = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    grads = _conv2d_vjp(ctx, g, (True, True), stride=(1, 1), padding=(ph, pw), groups=groups)
    assert grads[0].shape == x.shape
    return grads[0], full_correlation_input_grad(g, ctx[1], ctx[2], groups)


class TestStride1InputGradient:
    """The interior-only input gradient against the crop of the full correlation."""

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("kernel,padding", STRIDE1_GEOMETRIES)
    @pytest.mark.parametrize("size", [12, 6, 5])
    @pytest.mark.parametrize("channel_major", [False, True])
    def test_bit_identical_at_training_batch(self, rng, groups, kernel, padding, size, channel_major):
        # batch 16 is what the smoke and default scales train with
        interior, reference = stride1_input_grads(
            rng, 16, size, kernel, padding, groups, channel_major
        )
        assert np.array_equal(interior, reference)

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("kernel,padding", STRIDE1_GEOMETRIES)
    def test_odd_batch_agrees_to_rounding(self, rng, groups, kernel, padding):
        # both formulas make one GEMM column per input pixel, and each column
        # is the same dot product.  An optimised BLAS may compute the last
        # few columns of a GEMM with a narrower kernel: OpenBLAS on AVX-512
        # does so when the column count leaves 1-4 over a multiple of 8
        # (here 3 * 6 * 6 = 108).  The full correlation's last columns are
        # border pixels it crops away, so the last interior pixels can differ
        # by an ulp; the graph and fused paths share this vjp either way
        interior, reference = stride1_input_grads(rng, 3, 6, kernel, padding, groups, True)
        np.testing.assert_allclose(interior, reference, rtol=1e-12, atol=1e-12)


class TestPooling:
    def test_avg_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_avg_pool_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        ok, err = gradcheck(lambda x: avg_pool2d(x, 2), [x])
        assert ok, err

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(3, 5, 4, 4))
        out = global_avg_pool2d(Tensor(x))
        assert out.shape == (3, 5)
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))
