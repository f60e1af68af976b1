"""Unit tests for the differentiable primitives in :mod:`repro.tensor.ops`.

Every op gets (a) a forward-value check against plain NumPy and (b) a
finite-difference gradient check through :func:`gradcheck.gradcheck`.
"""

import numpy as np
import pytest

from gradcheck import gradcheck
from repro.tensor import Tensor, ops


def _t(rng, shape, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


class TestArithmetic:
    def test_add_forward(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = ops.add(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a + b)

    def test_add_broadcast_forward(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4,))
        out = ops.add(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a + b)

    def test_add_gradcheck(self, rng):
        ok, err = gradcheck(ops.add, [_t(rng, (3, 4)), _t(rng, (3, 4))])
        assert ok, err

    def test_add_broadcast_gradcheck(self, rng):
        ok, err = gradcheck(ops.add, [_t(rng, (3, 4)), _t(rng, (4,))])
        assert ok, err

    def test_add_scalar_broadcast_gradcheck(self, rng):
        ok, err = gradcheck(ops.add, [_t(rng, (2, 3)), _t(rng, (1,))])
        assert ok, err

    def test_sub_forward_and_grad(self, rng):
        a, b = _t(rng, (2, 5)), _t(rng, (2, 5))
        out = ops.sub(a, b)
        np.testing.assert_allclose(out.data, a.data - b.data)
        ok, err = gradcheck(ops.sub, [a, b])
        assert ok, err

    def test_mul_gradcheck(self, rng):
        ok, err = gradcheck(ops.mul, [_t(rng, (3, 3)), _t(rng, (3, 3))])
        assert ok, err

    def test_mul_broadcast_gradcheck(self, rng):
        ok, err = gradcheck(ops.mul, [_t(rng, (2, 3, 4)), _t(rng, (3, 1))])
        assert ok, err

    def test_div_gradcheck(self, rng):
        denominator = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        ok, err = gradcheck(ops.div, [_t(rng, (3, 4)), denominator])
        assert ok, err

    def test_neg_gradcheck(self, rng):
        ok, err = gradcheck(ops.neg, [_t(rng, (4,))])
        assert ok, err

    def test_power_gradcheck(self, rng):
        base = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        ok, err = gradcheck(lambda x: ops.power(x, 3.0), [base])
        assert ok, err

    def test_power_half(self, rng):
        base = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
        out = ops.power(base, 0.5)
        np.testing.assert_allclose(out.data, np.sqrt(base.data))

    def test_operator_overloads_match_ops(self, rng):
        a = Tensor(rng.normal(size=(2, 2)))
        b = Tensor(rng.normal(size=(2, 2)))
        np.testing.assert_allclose((a + b).data, ops.add(a, b).data)
        np.testing.assert_allclose((a - b).data, ops.sub(a, b).data)
        np.testing.assert_allclose((a * b).data, ops.mul(a, b).data)
        np.testing.assert_allclose((a / (b + 10.0)).data, ops.div(a, ops.add(b, 10.0)).data)
        np.testing.assert_allclose((-a).data, ops.neg(a).data)
        np.testing.assert_allclose((a ** 2).data, ops.power(a, 2).data)

    def test_scalar_right_operators(self, rng):
        a = Tensor(rng.normal(size=(3,)))
        np.testing.assert_allclose((2.0 + a).data, 2.0 + a.data)
        np.testing.assert_allclose((2.0 - a).data, 2.0 - a.data)
        np.testing.assert_allclose((2.0 * a).data, 2.0 * a.data)
        np.testing.assert_allclose((2.0 / (a + 5.0)).data, 2.0 / (a.data + 5.0))


class TestMatmul:
    def test_matmul_forward(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        out = ops.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b)

    def test_matmul_gradcheck(self, rng):
        ok, err = gradcheck(ops.matmul, [_t(rng, (3, 4)), _t(rng, (4, 2))])
        assert ok, err

    def test_batched_matmul_gradcheck(self, rng):
        ok, err = gradcheck(ops.matmul, [_t(rng, (2, 3, 4)), _t(rng, (4, 5))])
        assert ok, err


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


class TestNonlinearities:
    @pytest.mark.parametrize(
        "op,reference",
        [
            (ops.relu, lambda x: np.maximum(x, 0)),
        ],
    )
    def test_forward_matches_numpy(self, rng, op, reference):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(op(Tensor(x)).data, reference(x))

    def test_relu_gradcheck_away_from_kink(self, rng):
        x = Tensor(rng.normal(size=(4, 4)) + np.where(rng.normal(size=(4, 4)) > 0, 0.5, -0.5), requires_grad=True)
        ok, err = gradcheck(ops.relu, [x])
        assert ok, err


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


class TestReductions:
    def test_sum_all(self, rng):
        x = rng.normal(size=(3, 4))
        assert np.isclose(ops.sum(Tensor(x)).item(), x.sum())

    def test_sum_axis_keepdims(self, rng):
        x = rng.normal(size=(3, 4, 5))
        out = ops.sum(Tensor(x), axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, x.sum(axis=1, keepdims=True))

    def test_sum_axis_tuple_gradcheck(self, rng):
        ok, err = gradcheck(lambda x: ops.sum(x, axis=(0, 2)), [_t(rng, (2, 3, 4))])
        assert ok, err

    def test_mean_axis_gradcheck(self, rng):
        ok, err = gradcheck(lambda x: ops.mean(x, axis=1), [_t(rng, (3, 5))])
        assert ok, err

    def test_mean_all_value(self, rng):
        x = rng.normal(size=(4, 4))
        assert np.isclose(ops.mean(Tensor(x)).item(), x.mean())

class TestShapeOps:
    def test_reshape_roundtrip_gradcheck(self, rng):
        ok, err = gradcheck(lambda x: ops.reshape(x, (6, 2)), [_t(rng, (3, 4))])
        assert ok, err

    def test_reshape_infer_dimension(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert ops.reshape(x, (2, -1)).shape == (2, 12)

    def test_transpose_default_reverses(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert ops.transpose(x).shape == (4, 3, 2)

    def test_transpose_axes_gradcheck(self, rng):
        ok, err = gradcheck(lambda x: ops.transpose(x, (1, 0, 2)), [_t(rng, (2, 3, 4))])
        assert ok, err

    def test_concat_forward(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        out = ops.concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_allclose(out.data, np.concatenate([a, b], axis=1))

    def test_concat_gradcheck_three_inputs(self, rng):
        ok, err = gradcheck(
            lambda a, b, c: ops.concat([a, b, c], axis=1),
            [_t(rng, (2, 2)), _t(rng, (2, 3)), _t(rng, (2, 1))],
        )
        assert ok, err

    def test_concat_channel_axis_like_dsc(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5, 4, 4)), requires_grad=True)
        out = ops.concat([a, b], axis=1)
        assert out.shape == (2, 8, 4, 4)
        out.sum().backward()
        assert a.grad.shape == a.shape and b.grad.shape == b.shape


# ---------------------------------------------------------------------------
# composite ops
# ---------------------------------------------------------------------------


class TestComposite:
    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(
            ops.log_softmax(Tensor(x), axis=1).data,
            np.log(np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)),
            atol=1e-10,
        )

    def test_log_softmax_gradcheck(self, rng):
        ok, err = gradcheck(lambda x: ops.log_softmax(x, axis=1), [_t(rng, (4, 5))])
        assert ok, err

    def test_log_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(2, 5))
        a = ops.log_softmax(Tensor(x), axis=1).data
        b = ops.log_softmax(Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-9)
