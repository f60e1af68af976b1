"""Tests of the autodiff engine itself: graph recording, backward, grad modes."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled, ops
from repro.tensor.tensor import _unbroadcast, ensure_tensor


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype.kind == "f"

    def test_integer_input_promoted_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "f"

    def test_zeros_ones_full(self):
        assert np.all(Tensor.zeros((2, 3)).data == 0)
        assert np.all(Tensor.ones((2, 3)).data == 1)
        assert np.all(Tensor.full((2, 2), 7.5).data == 7.5)

    def test_item_scalar(self):
        assert Tensor(np.array(3.5)).item() == 3.5

    def test_detach_shares_data_but_no_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        d.data[0] = 5.0
        assert t.data[0] == 5.0  # shares memory

    def test_copy_is_independent(self):
        t = Tensor(np.ones(3))
        c = t.copy()
        c.data[0] = 9.0
        assert t.data[0] == 1.0

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_comparison_operators_return_masks(self):
        t = Tensor(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose((t > 1.5).data, [0.0, 1.0, 1.0])
        np.testing.assert_allclose((t <= 2.0).data, [1.0, 1.0, 0.0])


class TestBackward:
    def test_simple_chain(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + 3.0 * x
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])  # 2x + 3 at x=2

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).backward()
        (x * 2.0).backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad_resets(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 5.0).backward()
        x.zero_grad()
        np.testing.assert_allclose(x.grad, [0.0])

    def test_backward_requires_scalar_or_explicit_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()
        y.backward(np.ones(3))
        np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_shared_subexpression_gradient(self):
        # y = a*b; z = y + y should give dz/da = 2b
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = Tensor(np.array([4.0]), requires_grad=True)
        y = a * b
        z = y + y
        z.backward()
        np.testing.assert_allclose(a.grad, [8.0])
        np.testing.assert_allclose(b.grad, [6.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3.0
        b = x * 5.0
        y = a * b  # y = 15 x^2, dy/dx = 30x = 60
        y.backward()
        np.testing.assert_allclose(x.grad, [60.0])

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        depth = 3000
        for _ in range(depth):
            y = y + 1.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_graph_size_counts_nodes(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = (x * 2.0) + (x * 3.0)
        assert y.graph_size() >= 3

    def test_topological_order_children_before_parents(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x * 2.0
        z = y + 1.0
        order = z._topological_order()
        assert order.index(x) < order.index(y) < order.index(z)


class TestGradMode:
    def test_no_grad_disables_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_requires_grad_suppressed_inside_no_grad(self):
        with no_grad():
            t = Tensor(np.ones(2), requires_grad=True)
        assert not t.requires_grad


class TestUnbroadcast:
    def test_identity_when_shapes_match(self, rng):
        g = rng.normal(size=(3, 4))
        np.testing.assert_allclose(_unbroadcast(g, (3, 4)), g)

    def test_sum_over_prepended_axis(self, rng):
        g = rng.normal(size=(5, 3, 4))
        np.testing.assert_allclose(_unbroadcast(g, (3, 4)), g.sum(axis=0))

    def test_sum_over_size_one_axis(self, rng):
        g = rng.normal(size=(3, 4))
        np.testing.assert_allclose(_unbroadcast(g, (3, 1)), g.sum(axis=1, keepdims=True))

    def test_combined(self, rng):
        g = rng.normal(size=(2, 3, 4))
        result = _unbroadcast(g, (1, 4))
        np.testing.assert_allclose(result, g.sum(axis=(0, 1)).reshape(1, 4))

    def test_scalar_target(self, rng):
        g = rng.normal(size=(2, 3))
        np.testing.assert_allclose(_unbroadcast(g, ()), g.sum())


class TestEnsureTensor:
    def test_passthrough(self):
        t = Tensor(np.ones(2))
        assert ensure_tensor(t) is t

    def test_wraps_scalars_and_arrays(self):
        assert ensure_tensor(3.0).shape == ()
        assert ensure_tensor(np.ones((2, 2))).shape == (2, 2)


class TestMethodWrappers:
    def test_method_style_ops(self, rng):
        x = Tensor(rng.uniform(0.5, 1.5, size=(2, 3)), requires_grad=True)
        assert x.sum().shape == ()
        assert x.mean(axis=0).shape == (3,)
        assert x.reshape(3, 2).shape == (3, 2)
        assert x.reshape((6,)).shape == (6,)
        assert x.transpose().shape == (3, 2)
        assert x.relu().shape == (2, 3)
        assert x.flatten_batch().shape == (2, 3)
