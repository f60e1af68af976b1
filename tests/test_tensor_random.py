"""Tests of the deterministic RNG helpers and the gradient checker itself."""

import numpy as np
import pytest

from gradcheck import gradcheck, numerical_gradient
from repro.tensor import Tensor
from repro.tensor.random import default_rng, seed_everything, spawn_rngs


class TestDefaultRng:
    def test_integer_seed_is_deterministic(self):
        a = default_rng(42).random(5)
        b = default_rng(42).random(5)
        np.testing.assert_allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert default_rng(gen) is gen

    def test_seed_everything_installs_global_default(self):
        seed_everything(7)
        a = default_rng().random(3)
        b = default_rng().random(3)
        np.testing.assert_allclose(a, b)

    def test_spawn_rngs_are_independent_and_reproducible(self):
        children_a = spawn_rngs(3, 4)
        children_b = spawn_rngs(3, 4)
        assert len(children_a) == 4
        for a, b in zip(children_a, children_b):
            np.testing.assert_allclose(a.random(3), b.random(3))
        # different children produce different streams
        assert not np.allclose(children_a[0].random(5), children_a[1].random(5))


class TestGradcheckUtility:
    def test_detects_correct_gradient(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        ok, err = gradcheck(lambda x: x * x * x, [x])
        assert ok and err < 1e-4

    def test_detects_wrong_gradient(self, rng):
        """A deliberately broken op must fail the check."""
        from repro.tensor.tensor import Tensor as T, is_grad_enabled

        def broken_double(x):
            out = T(x.data * 2.0, requires_grad=True, _prev=(x,))

            def _backward():
                x.accumulate_grad(out.grad * 3.0)  # wrong: should be 2.0

            out._backward = _backward
            return out

        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        ok, err = gradcheck(broken_double, [x])
        assert not ok
        assert err > 0.5

    def test_numerical_gradient_of_square(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        num = numerical_gradient(lambda x: x * x, [x], 0)
        np.testing.assert_allclose(num, 2 * x.data, atol=1e-5)

    def test_gradcheck_skips_non_grad_inputs(self, rng):
        a = Tensor(rng.normal(size=(2,)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)))  # constant
        ok, _ = gradcheck(lambda a, b: a * b, [a, b])
        assert ok
