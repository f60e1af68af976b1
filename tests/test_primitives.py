"""Registry-driven differential checks over the primitive IR.

Every :class:`~repro.tensor.primitives.Primitive` ships its own sample
generators, so this module is intentionally thin: it sweeps the registry and
delegates to :func:`gradcheck.check_primitive` (``tests/gradcheck.py``),
which runs a finite-difference vjp validation (the FD-exempt surrogate spike is pinned
against its surrogate derivative in ``tests/test_snn_neurons.py``).

The remaining sweeps pin the IR contract that the tape and the fused kernels
rely on: the residual-free forward gives the recorded forward's bits, neither
forward nor vjp writes into its operands, and the vjp returns one
input-shaped cotangent per input, linear in the output cotangent and
independent of which other inputs need one.

A primitive added without samples, without a vjp, or with a wrong adjoint
fails here without anyone writing a bespoke test for it.
"""

from __future__ import annotations

import numpy as np
import pytest

from gradcheck import check_primitive
from repro.tensor.primitives import all_primitives, get_primitive

PRIMITIVE_NAMES = sorted(all_primitives())


def test_registry_is_populated():
    # the fused training kernels lean on these adjoints directly; their
    # presence in the registry is what the gradcheck sweep below certifies
    for name in ("conv2d", "avg_pool2d", "matmul", "mean", "spike"):
        assert name in PRIMITIVE_NAMES


@pytest.mark.parametrize("name", PRIMITIVE_NAMES)
def test_primitive_declares_contract(name):
    primitive = get_primitive(name)
    assert primitive.vjp is not None, f"{name} has no hand-written adjoint"
    assert primitive.samples, f"{name} declares no gradcheck samples"


@pytest.mark.parametrize("name", PRIMITIVE_NAMES)
def test_primitive_gradcheck_float64(name):
    rng = np.random.default_rng(1234)
    checked = check_primitive(get_primitive(name), rng=rng)
    assert checked >= 1



def _samples(name):
    """Every declared sample of ``name`` as float64 ``(inputs, params)`` pairs."""
    rng = np.random.default_rng(99)
    return [make(rng, np.float64) for make in get_primitive(name).samples]


def _recorded_with_cotangent(primitive, inputs, params):
    """The recorded forward's residuals plus a random cotangent for its output."""
    out, ctx = primitive.forward(*inputs, want_ctx=True, **params)
    return ctx, np.random.default_rng(5).standard_normal(np.shape(out))


@pytest.mark.parametrize("name", PRIMITIVE_NAMES)
def test_inference_forward_matches_recorded_forward(name):
    # the residual-free branch may take a cheaper route, but to the same bits
    primitive = get_primitive(name)
    for inputs, params in _samples(name):
        recorded, _ = primitive.forward(*inputs, want_ctx=True, **params)
        inferred, ctx = primitive.forward(*inputs, **params)
        assert ctx is None
        assert np.shape(inferred) == np.shape(recorded)
        assert np.array_equal(inferred, recorded)


@pytest.mark.parametrize("name", PRIMITIVE_NAMES)
def test_forward_leaves_inputs_untouched(name):
    primitive = get_primitive(name)
    for inputs, params in _samples(name):
        before = [np.array(a, copy=True) for a in inputs]
        for want_ctx in (True, False):
            primitive.forward(*inputs, want_ctx=want_ctx, **params)
            for original, array in zip(before, inputs):
                assert np.array_equal(original, array)


@pytest.mark.parametrize("name", PRIMITIVE_NAMES)
def test_vjp_leaves_cotangent_untouched(name):
    # the tape hands the vjp the output's own gradient buffer
    primitive = get_primitive(name)
    for inputs, params in _samples(name):
        ctx, g = _recorded_with_cotangent(primitive, inputs, params)
        before = g.copy()
        primitive.vjp(ctx, g, tuple(True for _ in inputs), **params)
        assert np.array_equal(g, before)


@pytest.mark.parametrize("name", PRIMITIVE_NAMES)
def test_vjp_cotangents_match_input_shapes(name):
    primitive = get_primitive(name)
    for inputs, params in _samples(name):
        ctx, g = _recorded_with_cotangent(primitive, inputs, params)
        grads = primitive.vjp(ctx, g, tuple(True for _ in inputs), **params)
        assert len(grads) == len(inputs)
        for array, grad in zip(inputs, grads):
            assert grad is not None
            assert np.shape(grad) == np.shape(array)


@pytest.mark.parametrize("name", PRIMITIVE_NAMES)
def test_vjp_with_partial_needs_matches_full_needs(name):
    # asking for one input's cotangent must not change its value
    primitive = get_primitive(name)
    for inputs, params in _samples(name):
        ctx, g = _recorded_with_cotangent(primitive, inputs, params)
        full = primitive.vjp(ctx, g, tuple(True for _ in inputs), **params)
        for index in range(len(inputs)):
            needs = tuple(i == index for i in range(len(inputs)))
            partial = primitive.vjp(ctx, g, needs, **params)
            assert np.array_equal(partial[index], full[index])


@pytest.mark.parametrize("name", PRIMITIVE_NAMES)
def test_vjp_is_linear_in_cotangent(name):
    # scaling by a power of two is exact, so linearity holds bit for bit
    primitive = get_primitive(name)
    for inputs, params in _samples(name):
        ctx, g = _recorded_with_cotangent(primitive, inputs, params)
        needs = tuple(True for _ in inputs)
        base = primitive.vjp(ctx, g, needs, **params)
        doubled = primitive.vjp(ctx, 2.0 * g, needs, **params)
        for one, two in zip(base, doubled):
            assert np.array_equal(2.0 * np.asarray(one), np.asarray(two))
