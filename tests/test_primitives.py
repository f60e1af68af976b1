"""Registry-driven differential checks over the primitive IR.

Every :class:`~repro.tensor.primitives.Primitive` ships its own sample
generators, so this module is intentionally thin: it sweeps the registry and
delegates to :func:`repro.tensor.gradcheck.check_primitive`, which runs a
finite-difference vjp validation (the FD-exempt surrogate spike is pinned
against its surrogate derivative in ``tests/test_snn_neurons.py``).

A primitive added without samples, without a vjp, or with a wrong adjoint
fails here without anyone writing a bespoke test for it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor.gradcheck import check_primitive
from repro.tensor.primitives import all_primitives, get_primitive

PRIMITIVE_NAMES = sorted(all_primitives())


def test_registry_is_populated():
    # the fused training kernels lean on these adjoints directly; their
    # presence in the registry is what the gradcheck sweep below certifies
    for name in ("conv2d", "avg_pool2d", "matmul", "mean", "spike", "where"):
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

