"""Differential tests of the float32 substrate against the pinned tolerance
contract (PR 8).

Bit-equality between float32 and float64 runs is impossible, so the contract
(:mod:`repro.tensor.tolerance`) is the spec: a float32 chain of length ``n``
must agree with the float64 reference within
``FLOAT32_SAFETY * eps32 * n * (scale + |reference|)``.  These tests pin

* the contract API itself (bounds, failure reporting),
* per-op conformance, property-based over random geometries,
* an *exactness* property on dyadic-rational workloads (where float32 incurs
  no rounding at all, the two substrates must agree bitwise — a far sharper
  differential check than any tolerance),
* end-to-end temporal evaluations (``Module.to_dtype`` casting, state-buffer
  dtypes, workspace pools, aggregation) and the latency objective in float32.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import get_template
from repro.nn import BatchNorm2d, Conv2d, Flatten, Linear, Sequential
from repro.snn import LeakyIntegrator, LIFNeuron, TemporalRunner
from repro.snn.encoding import RateEncoder, encode_batch
from repro.snn.temporal import run_temporal
from repro.tensor import (
    FLOAT32_SAFETY,
    Tensor,
    assert_float32_contract,
    float32_tolerance,
    float32_within_contract,
    no_grad,
    ops,
)
from repro.tensor.conv import conv2d
from repro.tensor.random import seed_everything
from repro.tensor.workspace import _POOL
from repro.training.evaluation import measure_latency_ms

FAST = settings(max_examples=20, deadline=None)

F32 = np.float32
F64 = np.float64


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# the contract API
# ---------------------------------------------------------------------------

class TestContractAPI:
    def test_tolerance_grows_linearly_with_chain_length(self):
        eps32 = float(np.finfo(np.float32).eps)
        assert float32_tolerance(1) == FLOAT32_SAFETY * eps32
        assert float32_tolerance(100) == pytest.approx(100 * float32_tolerance(1))
        with pytest.raises(ValueError):
            float32_tolerance(0)

    def test_within_contract_boundary(self):
        reference = np.array([1.0])
        tol = float32_tolerance(10)
        inside = reference + tol * (1.0 + np.abs(reference)) * 0.99
        outside = reference + tol * (1.0 + np.abs(reference)) * 1.01
        assert float32_within_contract(inside, reference, 10)
        assert not float32_within_contract(outside, reference, 10)

    def test_assert_reports_worst_violation(self):
        reference = np.zeros(4)
        bad = np.array([0.0, 0.0, 1.0, 0.0])
        with pytest.raises(AssertionError, match="flat index 2"):
            assert_float32_contract(bad, reference, 1, context="unit")

    def test_scale_guards_near_zero_outputs(self):
        """Elements near zero are judged against the global scale, not their
        own magnitude — catastrophic cancellation must not fail the contract."""
        reference = np.array([1000.0, 0.0])
        actual = np.array([1000.0, 1e-4])  # absolute error tiny vs scale 1000
        assert float32_within_contract(actual, reference, 8)


# ---------------------------------------------------------------------------
# per-op conformance, property-based
# ---------------------------------------------------------------------------

class TestPerOpContract:
    @FAST
    @given(
        c_in=st.integers(1, 8),
        c_out=st.integers(1, 8),
        k=st.sampled_from([1, 3, 5]),
        padding=st.integers(0, 2),
        stride=st.integers(1, 2),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_conv2d(self, c_in, c_out, k, padding, stride, seed):
        if 12 + 2 * padding < k:
            return
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, c_in, 12, 12))
        w = rng.standard_normal((c_out, c_in, k, k))
        b = rng.standard_normal(c_out)
        with no_grad():
            ref = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
            f32 = conv2d(
                Tensor(x.astype(F32)), Tensor(w.astype(F32)), Tensor(b.astype(F32)),
                stride=stride, padding=padding,
            ).data
        assert f32.dtype == F32
        assert_float32_contract(f32, ref, accumulation_length=c_in * k * k + 1, context="conv2d")

    @FAST
    @given(n=st.integers(1, 16), f=st.integers(1, 256), m=st.integers(1, 32), seed=st.integers(0, 2**31 - 1))
    def test_matmul(self, n, f, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, f))
        b = rng.standard_normal((f, m))
        with no_grad():
            f32 = ops.matmul(Tensor(a.astype(F32)), Tensor(b.astype(F32))).data
        assert f32.dtype == F32
        assert_float32_contract(f32, a @ b, accumulation_length=f, context="matmul")

    @FAST
    @given(size=st.integers(2, 4096), seed=st.integers(0, 2**31 - 1))
    def test_sum_and_mean(self, size, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(size)
        with no_grad():
            s32 = ops.sum(Tensor(x.astype(F32))).data
            m32 = ops.mean(Tensor(x.astype(F32))).data
        assert_float32_contract(s32, x.sum(), accumulation_length=size, context="sum")
        assert_float32_contract(m32, x.mean(), accumulation_length=size, context="mean")


# ---------------------------------------------------------------------------
# dyadic-rational exactness: the sharpest differential check
# ---------------------------------------------------------------------------

class TestDyadicExactness:
    @FAST
    @given(kind_seed=st.integers(0, 2**31 - 1), steps=st.integers(2, 5))
    def test_spiking_chain_is_bitwise_exact_on_dyadic_workloads(self, kind_seed, steps):
        """Weights in 1/64 steps, binary inputs, beta=0.5, threshold=0.75:
        every intermediate is exactly representable in float32, so the float32
        run must reproduce the float64 run **bitwise** — any discrepancy is a
        substrate bug (hidden upcast, wrong op order), not rounding."""
        rng = np.random.default_rng(kind_seed)
        batch = (rng.random((2, steps, 2, 8, 8)) < 0.2).astype(F64)
        model = Sequential(
            Conv2d(2, 4, kernel_size=3, padding=1),
            LIFNeuron(beta=0.5, threshold=0.75),
            Flatten(),
            Linear(4 * 8 * 8, 4),
            LeakyIntegrator(0.5),
        )
        for param in model.parameters():
            quantised = np.round(rng.uniform(-1.0, 1.0, size=param.shape) * 64.0) / 64.0
            param.data[...] = quantised
        model.eval()
        with no_grad():
            ref = run_temporal(model, batch, num_steps=steps, readout="membrane_last").data
            model.to_dtype(F32)
            f32 = run_temporal(model, batch.astype(F32), num_steps=steps, readout="membrane_last").data
        assert f32.dtype == F32
        assert np.array_equal(ref, f32.astype(F64))


# ---------------------------------------------------------------------------
# end-to-end: to_dtype, state buffers, aggregation, latency
# ---------------------------------------------------------------------------

class TestToDtype:
    def test_casts_float_params_and_buffers_only(self):
        model = Sequential(Conv2d(2, 4, kernel_size=3, padding=1), BatchNorm2d(4))
        model.register_buffer("step_count", np.array(3, dtype=np.int64))
        result = model.to_dtype(F32)
        assert result is model  # chainable
        assert all(p.data.dtype == F32 for p in model.parameters())
        bn = model[1]
        assert bn.running_mean.dtype == F32 and bn.running_var.dtype == F32
        assert model.step_count.dtype == np.int64  # non-float buffer untouched
        model.to_dtype(F64)
        assert all(p.data.dtype == F64 for p in model.parameters())
        with pytest.raises(ValueError):
            model.to_dtype(np.int32)

    def test_state_and_workspace_buffers_follow_the_input_dtype(self, rng):
        neuron = LIFNeuron(beta=0.9)
        neuron.reset_state()
        with no_grad():
            for _ in range(2):  # the second step runs the reset and decay too
                out = neuron(Tensor(rng.standard_normal((2, 4)).astype(F32)))
            assert out.data.dtype == F32
            assert neuron.membrane.data.dtype == F32
            assert neuron.previous_spikes.data.dtype == F32
            # switching back to float64 carries no stale f32 state over
            neuron.reset_state()
            for _ in range(2):
                out64 = neuron(Tensor(rng.standard_normal((2, 4))))
            assert out64.data.dtype == F64
            assert neuron.membrane.data.dtype == F64
            assert neuron.previous_spikes.data.dtype == F64
        # the conv im2col workspace adopts the input dtype too
        with no_grad():
            conv2d(Tensor(rng.standard_normal((1, 2, 8, 8)).astype(F32)),
                   Tensor(rng.standard_normal((4, 2, 3, 3)).astype(F32)), padding=1)
        assert _POOL._entries()["conv2d.cols"]["flat"].dtype == F32

    def test_encoders_preserve_float32(self, rng):
        batch32 = rng.random((2, 2, 8, 8)).astype(F32)
        steps = encode_batch(batch32, None, num_steps=3)
        assert all(s.data.dtype == F32 for s in steps)
        rate = RateEncoder(num_steps=3, rng=0)
        assert all(s.data.dtype == F32 for s in rate(batch32))
        # integer input still lands on float64 (the historical default)
        steps_int = encode_batch((rng.random((2, 2, 8, 8)) < 0.5).astype(np.int64), None, num_steps=2)
        assert all(s.data.dtype == F64 for s in steps_int)


class TestEndToEndContract:
    NUM_STEPS = 4

    def _run(self, dtype):
        seed_everything(7)
        template = get_template("resnet18", input_channels=2, num_classes=5)
        model = template.build(spiking=True, rng=0)
        model.eval()
        if dtype == F32:
            model.to_dtype(F32)
        batch = np.random.default_rng(1).random((2, self.NUM_STEPS, 2, 16, 16)).astype(dtype)
        with no_grad():
            out = run_temporal(model, batch, num_steps=self.NUM_STEPS)
        return out.data

    def test_template_within_contract(self):
        ref = self._run(F64)
        f32 = self._run(F32)
        assert f32.dtype == F32
        # generous composed chain length: deepest conv reduction x steps; the
        # fixed seed keeps every membrane comfortably away from the threshold
        # so the spike trains agree and only accumulated rounding remains
        assert_float32_contract(f32, ref, accumulation_length=4096, context="resnet18")

    def test_latency_objective_in_float32(self, rng):
        template = get_template("single_block", input_channels=2, num_classes=4)
        model = template.build(spiking=True, rng=0).to_dtype(F32)
        runner = TemporalRunner(model, num_steps=3)
        batch = rng.random((2, 2, 8, 8)).astype(F32)
        latency = measure_latency_ms(runner, batch, runs=2, warmup=1)
        assert latency > 0.0
        # explicit dtype override casts on behalf of the caller
        latency64 = measure_latency_ms(runner, batch, runs=1, warmup=0, dtype=F64)
        assert latency64 > 0.0
