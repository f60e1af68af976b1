"""Tests for the fused temporal training kernel (:mod:`repro.snn.fused_step`).

The fused path's contract has three legs, each pinned here:

* **bit-identity** — for every reset mechanism, surrogate gradient and
  model template, for searched skip wiring and for windows down to one
  time step, the fused step reproduces graph autograd exactly: same loss,
  same logits, same bits in every parameter gradient and batch-norm running
  statistic;
* **dispatch discipline** — ``auto`` fuses only when the compiled plan
  qualifies and silently falls back otherwise, ``on`` raises with the
  disqualifying reason, ``off`` always takes the recorded graph, and the
  routing counters account for every step either way;
* **residual lifetime** — a kernel's residual stash never aliases anything
  that escapes a step: interleaved training of two models produces the same
  bits as training them separately, and a backward against residuals
  overwritten by a newer forward fails loudly instead of computing garbage;
* **residual ownership** — each kernel owns its stash, nothing of it stays
  in the process-wide workspace pool, and it is freed the moment
  ``SNNTrainer.fit`` returns, so a long search does not hold one stash per
  evaluation.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.async_eval import _absorb_telemetry, _TelemetryCall
from repro.core.objectives import EvaluationResult
from repro.data.loaders import ArrayDataset
from repro.models import get_template
from repro.models.blocks import NeuronConfig
from repro.nn import CrossEntropyLoss, Linear, Sequential
from repro.snn import TemporalRunner
from repro.snn.fused_step import (
    _FusedKernel,
    aggregate_fused_counters,
    fused_counters,
    fused_mode,
    fused_training,
    release_fused,
    reset_fused_counters,
)
from repro.snn.neurons import LIFNeuron
from repro.tensor import Tensor
from repro.tensor.workspace import _POOL
from repro.training import SNNTrainer, SNNTrainingConfig, Trainer, TrainingConfig

RESETS = ("subtract", "zero", "none")


def build_model(
    reset: str = "subtract",
    *,
    name: str = "resnet18",
    surrogate: str = "fast_sigmoid",
    spec_seed=None,
):
    """A small spiking SkipConnectionNetwork with deterministic weights.

    ``spec_seed`` samples a searched wiring (DSC concat and ASC add edges)
    instead of the template's default one.
    """
    sizes = {} if name == "single_block" else {"stage_channels": (6, 8)}
    template = get_template(name, input_channels=2, num_classes=10, **sizes)
    spec = None if spec_seed is None else template.search_space().sample(rng=spec_seed)
    neurons = NeuronConfig(surrogate=surrogate, reset_mechanism=reset)
    return template.build(spec, spiking=True, neuron_config=neurons, rng=0)


def make_batch(batch_size: int = 4, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.random((batch_size, 2, 12, 12)), rng.integers(0, 10, size=batch_size)


def one_step(mode: str, reset: str, num_steps: int = 3, **model_options):
    """One training step from a fresh seeded model; returns all observables."""
    batch, targets = make_batch()
    model = build_model(reset, **model_options)
    runner = TemporalRunner(model, num_steps=num_steps)
    model.zero_grad()
    with fused_training(mode):
        logits = runner(batch)
        loss = CrossEntropyLoss()(logits, targets)
        loss.backward()
    grads = {
        name: None if p.grad is None else np.array(p.grad)
        for name, p in model.named_parameters()
    }
    stats = {
        f"{name}.{buf}": np.array(getattr(module, buf))
        for name, module in model.named_modules()
        for buf in ("running_mean", "running_var")
        if hasattr(module, buf)
    }
    return float(loss.item()), np.array(logits.data), grads, stats


#: one case per reset mechanism, under the membrane-mean readout's ids
BIT_IDENTITY_CASES = [pytest.param(reset, id=f"membrane_mean-{reset}") for reset in RESETS]


def assert_fused_matches_graph(reset: str, **step_options):
    """One graph step and one fused step agree bit for bit on every observable."""
    reset_fused_counters()
    graph_loss, graph_logits, graph_grads, graph_stats = one_step("off", reset, **step_options)
    fused_loss, fused_logits, fused_grads, fused_stats = one_step("on", reset, **step_options)
    assert fused_loss == graph_loss
    assert np.array_equal(fused_logits, graph_logits)
    assert set(fused_grads) == set(graph_grads)
    for name, reference in graph_grads.items():
        candidate = fused_grads[name]
        if reference is None:
            assert candidate is None, name
            continue
        assert candidate is not None, name
        assert np.array_equal(candidate, reference), f"grad {name} diverged"
    for name, reference in graph_stats.items():
        assert np.array_equal(fused_stats[name], reference), f"buffer {name} diverged"
    counters = fused_counters()
    assert counters["fused_steps"] == 1
    assert counters["fallback_steps"] == 1


class TestBitIdentity:
    @pytest.mark.parametrize("reset", BIT_IDENTITY_CASES)
    def test_fused_step_matches_graph_autograd_exactly(self, reset):
        assert_fused_matches_graph(reset)

    @pytest.mark.parametrize("reset", RESETS)
    @pytest.mark.parametrize("surrogate", ["atan", "triangular", "straight_through"])
    def test_every_surrogate_matches_graph_autograd(self, surrogate, reset):
        assert_fused_matches_graph(reset, surrogate=surrogate)

    @pytest.mark.parametrize("reset", RESETS)
    @pytest.mark.parametrize("name", ["mobilenetv2", "densenet121", "single_block"])
    def test_every_template_matches_graph_autograd(self, name, reset):
        assert_fused_matches_graph(reset, name=name)

    @pytest.mark.parametrize("spec_seed", [1, 2, 3])
    def test_searched_wiring_matches_graph_autograd(self, spec_seed):
        assert_fused_matches_graph("subtract", spec_seed=spec_seed)

    @pytest.mark.parametrize("num_steps", [1, 2])
    def test_short_windows_match_graph_autograd(self, num_steps):
        assert_fused_matches_graph("subtract", num_steps=num_steps)


#: the geometries perfbench trains at: (num_steps, image size, stage channels)
GEOMETRIES = {
    "smoke": (4, 10, (4, 6)),
    "default": (6, 12, (6, 10)),
}
#: searched resnet18 wirings with both DSC and ASC edges in every block
SEARCHED_SPECS = (1, 4)


def sgd_steps(mode: str, geometry: str, reset: str = "subtract", spec_seed=None, steps: int = 3):
    """``steps`` SGD steps at a perfbench geometry (batch 16); every observable per step.

    Weights and batch-norm running statistics evolve between the steps, so a
    later step runs the kernel on state the earlier steps produced.
    """
    from repro.nn.optim import SGD

    num_steps, size, stages = GEOMETRIES[geometry]
    template = get_template(
        "resnet18", input_channels=2, num_classes=10, stage_channels=stages
    )
    spec = None if spec_seed is None else template.search_space().sample(rng=spec_seed)
    model = template.build(
        spec, spiking=True, neuron_config=NeuronConfig(reset_mechanism=reset), rng=0
    )
    runner = TemporalRunner(model, num_steps=num_steps)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    rng = np.random.default_rng(11)
    observed = []
    with fused_training(mode):
        for _ in range(steps):
            batch = rng.random((16, 2, size, size))
            targets = rng.integers(0, 10, size=16)
            model.zero_grad()
            logits = runner(batch)
            loss = CrossEntropyLoss()(logits, targets)
            loss.backward()
            observed.append(
                (
                    float(loss.item()),
                    np.array(logits.data),
                    {name: np.array(p.grad) for name, p in model.named_parameters()},
                    {
                        f"{name}.{buf}": np.array(getattr(module, buf))
                        for name, module in model.named_modules()
                        for buf in ("running_mean", "running_var")
                        if hasattr(module, buf)
                    },
                )
            )
            optimizer.step()
    release_fused(runner)
    return observed


def assert_steps_match_graph(geometry: str, **options):
    graph = sgd_steps("off", geometry, **options)
    fused = sgd_steps("on", geometry, **options)
    for step, (reference, candidate) in enumerate(zip(graph, fused)):
        assert candidate[0] == reference[0], f"step {step} loss"
        assert np.array_equal(candidate[1], reference[1]), f"step {step} logits"
        for name, grad in reference[2].items():
            assert np.array_equal(candidate[2][name], grad), f"step {step} grad {name}"
        for name, stat in reference[3].items():
            assert np.array_equal(candidate[3][name], stat), f"step {step} buffer {name}"


class TestPerfbenchGeometry:
    """Bit-identity at the batch and geometries perfbench trains, over three SGD steps.

    BLAS bits depend on GEMM shapes, so the small cases above can pass while
    the geometries a search trains at diverge.
    """

    @pytest.mark.parametrize("reset", RESETS)
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_default_wiring(self, geometry, reset):
        assert_steps_match_graph(geometry, reset=reset)

    @pytest.mark.parametrize("spec_seed", SEARCHED_SPECS)
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_searched_wiring(self, geometry, spec_seed):
        assert_steps_match_graph(geometry, spec_seed=spec_seed)


def fit_smoke(fused: str):
    """A deterministic two-epoch training run; returns the final weights."""
    rng = np.random.default_rng(7)
    inputs = rng.random((12, 2, 12, 12))
    targets = rng.integers(0, 10, size=12)
    model = build_model()
    runner = TemporalRunner(model, num_steps=3)
    config = TrainingConfig(epochs=2, batch_size=4, learning_rate=0.05, seed=3, fused=fused)
    Trainer(config).fit(runner, ArrayDataset(inputs, targets))
    return {name: np.array(p.data) for name, p in model.named_parameters()}


class TestTrainerIntegration:
    def test_seeded_float64_run_reaches_identical_final_weights(self):
        reset_fused_counters()
        graph_weights = fit_smoke("off")
        assert fused_counters() == {"fused_steps": 0, "fallback_steps": 6}
        reset_fused_counters()
        fused_weights = fit_smoke("auto")
        assert fused_counters() == {"fused_steps": 6, "fallback_steps": 0}
        assert set(fused_weights) == set(graph_weights)
        for name, reference in graph_weights.items():
            assert np.array_equal(fused_weights[name], reference), f"weight {name} diverged"


class TestDispatch:
    def test_mode_off_never_fuses(self):
        reset_fused_counters()
        one_step("off", "subtract")
        assert fused_counters() == {"fused_steps": 0, "fallback_steps": 1}

    def test_mode_nesting_restores_previous(self):
        assert fused_mode() == "auto"
        with fused_training("off"):
            assert fused_mode() == "off"
            with fused_training("on"):
                assert fused_mode() == "on"
            assert fused_mode() == "off"
        assert fused_mode() == "auto"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="fused mode"):
            with fused_training("sometimes"):
                pass  # pragma: no cover - never reached

    def test_non_qualifying_model_falls_back_in_auto_and_raises_in_on(self):
        batch = np.random.default_rng(0).random((4, 8))
        model = Sequential(Linear(8, 4))
        runner = TemporalRunner(model, num_steps=2)
        reset_fused_counters()
        with fused_training("on"):
            with pytest.raises(RuntimeError, match="SkipConnectionNetwork"):
                runner(Tensor(batch))

    def test_record_spikes_blocks_fusion_at_runtime(self):
        batch, targets = make_batch()
        model = build_model()
        next(m for m in model.modules() if isinstance(m, LIFNeuron)).record_spikes = True
        runner = TemporalRunner(model, num_steps=3)
        reset_fused_counters()
        with fused_training("auto"):
            CrossEntropyLoss()(runner(batch), targets).backward()
        assert fused_counters() == {"fused_steps": 0, "fallback_steps": 1}
        with fused_training("on"):
            with pytest.raises(RuntimeError, match="spike recording"):
                runner(batch)


class TestResidualLifetime:
    def test_interleaved_steps_do_not_alias(self):
        """Two models training in lockstep see exactly their own residuals.

        Residual stashes and scratches live in pooled per-thread buffers; if
        any were shared across kernels (or if write-back states aliased a
        pool), interleaving the forward passes would corrupt the first
        model's backward.  The grads must match the non-interleaved runs
        bit-for-bit, across two consecutive steps (step two also proves the
        written-back membrane states are owning copies).
        """
        batch, targets = make_batch()
        loss_fn = CrossEntropyLoss()

        def two_steps_grads(runner):
            grads = []
            for _ in range(2):
                runner.model.zero_grad()
                loss_fn(runner(batch), targets).backward()
                grads.append(
                    {name: np.array(p.grad) for name, p in runner.model.named_parameters()}
                )
            return grads

        with fused_training("on"):
            reference_a = two_steps_grads(TemporalRunner(build_model(), num_steps=3))
            reference_b = two_steps_grads(
                TemporalRunner(build_model("zero"), num_steps=3)
            )

            runner_a = TemporalRunner(build_model(), num_steps=3)
            runner_b = TemporalRunner(build_model("zero"), num_steps=3)
            interleaved_a, interleaved_b = [], []
            for step in range(2):
                runner_a.model.zero_grad()
                runner_b.model.zero_grad()
                loss_a = loss_fn(runner_a(batch), targets)
                loss_b = loss_fn(runner_b(batch), targets)  # overwrites pools? must not
                loss_a.backward()
                loss_b.backward()
                interleaved_a.append(
                    {name: np.array(p.grad) for name, p in runner_a.model.named_parameters()}
                )
                interleaved_b.append(
                    {name: np.array(p.grad) for name, p in runner_b.model.named_parameters()}
                )
        for step in range(2):
            for name, reference in reference_a[step].items():
                assert np.array_equal(interleaved_a[step][name], reference), (step, name)
            for name, reference in reference_b[step].items():
                assert np.array_equal(interleaved_b[step][name], reference), (step, name)

    def test_backward_after_newer_forward_raises(self):
        batch, targets = make_batch()
        runner = TemporalRunner(build_model(), num_steps=3)
        loss_fn = CrossEntropyLoss()
        with fused_training("on"):
            stale = loss_fn(runner(batch), targets)
            runner(batch)  # overwrites the pooled residuals
            with pytest.raises(RuntimeError, match="overwritten|generation|newer"):
                stale.backward()


def fit_candidate(seed: int = 0) -> None:
    """One candidate-style fine-tune: a fresh model, runner and fused kernel."""
    rng = np.random.default_rng(seed)
    dataset = ArrayDataset(rng.random((8, 2, 12, 12)), rng.integers(0, 10, size=8))
    config = SNNTrainingConfig(epochs=1, batch_size=4, num_steps=3, fused="on")
    SNNTrainer(config).fit(build_model(), dataset)


def pool_bytes() -> int:
    """Bytes the calling thread's workspace pool holds."""
    return sum(entry["flat"].nbytes for entry in _POOL._entries().values())


@pytest.fixture
def kernel_buffers(monkeypatch):
    """Weak references to every kernel and stash/scratch buffer created meanwhile."""
    refs = []
    stash, scratch = _FusedKernel.stash, _FusedKernel._cm_scratch

    def recording(method):
        def wrapper(self, *args, **kwargs):
            buf = method(self, *args, **kwargs)
            refs.append(weakref.ref(buf.base if buf.base is not None else buf))
            return buf

        return wrapper

    monkeypatch.setattr(_FusedKernel, "stash", recording(stash))
    monkeypatch.setattr(_FusedKernel, "_cm_scratch", recording(scratch))
    return refs


class TestResidualOwnership:
    def test_fit_frees_the_stash_without_cyclic_gc(self, kernel_buffers):
        gc.collect()
        gc.disable()  # only reference counting may free the buffers
        try:
            fit_candidate()
            assert kernel_buffers, "the fit never stashed a residual"
            alive = [ref for ref in kernel_buffers if ref() is not None]
        finally:
            gc.enable()
        assert not alive, f"{len(alive)} residual/scratch buffers outlived SNNTrainer.fit"

    def test_pool_does_not_grow_across_candidate_fits(self):
        fit_candidate(0)
        baseline = pool_bytes()
        for seed in range(1, 5):
            fit_candidate(seed)
            assert pool_bytes() == baseline, f"pool grew on fit {seed + 1}"
        assert not [key for key in _POOL._entries() if key.startswith("fused")]

    def test_backward_after_release_raises(self):
        batch, targets = make_batch()
        runner = TemporalRunner(build_model(), num_steps=3)
        with fused_training("on"):
            loss = CrossEntropyLoss()(runner(batch), targets)
            release_fused(runner)
            with pytest.raises(RuntimeError, match="released"):
                loss.backward()
            # the runner recompiles and trains on after a release
            CrossEntropyLoss()(runner(batch), targets).backward()


class TestObservability:
    def test_traced_step_reports_time_per_op_kind(self):
        from repro.snn.fused_step import OP_KINDS
        from repro.trace import FlightRecorder, tracing

        batch, targets = make_batch()
        runner = TemporalRunner(build_model(spec_seed=1), num_steps=3)
        recorder = FlightRecorder(capacity=64)
        with fused_training("on"), tracing(recorder=recorder):
            CrossEntropyLoss()(runner(batch), targets).backward()
        spans = {s["name"]: s for s in recorder.spans()}
        for name in ("train.fused_forward", "train.fused_backward"):
            attrs = spans[name]["attrs"]
            kinds = [attrs[f"{kind}_ms"] for kind in OP_KINDS]
            assert all(ms >= 0.0 for ms in kinds), (name, attrs)
            assert attrs["conv_ms"] > 0.0 and attrs["bn_ms"] > 0.0 and attrs["neuron_ms"] > 0.0
            assert attrs["pool_ms"] > 0.0 and attrs["head_ms"] > 0.0
            duration_ms = (spans[name]["end"] - spans[name]["start"]) * 1e3
            assert sum(kinds) <= duration_ms, (name, attrs, duration_ms)

    def test_untraced_step_times_nothing(self):
        batch, targets = make_batch()
        runner = TemporalRunner(build_model(), num_steps=2)
        with fused_training("on"):
            CrossEntropyLoss()(runner(batch), targets).backward()
        kernel = runner._fused_kernel[1]
        assert kernel._laps is None and kernel.op_ms() == {}


class _FusedObjective:
    """Picklable objective running one fused training step (spec is ignored)."""

    def __call__(self, spec) -> EvaluationResult:
        batch, targets = make_batch()
        model = build_model()
        runner = TemporalRunner(model, num_steps=2)
        with fused_training("on"):
            loss = CrossEntropyLoss()(runner(batch), targets)
            loss.backward()
        return EvaluationResult(spec=spec, objective_value=float(loss.item()), accuracy=0.0)


class TestWorkerTelemetry:
    def test_fused_counter_deltas_ride_result_telemetry(self):
        """The async-eval telemetry channel ships fused routing deltas.

        The worker wrapper snapshots the process aggregate around the
        objective, ships the delta on the result, and the parent folds it
        into its own aggregate on absorb — so ``async_workers=N`` searches
        keep a complete routing picture.
        """
        call = _TelemetryCall(_FusedObjective(), None)
        result = call("spec-placeholder")
        delta = result.telemetry["counters"]["fused"]
        assert delta["fused_steps"] == 1
        before = aggregate_fused_counters()
        _absorb_telemetry(result)
        after = aggregate_fused_counters()
        assert after["fused_steps"] == before["fused_steps"] + 1
        assert result.telemetry is None
