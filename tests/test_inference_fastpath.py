"""Tests of the graph-free evaluation substrate (PR 5 acceptance criteria).

Four concerns, each pinned independently:

* **equality** — the inference fast path (GEMM convolution, fused in-place
  neuron stepping, streaming temporal aggregation) must produce outputs
  **bit-identical** to the autograd path, for every op, reset mechanism
  and model template;
* **workspace aliasing** — pooled scratch buffers must never leak into a
  returned tensor, under interleaved and nested evaluations;
* **latency plumbing** — the timed ``latency_ms`` metric must flow through
  ``EvaluationResult.metrics`` → store rows → cache replay → the multi-
  objective engine, including async runs;
* **hyperparameter adaptation** — ``BayesianOptimizer(hyperopt_every=K)``
  must leave the K=∞ proposal sequence untouched and actually refit when
  enabled.
"""

import numpy as np
import pytest

from repro.core.bayes_opt import BayesianOptimizer
from repro.core.cache import CachedObjective, PersistentEvaluationStore, result_to_row, row_to_result, spec_key
from repro.core.multi_objective import BUILTIN_OBJECTIVES, MultiObjectiveBayesianOptimizer
from repro.core.objectives import AccuracyDropObjective, SyntheticWeightObjective
from repro.core.search_space import BlockSearchInfo, SearchSpace
from repro.core.weight_sharing import WeightStore
from repro.data import load_dataset
from repro.experiments import get_scale
from repro.experiments.pareto_front import run_pareto_front
from repro.gp import HammingKernel, tune_kernel
from repro.models import build_single_block_template, get_template
from repro.models.blocks import NeuronConfig
from repro.snn import LeakyIntegrator, LIFNeuron, TemporalRunner
from repro.snn.temporal import run_temporal
from repro.tensor import Tensor, conv2d, avg_pool2d, no_grad
from repro.tensor.workspace import WorkspacePool, clear_workspaces
from repro.training.evaluation import measure_latency_ms
from repro.training.snn_trainer import SNNTrainingConfig


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# tensor-layer equality
# ---------------------------------------------------------------------------

class TestOpsFastPath:
    def test_no_grad_outputs_are_graph_free(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with no_grad():
            out = (a * b + 1.0).relu().sum()
        assert not out.requires_grad
        assert out._prev == ()
        assert out._backward is None

    def test_elementwise_and_reductions_match_grad_path(self, rng):
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        cases = [
            lambda: a + b,
            lambda: a - b,
            lambda: a * b,
            lambda: a / (b * b + 1.0),
            lambda: a.relu(),
            lambda: a.sum(axis=1),
            lambda: a.mean(axis=0, keepdims=True),
            lambda: a @ b.transpose(),
        ]
        for case in cases:
            reference = case().data
            with no_grad():
                fast = case().data
            assert np.array_equal(reference, fast)
            assert fast.dtype == np.float64


class TestConvFastPath:
    @pytest.mark.parametrize(
        "groups,c_in,c_out,padding,stride,bias",
        [
            (1, 8, 16, 1, 1, True),
            (1, 3, 5, 2, 2, False),
            (2, 8, 12, 0, 2, True),
            (16, 16, 16, 1, 1, False),  # depthwise (MobileNetV2)
        ],
    )
    def test_bit_identical_to_autograd_path(self, rng, groups, c_in, c_out, padding, stride, bias):
        x = Tensor(rng.normal(size=(4, c_in, 11, 11)))
        w = Tensor(rng.normal(size=(c_out, c_in // groups, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(c_out,)), requires_grad=True) if bias else None
        reference = conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        assert reference.requires_grad
        with no_grad():
            fast = conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        assert not fast.requires_grad
        assert np.array_equal(reference.data, fast.data)
        assert fast.data.dtype == np.float64

    def test_chained_convs_handle_strided_inputs(self, rng):
        """A fast-path conv output is a transposed view; the next conv must cope."""
        x = Tensor(rng.normal(size=(2, 4, 8, 8)))
        w1 = Tensor(rng.normal(size=(6, 4, 3, 3)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(3, 6, 3, 3)), requires_grad=True)
        reference = conv2d(conv2d(x, w1, padding=1), w2, padding=1).data
        with no_grad():
            fast = conv2d(conv2d(x, w1, padding=1), w2, padding=1).data
        assert np.array_equal(reference, fast)

    def test_pooling_matches_autograd_path(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 9, 9)), requires_grad=True)
        for pool, kwargs in [
            (avg_pool2d, dict(kernel_size=2, stride=1, padding=1)),
            (avg_pool2d, dict(kernel_size=3)),
        ]:
            reference = pool(x, **kwargs).data
            with no_grad():
                fast = pool(x, **kwargs).data
            assert np.array_equal(reference, fast)


class TestWorkspaceNonAliasing:
    def test_results_survive_later_calls(self, rng):
        """Nothing returned by a fast-path kernel may live in pooled scratch."""
        w = Tensor(rng.normal(size=(6, 4, 3, 3)))
        with no_grad():
            first = conv2d(Tensor(rng.normal(size=(2, 4, 8, 8))), w, padding=1)
            snapshot = first.data.copy()
            # same geometry (would reuse the same scratch buffers) ...
            conv2d(Tensor(rng.normal(size=(2, 4, 8, 8))), w, padding=1)
            # ... and different geometries (would grow/reshape the buffers)
            conv2d(Tensor(rng.normal(size=(1, 4, 16, 16))), w, padding=2)
            avg_pool2d(Tensor(rng.normal(size=(2, 4, 8, 8))), 2, padding=1)
        assert np.array_equal(first.data, snapshot)

    def test_interleaved_evaluations_are_independent(self, rng):
        """Two models evaluated turn by turn (nested evaluation pattern)."""
        template = build_single_block_template(input_channels=2, num_classes=4, channels=4)
        model_a = template.build(spiking=True, rng=0)
        model_b = template.build(spiking=True, rng=1)
        runner_a = TemporalRunner(model_a, num_steps=3)
        runner_b = TemporalRunner(model_b, num_steps=3)
        batch = rng.random((2, 2, 8, 8))
        with no_grad():
            solo_a = runner_a(batch).data.copy()
            solo_b = runner_b(batch).data.copy()
            inter_a = runner_a(batch)
            inter_b = runner_b(batch)
            assert np.array_equal(inter_a.data, solo_a)
            assert np.array_equal(inter_b.data, solo_b)
            # evaluating b again must not disturb a's retained result
            runner_b(batch)
        assert np.array_equal(inter_a.data, solo_a)

    def test_pool_signature_mismatch_invalidates_contents(self):
        pool = WorkspacePool()
        buf, matched = pool.buffer("k", (2, 3), signature=("a",))
        assert not matched
        buf[...] = 7.0
        again, matched = pool.buffer("k", (2, 3), signature=("a",))
        assert matched and again.base is not None or again.size == buf.size
        _, matched = pool.buffer("k", (2, 3), signature=("b",))
        assert not matched
        clear_workspaces()  # smoke: the thread-local clear hook works


# ---------------------------------------------------------------------------
# neuron and template equality
# ---------------------------------------------------------------------------

class TestNeuronFastPath:
    @pytest.mark.parametrize("reset", ["subtract", "zero", "none"])
    def test_sequence_bit_identical(self, rng, reset):
        inputs = [rng.normal(size=(3, 4, 5, 5)) * 0.8 for _ in range(6)]

        def run(fast):
            neuron = LIFNeuron(beta=0.9, reset_mechanism=reset)
            neuron.reset_state()
            membranes, spikes = [], []
            for frame in inputs:
                if fast:
                    with no_grad():
                        out = neuron(Tensor(frame))
                else:
                    out = neuron(Tensor(frame))
                assert out.data.dtype == np.float64
                membranes.append(neuron.membrane.data.copy())
                spikes.append(out.data.copy())
            return membranes, spikes

        ref_membranes, ref_spikes = run(fast=False)
        fast_membranes, fast_spikes = run(fast=True)
        for a, b in zip(ref_membranes, fast_membranes):
            assert np.array_equal(a, b)
        for a, b in zip(ref_spikes, fast_spikes):
            assert np.array_equal(a, b)

    def test_mixed_grad_and_inference_steps_stay_consistent(self, rng):
        """Alternating grad-mode and fused steps must agree with pure grad mode."""
        inputs = [rng.normal(size=(2, 3)) * 0.9 for _ in range(6)]
        reference = LIFNeuron(beta=0.9, reset_mechanism="subtract")
        mixed = LIFNeuron(beta=0.9, reset_mechanism="subtract")
        reference.reset_state()
        mixed.reset_state()
        for t, frame in enumerate(inputs):
            ref_out = reference(Tensor(frame))
            if t % 2 == 0:
                with no_grad():
                    out = mixed(Tensor(frame))
            else:
                out = mixed(Tensor(frame))
            assert np.array_equal(ref_out.data, out.data)
            assert np.array_equal(reference.membrane.data, mixed.membrane.data)

    def test_running_spike_rate_matches_record(self, rng):
        neuron = LIFNeuron(beta=0.9)
        neuron.reset_state()
        neuron.record_spikes = True
        with no_grad():
            for _ in range(5):
                neuron(Tensor(rng.normal(size=(4, 4)) * 1.5))
        assert len(neuron.spike_record) == 5
        expected = float(np.mean([step.mean() for step in neuron.spike_record]))
        assert neuron.firing_rate() == pytest.approx(expected)
        assert neuron.recorded_spike_total() == pytest.approx(
            float(sum(step.sum() for step in neuron.spike_record))
        )
        neuron.reset_state()
        assert neuron.spike_record == []
        assert neuron.firing_rate() == 0.0
        assert neuron.recorded_steps() == 0

    def test_monitor_records_sums_without_retaining_history(self, rng):
        """The firing-rate monitor never holds the O(num_steps) spike history."""
        from repro.snn.metrics import FiringRateMonitor, average_firing_rate

        template = build_single_block_template(input_channels=2, num_classes=4, channels=4)
        model = template.build(spiking=True, rng=0)
        model.eval()
        runner = TemporalRunner(model, num_steps=5)
        monitor = FiringRateMonitor(model)
        with monitor, no_grad():
            runner(rng.random((2, 2, 8, 8)))
        stats = monitor.statistics()
        assert stats.num_steps == 5
        assert 0.0 <= stats.average_firing_rate <= 1.0
        assert average_firing_rate(model) == pytest.approx(stats.average_firing_rate)
        for layer in monitor._layers.values():
            assert layer.spike_record == []  # sums only, no retained arrays
            assert layer.record_history  # restored by __exit__

    def test_leaky_integrator_matches(self, rng):
        inputs = [rng.normal(size=(2, 5)) for _ in range(5)]
        reference, fast = LeakyIntegrator(0.95), LeakyIntegrator(0.95)
        for frame in inputs:
            ref_out = reference(Tensor(frame))
            with no_grad():
                out = fast(Tensor(frame))
            assert np.array_equal(ref_out.data, out.data)


class TestTemplateFastPath:
    @pytest.mark.parametrize("name", ["resnet18", "mobilenetv2", "densenet121", "single_block"])
    def test_temporal_runner_bit_identical(self, rng, name):
        template = get_template(name, input_channels=2, num_classes=5)
        model = template.build(spiking=True, rng=0)
        model.eval()
        runner = TemporalRunner(model, num_steps=4)
        batch = rng.random((2, 2, 8, 8))
        reference = runner(batch).data.copy()
        with no_grad():
            fast = runner(batch).data.copy()
            repeat = runner(batch).data.copy()
        assert np.array_equal(reference, fast)
        assert np.array_equal(reference, repeat)

    @pytest.mark.parametrize("reset", ["zero", "none"])
    @pytest.mark.parametrize("name", ["resnet18", "mobilenetv2", "densenet121", "single_block"])
    def test_every_reset_mechanism_bit_identical(self, rng, name, reset):
        template = get_template(name, input_channels=2, num_classes=5)
        model = template.build(spiking=True, neuron_config=NeuronConfig(reset_mechanism=reset), rng=0)
        model.eval()
        runner = TemporalRunner(model, num_steps=4)
        batch = rng.random((2, 2, 8, 8))
        reference = runner(batch).data.copy()
        with no_grad():
            fast = runner(batch).data
        assert np.array_equal(reference, fast)

    def test_searched_architecture_bit_identical(self, rng):
        """A non-default spec (real skip wiring: DSC concat + ASC add) matches too."""
        template = get_template("resnet18", input_channels=2, num_classes=4)
        spec = template.search_space().sample(rng=7)
        model = template.build(spec, spiking=True, rng=0)
        model.eval()
        runner = TemporalRunner(model, num_steps=4)
        batch = rng.random((2, 2, 8, 8))
        reference = runner(batch).data.copy()
        with no_grad():
            fast = runner(batch).data
        assert np.array_equal(reference, fast)


class TestRunTemporalStreaming:
    def test_scores_own_their_data(self, rng):
        """The returned scores must survive the next batch overwriting buffers."""
        template = build_single_block_template(input_channels=2, num_classes=4, channels=4)
        model = template.build(spiking=True, rng=0)
        model.eval()
        with no_grad():
            first = run_temporal(model, rng.random((2, 2, 8, 8)), num_steps=3)
            snapshot = first.data.copy()
            run_temporal(model, rng.random((2, 2, 8, 8)), num_steps=3)
        assert np.array_equal(first.data, snapshot)

    def test_streaming_matches_retained_aggregation(self, rng):
        """The running sum must agree with stacking every step's output and averaging."""
        from repro.snn.encoding import encode_batch
        from repro.snn.temporal import reset_states

        template = build_single_block_template(input_channels=2, num_classes=4, channels=4)
        model = template.build(spiking=True, rng=0)
        model.eval()
        batch = rng.random((2, 2, 8, 8))
        with no_grad():
            reset_states(model)
            collected = [model(frame).data.copy() for frame in encode_batch(batch, None, 4)]
            streamed = run_temporal(model, batch, num_steps=4)
        reference = np.stack(collected).mean(axis=0)
        np.testing.assert_allclose(streamed.data, reference, rtol=1e-12, atol=1e-12)
        reset_states(model)

    def test_gradients_still_flow_through_streaming_aggregation(self, rng):
        template = build_single_block_template(input_channels=2, num_classes=4, channels=4)
        model = template.build(spiking=True, rng=0)
        out = run_temporal(model, rng.random((2, 2, 8, 8)), num_steps=3)
        assert out.requires_grad
        out.sum().backward()
        grads = [p.grad for p in model.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)


# ---------------------------------------------------------------------------
# latency-metric plumbing
# ---------------------------------------------------------------------------

SMOKE = get_scale("smoke")


class TestLatencyMetric:
    def test_measure_latency_ms_protocol(self, rng):
        template = build_single_block_template(input_channels=2, num_classes=4, channels=4)
        model = template.build(spiking=True, rng=0)
        runner = TemporalRunner(model, num_steps=3)
        latency = measure_latency_ms(runner, rng.random((2, 2, 8, 8)), runs=3, warmup=1)
        assert latency > 0.0
        assert model.training  # mode restored
        with pytest.raises(ValueError):
            measure_latency_ms(runner, rng.random((2, 2, 8, 8)), runs=0)

    def test_objective_records_latency_and_cache_replays_it(self, tmp_path):
        splits = load_dataset("cifar10-dvs", num_samples=60, image_size=8, num_steps=3, seed=0)
        template = build_single_block_template(input_channels=2, num_classes=10, channels=4)
        objective = AccuracyDropObjective(
            template=template,
            splits=splits,
            training_config=SNNTrainingConfig(epochs=1, batch_size=8, num_steps=3, seed=0),
            weight_store=WeightStore(),
            measure_energy=True,
            measure_latency=True,
            latency_runs=2,
        )
        spec = template.search_space().default_spec()
        result = objective(spec)
        assert result.metrics["latency_ms"] > 0.0
        assert "latency_steps" in result.metrics  # the proxy survives alongside

        # row round trip preserves the measured value exactly
        row = result_to_row(result)
        assert row_to_result(row, spec).metrics["latency_ms"] == result.metrics["latency_ms"]

        # a persistent-store hit replays the same latency without re-timing
        store = PersistentEvaluationStore(tmp_path / "evals.jsonl")
        cached = CachedObjective(objective, store=store)
        first = cached(spec)

        def forbidden(_spec):
            raise AssertionError("store hit must not re-evaluate")

        replayed = CachedObjective(forbidden, store=PersistentEvaluationStore(tmp_path / "evals.jsonl"))(spec)
        assert replayed.metrics["latency_ms"] == first.metrics["latency_ms"]
        assert spec_key(spec) in store

    def test_builtin_latency_objective_reads_measured_metric(self):
        assert BUILTIN_OBJECTIVES["latency"].metric == "latency_ms"
        assert BUILTIN_OBJECTIVES["latency_steps"].metric == "latency_steps"

    def test_multi_objective_engine_accepts_latency(self):
        space = SearchSpace([BlockSearchInfo(depth=4), BlockSearchInfo(depth=4)])
        optimizer = MultiObjectiveBayesianOptimizer(
            space,
            SyntheticWeightObjective(),
            objectives=("accuracy", "energy", "latency"),
            initial_points=4,
            batch_size=1,
            candidate_pool_size=32,
            rng=0,
        )
        history = optimizer.optimize(4)
        assert all("latency_ms" in record.metrics for record in history)
        assert len(optimizer.front) >= 1

    @pytest.mark.parametrize(
        "engine", [dict(), dict(async_workers=2)], ids=["serial", "async"]
    )
    def test_cached_rerun_replays_latency_front(self, tmp_path, engine):
        """Acceptance: pareto over accuracy/energy/latency replays identically —
        the wall-clock latency measured on the cold run is what the warm run
        reads back, so 0 fresh evaluations reproduce the exact front."""
        kwargs = dict(
            scale=SMOKE,
            dataset="cifar10-dvs",
            model="single_block",
            objectives=("accuracy", "energy", "latency"),
            iterations=3,
            seed=0,
            cache_dir=str(tmp_path),
            **engine,
        )
        cold = run_pareto_front(**kwargs)
        assert cold.fresh_evaluations == cold.num_evaluations
        assert all("latency" in point.objectives for point in cold.front)
        assert all(point.objectives["latency"] > 0 for point in cold.front)
        warm = run_pareto_front(**kwargs)
        assert warm.fresh_evaluations == 0
        cold_front = [(tuple(p.encoding), sorted(p.objectives.items())) for p in cold.front]
        warm_front = [(tuple(p.encoding), sorted(p.objectives.items())) for p in warm.front]
        assert cold_front == warm_front

    def test_latency_run_ignores_stores_without_latency(self, tmp_path):
        """A cache written by a plain accuracy/energy run (rows without
        latency_ms) must not be replayed into a latency search: the latency
        configuration is part of the store fingerprint, so the latency run
        opens its own store and re-evaluates instead of crashing on a
        missing metric."""
        kwargs = dict(
            scale=SMOKE,
            dataset="cifar10-dvs",
            model="single_block",
            iterations=3,
            seed=0,
            cache_dir=str(tmp_path),
        )
        plain = run_pareto_front(objectives=("accuracy", "energy"), **kwargs)
        assert plain.fresh_evaluations == plain.num_evaluations
        timed = run_pareto_front(objectives=("accuracy", "energy", "latency"), **kwargs)
        assert timed.fresh_evaluations == timed.num_evaluations  # no stale hits
        assert all(point.objectives["latency"] > 0 for point in timed.front)


# ---------------------------------------------------------------------------
# GP hyperparameter adaptation
# ---------------------------------------------------------------------------

class TestHyperparameterAdaptation:
    @staticmethod
    def _run(hyperopt_every=None):
        space = SearchSpace([BlockSearchInfo(depth=5), BlockSearchInfo(depth=5)])
        optimizer = BayesianOptimizer(
            space,
            SyntheticWeightObjective(),
            initial_points=6,
            batch_size=2,
            candidate_pool_size=48,
            rng=0,
            hyperopt_every=hyperopt_every,
        )
        optimizer.optimize(5)
        return optimizer

    def test_disabled_adaptation_is_a_seeded_no_op(self):
        """K=∞ (the default) pins the exact proposal sequence of the old engine."""
        baseline = self._run()
        disabled = self._run(hyperopt_every=None)
        assert [tuple(r.spec.encode()) for r in baseline.history] == [
            tuple(r.spec.encode()) for r in disabled.history
        ]
        assert disabled.hyperopt_refits == 0

    def test_adaptation_refits_amortised(self):
        adapted = self._run(hyperopt_every=4)
        assert adapted.hyperopt_refits >= 1
        # refits happen at most once per hyperopt_every observations
        assert adapted.hyperopt_refits <= len(adapted.history) // 4
        assert len(adapted.history) == len(self._run().history)

    def test_tune_kernel_improves_marginal_likelihood(self, rng):
        x = rng.integers(0, 3, size=(40, 10)).astype(float)
        y = np.cos(x).sum(axis=1) + 0.05 * rng.normal(size=40)
        kernel = HammingKernel(gamma=0.1)  # deliberately mis-scaled
        from repro.gp import GaussianProcessRegressor

        before = GaussianProcessRegressor(kernel=kernel, noise=1e-3).fit(x, y).log_marginal_likelihood()
        tuned, lml = tune_kernel(kernel, x, y, noise=1e-3)
        assert lml >= before
        assert kernel.gamma == 0.1  # input kernel never mutated
        after = GaussianProcessRegressor(kernel=tuned, noise=1e-3).fit(x, y).log_marginal_likelihood()
        assert after == pytest.approx(lml)

    def test_invalid_hyperopt_every_rejected(self):
        space = SearchSpace([BlockSearchInfo(depth=4)])
        with pytest.raises(ValueError):
            BayesianOptimizer(space, SyntheticWeightObjective(), hyperopt_every=0)
