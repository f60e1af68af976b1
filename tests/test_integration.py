"""End-to-end integration tests at smoke scale.

These exercise the full pipelines (training objectives, the Table-I
adaptation pipeline, the experiment harnesses) on tiny synthetic data.  They
assert structural correctness — the right quantities are produced, weight sharing kicks in, the
search only visits admissible architectures — rather than accuracy levels,
which are meaningless at this scale.
"""

import numpy as np
import pytest

from repro.core.bayes_opt import BayesianOptimizer
from repro.core.objectives import AccuracyDropObjective
from repro.core.weight_sharing import WeightStore
from repro.experiments import run_figure1, run_figure3, run_table1_cell
from repro.experiments.config import SMOKE
from repro.training.snn_trainer import SNNTrainingConfig


def _fast_snn_config(epochs=1):
    return SNNTrainingConfig(epochs=epochs, batch_size=16, learning_rate=0.05, num_steps=3, seed=0)


class TestAccuracyDropObjective:
    def test_returns_complete_result(self, single_block_template, tiny_dvs_splits):
        objective = AccuracyDropObjective(
            template=single_block_template,
            splits=tiny_dvs_splits,
            training_config=_fast_snn_config(),
            measure_energy=True,
        )
        result = objective(single_block_template.default_architecture())
        assert 0.0 <= result.accuracy <= 1.0
        assert result.objective_value == pytest.approx(1.0 - result.accuracy)
        assert 0.0 <= result.firing_rate <= 1.0
        assert result.macs > 0
        assert result.metrics["macs"] == result.macs

    def test_reference_accuracy_defines_drop(self, single_block_template, tiny_dvs_splits):
        objective = AccuracyDropObjective(
            template=single_block_template,
            splits=tiny_dvs_splits,
            training_config=_fast_snn_config(),
            reference_accuracy=0.9,
            measure_firing_rate=False,
        )
        result = objective(single_block_template.default_architecture())
        assert result.objective_value == pytest.approx(0.9 - result.accuracy)

    def test_weight_store_populated_and_used(self, single_block_template, tiny_dvs_splits):
        store = WeightStore()
        objective = AccuracyDropObjective(
            template=single_block_template,
            splits=tiny_dvs_splits,
            training_config=_fast_snn_config(),
            weight_store=store,
            measure_firing_rate=False,
        )
        assert store.is_empty
        objective(single_block_template.default_architecture())
        assert not store.is_empty
        # the next candidate starts from the stored weights
        model = objective.build_model(single_block_template.default_architecture())
        report = store.apply_to(model)
        assert report["loaded"] > 0


class TestBayesianOptimizationWithTraining:
    def test_search_runs_and_respects_space(self, single_block_template, tiny_dvs_splits):
        objective = AccuracyDropObjective(
            template=single_block_template,
            splits=tiny_dvs_splits,
            training_config=_fast_snn_config(),
            weight_store=WeightStore(),
            measure_firing_rate=False,
        )
        space = single_block_template.search_space()
        optimizer = BayesianOptimizer(space, objective, initial_points=2, candidate_pool_size=16, rng=0)
        history = optimizer.optimize(2)
        assert history.num_evaluations == 4
        for record in history:
            assert space.contains(record.spec)


class TestTable1Cell:
    #: three evaluations: two warm-start points and one BO iteration
    scale = SMOKE.with_overrides(bo_iterations=1)

    def test_cell_on_event_data_omits_ann(self, tiny_dvs_splits):
        result = run_table1_cell("cifar10-dvs", "single_block", scale=self.scale, splits=tiny_dvs_splits)
        assert result.ann_accuracy is None
        assert result.accuracy_drop_before is None
        assert 0.0 <= result.snn_accuracy <= 1.0
        # the validation split chooses the reported model
        assert result.optimized_val_accuracy >= result.snn_val_accuracy
        assert result.history.num_evaluations == 3
        assert result.best_spec.num_blocks() == 1
        assert "optimized SNN" in result.summary()

    def test_cell_on_static_data_trains_ann(self, tiny_static_splits):
        result = run_table1_cell("cifar10", "single_block", scale=self.scale, splits=tiny_static_splits)
        assert result.ann_accuracy is not None
        assert result.accuracy_drop_before is not None
        assert result.accuracy_drop_after is not None
        assert result.accuracy_improvement == pytest.approx(
            result.optimized_accuracy - result.snn_accuracy
        )


class TestExperimentHarnesses:
    def test_figure1_smoke(self, tiny_dvs_splits):
        result = run_figure1("dsc", scale=SMOKE, splits=tiny_dvs_splits, n_skip_values=[0, 2], seed=0)
        assert result.n_skips() == [0, 2]
        assert all(0.0 <= acc <= 1.0 for acc in result.snn_accuracies())
        assert all(0.0 <= rate <= 1.0 for rate in result.firing_rates())
        # DSC concatenation must increase the MAC count
        assert result.macs()[1] > result.macs()[0]

    def test_figure1_asc_keeps_macs_constant(self, tiny_dvs_splits):
        result = run_figure1("asc", scale=SMOKE, splits=tiny_dvs_splits, n_skip_values=[0, 3], seed=0)
        assert result.macs()[0] == result.macs()[1]

    def test_figure3_smoke_structure(self):
        scale = SMOKE.with_overrides(num_samples_dvs=40, search_iterations=3, figure3_runs=1, bo_initial_points=1)
        result = run_figure3(scale=scale, seed=0)
        assert len(result.bo_curve.runs) == 1 and len(result.rs_curve.runs) == 1
        assert len(result.rs_curve.runs[0]) == 3
        # incumbent curves are monotonically non-decreasing in accuracy
        for run in result.bo_curve.runs + result.rs_curve.runs:
            assert all(run[i + 1] >= run[i] - 1e-12 for i in range(len(run) - 1))

    def test_table1_cell_smoke(self):
        scale = SMOKE.with_overrides(num_samples_dvs=40)
        result = run_table1_cell("cifar10-dvs", "mobilenetv2", scale=scale, seed=0)
        assert result.model_name == "mobilenetv2"
        assert result.dataset_name == "synthetic-cifar10-dvs"
        assert 0.0 <= result.optimized_firing_rate <= 1.0
