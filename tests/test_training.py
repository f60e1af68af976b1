"""Tests of the training harness: trainers, callbacks, evaluation, candidate evaluation."""

import os

import numpy as np
import pytest

from repro.core.async_eval import AsyncEvaluationExecutor, run_search
from repro.core.objectives import EvaluationResult, SyntheticWeightObjective
from repro.core.search_space import BlockSearchInfo, SearchSpace
from repro.data.loaders import ArrayDataset
from repro.models import build_single_block_template
from repro.nn import Conv2d, GlobalAvgPool2d, Linear, ReLU, Sequential
from repro.snn import LeakyIntegrator, LIFNeuron
from repro.training import (
    EarlyStopping,
    SNNTrainer,
    SNNTrainingConfig,
    Trainer,
    TrainingConfig,
    TrainingHistory,
    evaluate_classifier,
    evaluate_with_spikes,
)
from repro.training.trainer import _build_optimizer
from repro.nn.optim import SGD, Adam
from repro.tensor import Tensor
from repro.trace import FlightRecorder, tracing


def _ann(num_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(4, num_classes, rng=rng),
    )


def _snn(num_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng),
        LIFNeuron(beta=0.9),
        GlobalAvgPool2d(),
        Linear(4, num_classes, rng=rng),
        LeakyIntegrator(beta=0.9),
    )


class TestTrainingHistory:
    def test_record_and_best(self):
        history = TrainingHistory()
        history.record(1.0, 0.5, 0.6, 0.1)
        history.record(0.5, 0.7, 0.8, 0.1)
        history.record(0.4, 0.8, 0.7, 0.1)
        assert history.num_epochs == 3
        assert history.best_val_accuracy == 0.8
        assert history.best_epoch == 1
        assert set(history.as_dict()) == {"train_loss", "train_accuracy", "val_accuracy", "learning_rate"}

    def test_empty_history(self):
        history = TrainingHistory()
        assert history.best_val_accuracy == 0.0
        assert history.best_epoch == -1


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(0.5)
        assert not stopper.update(0.4)
        assert stopper.update(0.3)

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(0.5)
        stopper.update(0.4)
        stopper.update(0.6)  # improvement
        assert not stopper.update(0.5)

    def test_min_delta(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1)
        stopper.update(0.5)
        assert stopper.update(0.55)  # not enough improvement

    def test_reset(self):
        stopper = EarlyStopping(patience=1)
        stopper.update(0.5)
        stopper.update(0.4)
        stopper.reset()
        assert not stopper.should_stop and stopper.best is None

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


class TestTrainerANN:
    def test_learns_separable_problem(self, two_class_splits):
        model = _ann()
        trainer = Trainer(TrainingConfig(epochs=12, batch_size=8, learning_rate=0.1, optimizer="adam", seed=0))
        history = trainer.fit_splits(model, two_class_splits)
        assert history.num_epochs <= 12
        assert trainer.evaluate(model, two_class_splits.test) >= 0.75

    def test_loss_decreases(self, two_class_splits):
        model = _ann()
        trainer = Trainer(TrainingConfig(epochs=8, batch_size=8, learning_rate=0.1, optimizer="adam"))
        history = trainer.fit_splits(model, two_class_splits)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_records_the_optimizer_learning_rate(self, two_class_splits):
        config = TrainingConfig(epochs=3, batch_size=8, learning_rate=0.1, optimizer="sgd")
        history = Trainer(config).fit(_ann(), two_class_splits.train)
        assert history.learning_rate == [0.1, 0.1, 0.1]

    def test_early_stopping_cuts_epochs(self, two_class_splits):
        model = _ann()
        config = TrainingConfig(epochs=30, batch_size=8, learning_rate=0.1, optimizer="adam", early_stopping_patience=2)
        history = Trainer(config).fit_splits(model, two_class_splits)
        assert history.num_epochs < 30

    def test_evaluate_classifier_with_confusion(self, two_class_splits):
        model = _ann()
        acc, confusion = evaluate_classifier(model, two_class_splits.test, return_confusion=True)
        assert confusion.shape == (2, 2)
        assert confusion.sum() == len(two_class_splits.test)
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("validated", [True, False])
    def test_val_accuracy_is_recorded_only_for_a_validation_split(self, two_class_splits, validated):
        """Without a split the epoch's training accuracy is not passed off as
        ``val_accuracy``, in the history or on the ``train.epoch`` span."""
        recorder = FlightRecorder(capacity=64)
        val = two_class_splits.val if validated else None
        with tracing(recorder=recorder):
            history = Trainer(TrainingConfig(epochs=2, batch_size=8)).fit(_ann(), two_class_splits.train, val)
        epochs = [entry for entry in recorder.spans() if entry["name"] == "train.epoch"]
        assert len(epochs) == history.num_epochs == len(history.train_accuracy) == 2
        assert len(history.val_accuracy) == (2 if validated else 0)
        assert all(("val_accuracy" in entry["attrs"]) == validated for entry in epochs)
        if validated:
            assert [entry["attrs"]["val_accuracy"] for entry in epochs] == history.val_accuracy

    def test_model_left_in_eval_mode_after_fit(self, two_class_splits):
        model = _ann()
        Trainer(TrainingConfig(epochs=1, batch_size=8)).fit_splits(model, two_class_splits)
        assert not model.training

    def test_optimizer_factory(self):
        model = _ann()
        assert isinstance(_build_optimizer(model, TrainingConfig(optimizer="sgd")), SGD)
        assert isinstance(_build_optimizer(model, TrainingConfig(optimizer="adam")), Adam)
        with pytest.raises(ValueError):
            _build_optimizer(model, TrainingConfig(optimizer="rmsprop"))

    def test_config_with_overrides(self):
        config = TrainingConfig(epochs=3).with_overrides(epochs=7, learning_rate=0.5)
        assert config.epochs == 7 and config.learning_rate == 0.5


class TestSNNTrainer:
    def test_learns_separable_problem_with_bptt(self, two_class_splits):
        model = _snn()
        config = SNNTrainingConfig(epochs=10, batch_size=8, learning_rate=0.1, optimizer="adam", num_steps=5, seed=0)
        trainer = SNNTrainer(config)
        trainer.fit_splits(model, two_class_splits)
        assert trainer.evaluate(model, two_class_splits.test) >= 0.75

    def test_evaluate_with_firing_rate(self, two_class_splits):
        model = _snn()
        trainer = SNNTrainer(SNNTrainingConfig(epochs=1, batch_size=8, num_steps=4))
        trainer.fit_splits(model, two_class_splits)
        accuracy, stats = trainer.evaluate_with_firing_rate(model, two_class_splits.test)
        assert 0.0 <= accuracy <= 1.0
        assert 0.0 <= stats.average_firing_rate <= 1.0
        assert stats.num_steps == 4

    def test_runner_configuration(self):
        trainer = SNNTrainer(SNNTrainingConfig(num_steps=7))
        runner = trainer.make_runner(_snn())
        assert runner.num_steps == 7

    def test_evaluate_with_spikes_function(self, two_class_splits):
        model = _snn()
        trainer = SNNTrainer(SNNTrainingConfig(epochs=1, num_steps=3, batch_size=8))
        runner = trainer.make_runner(model)
        accuracy, stats = evaluate_with_spikes(runner, model, two_class_splits.test, batch_size=8)
        assert 0.0 <= accuracy <= 1.0 and len(stats.per_layer_rate) == 1


def _evaluate(objective, specs, workers: int) -> list:
    """Results of ``specs`` on the executor, in submission order."""
    with AsyncEvaluationExecutor(objective, workers=workers) as executor:
        for spec in specs:
            executor.submit(spec)
        completed = sorted(executor.drain(), key=lambda done: done.ticket)
    return [done.result for done in completed]


class TestCandidateEvaluation:
    def test_sequential_fallback(self):
        specs = _space().sample_batch(3, rng=0)
        objective = SyntheticWeightObjective()
        results = _evaluate(objective, specs, workers=1)
        assert [r.objective_value for r in results] == [objective(spec).objective_value for spec in specs]

    def test_preserves_order_with_workers(self):
        specs = _space().sample_batch(8, rng=1)
        results = _evaluate(SyntheticWeightObjective(), specs, workers=2)
        assert [r.spec.encode().tolist() for r in results] == [spec.encode().tolist() for spec in specs]

    def test_empty_input(self):
        assert _evaluate(SyntheticWeightObjective(), [], workers=4) == []

    def test_barrier_iterations_stay_in_process(self):
        spec = _space().sample(rng=2)
        results = []
        run_search(
            _PidObjective(),
            lambda pending, iteration: [],
            lambda result, iteration: results.append(result),
            0,
            initial=[spec],
            workers=0,
        )
        (result,) = results
        assert result.metrics["pid"] == os.getpid()


def _space() -> SearchSpace:
    return SearchSpace([BlockSearchInfo(depth=4, name="block")], name="training-test")


class _PidObjective:
    """Records the id of the process that evaluated the spec."""

    def __call__(self, spec) -> EvaluationResult:
        return EvaluationResult(spec=spec, objective_value=0.0, accuracy=0.0, metrics={"pid": os.getpid()})
