"""Tests of the search extensions: the cached objective and the energy/MAC metrics."""

import numpy as np
import pytest

from repro.core.adjacency import ASC
from repro.core.cache import CachedObjective, spec_key
from repro.core.objectives import AccuracyDropObjective, EvaluationResult, Objective
from repro.core.search_space import ArchitectureSpec, BlockSearchInfo, SearchSpace
from repro.training.snn_trainer import SNNTrainingConfig


class CountingObjective(Objective):
    """Deterministic synthetic objective counting non-ASC entries (see optimizer tests)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, spec: ArchitectureSpec) -> EvaluationResult:
        self.calls += 1
        encoding = spec.encode()
        value = float(np.sum(encoding != ASC)) / max(len(encoding), 1)
        return EvaluationResult(spec=spec, objective_value=value, accuracy=1.0 - value, firing_rate=0.1)


def _space(depth=4, blocks=1):
    return SearchSpace([BlockSearchInfo(depth=depth, name=f"b{i}") for i in range(blocks)])


class TestCachedObjective:
    def test_cache_hits_avoid_reevaluation(self):
        space = _space()
        base = CountingObjective()
        cached = CachedObjective(base)
        spec = space.sample(rng=0)
        first = cached(spec)
        second = cached(spec)
        assert base.calls == 1
        assert cached.hits == 1 and cached.misses == 1
        assert first.objective_value == second.objective_value
        assert cached.hit_rate == pytest.approx(0.5)
        assert spec in cached and len(cached) == 1

    def test_spec_key_stable(self):
        space = _space()
        spec = space.sample(rng=1)
        assert spec_key(spec) == spec_key(space.decode(spec.encode()))

    def test_best_and_results(self):
        space = _space()
        cached = CachedObjective(CountingObjective())
        for seed in range(5):
            cached(space.sample(rng=seed))
        best = cached.best()
        assert best.objective_value == min(r.objective_value for r in cached.results())

    def test_best_on_empty_raises(self):
        with pytest.raises(ValueError):
            CachedObjective(CountingObjective()).best()

    def test_save_and_load_table(self, tmp_path):
        space = _space()
        cached = CachedObjective(CountingObjective())
        specs = [space.sample(rng=seed) for seed in range(4)]
        for spec in specs:
            cached(spec)
        path = tmp_path / "table.json"
        cached.save(path)
        loaded = CachedObjective.load_table(path, space)
        assert len(loaded) == len(cached)
        for spec in specs:
            assert loaded(spec).objective_value == pytest.approx(cached(spec).objective_value)
        # unknown architectures raise because no fallback objective was given
        with pytest.raises(KeyError):
            unseen = space.decode(np.full(space.encoding_length(), 2))
            if unseen.encode().tobytes() not in {s.encode().tobytes() for s in specs}:
                loaded(unseen)
            else:  # pragma: no cover - astronomically unlikely collision
                raise KeyError


class TestEnergyMetricsAndMACMemoisation:
    def _objective(self, single_block_template, tiny_dvs_splits, **kwargs):
        return AccuracyDropObjective(
            template=single_block_template,
            splits=tiny_dvs_splits,
            training_config=SNNTrainingConfig(epochs=1, batch_size=16, num_steps=3, seed=0),
            **kwargs,
        )

    def test_measure_energy_populates_the_metrics_dict(self, single_block_template, tiny_dvs_splits):
        objective = self._objective(single_block_template, tiny_dvs_splits, measure_energy=True)
        result = objective(single_block_template.default_architecture())
        for key in ("val_accuracy", "firing_rate", "macs", "energy_nj", "ann_energy_nj", "latency_steps"):
            assert key in result.metrics, key
        assert result.metrics["macs"] == result.macs > 0
        assert result.metrics["latency_steps"] == 3.0
        assert result.metrics["val_accuracy"] == pytest.approx(result.accuracy)

    def test_mac_trace_is_memoised_per_architecture(self, single_block_template, tiny_dvs_splits):
        """Re-evaluating an architecture must not re-run the MAC forward trace
        (the count is a pure function of the architecture, not the weights)."""
        objective = self._objective(single_block_template, tiny_dvs_splits, measure_energy=True)
        spec = single_block_template.default_architecture()
        first = objective(spec)
        second = objective(spec)
        assert objective.num_evaluations == 2
        assert objective.mac_traces == 1
        assert first.macs == second.macs
        other = single_block_template.search_space().sample(rng=0)
        objective(other)
        assert objective.mac_traces == (1 if np.array_equal(other.encode(), spec.encode()) else 2)

    def test_unmeasured_quantities_stay_out_of_metrics(self, single_block_template, tiny_dvs_splits):
        """An unmeasured firing rate must be absent, not recorded as 0.0 —
        a multi-objective search over it should fail loudly."""
        objective = self._objective(single_block_template, tiny_dvs_splits, measure_firing_rate=False)
        result = objective(single_block_template.default_architecture())
        assert set(result.metrics) == {"val_accuracy"}
        assert objective.mac_traces == 0
        measured = self._objective(single_block_template, tiny_dvs_splits)
        assert "firing_rate" in measured(single_block_template.default_architecture()).metrics

    @pytest.fixture
    def val_passes(self, monkeypatch, tiny_dvs_splits):
        """Record, per forward pass over a dataset, whether it was ``splits.val``."""
        from repro.training import evaluation

        passes = []
        forward_batches = evaluation._forward_batches

        def counting(model, dataset, batch_size):
            passes.append(dataset is tiny_dvs_splits.val)
            return forward_batches(model, dataset, batch_size)

        monkeypatch.setattr(evaluation, "_forward_batches", counting)
        return passes

    @pytest.mark.parametrize("measure_firing_rate", [True, False])
    def test_one_validation_pass_per_evaluation(
        self, val_passes, single_block_template, tiny_dvs_splits, measure_firing_rate
    ):
        """The score is the only pass over the validation split: fine-tuning
        runs no per-epoch validation that nothing reads."""
        objective = AccuracyDropObjective(
            template=single_block_template,
            splits=tiny_dvs_splits,
            training_config=SNNTrainingConfig(epochs=2, batch_size=16, num_steps=3, seed=0),
            measure_firing_rate=measure_firing_rate,
        )
        objective(single_block_template.default_architecture())
        assert val_passes == [True]

    def test_early_stopping_still_validates_every_epoch(
        self, val_passes, single_block_template, tiny_dvs_splits
    ):
        objective = AccuracyDropObjective(
            template=single_block_template,
            splits=tiny_dvs_splits,
            training_config=SNNTrainingConfig(
                epochs=2, batch_size=16, num_steps=3, seed=0, early_stopping_patience=5
            ),
        )
        objective(single_block_template.default_architecture())
        assert val_passes == [True, True, True]
