"""Acceptance tests of the Pareto-front experiment harness and CLI.

Pins the issue's acceptance criteria end-to-end at smoke scale: the run
produces a non-dominated front, the hypervolume trace is non-decreasing, and
a fully-cached re-run (including ``async_workers=2``, whose worker processes
append to one store file) reproduces the identical front without re-evaluating a single candidate.
"""

import dataclasses

import numpy as np
import pytest

from repro.cli import main
from repro.core.pareto import non_dominated_mask
from repro.experiments import get_scale
from repro.experiments.io import load_result, save_result
from repro.core.objectives import resolve_weight_context
from repro.experiments.pareto_front import (
    Pretrained,
    build_search,
    format_pareto,
    plot_pareto,
    pretrain,
    run_pareto_front,
)
from repro.models import build_single_block_template

SMOKE = get_scale("smoke")


def run_smoke(**kwargs):
    defaults = dict(
        scale=SMOKE,
        dataset="cifar10-dvs",
        model="single_block",
        objectives=("accuracy", "energy"),
        iterations=4,
        seed=0,
    )
    defaults.update(kwargs)
    return run_pareto_front(**defaults)


@pytest.fixture(scope="module")
def smoke_result():
    return run_smoke()


class TestParetoExperiment:
    def test_front_is_non_dominated_and_hypervolume_monotone(self, smoke_result):
        result = smoke_result
        assert result.front_size() >= 1
        assert result.num_evaluations == 4  # warm start counts toward the budget
        # re-derive minimisation vectors from the reported raw objectives
        values = np.array(
            [[-p.objectives["accuracy"], p.objectives["energy"]] for p in result.front]
        )
        assert non_dominated_mask(values).all()
        curve = result.hypervolume_curve
        assert curve and all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
        assert result.final_hypervolume() > 0
        assert len(result.reference_point) == 2

    def test_front_points_record_raw_objectives(self, smoke_result):
        for point in smoke_result.front:
            assert set(point.objectives) == {"accuracy", "energy"}
            assert 0.0 <= point.objectives["accuracy"] <= 1.0
            assert point.objectives["energy"] > 0
            assert len(point.encoding) > 0

    def test_format_and_plot(self, smoke_result):
        text = format_pareto(smoke_result)
        assert "Pareto front" in text and "hypervolume" in text
        chart = plot_pareto(smoke_result)
        assert "accuracy" in chart and "energy" in chart

    def test_save_load_round_trip(self, smoke_result, tmp_path):
        path = tmp_path / "pareto.json"
        save_result(smoke_result, path)
        loaded = load_result(path)
        assert loaded.objective_names == smoke_result.objective_names
        assert loaded.hypervolume_curve == pytest.approx(smoke_result.hypervolume_curve)
        assert [p.objectives for p in loaded.front] == [
            {k: pytest.approx(v) for k, v in p.objectives.items()} for p in smoke_result.front
        ]

    def test_energy_budget_reports_feasible_subset(self):
        unbounded = run_smoke(iterations=3)
        budget = max(p.objectives["energy"] for p in unbounded.front)
        result = run_smoke(iterations=3, energy_budget=budget)
        assert result.energy_budget == budget
        feasible = result.feasible_front()
        assert all(p.objectives["energy"] <= budget for p in feasible)
        assert "energy budget" in format_pareto(result)


def _front_key(result):
    return [
        (tuple(point.encoding), tuple(sorted(point.objectives.items())))
        for point in result.front
    ]


class TestCachedRoundTrip:
    @pytest.mark.parametrize(
        "engine", [dict(), dict(async_workers=2)], ids=["serial", "async"]
    )
    def test_fully_cached_rerun_reproduces_the_front(self, tmp_path, engine):
        """Acceptance: the run round-trips through the persistent store — a
        re-run answers every candidate from disk and emits the same front."""
        cold = run_smoke(cache_dir=str(tmp_path), **engine)
        assert cold.fresh_evaluations == cold.num_evaluations
        # every writer, workers included, appended to the one store file
        assert sorted(path.suffix for path in tmp_path.iterdir()) == [".jsonl", ".weights"]
        warm = run_smoke(cache_dir=str(tmp_path), **engine)
        assert warm.fresh_evaluations == 0
        assert warm.num_evaluations == cold.num_evaluations
        assert _front_key(warm) == _front_key(cold)
        assert warm.hypervolume_curve == pytest.approx(cold.hypervolume_curve)


class TestParetoCLI:
    def test_pareto_subcommand(self, tmp_path, capsys):
        output = tmp_path / "pareto.json"
        code = main(
            [
                "pareto",
                "--scale",
                "smoke",
                "--model",
                "single_block",
                "--objectives",
                "accuracy,energy",
                "--iterations",
                "3",
                "--plot",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Pareto front" in printed and "hypervolume" in printed
        assert output.exists()
        assert load_result(output).front_size() >= 1

    def test_pareto_with_budget_and_cache(self, tmp_path, capsys):
        code = main(
            [
                "pareto",
                "--scale",
                "smoke",
                "--model",
                "single_block",
                "--iterations",
                "3",
                "--energy-budget",
                "1e9",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert "energy budget" in capsys.readouterr().out


class TestBuildSearchFromBase:
    """``build_search(base=...)``: what a pretrained base sets, and how the store names it."""

    @pytest.fixture
    def problem(self, tiny_dvs_splits, single_block_template):
        return tiny_dvs_splits, single_block_template

    @pytest.fixture
    def base(self, single_block_template):
        model = single_block_template.build(single_block_template.default_architecture(), spiking=True, rng=0)
        return Pretrained(model.state_dict(), 0.7, 0.2, 0.3, 0.1, "adam")

    def search(self, problem, cache_dir, base=None):
        smoke = get_scale("smoke")
        return build_search(smoke, problem, 0, ["accuracy"], True, 4, str(cache_dir), ["adapt", "t"], base=base)

    def test_base_seeds_the_store_the_reference_and_the_recipe(self, problem, base, tmp_path):
        objective, store = resolve_weight_context(self.search(problem, tmp_path, base).objective)
        assert objective.reference_accuracy == 0.7
        assert objective.training_config.optimizer == "adam"
        state = store.state_dict()
        assert sorted(state) == sorted(base.state)
        assert all(np.array_equal(state[key], value) for key, value in base.state.items())

    def test_without_a_base_the_store_starts_empty(self, problem, tmp_path):
        objective, store = resolve_weight_context(self.search(problem, tmp_path).objective)
        assert objective.reference_accuracy is None
        assert objective.training_config.optimizer == "sgd"
        assert store.is_empty

    def test_store_name_follows_the_base_content(self, problem, base, tmp_path):
        def store_name(base):
            return self.search(problem, tmp_path, base).store.path.name

        named = store_name(base)
        assert named != store_name(None)
        assert store_name(dataclasses.replace(base, state=dict(base.state), test_accuracy=0.9)) == named
        key = sorted(base.state)[0]
        changed = dict(base.state, **{key: base.state[key] + 1.0})
        assert store_name(dataclasses.replace(base, state=changed)) != named
        assert store_name(dataclasses.replace(base, reference_accuracy=None)) != named

    def test_pretrain_trains_an_ann_only_on_static_data(self, problem, tiny_static_splits):
        smoke = get_scale("smoke")
        static_template = build_single_block_template(input_channels=3, num_classes=10, channels=4)
        event = pretrain(smoke, problem, 0, "sgd")
        static = pretrain(smoke, (tiny_static_splits, static_template), 0, "adam")
        assert event.reference_accuracy is None and event.optimizer == "sgd"
        assert 0.0 <= static.reference_accuracy <= 1.0 and static.optimizer == "adam"
        template = problem[1]
        assert sorted(event.state) == sorted(template.build(template.default_architecture(), spiking=True).state_dict())
        for result in (event, static):
            assert 0.0 <= result.test_accuracy <= 1.0 and 0.0 <= result.val_accuracy <= 1.0
            assert 0.0 <= result.firing_rate <= 1.0
