"""Benchmark regenerating Table I: adaptation results per dataset and model.

For every (dataset, model) cell the full adaptation pipeline of
:func:`repro.experiments.run_table1_cell` runs (ANN reference when applicable,
vanilla SNN conversion, GP+UCB Bayesian optimization through the shared
search constructor with every candidate fine-tuned from the vanilla SNN,
final fine-tune) and the paper's columns are printed:

    ANN accuracy | SNN accuracy | Optimized SNN accuracy | SNN firing rate | Optimized firing rate

Expected shape: the optimized SNN beats the vanilla SNN conversion (the
paper reports average gains of +8-11 percentage points), and its firing rate
is moderately higher.  The validation split chooses between the two models,
so the test columns can show a loss; at small scales they often do.

Each dataset is one benchmark (three models per dataset) so the harness
reports one timing per paper row-group.  Run with ``-s`` to see the table.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_scale
from repro.experiments import format_table1, run_table1
from repro.experiments.table1 import DEFAULT_MODELS, Table1Result, Table1Row, run_table1_cell
from repro.data import load_dataset
from repro.experiments.config import dataset_kwargs


def _run_dataset(dataset: str) -> Table1Result:
    scale = bench_scale()
    splits = load_dataset(dataset, **dataset_kwargs(scale, dataset))
    table = Table1Result()
    for model in DEFAULT_MODELS:
        result = run_table1_cell(dataset, model, scale=scale, splits=splits, seed=scale.seed)
        table.results.append(result)
        table.rows.append(Table1Row.from_result(dataset, model, result))
    print()
    print(format_table1(table))
    return table


def _check(table: Table1Result) -> None:
    assert len(table.rows) == len(DEFAULT_MODELS)
    for row in table.rows:
        assert 0.0 <= row.snn_firing_rate <= 1.0
        assert 0.0 <= row.optimized_firing_rate <= 1.0
    for result in table.results:
        # the validation split chooses the reported model
        assert result.optimized_val_accuracy >= result.snn_val_accuracy


@pytest.mark.benchmark(group="table1", min_rounds=1, max_time=1.0, warmup=False)
def test_table1_cifar10(benchmark):
    """Table I, CIFAR-10 rows (static images; includes the ANN reference)."""
    table = benchmark.pedantic(_run_dataset, args=("cifar10",), rounds=1, iterations=1)
    _check(table)
    for row in table.rows:
        assert row.ann_accuracy is not None  # ANN column is reported for static data


@pytest.mark.benchmark(group="table1", min_rounds=1, max_time=1.0, warmup=False)
def test_table1_cifar10_dvs(benchmark):
    """Table I, CIFAR-10-DVS rows (event data; ANN column omitted, as in the paper)."""
    table = benchmark.pedantic(_run_dataset, args=("cifar10-dvs",), rounds=1, iterations=1)
    _check(table)
    for row in table.rows:
        assert row.ann_accuracy is None


@pytest.mark.benchmark(group="table1", min_rounds=1, max_time=1.0, warmup=False)
def test_table1_dvs128_gesture(benchmark):
    """Table I, DVS128 Gesture rows (event data, Adam optimizer, 11 classes)."""
    table = benchmark.pedantic(_run_dataset, args=("dvs128-gesture",), rounds=1, iterations=1)
    _check(table)
