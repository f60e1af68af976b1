"""Experiment scales.

The paper's experiments run for hundreds of epochs on GPU; the reproduction
exposes the same experiment *structure* at three scales so that it can be
exercised anywhere:

* ``smoke``   — seconds per experiment; used by the unit/integration tests.
* ``default`` — a few minutes per experiment on a laptop CPU; used by the
  benchmark harness (``pytest benchmarks/``) and the examples.
* ``paper``   — the closest CPU-feasible approximation of the paper's setup
  (larger synthetic datasets, wider models, more steps/epochs/iterations).

The scale can also be selected globally through the ``REPRO_SCALE``
environment variable, which the benchmarks honour.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

from repro.training.config import SNNTrainingConfig, TrainingConfig


@dataclass(frozen=True)
class ExperimentScale:
    """All knobs that trade fidelity for wall-clock time."""

    name: str
    #: synthetic dataset sizes
    num_samples_static: int
    num_samples_dvs: int
    num_samples_gesture: int
    image_size: int
    num_steps: int
    #: model widths
    stage_channels: Sequence[int]
    single_block_channels: int
    #: training budget
    ann_epochs: int
    snn_epochs: int
    candidate_finetune_epochs: int
    final_finetune_epochs: int
    batch_size: int
    learning_rate: float
    #: search budget
    bo_iterations: int
    bo_initial_points: int
    bo_batch_size: int
    search_iterations: int
    figure3_runs: int
    #: misc
    seed: int = 0

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


SMOKE = ExperimentScale(
    name="smoke",
    num_samples_static=80,
    num_samples_dvs=60,
    num_samples_gesture=66,
    image_size=10,
    num_steps=4,
    stage_channels=(4, 6),
    single_block_channels=4,
    ann_epochs=1,
    snn_epochs=1,
    candidate_finetune_epochs=1,
    final_finetune_epochs=1,
    batch_size=16,
    learning_rate=0.05,
    bo_iterations=2,
    bo_initial_points=2,
    bo_batch_size=1,
    search_iterations=4,
    figure3_runs=2,
)

DEFAULT = ExperimentScale(
    name="default",
    num_samples_static=300,
    num_samples_dvs=200,
    num_samples_gesture=220,
    image_size=12,
    num_steps=6,
    stage_channels=(6, 10),
    single_block_channels=6,
    ann_epochs=6,
    snn_epochs=6,
    candidate_finetune_epochs=2,
    final_finetune_epochs=3,
    batch_size=16,
    learning_rate=0.05,
    bo_iterations=5,
    bo_initial_points=3,
    bo_batch_size=1,
    search_iterations=10,
    figure3_runs=3,
)

PAPER = ExperimentScale(
    name="paper",
    num_samples_static=1200,
    num_samples_dvs=800,
    num_samples_gesture=880,
    image_size=16,
    num_steps=10,
    stage_channels=(8, 16),
    single_block_channels=8,
    ann_epochs=20,
    snn_epochs=20,
    candidate_finetune_epochs=4,
    final_finetune_epochs=8,
    batch_size=32,
    learning_rate=0.03,
    bo_iterations=20,
    bo_initial_points=5,
    bo_batch_size=2,
    search_iterations=40,
    figure3_runs=5,
)

_SCALES: Dict[str, ExperimentScale] = {"smoke": SMOKE, "default": DEFAULT, "paper": PAPER}

#: the (dataset, model) grid of Table I, also the ``repro table1`` defaults
DEFAULT_DATASETS: Sequence[str] = ("cifar10", "cifar10-dvs", "dvs128-gesture")
DEFAULT_MODELS: Sequence[str] = ("resnet18", "densenet121", "mobilenetv2")


def get_scale(name: Optional[str] = None) -> ExperimentScale:
    """Resolve a scale by name; ``None`` reads ``REPRO_SCALE`` (default ``"default"``)."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "default")
    key = name.strip().lower()
    if key not in _SCALES:
        raise KeyError(f"unknown experiment scale {name!r}; available: {sorted(_SCALES)}")
    return _SCALES[key]


def dataset_kwargs(scale: ExperimentScale, dataset: str) -> Dict:
    """Synthetic-generator overrides implementing ``scale`` for ``dataset``."""
    dataset = dataset.lower()
    if dataset in ("cifar10", "cifar-10"):
        return {
            "num_samples": scale.num_samples_static,
            "image_size": scale.image_size,
            "seed": scale.seed,
        }
    if "gesture" in dataset:
        return {
            "num_samples": scale.num_samples_gesture,
            "image_size": scale.image_size,
            "num_steps": scale.num_steps,
            "seed": scale.seed,
        }
    return {
        "num_samples": scale.num_samples_dvs,
        "image_size": scale.image_size,
        "num_steps": scale.num_steps,
        "seed": scale.seed,
    }


def model_kwargs(scale: ExperimentScale, model: str, input_channels: int, num_classes: int) -> Dict:
    """Template-builder overrides implementing ``scale`` for ``model``."""
    model = model.lower()
    kwargs: Dict = {"input_channels": input_channels, "num_classes": num_classes}
    if model in ("single_block", "singleblock", "single-block"):
        kwargs["channels"] = scale.single_block_channels
    else:
        kwargs["stage_channels"] = tuple(scale.stage_channels)
    return kwargs


def training_recipe(
    scale: ExperimentScale, epochs: int, seed: int, optimizer: str = "sgd", spiking: bool = True
) -> TrainingConfig:
    """The one training recipe: ``scale``'s batch and rate, momentum 0.9.

    Every experiment derives its configurations here: the ANN reference
    (``spiking=False``), the vanilla SNN and the candidate fine-tune differ
    only in ``epochs``.  The candidate fine-tune configuration is also part
    of every search store's fingerprint.
    """
    fields = dict(
        epochs=epochs,
        batch_size=scale.batch_size,
        learning_rate=scale.learning_rate,
        optimizer=optimizer,
        momentum=0.9,
        seed=seed,
    )
    if spiking:
        return SNNTrainingConfig(num_steps=scale.num_steps, **fields)
    return TrainingConfig(**fields)
