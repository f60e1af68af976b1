"""Dataset registry mapping the paper's dataset names to synthetic builders.

Experiments refer to datasets by the names used in the paper ("cifar10",
"cifar10-dvs", "dvs128-gesture"); the registry resolves those names to the
synthetic stand-ins at a requested scale.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.data.loaders import DatasetSplits
from repro.data.synthetic_cifar import make_synthetic_cifar10
from repro.data.synthetic_dvs import make_synthetic_cifar10_dvs
from repro.data.synthetic_gesture import make_synthetic_dvs_gesture
from repro.trace.spans import span

_BUILDERS: Dict[str, Callable[..., DatasetSplits]] = {
    "cifar10": make_synthetic_cifar10,
    "cifar10-dvs": make_synthetic_cifar10_dvs,
    "dvs128-gesture": make_synthetic_dvs_gesture,
}

_ALIASES: Dict[str, str] = {
    "cifar-10": "cifar10",
    "cifar_10": "cifar10",
    "cifar10dvs": "cifar10-dvs",
    "cifar-10-dvs": "cifar10-dvs",
    "cifar_10_dvs": "cifar10-dvs",
    "dvs-gesture": "dvs128-gesture",
    "dvs128gesture": "dvs128-gesture",
    "dvs_gesture": "dvs128-gesture",
}


def available_datasets() -> List[str]:
    """Names of the datasets the registry can build."""
    return sorted(_BUILDERS)


def load_dataset(name: str, **kwargs) -> DatasetSplits:
    """Build the dataset called ``name`` (paper naming) with optional overrides.

    ``kwargs`` are forwarded to the underlying synthetic generator, e.g.
    ``load_dataset("cifar10-dvs", num_samples=120, image_size=12, seed=1)``.
    """
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _BUILDERS:
        raise KeyError(f"unknown dataset {name!r}; available: {available_datasets()}")
    with span("data.load", dataset=key) as load_span:
        splits = _BUILDERS[key](**kwargs)
        if load_span:
            parts = (splits.train, splits.val, splits.test)
            load_span.set(
                num_samples=sum(len(part) for part in parts),
                bytes=sum(part.inputs.nbytes + part.labels.nbytes for part in parts),
            )
    return splits
