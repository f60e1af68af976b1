"""Dataset containers, splits and mini-batch iteration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.tensor.random import default_rng


class ArrayDataset:
    """A dataset held fully in memory as a pair of arrays.

    ``inputs`` is either ``(N, C, H, W)`` for static images or
    ``(N, T, C, H, W)`` for event-frame sequences; ``labels`` is ``(N,)``
    integer class indices.
    """

    def __init__(self, inputs: np.ndarray, labels: np.ndarray, num_classes: Optional[int] = None) -> None:
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels).astype(np.int64).reshape(-1)
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError(
                f"inputs and labels disagree on sample count: {inputs.shape[0]} vs {labels.shape[0]}"
            )
        self.inputs = inputs
        self.labels = labels
        self.num_classes = int(num_classes) if num_classes is not None else int(labels.max(initial=0)) + 1

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[index], self.labels[index]

    @property
    def is_temporal(self) -> bool:
        """True when samples carry a leading time axis (event-frame data)."""
        return self.inputs.ndim >= 5

    @property
    def sample_shape(self) -> Tuple[int, ...]:
        """Shape of one sample (without the batch axis)."""
        return tuple(self.inputs.shape[1:])

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """Return a new dataset containing only ``indices``."""
        indices = np.asarray(indices)
        return ArrayDataset(self.inputs[indices], self.labels[indices], num_classes=self.num_classes)

    def class_counts(self) -> np.ndarray:
        """Number of samples per class."""
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass
class DatasetSplits:
    """Train / validation / test splits of one dataset, plus metadata."""

    train: ArrayDataset
    val: ArrayDataset
    test: ArrayDataset
    name: str = "dataset"

    @property
    def num_classes(self) -> int:
        """Number of classes (shared across splits)."""
        return self.train.num_classes

    @property
    def sample_shape(self) -> Tuple[int, ...]:
        """Shape of a single sample."""
        return self.train.sample_shape

    @property
    def is_temporal(self) -> bool:
        """Whether samples have a time axis."""
        return self.train.is_temporal

    def summary(self) -> str:
        """One-line description of the splits."""
        return (
            f"{self.name}: train={len(self.train)}, val={len(self.val)}, test={len(self.test)}, "
            f"classes={self.num_classes}, sample_shape={self.sample_shape}"
        )


def train_val_test_split(
    dataset: ArrayDataset,
    val_fraction: float = 0.1,
    test_fraction: float = 0.1,
    rng=None,
    stratified: bool = True,
    name: str = "dataset",
) -> DatasetSplits:
    """Split one dataset into train/val/test, optionally stratified per class."""
    if val_fraction < 0 or test_fraction < 0 or val_fraction + test_fraction >= 1.0:
        raise ValueError("val_fraction and test_fraction must be non-negative and sum to < 1")
    rng = default_rng(rng)
    n = len(dataset)
    if stratified:
        train_idx, val_idx, test_idx = [], [], []
        for cls in range(dataset.num_classes):
            cls_indices = np.where(dataset.labels == cls)[0]
            rng.shuffle(cls_indices)
            n_cls = len(cls_indices)
            n_val = int(round(n_cls * val_fraction))
            n_test = int(round(n_cls * test_fraction))
            val_idx.extend(cls_indices[:n_val])
            test_idx.extend(cls_indices[n_val : n_val + n_test])
            train_idx.extend(cls_indices[n_val + n_test :])
        train_idx = np.asarray(train_idx, dtype=np.int64)
        val_idx = np.asarray(val_idx, dtype=np.int64)
        test_idx = np.asarray(test_idx, dtype=np.int64)
    else:
        order = rng.permutation(n)
        n_val = int(round(n * val_fraction))
        n_test = int(round(n * test_fraction))
        val_idx = order[:n_val]
        test_idx = order[n_val : n_val + n_test]
        train_idx = order[n_val + n_test :]
    return DatasetSplits(
        train=dataset.subset(train_idx),
        val=dataset.subset(val_idx),
        test=dataset.subset(test_idx),
        name=name,
    )


class BatchLoader:
    """Iterate over a dataset in mini-batches.

    Parameters
    ----------
    dataset:
        The dataset to iterate.
    batch_size:
        Mini-batch size; the final batch may be smaller unless ``drop_last``.
    shuffle:
        Reshuffle sample order at the start of every epoch.
    rng:
        Seed or generator controlling the shuffling (reproducible epochs).
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 16,
        shuffle: bool = True,
        drop_last: bool = False,
        rng=None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.drop_last = bool(drop_last)
        self._rng = default_rng(rng)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            indices = order[start : start + self.batch_size]
            if self.drop_last and len(indices) < self.batch_size:
                break
            yield self.dataset[indices]
