"""Synthetic dataset substrate.

The paper evaluates on CIFAR-10, CIFAR-10-DVS and DVS128 Gesture.  Those
datasets cannot be downloaded in this offline environment, so this package
provides deterministic synthetic stand-ins that exercise exactly the same code
paths (see DESIGN.md, Section 2 for the substitution rationale):

* :mod:`repro.data.synthetic_cifar` — 10-class static images with
  class-dependent multi-scale textures and shapes (CIFAR-10 stand-in);
* :mod:`repro.data.synthetic_dvs` — event streams produced by moving the
  static class patterns in front of a simulated DVS sensor and binning the
  resulting ON/OFF polarity events into frames (CIFAR-10-DVS stand-in);
* :mod:`repro.data.synthetic_gesture` — event streams of class-defining motion
  trajectories: swipes, rotations, waves, zooms (DVS128 Gesture stand-in);
* :mod:`repro.data.loaders` — dataset containers, train/val/test splits and a
  mini-batch loader.
"""

from repro.data.loaders import ArrayDataset, BatchLoader, DatasetSplits, train_val_test_split
from repro.data.synthetic_cifar import SyntheticCIFAR10Config, make_synthetic_cifar10
from repro.data.synthetic_dvs import DVSEventConfig, events_to_frames, make_synthetic_cifar10_dvs
from repro.data.synthetic_gesture import GESTURE_NAMES, GestureConfig, make_synthetic_dvs_gesture
from repro.data.registry import available_datasets, load_dataset

__all__ = [
    "ArrayDataset",
    "BatchLoader",
    "DatasetSplits",
    "train_val_test_split",
    "SyntheticCIFAR10Config",
    "make_synthetic_cifar10",
    "DVSEventConfig",
    "events_to_frames",
    "make_synthetic_cifar10_dvs",
    "GESTURE_NAMES",
    "GestureConfig",
    "make_synthetic_dvs_gesture",
    "available_datasets",
    "load_dataset",
]
