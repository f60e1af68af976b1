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

from repro._lazy import lazy_exports

# each name's module is imported on first access (PEP 562, see repro._lazy)
_LAZY_EXPORTS = {
    "ArrayDataset": "repro.data.loaders",
    "BatchLoader": "repro.data.loaders",
    "DatasetSplits": "repro.data.loaders",
    "train_val_test_split": "repro.data.loaders",
    "SyntheticCIFAR10Config": "repro.data.synthetic_cifar",
    "make_synthetic_cifar10": "repro.data.synthetic_cifar",
    "DVSEventConfig": "repro.data.synthetic_dvs",
    "events_to_frames": "repro.data.synthetic_dvs",
    "make_synthetic_cifar10_dvs": "repro.data.synthetic_dvs",
    "GESTURE_NAMES": "repro.data.synthetic_gesture",
    "GestureConfig": "repro.data.synthetic_gesture",
    "make_synthetic_dvs_gesture": "repro.data.synthetic_gesture",
    "available_datasets": "repro.data.registry",
    "load_dataset": "repro.data.registry",
}
__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
