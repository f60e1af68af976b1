"""Synthetic CIFAR-10-DVS stand-in: event streams from moving class patterns.

CIFAR-10-DVS (Li et al., 2017) was recorded by displaying CIFAR-10 images on a
monitor with a repeated closed-loop smooth movement in front of a DVS128
sensor; the sensor emits an event ``(t, x, y, polarity)`` whenever the log
brightness at a pixel changes by more than a contrast threshold.

This module simulates exactly that pipeline on top of the synthetic CIFAR-10
images from :mod:`repro.data.synthetic_cifar`:

1. generate a static class image;
2. move it along a smooth trajectory (circular pan, the classic repeated
   closed-loop movement) over ``num_steps`` "micro-frames";
3. emit ON/OFF events where the inter-frame luminance difference exceeds the
   contrast threshold;
4. bin events into per-step two-channel (ON, OFF) frames of shape
   ``(T, 2, H, W)`` — the representation fed to the SNN, matching the standard
   frame-based preprocessing used by snnTorch/SpikingJelly for this dataset.

Raw event tuples are also available through :func:`generate_event_stream` for
code that wants to exercise event-level transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.data.loaders import ArrayDataset, DatasetSplits, train_val_test_split
from repro.data.synthetic_cifar import NUM_CLASSES, SyntheticCIFAR10Config, generate_sample
from repro.tensor.random import default_rng


@dataclass
class DVSEventConfig:
    """Generation parameters for the synthetic CIFAR-10-DVS stand-in."""

    num_samples: int = 400
    image_size: int = 16
    num_steps: int = 10
    contrast_threshold: float = 0.08
    movement_radius: float = 2.5
    noise_events_per_step: int = 4
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0

    def image_config(self) -> SyntheticCIFAR10Config:
        """Static-image generation parameters used as the moving stimulus."""
        return SyntheticCIFAR10Config(
            num_samples=1,
            image_size=self.image_size,
            channels=1,
            noise_level=0.05,
            max_translation=0,
            seed=self.seed,
        )


def _luminance_at_offset(image: np.ndarray, dy: float, dx: float) -> np.ndarray:
    """Shift a (H, W) luminance image by a sub-pixel offset (bilinear, wrap)."""
    y0 = int(np.floor(dy))
    x0 = int(np.floor(dx))
    fy = dy - y0
    fx = dx - x0
    rows = np.roll(image, y0, axis=0)
    rows_below = np.roll(image, y0 + 1, axis=0)
    shifted = (
        (1 - fy) * (1 - fx) * np.roll(rows, x0, axis=1)
        + (1 - fy) * fx * np.roll(rows, x0 + 1, axis=1)
        + fy * (1 - fx) * np.roll(rows_below, x0, axis=1)
        + fy * fx * np.roll(rows_below, x0 + 1, axis=1)
    )
    return shifted


def generate_event_stream(
    class_index: int,
    config: DVSEventConfig,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate raw events and binned frames for one sample.

    Returns
    -------
    events:
        Structured float array of shape ``(num_events, 4)`` with columns
        ``(t, y, x, polarity)`` where polarity is +1 (ON) or -1 (OFF).
    frames:
        Binned event frames of shape ``(num_steps, 2, H, W)``; channel 0
        holds ON counts, channel 1 OFF counts (clipped to [0, 1]).
    """
    image_config = config.image_config()
    luminance = generate_sample(class_index, image_config, rng)[0]

    size = config.image_size
    frames = np.zeros((config.num_steps, 2, size, size))
    # one (k, 4) block per step and kind: ON events, OFF events, sensor noise
    blocks: List[np.ndarray] = []

    previous = luminance
    for t in range(config.num_steps):
        angle = 2 * np.pi * (t + 1) / config.num_steps
        dy = config.movement_radius * np.sin(angle)
        dx = config.movement_radius * np.cos(angle)
        current = _luminance_at_offset(luminance, dy, dx)
        diff = current - previous
        on_mask = diff > config.contrast_threshold
        off_mask = diff < -config.contrast_threshold
        frames[t, 0][on_mask] = 1.0
        frames[t, 1][off_mask] = 1.0
        for mask, polarity in ((on_mask, 1.0), (off_mask, -1.0)):
            ys, xs = np.nonzero(mask)
            blocks.append(np.column_stack((np.full(len(ys), float(t)), ys, xs, np.full(len(ys), polarity))))

        # sensor noise: spurious events at random pixels
        noise = np.empty((config.noise_events_per_step, 4))
        for k in range(config.noise_events_per_step):
            y = int(rng.integers(0, size))
            x = int(rng.integers(0, size))
            polarity = 1.0 if rng.random() < 0.5 else -1.0
            frames[t, 0 if polarity > 0 else 1, y, x] = 1.0
            noise[k] = (t, y, x, polarity)
        blocks.append(noise)

        previous = current

    events_array = np.concatenate(blocks) if blocks else np.zeros((0, 4))
    return events_array, frames


def events_to_frames(
    events: np.ndarray, num_steps: int, image_size: int, clip: bool = True
) -> np.ndarray:
    """Bin raw ``(t, y, x, polarity)`` events into ``(T, 2, H, W)`` frames."""
    frames = np.zeros((num_steps, 2, image_size, image_size))
    if events.size == 0:
        return frames
    t = np.clip(events[:, 0].astype(int), 0, num_steps - 1)
    y = np.clip(events[:, 1].astype(int), 0, image_size - 1)
    x = np.clip(events[:, 2].astype(int), 0, image_size - 1)
    channel = (events[:, 3] < 0).astype(int)
    np.add.at(frames, (t, channel, y, x), 1.0)
    if clip:
        frames = np.clip(frames, 0.0, 1.0)
    return frames


def make_synthetic_cifar10_dvs(config: DVSEventConfig | None = None, **overrides) -> DatasetSplits:
    """Build the synthetic CIFAR-10-DVS stand-in and return train/val/test splits.

    The paper uses a 90/10 train/test split with the training part further
    divided 80/20 into train/validation; the default fractions approximate
    that protocol.
    """
    if config is None:
        config = DVSEventConfig()
    if overrides:
        config = DVSEventConfig(**{**config.__dict__, **overrides})
    rng = default_rng(config.seed)

    labels = np.arange(config.num_samples) % NUM_CLASSES
    rng.shuffle(labels)
    frames = np.empty((config.num_samples, config.num_steps, 2, config.image_size, config.image_size))
    for i, cls in enumerate(labels):
        _, sample_frames = generate_event_stream(int(cls), config, rng)
        frames[i] = sample_frames

    dataset = ArrayDataset(frames, labels, num_classes=NUM_CLASSES)
    return train_val_test_split(
        dataset,
        val_fraction=config.val_fraction,
        test_fraction=config.test_fraction,
        rng=default_rng(config.seed + 1),
        name="synthetic-cifar10-dvs",
    )
