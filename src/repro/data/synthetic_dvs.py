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

Generation runs in two steps.  A per-sample loop makes every random draw in
the order of a one-sample generator (the static image's numbers, then each
step's sensor-noise pixels), so the data is bit-identical whatever the
sample count; one vectorised pass then renders all samples at once.  Raw
event tuples are derived only by :func:`generate_event_stream`; the dataset
path keeps just the binned frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Tuple

import numpy as np

from repro.data.loaders import ArrayDataset, DatasetSplits, train_val_test_split
from repro.data.synthetic_cifar import NUM_CLASSES, ImageDraws, SyntheticCIFAR10Config
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


def _luminance_at_offset(images: np.ndarray, dy: float, dx: float) -> np.ndarray:
    """Shift ``(..., H, W)`` luminance images by a sub-pixel offset (bilinear, wrap)."""
    y0 = int(np.floor(dy))
    x0 = int(np.floor(dx))
    fy = dy - y0
    fx = dx - x0
    rows = np.roll(images, y0, axis=-2)
    rows_below = np.roll(images, y0 + 1, axis=-2)
    shifted = (
        (1 - fy) * (1 - fx) * np.roll(rows, x0, axis=-1)
        + (1 - fy) * fx * np.roll(rows, x0 + 1, axis=-1)
        + fy * (1 - fx) * np.roll(rows_below, x0, axis=-1)
        + fy * fx * np.roll(rows_below, x0 + 1, axis=-1)
    )
    return shifted


def draw_sensor_noise(rng: np.random.Generator, size: int, count: int) -> List[Tuple[int, int, float]]:
    """``count`` spurious events ``(y, x, u)``; the event is OFF where ``u >= 0.5``.

    Drawn one scalar at a time: batched draws would consume the random
    stream differently and change every later sample.
    """
    integers, random = rng.integers, rng.random
    return [(integers(size), integers(size), random()) for _ in range(count)]


def scatter_sensor_noise(frames: np.ndarray, noise: List[Tuple[int, int, float]], per_step: int) -> np.ndarray:
    """Set the pixel of every noise event in ``(N, T, 2, H, W)`` frames.

    ``noise`` holds :func:`draw_sensor_noise` triples, ``per_step`` of them
    per sample and step in draw order.  Returns them as ``(N, T, K, 3)``.
    """
    num_samples, num_steps = frames.shape[:2]
    noise_array = np.fromiter(chain.from_iterable(noise), dtype=float, count=3 * len(noise))
    noise_array = noise_array.reshape(num_samples, num_steps, per_step, 3)
    sample = np.arange(num_samples)[:, None, None]
    step = np.arange(num_steps)[None, :, None]
    channel = (noise_array[..., 2] >= 0.5).astype(np.intp)
    frames[sample, step, channel, noise_array[..., 0].astype(np.intp), noise_array[..., 1].astype(np.intp)] = 1.0
    return noise_array


def _generate_streams(
    labels: np.ndarray,
    config: DVSEventConfig,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Event frames of one moving image per label, with what they were binned from.

    Returns ``(frames, on, off, noise)``: frames ``(N, T, 2, H, W)``, the
    ON and OFF threshold masks ``(N, T, H, W)`` and the sensor noise
    ``(N, T, K, 3)`` (see :func:`scatter_sensor_noise`).
    """
    num_samples, size, num_steps = len(labels), config.image_size, config.num_steps
    per_step = config.noise_events_per_step
    images = ImageDraws(num_samples, config.image_config())
    noise: List[Tuple[int, int, float]] = []
    for index in range(num_samples):
        images.draw(index, rng)
        noise += draw_sensor_noise(rng, size, num_steps * per_step)

    luminance = images.render(labels)[:, 0]
    on = np.empty((num_samples, num_steps, size, size), dtype=bool)
    off = np.empty_like(on)
    previous = luminance
    for t in range(num_steps):
        angle = 2 * np.pi * (t + 1) / num_steps
        dy = config.movement_radius * np.sin(angle)
        dx = config.movement_radius * np.cos(angle)
        current = _luminance_at_offset(luminance, dy, dx)
        diff = current - previous
        on[:, t] = diff > config.contrast_threshold
        off[:, t] = diff < -config.contrast_threshold
        previous = current

    frames = np.zeros((num_samples, num_steps, 2, size, size))
    frames[:, :, 0] = on
    frames[:, :, 1] = off
    return frames, on, off, scatter_sensor_noise(frames, noise, per_step)


def generate_event_stream(
    class_index: int,
    config: DVSEventConfig,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate raw events and binned frames for one sample.

    Returns
    -------
    events:
        Float array of shape ``(num_events, 4)`` with columns
        ``(t, y, x, polarity)`` where polarity is +1 (ON) or -1 (OFF).  They
        are ordered by step; within a step come the ON events, the OFF
        events (each in row-major pixel order), then the sensor noise.
    frames:
        Binned event frames of shape ``(num_steps, 2, H, W)``; channel 0
        holds ON counts, channel 1 OFF counts (clipped to [0, 1]).
    """
    frames, on, off, noise = _generate_streams(np.array([class_index]), config, rng)
    # one (k, 4) block per step and kind: ON events, OFF events, sensor noise
    blocks = []
    for t in range(config.num_steps):
        for mask, polarity in ((on[0, t], 1.0), (off[0, t], -1.0)):
            ys, xs = np.nonzero(mask)
            blocks.append(np.column_stack((np.full(len(ys), float(t)), ys, xs, np.full(len(ys), polarity))))
        ys, xs, u = noise[0, t].T
        blocks.append(np.column_stack((np.full(len(ys), float(t)), ys, xs, np.where(u < 0.5, 1.0, -1.0))))
    events = np.concatenate(blocks) if blocks else np.zeros((0, 4))
    return events, frames[0]


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
    frames, _, _, _ = _generate_streams(labels, config, rng)
    dataset = ArrayDataset(frames, labels, num_classes=NUM_CLASSES)
    return train_val_test_split(
        dataset,
        val_fraction=config.val_fraction,
        test_fraction=config.test_fraction,
        rng=default_rng(config.seed + 1),
        name="synthetic-cifar10-dvs",
    )
