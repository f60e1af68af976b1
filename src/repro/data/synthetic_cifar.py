"""Synthetic CIFAR-10 stand-in: 10-class static image classification.

Each class is defined by a *prototype texture* (a mixture of oriented
sinusoidal gratings whose frequencies and orientations depend on the class)
combined with a *class shape mask* (disc, square, cross, stripes, ...).
Individual samples apply random phase shifts, small translations, amplitude
jitter and additive noise, so the task requires learning translation-tolerant
texture/shape features — the kind of features the convolutional architectures
under study are built for — while remaining solvable at small resolution on a
CPU.

The generator is fully deterministic given the seed, and the difficulty can be
tuned through :class:`SyntheticCIFAR10Config` (noise level, jitter, size).
:class:`ImageDraws` takes each sample's random numbers in a per-sample loop
and renders all samples at once, so a dataset is bit-identical to its
samples generated one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.loaders import ArrayDataset, DatasetSplits, train_val_test_split
from repro.tensor.random import default_rng

NUM_CLASSES = 10


@dataclass
class SyntheticCIFAR10Config:
    """Generation parameters for the synthetic CIFAR-10 stand-in."""

    num_samples: int = 600
    image_size: int = 16
    channels: int = 3
    noise_level: float = 0.15
    amplitude_jitter: float = 0.2
    max_translation: int = 2
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0


def _class_shape_masks(size: int) -> np.ndarray:
    """Binary-ish spatial mask characterising each class silhouette, ``(5, H, W)``.

    Class ``c`` uses mask ``c % 5``.
    """
    yy, xx = np.meshgrid(np.linspace(-1, 1, size), np.linspace(-1, 1, size), indexing="ij")
    radius = np.sqrt(xx ** 2 + yy ** 2)
    disc = (radius < 0.7).astype(float)
    square_frame = ((np.abs(xx) < 0.75) & (np.abs(yy) < 0.75)).astype(float)
    square_frame -= ((np.abs(xx) < 0.35) & (np.abs(yy) < 0.35)).astype(float) * 0.5
    cross = ((np.abs(xx) < 0.25) | (np.abs(yy) < 0.25)).astype(float)
    diagonal_stripes = (np.sin(6.0 * (xx + yy)) > 0).astype(float)
    ring = ((radius > 0.35) & (radius < 0.8)).astype(float)
    return 0.3 + 0.7 * np.stack([disc, square_frame, cross, diagonal_stripes, ring])


def _class_textures(labels: np.ndarray, size: int, phase_x: np.ndarray, phase_y: np.ndarray) -> np.ndarray:
    """Oriented grating textures ``(N, H, W)`` whose frequency/orientation encode the class.

    ``phase_x`` and ``phase_y`` hold one phase per label.
    """
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    labels = labels[:, None, None]
    frequency = 1.0 + (labels % 4)  # cycles across the image
    orientation = (labels * np.pi / NUM_CLASSES) % np.pi
    u = np.cos(orientation) * xx + np.sin(orientation) * yy
    v = -np.sin(orientation) * xx + np.cos(orientation) * yy
    grating = 0.5 + 0.25 * np.sin(2 * np.pi * frequency * u / size + phase_x[:, None, None])
    grating += 0.25 * np.sin(2 * np.pi * (frequency + 1) * v / size + phase_y[:, None, None])
    return grating


def _channel_palettes(labels: np.ndarray, channels: int) -> np.ndarray:
    """Per-channel gains ``(N, C)`` giving each class a characteristic colour balance."""
    angles = 2 * np.pi * (labels[:, None] / NUM_CLASSES + np.arange(channels) / max(channels, 1))
    return 0.6 + 0.4 * np.sin(angles)


class ImageDraws:
    """The random numbers of ``num_samples`` images, kept as arrays.

    :meth:`draw` takes one sample's numbers from a generator in the order a
    per-sample generator would, so callers can interleave their own draws
    between samples; :meth:`render` then builds every image at once.
    """

    def __init__(self, num_samples: int, config: SyntheticCIFAR10Config) -> None:
        self.config = config
        size, channels = config.image_size, config.channels
        self.phases = np.empty((num_samples, 2))
        self.shifts = np.zeros((num_samples, 2), dtype=np.intp)
        self.amplitude = np.empty((num_samples, channels))
        self.noise = np.empty((num_samples, channels, size, size))

    def draw(self, index: int, rng: np.random.Generator) -> None:
        """Draw sample ``index``'s phases, translation, amplitude and noise image."""
        self.phases[index] = rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
        limit = self.config.max_translation
        if limit > 0:
            self.shifts[index] = rng.integers(-limit, limit + 1), rng.integers(-limit, limit + 1)
        rng.standard_normal(out=self.amplitude[index])
        rng.standard_normal(out=self.noise[index])

    def render(self, labels: np.ndarray) -> np.ndarray:
        """The ``(N, C, H, W)`` images in [0, 1] of the drawn samples with these labels."""
        config = self.config
        size = config.image_size
        base = _class_textures(labels, size, self.phases[:, 0], self.phases[:, 1])
        base *= _class_shape_masks(size)[labels % 5]

        # small random translation (class-preserving nuisance factor): a
        # per-sample np.roll along both image axes, as one gather
        if config.max_translation > 0:
            pixels = np.arange(size)
            rows = (pixels - self.shifts[:, 0, None]) % size
            cols = (pixels - self.shifts[:, 1, None]) % size
            base = base[np.arange(len(labels))[:, None, None], rows[:, :, None], cols[:, None, :]]

        amplitude = 1.0 + config.amplitude_jitter * self.amplitude
        image = base[:, None, :, :] * (_channel_palettes(labels, config.channels) * amplitude)[:, :, None, None]
        image = image + config.noise_level * self.noise
        return np.clip(image, 0.0, 1.0)


def generate_images(
    labels: np.ndarray,
    config: SyntheticCIFAR10Config,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate one ``(C, H, W)`` image in [0, 1] per label, as ``(N, C, H, W)``."""
    draws = ImageDraws(len(labels), config)
    for index in range(len(labels)):
        draws.draw(index, rng)
    return draws.render(labels)


def generate_sample(
    class_index: int,
    config: SyntheticCIFAR10Config,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate one ``(C, H, W)`` image of the requested class in [0, 1]."""
    return generate_images(np.array([class_index]), config, rng)[0]


def make_synthetic_cifar10(config: SyntheticCIFAR10Config | None = None, **overrides) -> DatasetSplits:
    """Build the synthetic CIFAR-10 stand-in and return train/val/test splits.

    Keyword overrides are applied on top of the (default) config, e.g.
    ``make_synthetic_cifar10(num_samples=200, image_size=12, seed=3)``.
    """
    if config is None:
        config = SyntheticCIFAR10Config()
    if overrides:
        config = SyntheticCIFAR10Config(**{**config.__dict__, **overrides})
    rng = default_rng(config.seed)

    labels = np.arange(config.num_samples) % NUM_CLASSES
    rng.shuffle(labels)
    dataset = ArrayDataset(generate_images(labels, config, rng), labels, num_classes=NUM_CLASSES)
    return train_val_test_split(
        dataset,
        val_fraction=config.val_fraction,
        test_fraction=config.test_fraction,
        rng=default_rng(config.seed + 1),
        name="synthetic-cifar10",
    )
