"""Synthetic DVS128 Gesture stand-in: event streams of hand-gesture motions.

DVS128 Gesture (Amir et al., 2017) contains 11 hand gestures recorded by an
event camera from 29 subjects: hand waves, arm rotations, air drums/guitar,
etc.  What distinguishes the classes is the *motion trajectory* over time, not
a static appearance — exactly the regime where spiking networks with temporal
dynamics are expected to shine.

The stand-in generates a small bright "hand" blob whose trajectory over the
simulation window encodes the class (horizontal and vertical oscillations,
left/right waves, clockwise/counter-clockwise rotations left or right of
centre, a small fast roll, a diagonal oscillation and a slow drift; see
:data:`GESTURE_NAMES`).  Events are emitted where the frame-to-frame
luminance changes, then binned to ON/OFF frames, mirroring the CIFAR-10-DVS
pipeline, and generated the same way: a per-sample loop draws the random
numbers in a one-sample generator's order, then one vectorised pass renders
every sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.data.loaders import ArrayDataset, DatasetSplits, train_val_test_split
from repro.data.synthetic_dvs import draw_sensor_noise, scatter_sensor_noise
from repro.tensor.random import default_rng

#: the 11 gesture classes of the stand-in (names chosen to echo the original dataset)
GESTURE_NAMES: Tuple[str, ...] = (
    "hand_clap",        # 0: blob oscillating horizontally around the centre, fast
    "right_hand_wave",  # 1: horizontal wave on the right half
    "left_hand_wave",   # 2: horizontal wave on the left half
    "right_arm_cw",     # 3: clockwise rotation, right of centre
    "right_arm_ccw",    # 4: counter-clockwise rotation, right of centre
    "left_arm_cw",      # 5: clockwise rotation, left of centre
    "left_arm_ccw",     # 6: counter-clockwise rotation, left of centre
    "arm_roll",         # 7: small-radius fast rotation at the centre
    "air_drums",        # 8: vertical oscillation, two beats per window
    "air_guitar",       # 9: diagonal oscillation
    "other",            # 10: slow random drift
)

NUM_GESTURE_CLASSES = len(GESTURE_NAMES)


@dataclass
class GestureConfig:
    """Generation parameters for the synthetic DVS128 Gesture stand-in."""

    num_samples: int = 440
    image_size: int = 16
    num_steps: int = 12
    blob_radius: float = 2.0
    contrast_threshold: float = 0.05
    noise_events_per_step: int = 3
    speed_jitter: float = 0.15
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0


def _blobs(size: int, cy: np.ndarray, cx: np.ndarray, radius: float) -> np.ndarray:
    """Gaussian blob luminance images centred at (cy, cx), shaped ``cy.shape + (H, W)``."""
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    d2 = (yy - cy[..., None, None]) ** 2 + (xx - cx[..., None, None]) ** 2
    return np.exp(-d2 / (2.0 * radius ** 2))


Trajectory = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _trajectory(class_index: int, phase: np.ndarray, speed: np.ndarray, size: int) -> Trajectory:
    """Return a function mapping normalised times u in [0,1] to blob centres (cy, cx).

    ``phase`` and ``speed`` broadcast against ``u``; a coordinate the class
    holds still comes back as a scalar.
    """
    centre = (size - 1) / 2.0
    span = size * 0.3

    def clap(u):
        return centre, centre + span * np.sin(2 * np.pi * (2.0 * speed * u + phase))

    def right_wave(u):
        return centre, centre + size * 0.2 + span * 0.6 * np.sin(2 * np.pi * (speed * u + phase))

    def left_wave(u):
        return centre, centre - size * 0.2 + span * 0.6 * np.sin(2 * np.pi * (speed * u + phase))

    def rotation(u, direction, offset_x):
        angle = 2 * np.pi * (speed * u * direction + phase)
        return centre + span * 0.7 * np.sin(angle), centre + offset_x + span * 0.7 * np.cos(angle)

    def arm_roll(u):
        angle = 2 * np.pi * (2.5 * speed * u + phase)
        return centre + span * 0.35 * np.sin(angle), centre + span * 0.35 * np.cos(angle)

    def air_drums(u):
        return centre + span * np.sin(2 * np.pi * (2.0 * speed * u + phase)), centre

    def air_guitar(u):
        offset = span * 0.7 * np.sin(2 * np.pi * (1.5 * speed * u + phase))
        return centre + offset, centre - offset

    def other(u):
        return (
            centre + span * 0.25 * np.sin(2 * np.pi * (0.5 * speed * u + phase)),
            centre + span * 0.25 * np.cos(2 * np.pi * (0.35 * speed * u + 2 * phase)),
        )

    table: Dict[int, Trajectory] = {
        0: clap,
        1: right_wave,
        2: left_wave,
        3: lambda u: rotation(u, +1.0, size * 0.15),
        4: lambda u: rotation(u, -1.0, size * 0.15),
        5: lambda u: rotation(u, +1.0, -size * 0.15),
        6: lambda u: rotation(u, -1.0, -size * 0.15),
        7: arm_roll,
        8: air_drums,
        9: air_guitar,
        10: other,
    }
    return table[class_index]


def _generate_gestures(labels: np.ndarray, config: GestureConfig, rng: np.random.Generator) -> np.ndarray:
    """Binned ON/OFF event frames ``(N, T, 2, H, W)``, one gesture per label."""
    num_samples, size, num_steps = len(labels), config.image_size, config.num_steps
    phases = np.empty(num_samples)
    speed_draws = np.empty(num_samples)
    noise: List[Tuple[int, int, float]] = []
    for index in range(num_samples):
        phases[index] = rng.uniform(0, 1)
        speed_draws[index] = rng.standard_normal()
        noise += draw_sensor_noise(rng, size, num_steps * config.noise_events_per_step)

    speeds = 1.0 + config.speed_jitter * speed_draws
    # u = 0 places the blob before the first step; step t ends at u = (t + 1) / T
    times = np.arange(num_steps + 1) / num_steps
    cy = np.empty((num_samples, num_steps + 1))
    cx = np.empty_like(cy)
    for class_index in np.unique(labels):
        members = labels == class_index
        trajectory = _trajectory(int(class_index), phases[members, None], speeds[members, None], size)
        cy[members], cx[members] = trajectory(times)
    luminance = _blobs(size, cy, cx, config.blob_radius)
    diff = luminance[:, 1:] - luminance[:, :-1]

    frames = np.zeros((num_samples, num_steps, 2, size, size))
    frames[:, :, 0] = diff > config.contrast_threshold
    frames[:, :, 1] = diff < -config.contrast_threshold
    scatter_sensor_noise(frames, noise, config.noise_events_per_step)
    return frames


def generate_gesture_sample(
    class_index: int,
    config: GestureConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate binned ON/OFF event frames ``(T, 2, H, W)`` for one gesture."""
    return _generate_gestures(np.array([class_index]), config, rng)[0]


def make_synthetic_dvs_gesture(config: GestureConfig | None = None, **overrides) -> DatasetSplits:
    """Build the synthetic DVS128-Gesture stand-in and return train/val/test splits."""
    if config is None:
        config = GestureConfig()
    if overrides:
        config = GestureConfig(**{**config.__dict__, **overrides})
    rng = default_rng(config.seed)

    labels = np.arange(config.num_samples) % NUM_GESTURE_CLASSES
    rng.shuffle(labels)
    dataset = ArrayDataset(_generate_gestures(labels, config, rng), labels, num_classes=NUM_GESTURE_CLASSES)
    return train_val_test_split(
        dataset,
        val_fraction=config.val_fraction,
        test_fraction=config.test_fraction,
        rng=default_rng(config.seed + 1),
        name="synthetic-dvs128-gesture",
    )
