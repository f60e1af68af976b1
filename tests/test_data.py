"""Tests of the synthetic datasets and loaders."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    BatchLoader,
    DatasetSplits,
    available_datasets,
    events_to_frames,
    load_dataset,
    make_synthetic_cifar10,
    make_synthetic_cifar10_dvs,
    make_synthetic_dvs_gesture,
    train_val_test_split,
)
from repro.data.synthetic_cifar import SyntheticCIFAR10Config, generate_sample
from repro.data.synthetic_dvs import DVSEventConfig, generate_event_stream
from repro.data.synthetic_gesture import GESTURE_NAMES, GestureConfig, generate_gesture_sample
from repro.experiments.config import dataset_kwargs, get_scale


class TestArrayDataset:
    def test_basic_properties(self, rng):
        data = ArrayDataset(rng.random((10, 3, 4, 4)), np.arange(10) % 2)
        assert len(data) == 10
        assert data.num_classes == 2
        assert data.sample_shape == (3, 4, 4)
        assert not data.is_temporal

    def test_temporal_flag(self, rng):
        data = ArrayDataset(rng.random((4, 6, 2, 4, 4)), np.zeros(4))
        assert data.is_temporal

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.random((4, 1, 2, 2)), np.zeros(5))

    def test_subset_and_class_counts(self, rng):
        data = ArrayDataset(rng.random((10, 1, 2, 2)), np.arange(10) % 5)
        subset = data.subset(np.array([0, 5]))
        assert len(subset) == 2
        assert subset.num_classes == 5
        np.testing.assert_array_equal(data.class_counts(), np.full(5, 2))

    def test_getitem_batch(self, rng):
        data = ArrayDataset(rng.random((6, 1, 2, 2)), np.arange(6) % 2)
        inputs, labels = data[np.array([0, 3])]
        assert inputs.shape == (2, 1, 2, 2) and labels.shape == (2,)


class TestSplitsAndLoader:
    def test_stratified_split_fractions(self, rng):
        data = ArrayDataset(rng.random((100, 1, 2, 2)), np.arange(100) % 10)
        splits = train_val_test_split(data, val_fraction=0.2, test_fraction=0.1, rng=0)
        assert len(splits.val) == 20 and len(splits.test) == 10 and len(splits.train) == 70
        # stratified: every class appears in every split
        assert np.all(splits.val.class_counts() > 0)
        assert np.all(splits.test.class_counts() > 0)

    def test_split_disjoint_and_complete(self, rng):
        inputs = np.arange(40).reshape(40, 1, 1, 1).astype(float)
        data = ArrayDataset(inputs, np.arange(40) % 4)
        splits = train_val_test_split(data, 0.25, 0.25, rng=1)
        values = np.concatenate([splits.train.inputs, splits.val.inputs, splits.test.inputs]).ravel()
        assert sorted(values.tolist()) == list(range(40))

    def test_invalid_fractions(self, rng):
        data = ArrayDataset(rng.random((10, 1, 2, 2)), np.zeros(10))
        with pytest.raises(ValueError):
            train_val_test_split(data, 0.6, 0.6)

    def test_splits_summary(self, tiny_dvs_splits):
        text = tiny_dvs_splits.summary()
        assert "train=" in text and "classes=" in text

    def test_loader_covers_all_samples(self, rng):
        data = ArrayDataset(rng.random((23, 1, 2, 2)), np.arange(23) % 3)
        loader = BatchLoader(data, batch_size=5, shuffle=True, rng=0)
        assert len(loader) == 5
        seen = sum(len(labels) for _, labels in loader)
        assert seen == 23

    def test_loader_drop_last(self, rng):
        data = ArrayDataset(rng.random((23, 1, 2, 2)), np.arange(23) % 3)
        loader = BatchLoader(data, batch_size=5, drop_last=True, rng=0)
        assert len(loader) == 4
        assert sum(len(labels) for _, labels in loader) == 20

    def test_loader_shuffle_changes_order_but_not_content(self, rng):
        data = ArrayDataset(np.arange(12).reshape(12, 1, 1, 1).astype(float), np.arange(12) % 2)
        loader = BatchLoader(data, batch_size=12, shuffle=True, rng=0)
        (first_epoch, _), = list(loader)
        (second_epoch, _), = list(loader)
        assert sorted(first_epoch.ravel()) == sorted(second_epoch.ravel())
        assert not np.array_equal(first_epoch, second_epoch)

    def test_invalid_batch_size(self, rng):
        data = ArrayDataset(rng.random((4, 1, 2, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            BatchLoader(data, batch_size=0)


class TestSyntheticCIFAR:
    def test_shapes_and_ranges(self, tiny_static_splits):
        assert tiny_static_splits.num_classes == 10
        assert tiny_static_splits.sample_shape == (3, 8, 8)
        assert tiny_static_splits.train.inputs.min() >= 0.0
        assert tiny_static_splits.train.inputs.max() <= 1.0

    def test_deterministic_given_seed(self):
        a = make_synthetic_cifar10(num_samples=20, image_size=8, seed=5)
        b = make_synthetic_cifar10(num_samples=20, image_size=8, seed=5)
        np.testing.assert_allclose(a.train.inputs, b.train.inputs)

    def test_different_seeds_differ(self):
        a = make_synthetic_cifar10(num_samples=20, image_size=8, seed=1)
        b = make_synthetic_cifar10(num_samples=20, image_size=8, seed=2)
        assert not np.allclose(a.train.inputs, b.train.inputs)

    def test_classes_are_visually_distinct(self):
        """Same-class samples must be more similar than different-class samples on average."""
        config = SyntheticCIFAR10Config(image_size=12, noise_level=0.05, max_translation=0)
        rng = np.random.default_rng(0)
        same, different = [], []
        for cls in range(4):
            a = generate_sample(cls, config, rng)
            b = generate_sample(cls, config, rng)
            c = generate_sample((cls + 5) % 10, config, rng)
            same.append(np.abs(a - b).mean())
            different.append(np.abs(a - c).mean())
        assert np.mean(same) < np.mean(different)

    def test_all_classes_present(self):
        splits = make_synthetic_cifar10(num_samples=100, image_size=8, seed=0)
        assert np.all(splits.train.class_counts() > 0)


class TestSyntheticDVS:
    def test_shapes(self, tiny_dvs_splits):
        assert tiny_dvs_splits.is_temporal
        assert tiny_dvs_splits.sample_shape == (4, 2, 8, 8)
        assert tiny_dvs_splits.num_classes == 10

    def test_event_frames_are_binary(self, tiny_dvs_splits):
        values = np.unique(tiny_dvs_splits.train.inputs)
        assert set(values).issubset({0.0, 1.0})

    def test_event_stream_generation(self):
        config = DVSEventConfig(image_size=10, num_steps=5)
        events, frames = generate_event_stream(3, config, np.random.default_rng(0))
        assert frames.shape == (5, 2, 10, 10)
        assert events.shape[1] == 4
        assert frames.sum() > 0  # movement produces events

    def test_events_to_frames_binning(self):
        events = np.array([[0, 1, 2, 1.0], [0, 1, 2, 1.0], [2, 3, 4, -1.0]])
        frames = events_to_frames(events, num_steps=3, image_size=6)
        assert frames[0, 0, 1, 2] == 1.0  # clipped ON count
        assert frames[2, 1, 3, 4] == 1.0  # OFF channel
        assert frames.sum() == 2.0

    def test_events_to_frames_empty(self):
        frames = events_to_frames(np.zeros((0, 4)), num_steps=3, image_size=4)
        assert frames.sum() == 0.0

    def test_deterministic_given_seed(self):
        a = make_synthetic_cifar10_dvs(num_samples=10, image_size=8, num_steps=4, seed=3)
        b = make_synthetic_cifar10_dvs(num_samples=10, image_size=8, num_steps=4, seed=3)
        np.testing.assert_allclose(a.train.inputs, b.train.inputs)


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(repr((array.dtype.str, array.shape)).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestGeneratorDigests:
    """Every synthetic dataset is pinned to its sha256, bit for bit.

    Cached evaluation rows are keyed by a fingerprint of the data they were
    trained on, so any change to a generator's output, even in the last
    bit, must show here rather than as silently invalidated caches.
    """

    SPLIT_DIGESTS = {
        "smoke": {
            "train": "e93bcfd73a4e6394d86dc9c08106aed9c8ba6602b8d8050cbb37349f209b1d1e",
            "val": "4f373c7eba8dd6d2db397104b0e02b4ae8a57854e8de3ad589b254ef4d7b8a99",
            "test": "bb1864527f74a78d0ca6e51379a77274ef0d58602986f5c9e60da3e032cfd7db",
        },
        "default": {
            "train": "3bbe41a43f86144331982661e4959ad57c914f3bf0fdc10272314bd1c490a9f3",
            "val": "6b7d00f474c54d77c9a2140a95a880c575b21d1a55a629f99a9ba0bde2220424",
            "test": "715565e9156a47e8b06b6714ca31cd4107b9232905c6ec78c9a36674dff31103",
        },
    }

    CIFAR10_SPLIT_DIGESTS = {
        "smoke": {
            "train": "0891c178caaae579031170075033c64711a58a5820ae0aef222a51f3bc26cb34",
            "val": "552ff3d757440161158e55cbb0942819e1e20508555e7bc5094476deaa929cef",
            "test": "4c2c47d4f1535348842350b7f97c42d69611e5ae6c232a3effc7c03eb1145fe8",
        },
        "default": {
            "train": "6771b8805ddf7d7e07b424ae477ea849e9301b5e6109402378fae5280fdc4060",
            "val": "7e5a984fe1f1bca5042435935d8d8020b5b1a517b5e38ee46a52dae5daf6fcac",
            "test": "e405b76e4e63082cf681c28d3ee65369720839febaf03e639f992aa05916e3c0",
        },
    }

    GESTURE_SPLIT_DIGESTS = {
        "smoke": {
            "train": "1d8e767355164c210fa0cb3c1ec770fbd64325822736d43fb4f072c486dd6a28",
            "val": "67145a6c30275906cb7f583abe2d04a8a471d6c6747d5f4d3336a785dabcfedb",
            "test": "596b3f505f60b8a90f30f8d3155c812bbf38484d84e17ae1281da9653c1332cb",
        },
        "default": {
            "train": "1b9fe1f9c43b652a10165f683fa35ab37115357395886e7220e32dcc8d27a750",
            "val": "cca32b4dd7d418ec59bf818d815ce22b779ae747d8e185206424f7e25939e60c",
            "test": "e346d398295a8d1a489be5ea3661168a908e0e750a3dd3b21a0f10aaa73dc9db",
        },
    }

    SAMPLE_DIGESTS = {
        0: "bae9858de463ff77e11ff110e5607a8694775f525949d5c16398fd9816e55717",
        1: "6a82fcc33ec12c3b82f73a9ae888b7ee98f4912e120f68b743fb18cc80d43f7d",
        2: "8c58807330d5612c7fc7092ec4d1c7b02cf5edcadbcadf360973a78b1288c9ec",
    }

    GESTURE_SAMPLE_DIGESTS = {
        0: "fad9504f863d4547e1512feb1c0f367dd8ef3d5d89f23a82b5be27263b183453",
        1: "52bdabd48049f8f9e39136e8e89ca14c2801baa47275ced8ef421f784736e457",
        2: "74e1015f7da44e0f835667aefb9814969e47b87ce1efb4564db1332711ca5dfb",
    }

    EVENT_DIGESTS = {
        0: (
            "39dc54bc704d29fe5ae68d34de6daaca603845d85d671c557078db860074e9bc",
            "b907bb16d4a86ddaad7a4cc6120a769354d28d534cfd3cfe241f9f379fb2a0ad",
        ),
        1: (
            "2f8529aaf1cfb8db2572da18993ab8f23819b1bf664000f76573ade41f20d118",
            "12b5cb8be6b17ac8050ab94702a2b18c242b80a3b5ee498bebf99a1b0c5431c4",
        ),
        2: (
            "62b674660cecfd388b57399f2cc0fb8e9c982e89fb739a3a7fe7d27891ceb17c",
            "024e9a5d76d8549503ee120e06edd26df18bc8c1e7f28794fe40c49d041d2037",
        ),
    }

    @staticmethod
    def _split_digests(dataset, scale):
        splits = load_dataset(dataset, **dataset_kwargs(get_scale(scale), dataset))
        return {
            name: _sha256(part.inputs, part.labels)
            for name, part in (("train", splits.train), ("val", splits.val), ("test", splits.test))
        }

    @pytest.mark.parametrize("scale", ["smoke", "default"])
    def test_cifar10_dvs_splits(self, scale):
        assert self._split_digests("cifar10-dvs", scale) == self.SPLIT_DIGESTS[scale]

    @pytest.mark.parametrize("scale", ["smoke", "default"])
    def test_cifar10_splits(self, scale):
        assert self._split_digests("cifar10", scale) == self.CIFAR10_SPLIT_DIGESTS[scale]

    @pytest.mark.parametrize("scale", ["smoke", "default"])
    def test_dvs128_gesture_splits(self, scale):
        assert self._split_digests("dvs128-gesture", scale) == self.GESTURE_SPLIT_DIGESTS[scale]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_static_sample(self, seed):
        image = generate_sample(3 * seed + 1, SyntheticCIFAR10Config(image_size=11), np.random.default_rng(seed))
        assert _sha256(image) == self.SAMPLE_DIGESTS[seed]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gesture_sample(self, seed):
        config = GestureConfig(image_size=11, num_steps=5)
        frames = generate_gesture_sample(4 * seed + 1, config, np.random.default_rng(seed))
        assert _sha256(frames) == self.GESTURE_SAMPLE_DIGESTS[seed]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_event_stream(self, seed):
        config = DVSEventConfig(image_size=12, num_steps=6)
        events, frames = generate_event_stream(3 * seed + 1, config, np.random.default_rng(seed))
        assert (_sha256(events), _sha256(frames)) == self.EVENT_DIGESTS[seed]


class TestBatchEqualsPerSample:
    """A dataset of S samples equals S one-sample calls on one generator, bit for bit.

    Each builder draws every sample's random numbers in a per-sample loop and
    renders all samples at once; a batched or vectorised render that changed
    any bit, or a draw taken out of order, shows here.
    """

    NUM_SAMPLES = 23

    #: generator -> (config class, builder, one-sample function, classes, split name)
    GENERATORS = {
        "cifar10": (
            SyntheticCIFAR10Config,
            make_synthetic_cifar10,
            generate_sample,
            10,
            "synthetic-cifar10",
        ),
        "cifar10-dvs": (
            DVSEventConfig,
            make_synthetic_cifar10_dvs,
            lambda cls, config, rng: generate_event_stream(cls, config, rng)[1],
            10,
            "synthetic-cifar10-dvs",
        ),
        "dvs128-gesture": (
            GestureConfig,
            make_synthetic_dvs_gesture,
            generate_gesture_sample,
            11,
            "synthetic-dvs128-gesture",
        ),
    }

    #: odd sizes, a single step, no sensor noise, a one-channel static image
    CASES = {
        "cifar10": [
            {"image_size": 7},
            {"image_size": 9, "channels": 1, "max_translation": 0},
            {"image_size": 8, "max_translation": 3, "noise_level": 0.0},
        ],
        "cifar10-dvs": [
            {"image_size": 7, "num_steps": 3},
            {"image_size": 9, "num_steps": 1},
            {"image_size": 8, "num_steps": 4, "noise_events_per_step": 0},
        ],
        "dvs128-gesture": [
            {"image_size": 7, "num_steps": 3},
            {"image_size": 9, "num_steps": 1},
            {"image_size": 8, "num_steps": 4, "noise_events_per_step": 0},
        ],
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", [0, 1, 2])
    @pytest.mark.parametrize("generator", ["cifar10", "cifar10-dvs", "dvs128-gesture"])
    def test_dataset_equals_per_sample_calls(self, generator, case, seed):
        config_cls, build, one_sample, num_classes, name = self.GENERATORS[generator]
        config = config_cls(num_samples=self.NUM_SAMPLES, seed=seed, **self.CASES[generator][case])

        rng = np.random.default_rng(seed)
        labels = np.arange(self.NUM_SAMPLES) % num_classes
        rng.shuffle(labels)
        inputs = np.stack([one_sample(int(cls), config, rng) for cls in labels])
        expected = train_val_test_split(
            ArrayDataset(inputs, labels, num_classes=num_classes),
            val_fraction=config.val_fraction,
            test_fraction=config.test_fraction,
            rng=np.random.default_rng(seed + 1),
            name=name,
        )

        built = build(config)
        for part in ("train", "val", "test"):
            got, want = getattr(built, part), getattr(expected, part)
            assert _sha256(got.inputs, got.labels) == _sha256(want.inputs, want.labels), part


class TestSyntheticGesture:
    def test_eleven_classes(self, tiny_gesture_splits):
        assert tiny_gesture_splits.num_classes == len(GESTURE_NAMES) == 11

    def test_shapes(self, tiny_gesture_splits):
        assert tiny_gesture_splits.sample_shape == (4, 2, 8, 8)

    def test_every_gesture_generates_events(self):
        config = GestureConfig(image_size=12, num_steps=8, noise_events_per_step=0)
        for cls in range(11):
            frames = generate_gesture_sample(cls, config, np.random.default_rng(0))
            assert frames.sum() > 0, f"gesture {cls} produced no events"

    def test_gestures_have_distinct_temporal_signatures(self):
        """Different motion classes must produce visibly different event patterns."""
        config = GestureConfig(image_size=12, num_steps=8, noise_events_per_step=0, speed_jitter=0.0)
        rng = np.random.default_rng(0)
        clap = generate_gesture_sample(0, config, rng)
        drums = generate_gesture_sample(8, config, rng)
        assert np.abs(clap - drums).sum() > 0

    def test_deterministic_given_seed(self):
        a = make_synthetic_dvs_gesture(num_samples=11, image_size=8, num_steps=4, seed=2)
        b = make_synthetic_dvs_gesture(num_samples=11, image_size=8, num_steps=4, seed=2)
        np.testing.assert_allclose(a.train.inputs, b.train.inputs)


class TestRegistry:
    def test_available(self):
        assert set(available_datasets()) == {"cifar10", "cifar10-dvs", "dvs128-gesture"}

    def test_aliases(self):
        splits = load_dataset("CIFAR-10-DVS", num_samples=10, image_size=8, num_steps=3, seed=0)
        assert splits.is_temporal

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet")
