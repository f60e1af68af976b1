"""Tests of the search space over per-block adjacency matrices."""

import numpy as np
import pytest

from repro.core.adjacency import ASC, DSC, NO_CONNECTION, BlockAdjacency
from repro.core.search_space import ArchitectureSpec, BlockSearchInfo, SearchSpace


def _space(depths=(4, 3)):
    return SearchSpace([BlockSearchInfo(depth=d, name=f"block{i}") for i, d in enumerate(depths)])


class TestBlockSearchInfo:
    def test_positions_and_choices(self):
        info = BlockSearchInfo(depth=4)
        assert len(info.positions()) == 6
        assert info.num_choices() == 3 ** 6

    def test_restricted_positions(self):
        info = BlockSearchInfo(depth=3, allowed_types={(0, 2): (NO_CONNECTION, ASC)})
        assert info.allowed_at((0, 2)) == (NO_CONNECTION, ASC)
        assert info.allowed_at((0, 3)) == (NO_CONNECTION, DSC, ASC)
        assert info.num_choices() == 2 * 3 * 3


class TestArchitectureSpec:
    def test_encode_concatenates_blocks(self):
        spec = ArchitectureSpec([BlockAdjacency(4), BlockAdjacency(3)])
        assert spec.encode().shape == (9,)

    def test_total_and_typed_counts(self):
        a = BlockAdjacency(4).with_connection(0, 2, DSC)
        b = BlockAdjacency(3).with_connection(0, 2, ASC)
        spec = ArchitectureSpec([a, b])
        assert spec.total_skips() == 2
        assert spec.count_by_type() == {DSC: 1, ASC: 1}

    def test_equality_and_hash(self):
        a = ArchitectureSpec([BlockAdjacency(3).with_connection(0, 2, DSC)])
        b = ArchitectureSpec([BlockAdjacency(3).with_connection(0, 2, DSC)])
        assert a == b and hash(a) == hash(b)

    def test_blocks_are_copied(self):
        block = BlockAdjacency(3)
        spec = ArchitectureSpec([block])
        block.matrix[0, 2] = DSC
        assert spec.total_skips() == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureSpec([])


class TestSearchSpace:
    def test_size_and_dim(self):
        space = _space((4, 3))
        assert space.encoding_length() == 9
        assert space.size() == 3 ** 9

    def test_default_spec_is_skipless(self):
        assert _space().default_spec().total_skips() == 0

    def test_encode_decode_roundtrip(self):
        space = _space((4, 3))
        spec = space.sample(rng=0)
        decoded = space.decode(space.encode(spec))
        assert decoded == spec

    def test_decode_validates_length(self):
        with pytest.raises(ValueError):
            _space((4, 3)).decode(np.zeros(5))

    def test_check_spec_depth_mismatch(self):
        space = _space((4,))
        bad = ArchitectureSpec([BlockAdjacency(3)])
        assert not space.contains(bad)

    def test_check_spec_disallowed_code(self):
        info = BlockSearchInfo(depth=3, allowed_types={(0, 2): (NO_CONNECTION, ASC)})
        space = SearchSpace([info])
        bad = ArchitectureSpec([BlockAdjacency(3).with_connection(0, 2, DSC)])
        assert not space.contains(bad)
        good = ArchitectureSpec([BlockAdjacency(3).with_connection(0, 2, ASC)])
        assert space.contains(good)

    def test_sampling_is_admissible_and_reproducible(self):
        space = SearchSpace([BlockSearchInfo(depth=3, allowed_types={(0, 2): (NO_CONNECTION, ASC)})])
        for seed in range(5):
            assert space.contains(space.sample(rng=seed))
        np.testing.assert_array_equal(space.sample(rng=7).encode(), space.sample(rng=7).encode())

    def test_sample_batch_unique_and_excluding(self):
        space = _space((3,))
        first = space.sample_batch(5, rng=0)
        keys = {spec.encode().tobytes() for spec in first}
        assert len(keys) == 5
        more = space.sample_batch(5, rng=1, exclude=keys)
        assert all(spec.encode().tobytes() not in keys for spec in more)

    def test_sample_batch_handles_small_space(self):
        space = SearchSpace([BlockSearchInfo(depth=2)])  # only 3 architectures
        batch = space.sample_batch(10, rng=0)
        assert len(batch) <= 3

    def test_enumerate_small_space(self):
        space = SearchSpace([BlockSearchInfo(depth=2)])
        specs = list(space.enumerate())
        assert len(specs) == 3
        encodings = {spec.encode().tobytes() for spec in specs}
        assert len(encodings) == 3

    def test_enumerate_limit(self):
        space = _space((4,))
        assert len(list(space.enumerate(limit=10))) == 10

    def test_empty_block_list_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([])
