"""Search-space construction over per-block adjacency matrices (Fig. 2, step 1).

Given an ANN topology, each block contributes a :class:`BlockSearchInfo`
describing how many layers it has and which connection types are allowed at
each skip position (for example, positions feeding a depthwise convolution in
a MobileNetV2 block cannot accept concatenation because a depthwise layer's
channel count is fixed).  The :class:`SearchSpace` is the Cartesian product of
the per-block choices; an :class:`ArchitectureSpec` is one point of that
product — a full assignment of adjacency matrices, one per block.

The space also provides the integer encoding consumed by the Gaussian-process
surrogate, uniform random sampling (with or without replacement) and
exhaustive enumeration for small spaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adjacency import ASC, DSC, NO_CONNECTION, SKIP_TYPES, BlockAdjacency
from repro.tensor.random import default_rng


@dataclass(frozen=True)
class BlockSearchInfo:
    """Searchable structure of one block.

    Attributes
    ----------
    depth:
        Number of layers in the block.
    allowed_types:
        Mapping from skip position ``(source_node, destination_node)`` to the
        tuple of allowed codes at that position.  Positions not listed default
        to all of ``(0, 1, 2)``.
    name:
        Optional label (e.g. ``"stage2.block0"``) used in reports.
    """

    depth: int
    allowed_types: Dict[Tuple[int, int], Tuple[int, ...]] = field(default_factory=dict)
    name: str = "block"

    def positions(self) -> List[Tuple[int, int]]:
        """Skip positions of the block, in canonical order."""
        return BlockAdjacency(self.depth).skip_positions()

    def allowed_at(self, position: Tuple[int, int]) -> Tuple[int, ...]:
        """Allowed codes at ``position`` (defaults to every code)."""
        return tuple(self.allowed_types.get(position, SKIP_TYPES))

    def num_choices(self) -> int:
        """Number of distinct adjacency matrices for this block."""
        total = 1
        for position in self.positions():
            total *= len(self.allowed_at(position))
        return total


class ArchitectureSpec:
    """One candidate architecture: one adjacency matrix per block.

    Specs are treated as immutable once constructed (the constructor copies
    its blocks), which lets :meth:`encode` cache its result — the encoding is
    the single hottest object in the search loop (GP inputs, dedup keys,
    cache keys).  The cached array is marked read-only; ``.copy()`` it if a
    mutable view is needed.
    """

    def __init__(self, blocks: Sequence[BlockAdjacency], name: str = "") -> None:
        if not blocks:
            raise ValueError("an architecture needs at least one block")
        self.blocks: Tuple[BlockAdjacency, ...] = tuple(block.copy() for block in blocks)
        self.name = name
        self._encoding: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def encode(self) -> np.ndarray:
        """Concatenated integer encoding of all blocks (GP input); cached."""
        if self._encoding is None:
            encoding = np.concatenate([block.encode() for block in self.blocks])
            encoding.flags.writeable = False
            self._encoding = encoding
        return self._encoding

    def total_skips(self) -> int:
        """Total number of skip connections across all blocks."""
        return sum(block.total_skips() for block in self.blocks)

    def count_by_type(self) -> Dict[int, int]:
        """Total number of DSC and ASC connections across all blocks."""
        totals = {DSC: 0, ASC: 0}
        for block in self.blocks:
            for code, count in block.count_by_type().items():
                totals[code] += count
        return totals

    def num_blocks(self) -> int:
        """Number of blocks in the architecture."""
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ArchitectureSpec)
            and len(other.blocks) == len(self.blocks)
            and all(a == b for a, b in zip(self.blocks, other.blocks))
        )

    def __hash__(self) -> int:
        return hash(tuple(hash(block) for block in self.blocks))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f"{self.name}: " if self.name else ""
        return f"ArchitectureSpec({label}blocks={len(self.blocks)}, skips={self.total_skips()})"


class SearchSpace:
    """The set Lambda of all admissible per-block adjacency assignments."""

    def __init__(self, block_infos: Sequence[BlockSearchInfo], name: str = "search-space") -> None:
        if not block_infos:
            raise ValueError("search space needs at least one block")
        self.block_infos: Tuple[BlockSearchInfo, ...] = tuple(block_infos)
        self.name = name

    # ------------------------------------------------------------------
    # size / dimensionality
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Number of distinct architectures in the space."""
        total = 1
        for info in self.block_infos:
            total *= info.num_choices()
        return total

    def encoding_length(self) -> int:
        """Dimensionality of the flat integer encoding."""
        return sum(len(info.positions()) for info in self.block_infos)

    # ------------------------------------------------------------------
    # encode / decode
    # ------------------------------------------------------------------
    def encode(self, spec: ArchitectureSpec) -> np.ndarray:
        """Encode an architecture into the flat integer vector used by the GP."""
        self._check_spec(spec)
        return spec.encode()

    def decode(self, encoding: Sequence[int]) -> ArchitectureSpec:
        """Inverse of :meth:`encode`."""
        encoding = np.asarray(encoding, dtype=np.int64).reshape(-1)
        if encoding.shape[0] != self.encoding_length():
            raise ValueError(
                f"encoding has length {encoding.shape[0]}, expected {self.encoding_length()}"
            )
        blocks = []
        offset = 0
        for info in self.block_infos:
            length = len(info.positions())
            block_encoding = encoding[offset : offset + length]
            offset += length
            blocks.append(BlockAdjacency.from_encoding(info.depth, block_encoding))
        spec = ArchitectureSpec(blocks, name=self.name)
        self._check_spec(spec)
        return spec

    def _check_spec(self, spec: ArchitectureSpec) -> None:
        if len(spec.blocks) != len(self.block_infos):
            raise ValueError(
                f"architecture has {len(spec.blocks)} blocks, search space expects {len(self.block_infos)}"
            )
        for block, info in zip(spec.blocks, self.block_infos):
            if block.depth != info.depth:
                raise ValueError(
                    f"block depth mismatch: architecture {block.depth} vs search space {info.depth}"
                )
            for position in info.positions():
                code = int(block.matrix[position])
                if code not in info.allowed_at(position):
                    raise ValueError(
                        f"connection code {code} not allowed at position {position} of block {info.name!r}"
                    )

    def contains(self, spec: ArchitectureSpec) -> bool:
        """Whether ``spec`` is an admissible point of this space."""
        try:
            self._check_spec(spec)
            return True
        except ValueError:
            return False

    # ------------------------------------------------------------------
    # sampling / enumeration
    # ------------------------------------------------------------------
    def sample(self, rng=None) -> ArchitectureSpec:
        """Draw one architecture uniformly at random."""
        rng = default_rng(rng)
        blocks = []
        for info in self.block_infos:
            block = BlockAdjacency(info.depth)
            for position in info.positions():
                allowed = info.allowed_at(position)
                block.matrix[position] = int(rng.choice(allowed))
            blocks.append(block)
        return ArchitectureSpec(blocks, name=self.name)

    def _position_choices(self) -> List[np.ndarray]:
        """Allowed codes per flat encoding position, cached (sampling hot path)."""
        cached = getattr(self, "_choices_cache", None)
        if cached is None:
            cached = []
            for info in self.block_infos:
                for position in info.positions():
                    cached.append(np.asarray(info.allowed_at(position), dtype=np.int64))
            self._choices_cache = cached
        return cached

    def _spec_from_encoding(self, encoding: np.ndarray) -> ArchitectureSpec:
        """Build a spec from an encoding known to be admissible (no validation)."""
        blocks = []
        offset = 0
        for info in self.block_infos:
            length = len(info.positions())
            blocks.append(BlockAdjacency.from_encoding(info.depth, encoding[offset : offset + length]))
            offset += length
        spec = ArchitectureSpec(blocks, name=self.name)
        cached = np.asarray(encoding, dtype=np.int64).copy()
        cached.flags.writeable = False
        spec._encoding = cached
        return spec

    def sample_batch(self, count: int, rng=None, unique: bool = True, exclude: Optional[set] = None) -> List[ArchitectureSpec]:
        """Draw ``count`` architectures, optionally distinct and excluding a set.

        Encodings are drawn in vectorised batches (one ``rng.integers`` call
        per encoding position per round, rather than one ``rng.choice`` per
        position per candidate), which keeps the per-iteration candidate-pool
        refill off the optimizer's critical path.  When the space is too small
        to honour the uniqueness constraints the returned list is simply
        shorter than requested.
        """
        if count < 1:
            return []
        rng = default_rng(rng)
        choices = self._position_choices()
        results: List[ArchitectureSpec] = []
        seen = set(exclude or ())
        attempts = 0
        max_attempts = max(100, 50 * count)
        while len(results) < count and attempts < max_attempts:
            draw = min(count - len(results), max_attempts - attempts)
            attempts += draw
            columns = [allowed[rng.integers(0, len(allowed), size=draw)] for allowed in choices]
            encodings = np.stack(columns, axis=1)  # (draw, num_positions)
            for row in encodings:
                key = row.tobytes()
                if unique and key in seen:
                    continue
                seen.add(key)
                results.append(self._spec_from_encoding(row))
                if len(results) >= count:
                    break
        return results

    def enumerate(self, limit: Optional[int] = None) -> Iterator[ArchitectureSpec]:
        """Yield every architecture of the space (optionally capped at ``limit``)."""
        per_position_choices: List[Tuple[int, ...]] = []
        for info in self.block_infos:
            for position in info.positions():
                per_position_choices.append(info.allowed_at(position))
        count = 0
        for assignment in itertools.product(*per_position_choices):
            yield self.decode(np.asarray(assignment))
            count += 1
            if limit is not None and count >= limit:
                return

    def default_spec(self) -> ArchitectureSpec:
        """The all-zero (no extra skip connections) architecture."""
        return ArchitectureSpec([BlockAdjacency(info.depth) for info in self.block_infos], name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchSpace(name={self.name!r}, blocks={len(self.block_infos)}, "
            f"dim={self.encoding_length()}, size={self.size()})"
        )
