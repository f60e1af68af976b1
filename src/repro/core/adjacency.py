"""Block adjacency matrices encoding skip connections (paper Eq. 1).

A block of depth ``d`` is a DAG over ``d + 1`` nodes: node 0 is the block
input and node ``k`` (``1 <= k <= d``) is the output of the block's ``k``-th
layer.  Layer ``k`` always receives the output of node ``k - 1`` through the
fixed *sequential* connection; in addition it may receive *skip connections*
from any earlier node ``i < k - 1``.  Each skip is typed:

====  =====================================  =====================
code  meaning                                paper terminology
====  =====================================  =====================
0     no connection                          —
1     concatenate source into layer input    DSC (DenseNet-like)
2     add source into layer input            ASC (addition-type)
====  =====================================  =====================

With this convention the maximum number of skips into the second layer is 1
(only the block input qualifies) and into the fourth layer is 3 — matching the
example given in Section III-A of the paper.

:class:`BlockAdjacency` stores the full ``(d+1, d+1)`` matrix but only the
strictly-super-super-diagonal entries (``j > i + 1``) are free; everything
else is structurally zero, so the matrix is strictly upper triangular and the
block DAG it encodes is acyclic by construction.  The class provides the
encoding/decoding used by the Gaussian-process surrogate and random sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.tensor.random import default_rng

#: no skip connection between two nodes
NO_CONNECTION = 0
#: DenseNet-like skip connection (concatenation)
DSC = 1
#: addition-type skip connection (element-wise sum)
ASC = 2
#: all valid connection codes
SKIP_TYPES = (NO_CONNECTION, DSC, ASC)

_NAMES = {NO_CONNECTION: "none", DSC: "dsc", ASC: "asc"}


def connection_name(code: int) -> str:
    """Human-readable name of a connection code."""
    if code not in _NAMES:
        raise ValueError(f"unknown connection code {code}")
    return _NAMES[code]


class BlockAdjacency:
    """Adjacency matrix of one block's skip connections.

    Parameters
    ----------
    depth:
        Number of layers in the block (``d_b`` in the paper).
    matrix:
        Optional ``(depth+1, depth+1)`` integer matrix.  Only entries with
        ``j > i + 1`` may be non-zero; invalid entries raise ``ValueError``.
    """

    def __init__(self, depth: int, matrix: Optional[np.ndarray] = None) -> None:
        if depth < 1:
            raise ValueError(f"block depth must be >= 1, got {depth}")
        self.depth = int(depth)
        size = self.depth + 1
        if matrix is None:
            self.matrix = np.zeros((size, size), dtype=np.int64)
        else:
            matrix = np.asarray(matrix, dtype=np.int64)
            if matrix.shape != (size, size):
                raise ValueError(f"matrix must have shape {(size, size)}, got {matrix.shape}")
            self.matrix = matrix.copy()
            self.validate()

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of DAG nodes (block input + one per layer)."""
        return self.depth + 1

    def skip_positions(self) -> List[Tuple[int, int]]:
        """All (source, destination) pairs that may carry a skip connection."""
        return [(i, j) for j in range(2, self.num_nodes) for i in range(j - 1)]

    def validate(self) -> None:
        """Raise ``ValueError`` if the matrix violates the structural constraints."""
        size = self.num_nodes
        for i in range(size):
            for j in range(size):
                value = int(self.matrix[i, j])
                if value not in SKIP_TYPES:
                    raise ValueError(f"entry ({i}, {j}) has invalid code {value}")
                if value != NO_CONNECTION and j <= i + 1:
                    raise ValueError(
                        f"entry ({i}, {j}) = {value} is not a valid skip position "
                        "(skips must go forward by at least two nodes; backward and "
                        "sequential edges are fixed)"
                    )

    # ------------------------------------------------------------------
    # queries used by the model builder and the analysis
    # ------------------------------------------------------------------
    def sources_of(self, layer_index: int) -> List[Tuple[int, int]]:
        """Skip sources of layer ``layer_index`` (0-based) as ``(node, type)`` pairs.

        The always-present sequential input (node ``layer_index``) is *not*
        included.
        """
        destination = layer_index + 1
        if not 0 <= layer_index < self.depth:
            raise IndexError(f"layer_index must be in [0, {self.depth}), got {layer_index}")
        return [
            (i, int(self.matrix[i, destination]))
            for i in range(destination - 1)
            if self.matrix[i, destination] != NO_CONNECTION
        ]

    def num_skips_per_layer(self) -> List[int]:
        """``n_skip,i`` for every layer ``i`` of the block."""
        return [len(self.sources_of(layer)) for layer in range(self.depth)]

    def total_skips(self) -> int:
        """Total number of skip connections in the block."""
        return int(sum(self.num_skips_per_layer()))

    def count_by_type(self) -> Dict[int, int]:
        """Number of skips of each type (DSC / ASC)."""
        counts = {DSC: 0, ASC: 0}
        for i, j in self.skip_positions():
            value = int(self.matrix[i, j])
            if value in counts:
                counts[value] += 1
        return counts

    def max_skips(self) -> int:
        """Maximum number of skip connections the block can hold."""
        return len(self.skip_positions())

    # ------------------------------------------------------------------
    # mutation / construction
    # ------------------------------------------------------------------
    def with_connection(self, source: int, destination: int, code: int) -> "BlockAdjacency":
        """Return a copy with entry ``(source, destination)`` set to ``code``."""
        if code not in SKIP_TYPES:
            raise ValueError(f"invalid connection code {code}")
        if destination <= source + 1:
            raise ValueError(f"({source}, {destination}) is not a skip position")
        if destination >= self.num_nodes or source < 0:
            raise ValueError(f"({source}, {destination}) outside the block")
        new = self.copy()
        new.matrix[source, destination] = code
        return new

    def copy(self) -> "BlockAdjacency":
        """Deep copy."""
        return BlockAdjacency(self.depth, self.matrix)

    @classmethod
    def empty(cls, depth: int) -> "BlockAdjacency":
        """Block with no skip connections (the ``n_skip = 0`` baseline)."""
        return cls(depth)

    @classmethod
    def fully_connected(cls, depth: int, code: int = DSC) -> "BlockAdjacency":
        """Block with a skip of type ``code`` at every legal position.

        With ``code=DSC`` this reproduces the all-to-all connectivity of an
        original DenseNet block.
        """
        block = cls(depth)
        for i, j in block.skip_positions():
            block.matrix[i, j] = code
        return block

    @classmethod
    def with_final_layer_skips(cls, depth: int, n_skip: int, code: int) -> "BlockAdjacency":
        """Block whose *last* layer receives ``n_skip`` skips of type ``code``.

        Sources are taken from the most recent eligible nodes first.  This is
        the configuration swept in the Fig. 1 analysis: ``n_skip`` ranges from
        0 to ``depth - 1`` for a block of ``depth`` layers.  If ``n_skip``
        exceeds the number of eligible sources it is clamped, mirroring the
        paper ("if n_skip is greater than the number of previous layers, we
        use the number of previous layers instead").
        """
        block = cls(depth)
        destination = depth  # node index of the last layer
        eligible = list(range(destination - 1))  # nodes 0 .. depth-2
        n_skip = min(int(n_skip), len(eligible))
        for source in reversed(eligible[-n_skip:] if n_skip else []):
            block.matrix[source, destination] = code
        return block

    @classmethod
    def with_total_skips(cls, depth: int, n_skip: int, code: int, rng=None) -> "BlockAdjacency":
        """Block with ``n_skip`` skips of type ``code`` at random legal positions."""
        rng = default_rng(rng)
        block = cls(depth)
        positions = block.skip_positions()
        n_skip = min(int(n_skip), len(positions))
        chosen = rng.choice(len(positions), size=n_skip, replace=False) if n_skip else []
        for index in np.atleast_1d(chosen):
            i, j = positions[int(index)]
            block.matrix[i, j] = code
        return block

    @classmethod
    def random(cls, depth: int, rng=None, density: float = 0.5, allowed: Sequence[int] = (DSC, ASC)) -> "BlockAdjacency":
        """Sample a random adjacency: each position is a skip with prob. ``density``."""
        rng = default_rng(rng)
        block = cls(depth)
        allowed = [code for code in allowed if code != NO_CONNECTION]
        for i, j in block.skip_positions():
            if rng.random() < density:
                block.matrix[i, j] = int(rng.choice(allowed)) if allowed else NO_CONNECTION
        return block

    # ------------------------------------------------------------------
    # encoding (GP input) and graph export
    # ------------------------------------------------------------------
    def encode(self) -> np.ndarray:
        """Flat integer vector of the free entries, in a fixed position order."""
        return np.array([self.matrix[i, j] for i, j in self.skip_positions()], dtype=np.int64)

    @classmethod
    def from_encoding(cls, depth: int, encoding: Sequence[int]) -> "BlockAdjacency":
        """Inverse of :meth:`encode`."""
        block = cls(depth)
        positions = block.skip_positions()
        encoding = list(encoding)
        if len(encoding) != len(positions):
            raise ValueError(
                f"encoding length {len(encoding)} does not match the {len(positions)} free positions "
                f"of a depth-{depth} block"
            )
        for (i, j), code in zip(positions, encoding):
            code = int(code)
            if code not in SKIP_TYPES:
                raise ValueError(f"invalid code {code} in encoding")
            block.matrix[i, j] = code
        return block

    def encoding_length(self) -> int:
        """Length of the vector produced by :meth:`encode`."""
        return len(self.skip_positions())

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockAdjacency)
            and other.depth == self.depth
            and np.array_equal(other.matrix, self.matrix)
        )

    def __hash__(self) -> int:
        return hash((self.depth, self.encode().tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockAdjacency(depth={self.depth}, skips={self.total_skips()}, encoding={self.encode().tolist()})"
