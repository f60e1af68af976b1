"""Single-block analysis model (paper Section III-A, Fig. 1).

"To analyze the skip connection effect, we first build a single-block
architecture, with 4 convolution layers inside the block."  This module builds
exactly that topology and provides the helper that produces the adjacency used
at each point of the Fig. 1 sweep: ``n_skip`` incoming skip connections of a
chosen type (DSC or ASC) into the final layer of the block, ``n_skip`` ranging
from 0 to 3.
"""

from __future__ import annotations

from typing import Optional

from repro.core.adjacency import ASC, DSC, BlockAdjacency
from repro.core.search_space import ArchitectureSpec
from repro.models.specs import BlockSpec, LayerSpec, NetworkTemplate


def build_single_block_template(
    input_channels: int = 2,
    num_classes: int = 10,
    channels: int = 8,
    depth: int = 4,
    width_multiplier: float = 1.0,
) -> NetworkTemplate:
    """Template with one block of ``depth`` 3x3 convolutions (default 4).

    Parameters
    ----------
    input_channels:
        2 for event-frame data (ON/OFF), 3 for RGB images.
    num_classes:
        Classifier output size.
    channels:
        Base width of the block's layers (scaled by ``width_multiplier``).
    depth:
        Number of convolution layers in the block; the paper uses 4.
    """
    width = max(2, int(round(channels * width_multiplier)))
    block = BlockSpec(
        in_channels=width,
        layers=[LayerSpec("conv3x3", width) for _ in range(depth)],
        name="block0",
    )
    return NetworkTemplate(
        name="single_block",
        input_channels=input_channels,
        num_classes=num_classes,
        stem_channels=width,
        block_specs=[block],
        transition_channels=[None],
        default_adjacencies=[BlockAdjacency(depth)],
    )


def single_block_sweep_spec(n_skip: int, connection_type: str, depth: int = 4) -> ArchitectureSpec:
    """Architecture spec for one point of the Fig. 1 sweep.

    Parameters
    ----------
    n_skip:
        Number of skip connections into the block's final layer (0 to
        ``depth - 1``; larger values are clamped, as in the paper).
    connection_type:
        ``"dsc"`` for DenseNet-like concatenation (Fig. 1c) or ``"asc"`` for
        addition-type connections (Fig. 1d).
    """
    kind = connection_type.strip().lower()
    if kind in ("dsc", "densenet", "concat"):
        code = DSC
    elif kind in ("asc", "addition", "add", "resnet"):
        code = ASC
    else:
        raise ValueError(f"connection_type must be 'dsc' or 'asc', got {connection_type!r}")
    adjacency = BlockAdjacency.with_final_layer_skips(depth, n_skip, code)
    return ArchitectureSpec([adjacency], name=f"single_block[{kind}, n_skip={n_skip}]")
