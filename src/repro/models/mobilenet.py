"""MobileNetV2-style template.

MobileNetV2 is built from *inverted residual* blocks: a 1x1 expansion
convolution, a 3x3 depthwise convolution on the expanded representation, and a
1x1 linear projection back down, with an addition shortcut from the block
input to the block output whenever the geometry allows it.  In the adjacency
formulation each inverted residual block is a depth-3 :class:`DAGBlock` with
layer kinds ``[conv1x1, dwconv3x3, conv1x1]``; the default adjacency carries a
single ASC connection from node 0 (block input) to node 3 (block output's
layer) — the inverted-residual shortcut.

Depthwise layers cannot accept concatenation inputs (their channel count is
structurally tied to their group count), so the derived search space
automatically restricts those positions to {none, ASC}; this is handled by
``LayerSpec(allow_dsc_input=False)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.adjacency import ASC, BlockAdjacency
from repro.models.specs import BlockSpec, LayerSpec, NetworkTemplate


def _inverted_residual_spec(in_channels: int, out_channels: int, expansion: int, name: str) -> BlockSpec:
    """Inverted residual block: expand (1x1) -> depthwise (3x3) -> project (1x1)."""
    hidden = in_channels * expansion
    return BlockSpec(
        in_channels=in_channels,
        layers=[
            LayerSpec("conv1x1", hidden),
            LayerSpec("dwconv3x3", hidden, allow_dsc_input=False),
            LayerSpec("conv1x1", out_channels),
        ],
        name=name,
    )


def _inverted_residual_default(depth: int = 3) -> BlockAdjacency:
    """Default MobileNetV2 wiring: ASC shortcut from block input to block output."""
    adjacency = BlockAdjacency(depth)
    adjacency.matrix[0, depth] = ASC
    return adjacency


def build_mobilenetv2_template(
    input_channels: int = 2,
    num_classes: int = 10,
    stage_channels: Sequence[int] = (8, 16),
    expansion: int = 2,
    width_multiplier: float = 1.0,
) -> NetworkTemplate:
    """Build the scaled MobileNetV2-style template.

    Parameters
    ----------
    stage_channels:
        Output width of each inverted residual block (the original network
        uses 16..320 with expansion 6; the defaults keep two blocks at
        CPU-friendly widths).
    expansion:
        Expansion ratio of the 1x1 expansion convolution.
    """
    widths = [max(2, int(round(c * width_multiplier))) for c in stage_channels]
    block_specs: List[BlockSpec] = []
    transition_channels: List[Optional[int]] = []
    defaults: List[BlockAdjacency] = []

    in_channels = widths[0]
    for stage_index, width in enumerate(widths):
        block_specs.append(
            _inverted_residual_spec(in_channels, width, expansion, name=f"invres{stage_index}")
        )
        defaults.append(_inverted_residual_default())
        if stage_index < len(widths) - 1:
            transition_channels.append(widths[stage_index + 1])
            in_channels = widths[stage_index + 1]
        else:
            transition_channels.append(None)

    return NetworkTemplate(
        name="mobilenetv2",
        input_channels=input_channels,
        num_classes=num_classes,
        stem_channels=widths[0],
        block_specs=block_specs,
        transition_channels=transition_channels,
        default_adjacencies=defaults,
    )
