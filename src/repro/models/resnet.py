"""ResNet-18-style template.

ResNet-18 stacks stages of BasicBlocks, each BasicBlock being two 3x3
convolutions with an identity (addition) shortcut around them.  The CPU-scale
replica keeps that defining structure while shrinking widths and depths:

* each *stage* of two BasicBlocks becomes one :class:`DAGBlock` of four 3x3
  convolution layers;
* the original residual shortcuts appear in the default adjacency as
  addition-type (ASC) connections from node 0 to node 2 and from node 2 to
  node 4 — i.e. every pair of convolutions is bridged by an addition, exactly
  the BasicBlock wiring expressed in the paper's adjacency formalism;
* stages are separated by transition layers (1x1 conv + 2x2 average pool)
  that play the role of the strided downsampling convolutions.

The skip-connection search then explores the position, number and type of
those shortcuts, as in Table I.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.adjacency import ASC, BlockAdjacency
from repro.models.specs import BlockSpec, LayerSpec, NetworkTemplate


def _residual_default(depth: int) -> BlockAdjacency:
    """Default ResNet wiring: ASC shortcut bridging every pair of layers."""
    adjacency = BlockAdjacency(depth)
    node = 0
    while node + 2 <= depth:
        adjacency.matrix[node, node + 2] = ASC
        node += 2
    return adjacency


def build_resnet18_template(
    input_channels: int = 2,
    num_classes: int = 10,
    stage_channels: Sequence[int] = (8, 16),
    layers_per_stage: int = 4,
    width_multiplier: float = 1.0,
) -> NetworkTemplate:
    """Build the scaled ResNet-18-style template.

    Parameters
    ----------
    stage_channels:
        Width of each stage; the original network uses (64, 128, 256, 512)
        with 4 convolutions per stage — the default here keeps two stages at
        CPU-friendly widths.
    layers_per_stage:
        Convolutions per stage (4 = two BasicBlocks, as in ResNet-18).
    """
    widths = [max(2, int(round(c * width_multiplier))) for c in stage_channels]
    block_specs: List[BlockSpec] = []
    transition_channels: List[Optional[int]] = []
    defaults: List[BlockAdjacency] = []

    in_channels = widths[0]
    for stage_index, width in enumerate(widths):
        block_specs.append(
            BlockSpec(
                in_channels=in_channels,
                layers=[LayerSpec("conv3x3", width) for _ in range(layers_per_stage)],
                name=f"stage{stage_index}",
            )
        )
        defaults.append(_residual_default(layers_per_stage))
        if stage_index < len(widths) - 1:
            transition_channels.append(widths[stage_index + 1])
            in_channels = widths[stage_index + 1]
        else:
            transition_channels.append(None)

    return NetworkTemplate(
        name="resnet18",
        input_channels=input_channels,
        num_classes=num_classes,
        stem_channels=widths[0],
        block_specs=block_specs,
        transition_channels=transition_channels,
        default_adjacencies=defaults,
    )
