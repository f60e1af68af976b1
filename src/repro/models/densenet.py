"""DenseNet-121-style template.

DenseNet's defining property is all-to-all concatenation inside each dense
block: layer ``k`` receives the concatenated outputs of *every* earlier layer
and of the block input.  The paper generalises this ("we consider a
generalized version where we vary the number of skip connections") — which is
exactly what the adjacency formulation expresses: the original DenseNet is the
fully-DSC-connected adjacency, and the search can prune or retype individual
connections.

The CPU-scale replica uses two dense blocks of four 3x3 convolutions with a
modest growth-style width, separated by DenseNet's 1x1-conv + average-pool
transition layers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.adjacency import DSC, BlockAdjacency
from repro.models.specs import BlockSpec, LayerSpec, NetworkTemplate


def build_densenet121_template(
    input_channels: int = 2,
    num_classes: int = 10,
    stage_channels: Sequence[int] = (8, 12),
    layers_per_stage: int = 4,
    width_multiplier: float = 1.0,
) -> NetworkTemplate:
    """Build the scaled DenseNet-121-style template.

    Every block's default adjacency is fully DSC-connected (all-to-all
    concatenation), the signature of DenseNet; transitions compress with a
    1x1 convolution and halve the resolution, as in the original network.
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
                name=f"denseblock{stage_index}",
            )
        )
        defaults.append(BlockAdjacency.fully_connected(layers_per_stage, code=DSC))
        if stage_index < len(widths) - 1:
            transition_channels.append(widths[stage_index + 1])
            in_channels = widths[stage_index + 1]
        else:
            transition_channels.append(None)

    return NetworkTemplate(
        name="densenet121",
        input_channels=input_channels,
        num_classes=num_classes,
        stem_channels=widths[0],
        block_specs=block_specs,
        transition_channels=transition_channels,
        default_adjacencies=defaults,
    )
