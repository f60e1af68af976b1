"""Model zoo: DAG skip-blocks and the paper's reference architectures.

The central abstraction is the :class:`~repro.models.blocks.DAGBlock`: a block
of layers whose connectivity is given by a :class:`repro.core.adjacency.BlockAdjacency`
matrix, supporting both DenseNet-like concatenation (DSC) and addition-type
(ASC) skip connections, in both ANN (ReLU) and SNN (LIF neuron) variants.

On top of it, :class:`~repro.models.template.NetworkTemplate` describes a full
topology (stem, blocks, transitions, classifier head) and can instantiate any
point of the skip-connection search space.  The provided templates are
CPU-scale replicas of the three architectures adapted in the paper — ResNet-18,
DenseNet-121 and MobileNetV2 — plus the single-block 4-convolution model used
for the Fig. 1 analysis.
"""

from repro.models.blocks import (
    ClassifierHead,
    DAGBlock,
    LayerSpec,
    BlockSpec,
    NeuronConfig,
    Stem,
    TransitionLayer,
)
from repro.models.template import NetworkTemplate, SkipConnectionNetwork
from repro.models.single_block import build_single_block_template, single_block_sweep_spec
from repro.models.resnet import build_resnet18_template
from repro.models.densenet import build_densenet121_template
from repro.models.mobilenet import build_mobilenetv2_template
from repro.models.registry import available_models, get_template

__all__ = [
    "ClassifierHead",
    "DAGBlock",
    "LayerSpec",
    "BlockSpec",
    "NeuronConfig",
    "Stem",
    "TransitionLayer",
    "NetworkTemplate",
    "SkipConnectionNetwork",
    "build_single_block_template",
    "single_block_sweep_spec",
    "build_resnet18_template",
    "build_densenet121_template",
    "build_mobilenetv2_template",
    "available_models",
    "get_template",
]
