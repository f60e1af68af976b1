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

from repro._lazy import lazy_exports

# each name's module is imported on first access (PEP 562, see repro._lazy)
_LAZY_EXPORTS = {
    "ClassifierHead": "repro.models.blocks",
    "DAGBlock": "repro.models.blocks",
    "LayerSpec": "repro.models.specs",
    "BlockSpec": "repro.models.specs",
    "NeuronConfig": "repro.models.specs",
    "Stem": "repro.models.blocks",
    "TransitionLayer": "repro.models.blocks",
    "NetworkTemplate": "repro.models.specs",
    "SkipConnectionNetwork": "repro.models.template",
    "build_single_block_template": "repro.models.single_block",
    "single_block_sweep_spec": "repro.models.single_block",
    "build_resnet18_template": "repro.models.resnet",
    "build_densenet121_template": "repro.models.densenet",
    "build_mobilenetv2_template": "repro.models.mobilenet",
    "available_models": "repro.models.registry",
    "get_template": "repro.models.registry",
}
__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
