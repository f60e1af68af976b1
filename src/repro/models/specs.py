"""Static descriptions of a network: neurons, layers, blocks and templates.

These data classes say what to build without building it: a
:class:`NetworkTemplate` holds its topology and search space, and only
:meth:`NetworkTemplate.build` instantiates layers.  The module imports no
layer or neuron code, so a process that never builds a model (a search
replayed from its evaluation store) never loads :mod:`repro.nn`,
:mod:`repro.snn` or :mod:`repro.tensor`'s autodiff; ``build`` and the
neuron factories import them when first called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.adjacency import ASC, DSC, NO_CONNECTION, BlockAdjacency
from repro.core.search_space import ArchitectureSpec, BlockSearchInfo, SearchSpace
from repro.tensor.random import default_rng

if TYPE_CHECKING:
    from repro.models.template import SkipConnectionNetwork
    from repro.snn.neurons import LeakyIntegrator, LIFNeuron


@dataclass
class NeuronConfig:
    """Hyperparameters of the spiking neurons used when a model is built as an SNN."""

    beta: float = 0.9
    threshold: float = 1.0
    surrogate: str = "fast_sigmoid"
    reset_mechanism: str = "subtract"
    readout_beta: float = 0.95

    def make_neuron(self) -> LIFNeuron:
        """Instantiate one hidden-layer LIF neuron."""
        from repro.snn.neurons import LIFNeuron

        return LIFNeuron(
            beta=self.beta,
            threshold=self.threshold,
            surrogate=self.surrogate,
            reset_mechanism=self.reset_mechanism,
        )

    def make_readout(self) -> LeakyIntegrator:
        """Instantiate the non-spiking readout integrator."""
        from repro.snn.neurons import LeakyIntegrator

        return LeakyIntegrator(beta=self.readout_beta)


@dataclass(frozen=True)
class LayerSpec:
    """Specification of one layer inside a block.

    ``kind`` selects the synaptic operation:

    * ``"conv3x3"`` — 3x3 convolution, padding 1;
    * ``"conv1x1"`` — pointwise convolution;
    * ``"dwconv3x3"`` — depthwise 3x3 convolution (groups = channels), as used
      by MobileNetV2; such layers cannot accept DSC (concatenation) inputs
      because their channel count is structurally fixed.
    """

    kind: str
    out_channels: int
    allow_dsc_input: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("conv3x3", "conv1x1", "dwconv3x3"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.out_channels <= 0:
            raise ValueError(f"out_channels must be positive, got {self.out_channels}")
        if self.kind == "dwconv3x3" and self.allow_dsc_input:
            # depthwise layers cannot change their input width: forbid concatenation
            object.__setattr__(self, "allow_dsc_input", False)


@dataclass
class BlockSpec:
    """Static description of one block (independent of its adjacency)."""

    in_channels: int
    layers: List[LayerSpec]
    name: str = "block"

    @property
    def depth(self) -> int:
        """Number of layers in the block."""
        return len(self.layers)

    @property
    def out_channels(self) -> int:
        """Channels produced by the block's last layer."""
        return self.layers[-1].out_channels

    def node_channels(self) -> List[int]:
        """Channel count of every DAG node (block input + each layer output)."""
        return [self.in_channels] + [layer.out_channels for layer in self.layers]

    def search_info(self) -> BlockSearchInfo:
        """Describe which connection codes are legal at each skip position."""
        allowed: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        adjacency = BlockAdjacency(self.depth)
        for i, j in adjacency.skip_positions():
            layer = self.layers[j - 1]
            if not layer.allow_dsc_input:
                allowed[(i, j)] = (NO_CONNECTION, ASC)
        return BlockSearchInfo(depth=self.depth, allowed_types=allowed, name=self.name)

    def validate_adjacency(self, adjacency: BlockAdjacency) -> None:
        """Raise if ``adjacency`` is incompatible with this block's layers."""
        if adjacency.depth != self.depth:
            raise ValueError(
                f"adjacency depth {adjacency.depth} does not match block depth {self.depth}"
            )
        for layer_index in range(self.depth):
            for source, code in adjacency.sources_of(layer_index):
                if code == DSC and not self.layers[layer_index].allow_dsc_input:
                    raise ValueError(
                        f"layer {layer_index} ({self.layers[layer_index].kind}) of block "
                        f"{self.name!r} cannot accept DSC input from node {source}"
                    )


@dataclass
class NetworkTemplate:
    """Recipe for building a family of networks differing only in skip wiring.

    Attributes
    ----------
    name:
        Template name (``"resnet18"``, ``"densenet121"``, ``"mobilenetv2"``,
        ``"single_block"``).
    input_channels:
        Channels of the input data (3 for RGB images, 2 for ON/OFF event frames).
    num_classes:
        Size of the classifier output.
    stem_channels:
        Channels produced by the stem convolution.
    block_specs:
        One :class:`~repro.models.blocks.BlockSpec` per block, in order.  The
        ``in_channels`` of each spec must equal the channels flowing into it
        (stem/transition outputs); this is validated at construction.
    transition_channels:
        For each block, the output channels of the transition placed after it,
        or ``None`` for no transition.
    default_adjacencies:
        The skip configuration of the original (unmodified) architecture.
    """

    name: str
    input_channels: int
    num_classes: int
    stem_channels: int
    block_specs: List[BlockSpec]
    transition_channels: List[Optional[int]]
    default_adjacencies: List[BlockAdjacency] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.block_specs) != len(self.transition_channels):
            raise ValueError("block_specs and transition_channels must have the same length")
        if not self.block_specs:
            raise ValueError("a template needs at least one block")
        if not self.default_adjacencies:
            self.default_adjacencies = [BlockAdjacency(spec.depth) for spec in self.block_specs]
        if len(self.default_adjacencies) != len(self.block_specs):
            raise ValueError("default_adjacencies must match block_specs")
        # validate channel flow
        channels = self.stem_channels
        for index, (spec, transition) in enumerate(zip(self.block_specs, self.transition_channels)):
            if spec.in_channels != channels:
                raise ValueError(
                    f"block {index} ({spec.name!r}) expects {spec.in_channels} input channels "
                    f"but receives {channels}"
                )
            channels = spec.out_channels
            if transition is not None:
                channels = transition
        self._head_channels = channels
        for spec, adjacency in zip(self.block_specs, self.default_adjacencies):
            spec.validate_adjacency(adjacency)

    # ------------------------------------------------------------------
    @property
    def head_channels(self) -> int:
        """Channels entering the classifier head."""
        return self._head_channels

    def search_space(self) -> SearchSpace:
        """The skip-connection search space of this topology."""
        return SearchSpace([spec.search_info() for spec in self.block_specs], name=self.name)

    def default_architecture(self) -> ArchitectureSpec:
        """The original architecture's skip configuration."""
        return ArchitectureSpec(self.default_adjacencies, name=self.name)

    def build(
        self,
        spec: Optional[ArchitectureSpec] = None,
        spiking: bool = False,
        neuron_config: Optional[NeuronConfig] = None,
        rng=None,
    ) -> SkipConnectionNetwork:
        """Instantiate a network for the given architecture spec (default wiring if ``None``)."""
        from repro.models.blocks import ClassifierHead, DAGBlock, Stem, TransitionLayer
        from repro.models.template import SkipConnectionNetwork

        rng = default_rng(rng)
        neuron_config = neuron_config or NeuronConfig()
        architecture = spec if spec is not None else self.default_architecture()
        if len(architecture.blocks) != len(self.block_specs):
            raise ValueError(
                f"architecture has {len(architecture.blocks)} blocks, template {self.name!r} "
                f"expects {len(self.block_specs)}"
            )
        stem = Stem(self.input_channels, self.stem_channels, spiking=spiking, neuron_config=neuron_config, rng=rng)
        blocks: List[DAGBlock] = []
        transitions: List[Optional[TransitionLayer]] = []
        for block_spec, adjacency, transition_out in zip(
            self.block_specs, architecture.blocks, self.transition_channels
        ):
            blocks.append(
                DAGBlock(block_spec, adjacency, spiking=spiking, neuron_config=neuron_config, rng=rng)
            )
            if transition_out is None:
                transitions.append(None)
            else:
                transitions.append(
                    TransitionLayer(
                        block_spec.out_channels,
                        transition_out,
                        spiking=spiking,
                        neuron_config=neuron_config,
                        rng=rng,
                    )
                )
        head = ClassifierHead(
            self.head_channels, self.num_classes, spiking=spiking, neuron_config=neuron_config, rng=rng
        )
        return SkipConnectionNetwork(stem, blocks, transitions, head, name=self.name, spiking=spiking)
