"""Building blocks: DAG skip-blocks, stems, transitions and classifier heads.

The :class:`DAGBlock` realises the paper's block formulation (Section III-A):
a sequence of layers whose extra connectivity is described by a
:class:`~repro.core.adjacency.BlockAdjacency`.  For every layer the block

1. takes the sequential input (output of the previous layer, or the block
   input for the first layer),
2. **adds** every ASC skip source into it (projecting with a 1x1 convolution
   when the channel counts differ),
3. **concatenates** every DSC skip source onto the channel axis,
4. applies the layer's convolution, batch normalisation and activation.

In the ANN variant the activation is a ReLU; in the SNN variant it is a leaky
integrate-and-fire neuron, so the same weights and wiring describe both the
source and the adapted network — this is exactly the ANN→SNN conversion whose
accuracy drop the paper optimizes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.adjacency import ASC, DSC, BlockAdjacency
# the spec classes live in repro.models.specs; LayerSpec is imported too so
# that ``from repro.models.blocks import LayerSpec`` keeps working
from repro.models.specs import BlockSpec, LayerSpec, NeuronConfig
from repro.nn import AvgPool2d, BatchNorm2d, Conv2d, Linear, ReLU
from repro.nn.module import Module, ModuleList
from repro.tensor import Tensor, ops
from repro.tensor.random import default_rng


def _make_synaptic_layer(kind: str, in_channels: int, out_channels: int, rng) -> Conv2d:
    """Create the weight layer for a :class:`LayerSpec`."""
    if kind == "conv3x3":
        return Conv2d(in_channels, out_channels, 3, padding=1, bias=False, rng=rng)
    if kind == "conv1x1":
        return Conv2d(in_channels, out_channels, 1, bias=False, rng=rng)
    if kind == "dwconv3x3":
        if in_channels != out_channels:
            raise ValueError(
                f"depthwise layers require in_channels == out_channels, got {in_channels} vs {out_channels}"
            )
        return Conv2d(in_channels, out_channels, 3, padding=1, groups=in_channels, bias=False, rng=rng)
    raise ValueError(f"unknown layer kind {kind!r}")


class _DAGLayer(Module):
    """One layer of a :class:`DAGBlock`: synaptic op + batch norm + activation."""

    def __init__(self, kind: str, in_channels: int, out_channels: int, spiking: bool, neuron_config: NeuronConfig, rng) -> None:
        super().__init__()
        self.conv = _make_synaptic_layer(kind, in_channels, out_channels, rng)
        self.norm = BatchNorm2d(out_channels)
        self.activation = neuron_config.make_neuron() if spiking else ReLU()

    def forward(self, x: Tensor) -> Tensor:
        return self.activation(self.norm(self.conv(x)))


class DAGBlock(Module):
    """A block of layers wired according to a skip-connection adjacency matrix."""

    def __init__(
        self,
        spec: BlockSpec,
        adjacency: Optional[BlockAdjacency] = None,
        spiking: bool = False,
        neuron_config: Optional[NeuronConfig] = None,
        rng=None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        neuron_config = neuron_config or NeuronConfig()
        adjacency = adjacency if adjacency is not None else BlockAdjacency(spec.depth)
        spec.validate_adjacency(adjacency)

        self.spec = spec
        self.adjacency = adjacency.copy()
        self.spiking = bool(spiking)
        self.neuron_config = neuron_config

        node_channels = spec.node_channels()
        self.layers = ModuleList()
        self.projections = ModuleList()
        self._projection_index: Dict[Tuple[int, int], int] = {}
        self._layer_input_channels: List[int] = []

        for layer_index, layer_spec in enumerate(spec.layers):
            destination = layer_index + 1
            sequential_channels = node_channels[layer_index]
            in_channels = sequential_channels
            for source, code in adjacency.sources_of(layer_index):
                source_channels = node_channels[source]
                if code == DSC:
                    in_channels += source_channels
                elif code == ASC and source_channels != sequential_channels:
                    # 1x1 projection aligning the source with the sequential input
                    projection = Conv2d(source_channels, sequential_channels, 1, bias=False, rng=rng)
                    self._projection_index[(source, destination)] = len(self.projections)
                    self.projections.append(projection)
            self._layer_input_channels.append(in_channels)
            self.layers.append(
                _DAGLayer(layer_spec.kind, in_channels, layer_spec.out_channels, self.spiking, neuron_config, rng)
            )

    # ------------------------------------------------------------------
    @property
    def out_channels(self) -> int:
        """Channels of the block output."""
        return self.spec.out_channels

    def layer_input_channels(self) -> List[int]:
        """Input channel count of every layer after skip-induced growth."""
        return list(self._layer_input_channels)

    def forward(self, x: Tensor) -> Tensor:
        node_outputs: List[Tensor] = [x]
        for layer_index, layer in enumerate(self.layers):
            destination = layer_index + 1
            combined = node_outputs[layer_index]
            concat_inputs: List[Tensor] = []
            for source, code in self.adjacency.sources_of(layer_index):
                source_output = node_outputs[source]
                if code == ASC:
                    key = (source, destination)
                    if key in self._projection_index:
                        source_output = self.projections[self._projection_index[key]](source_output)
                    combined = combined + source_output
                elif code == DSC:
                    concat_inputs.append(source_output)
            if concat_inputs:
                combined = ops.concat([combined] + concat_inputs, axis=1)
            node_outputs.append(layer(combined))
        return node_outputs[-1]

    def extra_repr(self) -> str:
        return (
            f"name={self.spec.name!r}, depth={self.spec.depth}, spiking={self.spiking}, "
            f"skips={self.adjacency.total_skips()}"
        )


class Stem(Module):
    """Input stem: 3x3 convolution + batch norm + activation."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        spiking: bool = False,
        neuron_config: Optional[NeuronConfig] = None,
        rng=None,
    ) -> None:
        super().__init__()
        neuron_config = neuron_config or NeuronConfig()
        rng = default_rng(rng)
        self.conv = Conv2d(in_channels, out_channels, 3, padding=1, bias=False, rng=rng)
        self.norm = BatchNorm2d(out_channels)
        self.activation = neuron_config.make_neuron() if spiking else ReLU()
        self.out_channels = out_channels

    def forward(self, x: Tensor) -> Tensor:
        return self.activation(self.norm(self.conv(x)))


class TransitionLayer(Module):
    """Between-block transition: 1x1 convolution + norm + activation + 2x2 average pool.

    Mirrors the DenseNet transition layer; it is also where the spatial
    resolution is halved for all templates (keeping strides out of the blocks
    means skip connections never face spatial mismatches).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        spiking: bool = False,
        neuron_config: Optional[NeuronConfig] = None,
        rng=None,
    ) -> None:
        super().__init__()
        neuron_config = neuron_config or NeuronConfig()
        rng = default_rng(rng)
        self.conv = Conv2d(in_channels, out_channels, 1, bias=False, rng=rng)
        self.norm = BatchNorm2d(out_channels)
        self.activation = neuron_config.make_neuron() if spiking else ReLU()
        self.pool = AvgPool2d(2)
        self.out_channels = out_channels

    def forward(self, x: Tensor) -> Tensor:
        return self.pool(self.activation(self.norm(self.conv(x))))


class ClassifierHead(Module):
    """Global average pooling + linear classifier (+ leaky-integrator readout for SNNs)."""

    def __init__(
        self,
        in_channels: int,
        num_classes: int,
        spiking: bool = False,
        neuron_config: Optional[NeuronConfig] = None,
        rng=None,
    ) -> None:
        super().__init__()
        neuron_config = neuron_config or NeuronConfig()
        rng = default_rng(rng)
        self.fc = Linear(in_channels, num_classes, rng=rng)
        self.readout = neuron_config.make_readout() if spiking else None
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        pooled = x.mean(axis=(2, 3))
        logits = self.fc(pooled)
        if self.readout is not None:
            logits = self.readout(logits)
        return logits
