"""Concrete networks built from a template, and the template they come from.

A :class:`~repro.models.specs.NetworkTemplate` (defined in
:mod:`repro.models.specs` and importable from here too) captures everything
about an architecture *except* the skip connections inside its blocks: the
stem, the per-block layer specifications, the transition layers and the
classifier head.  From it one can

* derive the skip-connection :class:`~repro.core.search_space.SearchSpace`
  (step 1 of the paper's Fig. 2 pipeline),
* obtain the architecture's *default* skip configuration (the one the original
  ANN uses, e.g. residual additions for ResNet),
* instantiate a concrete :class:`SkipConnectionNetwork` — ANN or SNN — for any
  :class:`~repro.core.search_space.ArchitectureSpec` drawn from that space.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.search_space import ArchitectureSpec
from repro.models.blocks import ClassifierHead, DAGBlock, Stem, TransitionLayer
from repro.models.specs import NetworkTemplate
from repro.nn.module import Module, ModuleList
from repro.tensor import Tensor


class SkipConnectionNetwork(Module):
    """A concrete network assembled from a template and an architecture spec.

    Structure: ``stem -> [block -> (transition)]* -> head``.  In the spiking
    variant every activation is a LIF neuron and the head accumulates logits
    in a leaky integrator, so the model must be driven by
    :class:`repro.snn.temporal.TemporalRunner`.
    """

    def __init__(
        self,
        stem: Stem,
        blocks: Sequence[DAGBlock],
        transitions: Sequence[Optional[TransitionLayer]],
        head: ClassifierHead,
        name: str = "network",
        spiking: bool = False,
    ) -> None:
        super().__init__()
        if len(blocks) != len(transitions):
            raise ValueError("blocks and transitions must have the same length (use None entries)")
        self.stem = stem
        self.blocks = ModuleList(blocks)
        # None transitions are stored as placeholders outside the module registry
        self.transitions = ModuleList([t for t in transitions if t is not None])
        self._transition_map: List[Optional[int]] = []
        index = 0
        for transition in transitions:
            if transition is None:
                self._transition_map.append(None)
            else:
                self._transition_map.append(index)
                index += 1
        self.head = head
        self.name = name
        self.spiking = bool(spiking)

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem(x)
        for block_index, block in enumerate(self.blocks):
            out = block(out)
            transition_index = self._transition_map[block_index]
            if transition_index is not None:
                out = self.transitions[transition_index](out)
        return self.head(out)

    def architecture_spec(self) -> ArchitectureSpec:
        """The skip configuration this network was built with."""
        return ArchitectureSpec([block.adjacency for block in self.blocks], name=self.name)

    def extra_repr(self) -> str:
        return f"name={self.name!r}, spiking={self.spiking}, blocks={len(self.blocks)}"
