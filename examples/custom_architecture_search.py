"""Defining a custom architecture and searching its skip connections.

The templates shipped with the library (ResNet-18, DenseNet-121, MobileNetV2,
single-block) are instances of a general mechanism: any topology described as
a :class:`~repro.models.template.NetworkTemplate` — stem, blocks of
:class:`~repro.models.blocks.LayerSpec` layers, transitions, head — gets a
skip-connection search space and the full ANN→SNN adaptation pipeline for
free.  This example

1. defines a custom 3-block hybrid architecture (a dense block followed by two
   residual-style blocks, one of them with a depthwise layer),
2. derives its search space and inspects the admissible connection types,
3. runs a short Bayesian-optimization search minimising the accuracy drop,
   with weight sharing between candidates,
4. prints the best architecture found and its skip layout per block.

Run:  python examples/custom_architecture_search.py
"""

from __future__ import annotations

from repro.core import ASC, DSC, BlockAdjacency
from repro.core.bayes_opt import BayesianOptimizer
from repro.core.objectives import AccuracyDropObjective
from repro.core.weight_sharing import WeightStore
from repro.core.adjacency import connection_name
from repro.data import load_dataset
from repro.models.blocks import BlockSpec, LayerSpec
from repro.models.template import NetworkTemplate
from repro.training.snn_trainer import SNNTrainingConfig


def build_custom_template(num_classes: int) -> NetworkTemplate:
    """A hybrid topology: one dense-style block, one residual block, one bottleneck."""
    dense_block = BlockSpec(
        in_channels=6,
        layers=[LayerSpec("conv3x3", 6) for _ in range(3)],
        name="dense_stage",
    )
    residual_block = BlockSpec(
        in_channels=8,
        layers=[LayerSpec("conv3x3", 8), LayerSpec("conv3x3", 8)],
        name="residual_stage",
    )
    bottleneck_block = BlockSpec(
        in_channels=10,
        layers=[LayerSpec("conv1x1", 10), LayerSpec("dwconv3x3", 10), LayerSpec("conv1x1", 12)],
        name="bottleneck_stage",
    )
    return NetworkTemplate(
        name="hybridnet",
        input_channels=2,
        num_classes=num_classes,
        stem_channels=6,
        block_specs=[dense_block, residual_block, bottleneck_block],
        transition_channels=[8, 10, None],
        default_adjacencies=[
            BlockAdjacency.fully_connected(3, code=DSC),             # dense wiring
            BlockAdjacency(2).with_connection(0, 2, ASC),            # residual shortcut
            BlockAdjacency(3).with_connection(0, 3, ASC),            # inverted-residual shortcut
        ],
    )


def main() -> None:
    splits = load_dataset("cifar10-dvs", num_samples=160, image_size=12, num_steps=5, seed=0)
    template = build_custom_template(splits.num_classes)
    space = template.search_space()

    print(f"custom template {template.name!r}: {len(template.block_specs)} blocks, "
          f"{template.build(rng=0).num_parameters():,} parameters")
    print(f"search space: {space.size():,} architectures over {space.encoding_length()} skip positions")
    for info in space.block_infos:
        restricted = [pos for pos in info.positions() if len(info.allowed_at(pos)) < 3]
        note = f", DSC forbidden at {restricted}" if restricted else ""
        print(f"  block {info.name!r}: depth {info.depth}, {len(info.positions())} positions{note}")

    objective = AccuracyDropObjective(
        template=template,
        splits=splits,
        training_config=SNNTrainingConfig(epochs=2, batch_size=16, learning_rate=0.05,
                                          momentum=0.9, num_steps=5, seed=0),
        weight_store=WeightStore(),
    )

    optimizer = BayesianOptimizer(space, objective, acquisition="ucb", initial_points=3,
                                  candidate_pool_size=48, rng=0)
    history = optimizer.optimize(5)

    best = history.best()
    print()
    print(f"evaluated {history.num_evaluations} architectures")
    print(f"best objective value {best.objective_value:.4f} "
          f"(val accuracy {100 * best.accuracy:.2f}%, firing rate {100 * best.firing_rate:.2f}%)")
    print("best skip layout:")
    for block_info, adjacency in zip(space.block_infos, best.spec.blocks):
        print(f"  {block_info.name}:")
        for layer_index in range(adjacency.depth):
            sources = adjacency.sources_of(layer_index)
            if sources:
                described = ", ".join(f"node {src} ({connection_name(code)})" for src, code in sources)
            else:
                described = "sequential only"
            print(f"    layer {layer_index}: {described}")


if __name__ == "__main__":
    main()
