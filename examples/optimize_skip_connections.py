"""ANN→SNN adaptation via skip-connection optimization (the paper's pipeline).

This example runs the full Fig. 2 pipeline on one (model, dataset) pair:

1. build the ResNet-18-style template and its search space of per-block
   adjacency matrices,
2. train the vanilla SNN conversion (the architecture's default residual
   wiring),
3. run Gaussian-process Bayesian optimization with UCB acquisition and weight
   sharing, every candidate fine-tuned from the vanilla SNN, to find the skip
   configuration that minimises the accuracy drop,
4. compare against random search with the same evaluation budget,
5. print a Table-I-style row and the Fig.-3-style incumbent curves.

Run:  python examples/optimize_skip_connections.py            (default budget)
      REPRO_SCALE=smoke python examples/optimize_skip_connections.py   (fast)
"""

from __future__ import annotations

import os

from repro.experiments import format_figure3, get_scale, run_figure3, run_table1_cell
from repro.experiments.pareto_front import load_problem


def main() -> None:
    scale = get_scale(os.environ.get("REPRO_SCALE", "default"))
    print(f"experiment scale: {scale.name}")

    dataset, model = "cifar10-dvs", "resnet18"
    splits, template = load_problem(scale, dataset, model)
    space = template.search_space()
    print(f"{splits.summary()}")
    print(f"search space: {space.size():,} candidate architectures over {space.encoding_length()} skip positions")

    # full adaptation pipeline (Table I quantities)
    result = run_table1_cell(dataset, model, scale=scale, splits=splits, seed=scale.seed)
    print()
    print("=== adaptation result (one Table-I row) ===")
    print(result.summary())
    print(f"best architecture: {result.best_spec}")
    print(f"skip counts by type: {result.best_spec.count_by_type()}")

    # BO vs random search on the same budget (Fig. 3 flavour)
    print()
    print("=== search comparison (Fig. 3 flavour) ===")
    print(format_figure3(run_figure3(scale, dataset, model, num_runs=1, seed=scale.seed)))


if __name__ == "__main__":
    main()
