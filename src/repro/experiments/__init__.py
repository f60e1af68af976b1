"""Experiment harness regenerating every table and figure of the paper.

* :mod:`repro.experiments.config` — experiment scales (smoke / default / paper)
  controlling dataset size, model width, simulation steps and search budget;
* :mod:`repro.experiments.figure1` — the skip-connection analysis sweep
  (Fig. 1c: DSC, Fig. 1d: ASC): ANN vs SNN accuracy and SNN firing rate as a
  function of the number of skip connections;
* :mod:`repro.experiments.table1` — the adaptation results (Table I): ANN,
  vanilla SNN and optimized SNN accuracy plus firing rates for every
  (dataset, model) pair;
* :mod:`repro.experiments.figure3` — Bayesian optimization vs random search
  (Fig. 3): incumbent accuracy per iteration, mean ± std over repeated runs;
* :mod:`repro.experiments.pareto_front` — the multi-objective search:
  accuracy–energy–latency Pareto front and hypervolume trace over the same
  search space (the trade-off the paper's scalar objective collapses);
* :mod:`repro.experiments.reporting` — plain-text table/series formatting used
  by the benchmark harness and the examples.
"""

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.figure1 import Figure1Point, Figure1Result, run_figure1, run_figure1_pair
from repro.experiments.table1 import Table1Result, Table1Row, run_table1, run_table1_cell
from repro.experiments.figure3 import Figure3Result, SearchCurve, run_figure3
from repro.experiments.pareto_front import (
    ParetoFrontPoint,
    ParetoResult,
    format_pareto,
    plot_pareto,
    run_pareto_front,
)
from repro.experiments.reporting import format_figure1, format_figure3, format_series, format_table, format_table1
from repro.experiments.plots import (
    ascii_bar_chart,
    ascii_line_chart,
    ascii_scatter,
    plot_figure1,
    plot_figure3,
)
from repro.experiments.io import load_result, save_result

__all__ = [
    "ExperimentScale",
    "get_scale",
    "Figure1Point",
    "Figure1Result",
    "run_figure1",
    "run_figure1_pair",
    "Table1Result",
    "Table1Row",
    "run_table1",
    "run_table1_cell",
    "Figure3Result",
    "SearchCurve",
    "run_figure3",
    "ParetoFrontPoint",
    "ParetoResult",
    "format_pareto",
    "plot_pareto",
    "run_pareto_front",
    "format_figure1",
    "format_figure3",
    "format_series",
    "format_table",
    "format_table1",
    "ascii_bar_chart",
    "ascii_line_chart",
    "ascii_scatter",
    "plot_figure1",
    "plot_figure3",
    "load_result",
    "save_result",
]
