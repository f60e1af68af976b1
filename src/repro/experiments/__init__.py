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

from repro._lazy import lazy_exports

# each name's module is imported on first access (PEP 562, see repro._lazy)
_LAZY_EXPORTS = {
    "ExperimentScale": "repro.experiments.config",
    "get_scale": "repro.experiments.config",
    "Figure1Point": "repro.experiments.figure1",
    "Figure1Result": "repro.experiments.figure1",
    "run_figure1": "repro.experiments.figure1",
    "run_figure1_pair": "repro.experiments.figure1",
    "AdaptationResult": "repro.experiments.table1",
    "Table1Result": "repro.experiments.table1",
    "Table1Row": "repro.experiments.table1",
    "run_table1": "repro.experiments.table1",
    "run_table1_cell": "repro.experiments.table1",
    "Figure3Result": "repro.experiments.figure3",
    "SearchCurve": "repro.experiments.figure3",
    "run_figure3": "repro.experiments.figure3",
    "ParetoFrontPoint": "repro.experiments.pareto_front",
    "ParetoResult": "repro.experiments.pareto_front",
    "format_pareto": "repro.experiments.pareto_front",
    "plot_pareto": "repro.experiments.pareto_front",
    "run_pareto_front": "repro.experiments.pareto_front",
    "format_figure1": "repro.experiments.reporting",
    "format_figure3": "repro.experiments.reporting",
    "format_series": "repro.experiments.reporting",
    "format_table": "repro.experiments.reporting",
    "format_table1": "repro.experiments.reporting",
    "ascii_bar_chart": "repro.experiments.plots",
    "ascii_line_chart": "repro.experiments.plots",
    "ascii_scatter": "repro.experiments.plots",
    "plot_figure1": "repro.experiments.plots",
    "plot_figure3": "repro.experiments.plots",
    "load_result": "repro.experiments.io",
    "save_result": "repro.experiments.io",
}
__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
