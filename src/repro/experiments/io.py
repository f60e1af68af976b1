"""Serialisation of experiment results to and from JSON.

The benchmark harness prints paper-style tables to stdout; for programmatic
post-processing (and for EXPERIMENTS.md regeneration) every result container
can also be written to a JSON file and read back.  Only plain numbers, lists
and strings are stored — architecture specs are stored via their integer
encoding plus block depths so they can be reconstructed without pickling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Union

from repro.core.adjacency import BlockAdjacency
from repro.core.search_space import ArchitectureSpec

if TYPE_CHECKING:
    from repro.experiments.figure1 import Figure1Result
    from repro.experiments.figure3 import Figure3Result
    from repro.experiments.pareto_front import ParetoResult
    from repro.experiments.table1 import Table1Result

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# architecture specs
# ---------------------------------------------------------------------------

def spec_to_dict(spec: ArchitectureSpec) -> Dict:
    """JSON-serialisable description of an architecture spec."""
    return {
        "name": spec.name,
        "block_depths": [block.depth for block in spec.blocks],
        "encodings": [[int(v) for v in block.encode()] for block in spec.blocks],
    }


def spec_from_dict(payload: Dict) -> ArchitectureSpec:
    """Inverse of :func:`spec_to_dict`."""
    blocks = [
        BlockAdjacency.from_encoding(depth, encoding)
        for depth, encoding in zip(payload["block_depths"], payload["encodings"])
    ]
    return ArchitectureSpec(blocks, name=payload.get("name", ""))


# ---------------------------------------------------------------------------
# figure 1
# ---------------------------------------------------------------------------

def figure1_to_dict(result: Figure1Result) -> Dict:
    """JSON-serialisable view of a Fig. 1 panel."""
    return {
        "connection_type": result.connection_type,
        "dataset_name": result.dataset_name,
        "points": [
            {
                "n_skip": point.n_skip,
                "ann_accuracy": point.ann_accuracy,
                "snn_accuracy": point.snn_accuracy,
                "firing_rate": point.firing_rate,
                "macs_per_step": point.macs_per_step,
            }
            for point in result.points
        ],
    }


def figure1_from_dict(payload: Dict) -> Figure1Result:
    """Inverse of :func:`figure1_to_dict`."""
    from repro.experiments.figure1 import Figure1Point, Figure1Result

    result = Figure1Result(
        connection_type=payload["connection_type"], dataset_name=payload["dataset_name"]
    )
    for point in payload["points"]:
        result.points.append(
            Figure1Point(
                connection_type=payload["connection_type"],
                n_skip=int(point["n_skip"]),
                ann_accuracy=float(point["ann_accuracy"]),
                snn_accuracy=float(point["snn_accuracy"]),
                firing_rate=float(point["firing_rate"]),
                macs_per_step=float(point.get("macs_per_step", 0.0)),
            )
        )
    return result


# ---------------------------------------------------------------------------
# table 1
# ---------------------------------------------------------------------------

def table1_to_dict(result: Table1Result) -> Dict:
    """JSON-serialisable view of Table I (rows only, not the raw histories)."""
    return {
        "rows": [
            {
                "dataset": row.dataset,
                "model": row.model,
                "ann_accuracy": row.ann_accuracy,
                "snn_accuracy": row.snn_accuracy,
                "optimized_accuracy": row.optimized_accuracy,
                "snn_firing_rate": row.snn_firing_rate,
                "optimized_firing_rate": row.optimized_firing_rate,
                "improvement": row.improvement,
            }
            for row in result.rows
        ]
    }


def table1_from_dict(payload: Dict) -> Table1Result:
    """Inverse of :func:`table1_to_dict`."""
    from repro.experiments.table1 import Table1Result, Table1Row

    result = Table1Result()
    for row in payload["rows"]:
        result.rows.append(
            Table1Row(
                dataset=row["dataset"],
                model=row["model"],
                ann_accuracy=row.get("ann_accuracy"),
                snn_accuracy=float(row["snn_accuracy"]),
                optimized_accuracy=float(row["optimized_accuracy"]),
                snn_firing_rate=float(row["snn_firing_rate"]),
                optimized_firing_rate=float(row["optimized_firing_rate"]),
                improvement=float(row["improvement"]),
            )
        )
    return result


# ---------------------------------------------------------------------------
# figure 3
# ---------------------------------------------------------------------------

def figure3_to_dict(result: Figure3Result) -> Dict:
    """JSON-serialisable view of the Fig. 3 search curves."""
    return {
        "dataset_name": result.dataset_name,
        "model_name": result.model_name,
        "bo_runs": [list(map(float, run)) for run in result.bo_curve.runs],
        "rs_runs": [list(map(float, run)) for run in result.rs_curve.runs],
    }


def figure3_from_dict(payload: Dict) -> Figure3Result:
    """Inverse of :func:`figure3_to_dict`."""
    from repro.experiments.figure3 import Figure3Result, SearchCurve

    result = Figure3Result(dataset_name=payload["dataset_name"], model_name=payload["model_name"])
    result.bo_curve = SearchCurve(method="Our HPO", runs=[list(run) for run in payload["bo_runs"]])
    result.rs_curve = SearchCurve(method="random search", runs=[list(run) for run in payload["rs_runs"]])
    return result


# ---------------------------------------------------------------------------
# pareto front
# ---------------------------------------------------------------------------

def pareto_to_dict(result: ParetoResult) -> Dict:
    """JSON-serialisable view of a Pareto-front experiment."""
    return {
        "dataset_name": result.dataset_name,
        "model_name": result.model_name,
        "objective_names": list(result.objective_names),
        "front": [
            {
                "encoding": list(point.encoding),
                "objectives": {str(k): float(v) for k, v in point.objectives.items()},
                "num_skips": int(point.num_skips),
            }
            for point in result.front
        ],
        "hypervolume_curve": [float(v) for v in result.hypervolume_curve],
        "reference_point": [float(v) for v in result.reference_point],
        "num_evaluations": int(result.num_evaluations),
        "fresh_evaluations": int(result.fresh_evaluations),
        "energy_budget": result.energy_budget,
        "stopped": bool(result.stopped),
    }


def pareto_from_dict(payload: Dict) -> ParetoResult:
    """Inverse of :func:`pareto_to_dict`."""
    from repro.experiments.pareto_front import ParetoFrontPoint, ParetoResult

    result = ParetoResult(
        dataset_name=payload["dataset_name"],
        model_name=payload["model_name"],
        objective_names=list(payload["objective_names"]),
        hypervolume_curve=[float(v) for v in payload.get("hypervolume_curve", [])],
        reference_point=[float(v) for v in payload.get("reference_point", [])],
        num_evaluations=int(payload.get("num_evaluations", 0)),
        fresh_evaluations=int(payload.get("fresh_evaluations", 0)),
        energy_budget=payload.get("energy_budget"),
        stopped=bool(payload.get("stopped", False)),
    )
    for point in payload.get("front", []):
        result.front.append(
            ParetoFrontPoint(
                encoding=[int(v) for v in point["encoding"]],
                objectives={str(k): float(v) for k, v in point["objectives"].items()},
                num_skips=int(point.get("num_skips", 0)),
            )
        )
    return result


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

#: result kind (the container's class name, stored in the file) -> (to_dict, from_dict);
#: keyed by name so that saving one result imports no other experiment
_SERIALIZERS = {
    "Figure1Result": (figure1_to_dict, figure1_from_dict),
    "Table1Result": (table1_to_dict, table1_from_dict),
    "Figure3Result": (figure3_to_dict, figure3_from_dict),
    "ParetoResult": (pareto_to_dict, pareto_from_dict),
}


def save_result(result, path: PathLike) -> Path:
    """Write any supported result container to ``path`` as JSON."""
    kind = type(result).__name__
    if kind not in _SERIALIZERS:
        raise TypeError(f"cannot serialise result of type {kind}")
    payload = {"kind": kind, "data": _SERIALIZERS[kind][0](result)}
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_result(path: PathLike):
    """Read a result container previously written by :func:`save_result`."""
    payload = json.loads(Path(path).read_text())
    kind = payload.get("kind")
    if kind not in _SERIALIZERS:
        raise ValueError(f"unknown result kind {kind!r} in {path}")
    return _SERIALIZERS[kind][1](payload.get("data", {}))
