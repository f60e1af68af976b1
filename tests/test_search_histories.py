"""Pinned search histories: every engine's output, record by record.

``data/search_histories.json`` holds the full history of one seeded run per
engine configuration on :class:`~repro.core.objectives.SyntheticWeightObjective`:
each record's encoding, objective value, metrics, source and iteration, the
digest of the shared weight store the run accumulated and, for the Pareto
engine, the hypervolume trace.  The file was written by :func:`record_run`
before the four search loops were merged into one, so any change of
proposal order, RNG consumption, iteration numbering or weight-update order
shows up here as a mismatch.  The three ``*_long`` runs (45-48 evaluations)
were recorded while the GP still extended its Cholesky factor rank by rank,
before the surrogate became a refit at every proposal.

CI re-runs this file under ``REPRO_MP_START_METHOD=spawn``: the asynchronous
configurations cross a real process boundary there.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.bayes_opt import BayesianOptimizer
from repro.core.multi_objective import MultiObjectiveBayesianOptimizer
from repro.core.objectives import SyntheticWeightObjective
from repro.core.random_search import RandomSearch
from repro.core.search_space import BlockSearchInfo, SearchSpace
from repro.core.weight_sharing import WeightStore

PINNED = Path(__file__).parent / "data" / "search_histories.json"

#: name -> (optimizer, constructor keywords, optimize argument)
RUNS = {
    "bo_batch1": ("bo", dict(initial_points=3, batch_size=1, candidate_pool_size=16, rng=11), 6),
    "bo_batch3": ("bo", dict(initial_points=3, batch_size=3, candidate_pool_size=16, rng=12), 3),
    "bo_async1": (
        "bo",
        dict(initial_points=3, batch_size=2, candidate_pool_size=16, async_workers=1, rng=13),
        3,
    ),
    "pareto_batch": ("pareto", dict(initial_points=4, batch_size=1, candidate_pool_size=32, rng=0), 6),
    "pareto_async1": (
        "pareto",
        dict(initial_points=4, batch_size=1, candidate_pool_size=32, async_workers=1, rng=1),
        6,
    ),
    "pareto_async2": (
        "pareto",
        dict(initial_points=4, batch_size=1, candidate_pool_size=32, async_workers=2, rng=2),
        6,
    ),
    "rs": ("rs", dict(rng=3), 10),
    # longer runs (45-48 evaluations, pool 48): the scale of a paper-scale or
    # perfbench search, where surrogate rounding has the most room to move a pick
    "pareto_long": ("pareto", dict(initial_points=4, candidate_pool_size=48, rng=4), 44),
    "bo_batch3_long": ("bo", dict(initial_points=3, batch_size=3, candidate_pool_size=48, rng=5), 14),
    "bo_async2_long": (
        "bo",
        dict(batch_size=1, candidate_pool_size=48, async_workers=2, rng=6),
        42,
    ),
}


def make_space() -> SearchSpace:
    return SearchSpace([BlockSearchInfo(depth=5, name="block")], name="pinned")


def store_digest(store: WeightStore) -> str:
    digest = hashlib.sha256()
    for key, value in sorted(store.state_dict().items()):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def record_run(name: str) -> dict:
    """Run configuration ``name`` and return its JSON-ready outcome."""
    kind, kwargs, iterations = RUNS[name]
    objective = SyntheticWeightObjective(weight_store=WeightStore())
    if kind == "rs":
        search = RandomSearch(make_space(), objective, **kwargs)
    elif kind == "pareto":
        search = MultiObjectiveBayesianOptimizer(
            make_space(), objective, objectives=("accuracy", "energy"), **kwargs
        )
    else:
        search = BayesianOptimizer(make_space(), objective, **kwargs)
    search.optimize(iterations)
    outcome = {
        "records": [
            {
                "encoding": [int(v) for v in record.spec.encode()],
                "objective_value": record.objective_value,
                "metrics": dict(record.metrics),
                "source": record.source,
                "iteration": record.iteration,
            }
            for record in search.history
        ],
        "store": store_digest(objective.weight_store),
    }
    if kind == "pareto":
        outcome["hypervolume"] = list(search.hypervolume_history)
    return outcome


@pytest.mark.parametrize("name", sorted(RUNS))
def test_history_matches_the_pinned_run(name):
    pinned = json.loads(PINNED.read_text())[name]
    assert record_run(name) == pinned
