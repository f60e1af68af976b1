"""Search-as-a-service: an HTTP layer over the search and cache subsystems.

The engine built by the earlier subsystems — GP search, the
persistent evaluation store, the async executor, the multi-objective Pareto
layer — runs here as a long-lived service instead of a batch CLI run:

* ``POST /jobs`` submits a search job (single- or multi-objective) executed
  on a background thread over the async executor and the shared cache
  directory; ``GET /jobs/<id>`` reports progress and ``GET /jobs/<id>/events``
  streams it (per-completion records, hypervolume trace) as ndjson;
* ``GET /pareto`` returns the current non-dominated front of the merged
  evaluation store, and ``GET /recommend?energy_budget=..`` answers "which
  architecture fits this budget?" instantly from cached metrics rows —
  never triggering a fresh evaluation;
* ``GET /healthz`` and the Prometheus-text ``GET /metrics`` make the service
  operable; SIGTERM drains in-flight evaluations before exiting.

Start it with ``python -m repro.cli serve --cache-dir <dir>`` or embed it::

    from repro.server import ReproServer, ServerConfig

    with ReproServer(ServerConfig(cache_dir="results/cache", port=0)) as server:
        print(server.url)
        ...

Operator documentation (endpoint catalog, metrics reference, shutdown
semantics, multi-worker deployment) lives in ``docs/server.md``.
"""

from repro.server.app import ReproServer, ServerConfig
from repro.server.catalog import StoreCatalog
from repro.server.health import HealthMonitor
from repro.server.jobs import Job, JobManager, JobValidationError
from repro.server.metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry

__all__ = [
    "ReproServer",
    "ServerConfig",
    "StoreCatalog",
    "HealthMonitor",
    "Job",
    "JobManager",
    "JobValidationError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]
