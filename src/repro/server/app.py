"""The HTTP server: stdlib ``ThreadingHTTPServer`` wiring for the serving layer.

:class:`ReproServer` binds the subsystems together — the
:class:`~repro.server.catalog.StoreCatalog` read view of the cache directory,
the :class:`~repro.server.jobs.JobManager` running searches in background
threads, the :class:`~repro.server.metrics.MetricsRegistry` and the
:class:`~repro.server.health.HealthMonitor` — behind the route table of
:mod:`repro.server.routes`.  Each request runs on its own thread (the stdlib
threading mixin), is timed into a per-endpoint latency histogram and counted
per (endpoint, method, status).

Graceful shutdown (:meth:`ReproServer.stop`, triggered by SIGTERM/SIGINT in
``repro serve``) is ordered so no completed evaluation is lost:

1. the health status flips to ``shutting-down`` (``/healthz`` turns 503, so
   load balancers stop routing) and new job submissions are rejected;
2. every running job is asked to stop; each drains its in-flight evaluations
   through the async executor's waiting close, records a partial result and
   ends in state ``stopped`` — evaluation rows are appended synchronously by
   whichever process evaluated them, so the store files on disk already
   hold every completed evaluation (nothing is buffered in memory);
3. the HTTP listener is shut down and the catalog takes a final refresh, so
   the last log line reports the true row count.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.core.cache import store_counters
from repro.server.catalog import StoreCatalog
from repro.server.health import HealthMonitor
from repro.server.jobs import JobManager
from repro.server.metrics import MetricsRegistry
from repro.server.routes import (
    HTTPError,
    JSONResponse,
    Request,
    StreamResponse,
    TextResponse,
    resolve,
)
from repro.snn.routing import aggregate_fused_counters


def _store_lookup_hit_rate() -> float:
    """Fraction of process-wide evaluation-store lookups answered from a store."""
    counters = store_counters()
    total = counters["hits"] + counters["misses"]
    return counters["hits"] / total if total else 0.0


@dataclass
class ServerConfig:
    """Everything ``repro serve`` exposes as flags."""

    cache_dir: str
    host: str = "127.0.0.1"
    port: int = 8000
    #: default experiment scale for submitted jobs (None = get_scale default)
    scale: Optional[str] = None
    #: default worker processes per job (0 = serial evaluation in the job thread)
    async_workers: int = 0
    #: per-job join timeout during shutdown (None waits for a full drain)
    shutdown_timeout: Optional[float] = None


class _Handler(BaseHTTPRequestHandler):
    """Parses requests, dispatches through the route table, writes responses."""

    protocol_version = "HTTP/1.1"
    #: maximum accepted request body (a job submission is a few hundred bytes)
    max_body_bytes = 1 << 20

    def log_message(self, format, *args):  # stdlib signature shadows `format`
        pass  # request logging is served by /metrics, not stderr noise

    @property
    def app(self) -> "ReproServer":
        return self.server.app  # type: ignore[attr-defined]

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.max_body_bytes:
            raise HTTPError(413, f"request body exceeds {self.max_body_bytes} bytes")
        return self.rfile.read(length) if length else b""

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        split = urlsplit(self.path)
        endpoint = split.path
        status = 500
        observed = False
        try:
            try:
                try:
                    endpoint, handler, params = resolve(method, split.path)
                except HTTPError:
                    # unknown paths share one metrics label: client typos must
                    # not mint unbounded label cardinality
                    endpoint = "<unmatched>"
                    raise
                request = Request(
                    server=self.app,
                    method=method,
                    path=split.path,
                    query=parse_qs(split.query),
                    path_params=params,
                    body=self._read_body(),
                )
                response = handler(request)
            except HTTPError as error:
                response = JSONResponse({"error": error.message}, status=error.status)
            except Exception as error:  # a handler bug must answer, not hang
                response = JSONResponse(
                    {"error": f"internal error: {type(error).__name__}: {error}"}, status=500
                )
            status = response.status
            # record BEFORE flushing the body: a client that has received its
            # response must find the request in an immediately following
            # /metrics scrape (recording after the flush races that scrape)
            self.app.observe_request(endpoint, method, status, time.perf_counter() - started)
            observed = True
            self._write_response(response)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            status = 499  # client went away mid-response (nginx's convention)
        finally:
            if not observed:  # pragma: no cover - client died before dispatch finished
                self.app.observe_request(endpoint, method, status, time.perf_counter() - started)

    def _write_response(self, response) -> None:
        if isinstance(response, JSONResponse):
            body = (json.dumps(response.payload, indent=2) + "\n").encode("utf-8")
            self._write_fixed(response.status, "application/json; charset=utf-8", body)
        elif isinstance(response, TextResponse):
            self._write_fixed(response.status, response.content_type, response.text.encode("utf-8"))
        elif isinstance(response, StreamResponse):
            self._write_chunked(response)
        else:  # pragma: no cover - handler contract violation
            raise TypeError(f"handler returned {type(response).__name__}")

    def _write_fixed(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _write_chunked(self, response: StreamResponse) -> None:
        """HTTP/1.1 chunked transfer encoding, flushed per chunk.

        Each event line reaches the client as its own chunk the moment the
        job emits it; the zero-length terminal chunk ends the stream when the
        handler's iterator is exhausted (job terminal, or ``follow=0``).
        """
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for chunk in response.chunks:
            data = chunk.encode("utf-8")
            if not data:
                continue
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
            self.wfile.flush()
        self.wfile.write(b"0\r\n\r\n")

    def do_GET(self) -> None:  # stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # stdlib naming
        self._dispatch("POST")


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True  # event-stream readers must not block process exit
    app: "ReproServer"


class ReproServer:
    """The serving layer: subsystems plus a bound (but not yet serving) socket.

    Construction binds the socket (so ``port=0`` resolves to the real
    ephemeral port immediately — see :attr:`port`); :meth:`start` begins
    serving on a background thread, :meth:`stop` performs the graceful
    shutdown described in the module docstring.  Usable as a context manager.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        Path(config.cache_dir).mkdir(parents=True, exist_ok=True)
        self.registry = MetricsRegistry()
        self.catalog = StoreCatalog(config.cache_dir)
        self.jobs = JobManager(
            config.cache_dir,
            default_scale=config.scale,
            default_async_workers=config.async_workers,
            registry=self.registry,
        )
        self.health = HealthMonitor(self.catalog, self.jobs)
        self._requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests served",
            labelnames=("endpoint", "method", "status"),
        )
        self._latency = self.registry.histogram(
            "repro_http_request_seconds",
            "Wall-clock request latency per endpoint",
            labelnames=("endpoint",),
        )
        self._recommend_hits = self.registry.counter(
            "repro_recommend_cache_hits_total",
            "Recommendations answered from the evaluation store",
        )
        self._recommend_misses = self.registry.counter(
            "repro_recommend_cache_misses_total",
            "Recommendation requests no cached evaluation could satisfy",
        )
        self.registry.gauge(
            "repro_cache_hit_rate", "Fraction of /recommend lookups answered from cache"
        ).set_function(lambda: self.health.recommend_hit_rate)
        self.registry.gauge(
            "repro_store_rows", "Distinct evaluation rows across the cache directory's stores"
        ).set_function(lambda: self.catalog.total_rows())
        self.registry.gauge(
            "repro_jobs_running", "Search jobs currently running"
        ).set_function(lambda: self.jobs.running_count())
        self.registry.gauge(
            "repro_evals_in_flight", "Evaluations currently executing across all jobs"
        ).set_function(lambda: self.jobs.evals_in_flight())
        self.registry.gauge(
            "repro_worker_occupancy",
            "Fraction of running jobs' evaluation-worker capacity currently busy",
        ).set_function(lambda: self.jobs.worker_occupancy())
        self.registry.counter(
            "repro_job_events_dropped_total",
            "Events dropped from bounded per-job event logs",
        ).set_function(lambda: float(self.jobs.events_dropped_total()))
        # process-wide training/store tallies (worker-process deltas are merged
        # back by the async executor, so these cover pool evaluations too)
        self.registry.counter(
            "repro_fused_steps_total",
            "Temporal training steps served by the fused BPTT kernel",
        ).set_function(lambda: float(aggregate_fused_counters()["fused_steps"]))
        self.registry.counter(
            "repro_fused_fallback_steps_total",
            "Temporal training steps that fell back to graph autograd",
        ).set_function(lambda: float(aggregate_fused_counters()["fallback_steps"]))
        self.registry.counter(
            "repro_store_lookup_hits_total",
            "Evaluation-store lookups answered from a store (process-wide)",
        ).set_function(lambda: float(store_counters()["hits"]))
        self.registry.counter(
            "repro_store_lookup_misses_total",
            "Evaluation-store lookups that missed every store (process-wide)",
        ).set_function(lambda: float(store_counters()["misses"]))
        self.registry.gauge(
            "repro_store_lookup_hit_rate",
            "Fraction of process-wide evaluation-store lookups answered from a store",
        ).set_function(_store_lookup_hit_rate)
        self._http = _HTTPServer((config.host, config.port), _Handler)
        self._http.app = self
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def observe_request(self, endpoint: str, method: str, status: int, seconds: float) -> None:
        self._requests.labels(endpoint=endpoint, method=method, status=str(status)).inc()
        self._latency.labels(endpoint=endpoint).observe(seconds)

    def observe_recommend(self, hit: bool) -> None:
        self.health.record_recommend(hit)
        (self._recommend_hits if hit else self._recommend_misses).inc()

    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Serve on a background thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self.catalog.refresh()
        self._thread = threading.Thread(
            target=self._http.serve_forever, daemon=True, name=f"repro-serve:{self.port}"
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: drain jobs, then stop the listener (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self.health.shutting_down = True
        self.jobs.shutdown(timeout if timeout is not None else self.config.shutdown_timeout)
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        self.catalog.refresh()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
