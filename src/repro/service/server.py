"""The HTTP front door: stdlib ``ThreadingHTTPServer`` over a JSON API.

Follows the in-repo :class:`~repro.sweep.objectstore.FakeObjectServer`
idiom — ``BaseHTTPRequestHandler`` + daemon-threaded server, zero
dependencies — but serves the real product: ISE generation as a service.
The server itself executes nothing; it validates, enqueues on the sweep
queue, and reads the content-addressed store.  Attach workers with
``repro sweep worker`` (any machine sharing the queue URL) or embed a
few with ``--local-workers``.

Every route lives in :data:`ROUTES` — a declarative (method, template)
table the handler dispatches from and ``docs/API.md`` is diffed against
by a test, so an undocumented endpoint fails CI.

Instrumentation rides the unified telemetry layer: one
``service.<route>`` span per request (so ``repro trace summary`` grows a
per-endpoint latency histogram for free), a local
:class:`~repro.telemetry.metrics.MetricsRegistry` (request counts,
served-from-cache counters, quota rejections) exported at
``GET /v1/metrics`` and mirrored into the trace stream via
``emit_metrics``.

Fault discipline mirrors the queue transport: bodies are size-capped
(413), sockets carry a read timeout, per-client token buckets answer 429
with ``Retry-After``, the global inflight gate answers 503 with
``Retry-After``, and backend errors (a flaky object store) surface as
503 — the client retries, the server never wedges.  Shutdown stops the
embedded workers between batches (leases completed or released — never
stranded) before closing the listener.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from .. import telemetry
from ..errors import ReproError
from ..sweep.hashing import SweepError
from ..sweep.orchestrator import SweepDirectory, worker_loop
from ..sweep.registry import SWEEPS
from ..telemetry.metrics import MetricsRegistry
from ..workloads import workload_summaries
from .jobs import DEFAULT_CLIENT, JobManager, check_client
from .jobspec import ServiceError
from .quota import ClientQuotas, InflightGate

SERVICE_VERSION = "1"


@dataclass(frozen=True)
class Route:
    """One API endpoint: method + path template + handler name."""

    method: str
    template: str  # e.g. "/v1/jobs/{job_id}/result"
    name: str  # handler attr on _ServiceHandler and span suffix
    description: str

    @cached_property
    def regex(self) -> re.Pattern:
        pattern = re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", self.template)
        return re.compile(f"^{pattern}$")


#: The complete API surface.  ``docs/API.md`` must document every row
#: (``tests/service/test_api_docs.py`` diffs the two).
ROUTES: tuple[Route, ...] = (
    Route("GET", "/v1/health", "health", "liveness + backend description"),
    Route("GET", "/v1/workloads", "workloads", "registered workload catalog"),
    Route("GET", "/v1/sweeps", "sweeps", "registered sweep harness catalog"),
    Route("POST", "/v1/jobs", "submit", "submit a job (sweep / workload / ir)"),
    Route("GET", "/v1/jobs", "jobs", "list this client's jobs"),
    Route("GET", "/v1/jobs/{job_id}", "status", "job status counts"),
    Route("GET", "/v1/jobs/{job_id}/wait", "wait", "long-poll until terminal"),
    Route("GET", "/v1/jobs/{job_id}/result", "result", "rows/tables from the store"),
    Route("GET", "/v1/metrics", "metrics", "service metrics snapshot"),
)


@dataclass
class ServiceConfig:
    """Tunables of one service process (all have safe defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (tests); CLI default is 8321
    quota_rps: float = 20.0  # per-client token refill rate
    quota_burst: float = 40.0  # per-client bucket capacity
    max_inflight: int = 32  # global concurrent-request bound (503 past it)
    max_body_bytes: int = 8 * 1024 * 1024  # 413 past it
    request_timeout: float = 30.0  # socket read timeout per request
    longpoll_cap: float = 30.0  # ceiling on /wait?timeout=
    local_workers: int = 0  # embedded worker threads (0 = external fleet)
    worker_poll: float = 0.1
    metrics_flush_every: int = 32  # mirror metrics into the trace stream


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: "IseService"):
        super().__init__(address, _ServiceHandler)
        self.service = service


class _ServiceHandler(BaseHTTPRequestHandler):
    """One JSON request against the service's route table."""

    protocol_version = "HTTP/1.1"
    server: _ServiceHTTPServer

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the telemetry layer is the access log

    def setup(self):
        super().setup()
        # Request read timeout: a stalled client must not pin a thread.
        self.connection.settimeout(self.server.service.config.request_timeout)

    # -- plumbing ------------------------------------------------------
    def _reply_json(self, status: int, payload, headers: dict | None = None):
        # Compact output: an ``indent`` would force the pure-Python encoder.
        body = json.dumps(payload).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)
        return status

    def _error(self, status: int, message: str, retry_after: float | None = None):
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = f"{max(0.0, retry_after):.3f}"
        return self._reply_json(
            status, {"error": message, "status": status}, headers
        )

    def _read_body(self):
        length = self.headers.get("Content-Length")
        try:
            length = int(length or 0)
        except ValueError:
            raise ServiceError("malformed Content-Length") from None
        if length > self.server.service.config.max_body_bytes:
            raise ServiceError(
                f"request body over {self.server.service.config.max_body_bytes}"
                " bytes",
                status=413,
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except ValueError as error:
            raise ServiceError(f"request body is not valid JSON: {error}") from error

    def _client_id(self) -> str:
        return check_client(self.headers.get("X-Client", DEFAULT_CLIENT))

    def _query(self) -> dict:
        return parse_qs(urlsplit(self.path).query)

    def _query_float(self, query: dict, name: str, default: float) -> float:
        values = query.get(name)
        if not values:
            return default
        try:
            return float(values[0])
        except ValueError:
            raise ServiceError(f"query parameter {name!r} must be a number") from None

    # -- dispatch ------------------------------------------------------
    def _handle(self):
        service = self.server.service
        path = unquote(urlsplit(self.path).path).rstrip("/") or "/"
        route, params, path_known = None, None, False
        for candidate in ROUTES:
            match = candidate.regex.match(path)
            if match:
                path_known = True
                if candidate.method == self.command:
                    route, params = candidate, match.groupdict()
                    break
        if route is None:
            if path_known:
                return self._error(405, f"method {self.command} not allowed on {path}")
            return self._error(404, f"no such endpoint: {self.command} {path}")

        metrics = service.metrics
        metrics.counter("http.requests").add(1)
        status = 500
        with telemetry.span(f"service.{route.name}", method=self.command) as span:
            started = time.perf_counter()
            try:
                client = self._client_id()
                retry_after = service.quotas.acquire(client)
                if retry_after is not None:
                    metrics.counter("http.quota_rejections").add(1)
                    status = self._error(
                        429,
                        f"client {client!r} is over its request quota",
                        retry_after,
                    )
                    return
                if not service.gate.enter():
                    metrics.counter("http.load_shed").add(1)
                    status = self._error(
                        503,
                        "server is at its concurrent-request limit",
                        service.gate.retry_after,
                    )
                    return
                try:
                    status = getattr(self, f"_do_{route.name}")(
                        service, client, params or {}
                    )
                finally:
                    service.gate.exit()
            except ServiceError as error:
                status = self._error(error.status, str(error), error.retry_after)
            except (SweepError, ReproError) as error:
                # Backend trouble (store/queue transport): retryable.
                metrics.counter("http.backend_errors").add(1)
                status = self._error(503, f"backend error: {error}", 1.0)
            except (BrokenPipeError, ConnectionResetError):  # client went away
                status = 499
            except Exception as error:  # noqa: BLE001 - the server must survive
                status = self._error(500, f"internal error: {type(error).__name__}")
            finally:
                span.set(status=status)
                metrics.counter(f"http.{route.name}.requests").add(1)
                metrics.histogram(f"http.{route.name}.seconds").observe(
                    time.perf_counter() - started
                )
                metrics.counter(f"http.status.{status}").add(1)
                service.maybe_flush_metrics()

    do_GET = do_POST = do_HEAD = _handle

    def do_PUT(self):
        self._error(405, "only GET/POST are supported")

    do_DELETE = do_PATCH = do_PUT

    # -- endpoint handlers ---------------------------------------------
    def _do_health(self, service, client, params):
        return self._reply_json(
            200,
            {
                "ok": True,
                "version": SERVICE_VERSION,
                "store": service.directory.storage.describe(),
                "queue": service.directory.queue.describe(),
                "inflight": service.gate.inflight,
                "local_workers": len(service.worker_threads),
            },
        )

    def _do_workloads(self, service, client, params):
        return self._reply_json(200, {"workloads": workload_summaries()})

    def _do_sweeps(self, service, client, params):
        return self._reply_json(
            200,
            {
                "sweeps": [
                    {
                        "name": spec.name,
                        "description": spec.description,
                        "options": spec.option_defaults,
                    }
                    for _, spec in sorted(SWEEPS.items())
                ]
            },
        )

    def _do_submit(self, service, client, params):
        payload = self._read_body()
        summary = service.jobs.submit(client, payload)
        service.metrics.counter("jobs.submitted").add(1)
        service.metrics.counter("cells.enqueued").add(summary["enqueued"])
        service.metrics.counter("cells.cached_at_submit").add(summary["cached"])
        if summary["enqueued"] == 0 and summary["cached"] == summary["total_cells"]:
            service.metrics.counter("jobs.served_from_cache").add(1)
        return self._reply_json(
            201, summary, {"Location": summary["status_url"]}
        )

    def _do_jobs(self, service, client, params):
        return self._reply_json(200, service.jobs.list_jobs(client))

    def _do_status(self, service, client, params):
        return self._reply_json(200, service.jobs.status(client, params["job_id"]))

    def _do_wait(self, service, client, params):
        query = self._query()
        timeout = self._query_float(query, "timeout", service.config.longpoll_cap)
        timeout = max(0.0, min(timeout, service.config.longpoll_cap))
        poll = self._query_float(query, "poll", 0.25)
        poll = max(0.05, min(poll, 2.0))
        return self._reply_json(
            200,
            service.jobs.wait(
                client, params["job_id"], timeout=timeout, poll_interval=poll
            ),
        )

    def _do_result(self, service, client, params):
        body = service.jobs.result(client, params["job_id"])
        service.metrics.counter("results.served").add(1)
        service.metrics.counter("cells.served_from_store").add(
            body["served_from_store"]
        )
        return self._reply_json(200, body)

    def _do_metrics(self, service, client, params):
        return self._reply_json(200, {"metrics": service.metrics.snapshot()})


class IseService:
    """A running service: HTTP listener + job manager + optional workers.

    Usable as a context manager (tests) or via :meth:`serve_forever`
    (the ``repro serve`` CLI)::

        with IseService(directory) as service:
            ...requests against service.endpoint...
    """

    def __init__(
        self,
        directory: SweepDirectory,
        config: ServiceConfig | None = None,
        *,
        salt: str | None = None,
    ):
        self.directory = directory
        self.config = config or ServiceConfig()
        self.jobs = JobManager(directory, salt=salt)
        self.metrics = MetricsRegistry()
        self.quotas = ClientQuotas(self.config.quota_rps, self.config.quota_burst)
        self.gate = InflightGate(self.config.max_inflight)
        self.stop_workers = threading.Event()
        self.worker_threads: list[threading.Thread] = []
        self._server: _ServiceHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._metrics_lock = threading.Lock()
        self._requests_since_flush = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> str:
        if self._server is not None:
            return self.endpoint
        self._server = _ServiceHTTPServer(
            (self.config.host, self.config.port), self
        )
        self.config.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="ise-service", daemon=True
        )
        self._thread.start()
        self._start_local_workers()
        telemetry.event(
            "service.start",
            endpoint=self.endpoint,
            local_workers=self.config.local_workers,
        )
        return self.endpoint

    def _start_local_workers(self) -> None:
        for index in range(self.config.local_workers):
            thread = threading.Thread(
                target=worker_loop,
                args=(self.directory,),
                kwargs={
                    "poll_interval": self.config.worker_poll,
                    "exit_when_idle": False,
                    "worker": f"service-worker-{index}",
                    "stop": self.stop_workers,
                },
                name=f"service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self.worker_threads.append(thread)

    def stop(self) -> None:
        """Graceful shutdown: drain workers first, then close the listener.

        Embedded workers observe the stop event **between claim batches**
        (see :func:`~repro.sweep.orchestrator.worker_loop`): a claimed
        batch is finished and completed before the thread exits, so no
        lease is ever stranded for an external peer to recover.
        """
        self.stop_workers.set()
        for thread in self.worker_threads:
            thread.join()
        self.worker_threads = []
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None
        self.flush_metrics()
        telemetry.event("service.stop")
        telemetry.flush()

    def serve_forever(self) -> None:
        """Blocking serve (the CLI path); ``stop`` from a signal handler."""
        self.start()
        try:
            while self._thread is not None and self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "IseService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def endpoint(self) -> str:
        return f"http://{self.config.host}:{self.config.port}"

    # -- metrics mirroring ---------------------------------------------
    def maybe_flush_metrics(self) -> None:
        with self._metrics_lock:
            self._requests_since_flush += 1
            if self._requests_since_flush < self.config.metrics_flush_every:
                return
            self._requests_since_flush = 0
        self.flush_metrics()

    def flush_metrics(self) -> None:
        """Mirror the service counters into the trace stream (if tracing)."""
        telemetry.emit_metrics("service", self.metrics.snapshot())


__all__ = [
    "ROUTES",
    "IseService",
    "Route",
    "ServiceConfig",
    "SERVICE_VERSION",
]
