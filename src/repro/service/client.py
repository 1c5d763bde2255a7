"""Stdlib client for the service API (the ``repro client`` subcommand).

Same transport discipline as
:class:`~repro.sweep.objectstore.ObjectStoreBackend`: stdlib only,
bounded retries with exponential backoff on 5xx and on failures to
connect or send, 4xx raised immediately as :class:`ServiceClientError`.
A request that was sent but got no reply (a read timeout, a reset) is
not retried: the server may be acting on it.  A ``Retry-After``
header (the server sends one with every 429/503) overrides the backoff
for that attempt, so a quota'd client waits exactly as long as the
server asked, never longer.

Each thread keeps one ``http.client`` connection open across requests,
so a job's submit, wait and result cost one TCP connect between them
instead of one each.  ``http.client`` sets ``TCP_NODELAY`` on it, as the
server does on its end: without that, a kept-alive request stalls on
Nagle's algorithm plus the peer's delayed ACK.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from urllib.parse import urlsplit

from ..errors import ReproError
from .jobs import DEFAULT_CLIENT, TERMINAL_STATES

DEFAULT_RETRIES = 5
DEFAULT_BACKOFF = 0.2
#: Ceiling on a single server-directed Retry-After pause.
MAX_RETRY_AFTER = 30.0


class _Unsent(Exception):
    """A request that never reached the server: connecting or sending
    failed (the cause is chained)."""


def _readable(sock) -> bool:
    """Whether an idle kept-alive socket has turned readable: the server
    closed it (or sent bytes nobody asked for), so it must not carry
    another request."""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):
        return True


class ServiceClientError(ReproError):
    """A definitive (non-retryable) API error: the 4xx body, decoded."""

    def __init__(self, status: int, message: str, body: dict | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.body = body or {}


class ServiceClient:
    """Typed access to one service endpoint under one client namespace."""

    def __init__(
        self,
        base_url: str,
        *,
        client_id: str = DEFAULT_CLIENT,
        timeout: float = 60.0,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        sleep=time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        self.retries = max(1, int(retries))
        self.backoff = backoff
        self._sleep = sleep
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ReproError(f"service URL must be http(s)://host[:port]: {base_url!r}")
        self._connection_class = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc, self._prefix = parts.netloc, parts.path
        self._local = threading.local()

    # -- transport -----------------------------------------------------
    def _round_trip(self, method: str, target: str, body, headers: dict):
        """One request on this thread's kept-alive connection.

        Raises :class:`_Unsent` when connecting or sending fails: the
        server never read the request, so the caller may retry it.  A
        failure after the send (a read timeout, a reset) propagates at
        once, since the server may be acting on the request.  A connection
        the server closed while idle (past its request timeout) is
        replaced before the send; should it close just as a request goes
        out, the request is re-sent at once on a fresh connection if it
        never left, or if it is a GET.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(self._netloc, timeout=self.timeout)
            self._local.connection = connection
        while True:
            if connection.sock is not None and _readable(connection.sock):
                connection.close()  # the server closed it: open another
            reused = connection.sock is not None
            try:
                connection.request(method, target, body=body, headers=headers)
            except (http.client.HTTPException, OSError) as error:
                connection.close()
                if reused:
                    continue
                raise _Unsent() from error
            try:
                response = connection.getresponse()
                return response.status, response.headers, response.read()
            except (http.client.HTTPException, OSError) as error:
                connection.close()
                if reused and method == "GET" and isinstance(error, ConnectionError):
                    continue
                raise

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"X-Client": self.client_id, "Accept": "application/json"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        last_error: object = None
        for attempt in range(self.retries):
            pause = self.backoff * (2**attempt)
            try:
                status, reply_headers, raw = self._round_trip(
                    method, self._prefix + path, body, headers
                )
            except _Unsent as unsent:
                last_error = unsent.__cause__
            else:
                if status < 400:
                    return json.loads(raw or b"{}")
                try:
                    decoded = json.loads(raw) if raw else {}
                except ValueError:
                    decoded = {"error": raw.decode(errors="replace")}
                message = str(decoded.get("error", f"HTTP {status}"))
                if status < 500 and status != 429:
                    raise ServiceClientError(status, message, decoded)
                last_error = f"HTTP {status}: {message}"
                retry_after = reply_headers.get("Retry-After")
                if retry_after is not None:
                    try:
                        pause = min(float(retry_after), MAX_RETRY_AFTER)
                    except ValueError:
                        pass
            self._sleep(pause)
        raise ReproError(
            f"service request {method} {path} failed after "
            f"{self.retries} attempt(s): {last_error}"
        )

    def close(self) -> None:
        """Close the calling thread's connection (the next request opens
        another)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    # -- API -----------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def workloads(self) -> dict:
        return self._request("GET", "/v1/workloads")

    def sweeps(self) -> dict:
        return self._request("GET", "/v1/sweeps")

    def submit(self, spec: dict) -> dict:
        return self._request("POST", "/v1/jobs", spec)

    def jobs(self) -> dict:
        return self._request("GET", "/v1/jobs")

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, *, timeout: float = 300.0, poll: float = 0.25) -> dict:
        """Block until the job is terminal, riding the server's long-poll.

        The server caps a single ``/wait`` at its own long-poll ceiling;
        this loops whole long-polls until *timeout* is spent, then
        returns the last status (check ``timed_out``).
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                status = self.status(job_id)
                status["timed_out"] = status["state"] not in TERMINAL_STATES
                return status
            status = self._request(
                "GET",
                f"/v1/jobs/{job_id}/wait?timeout={max(0.0, remaining):.3f}"
                f"&poll={poll:.3f}",
            )
            if status["state"] in TERMINAL_STATES:
                return status

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")


__all__ = ["ServiceClient", "ServiceClientError"]
