"""The client's kept-alive connection and the server's side of it."""

from __future__ import annotations

import http.client
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import pytest

from repro.errors import ReproError
from repro.service import IseService, ServiceClient, ServiceConfig
from repro.service import server as server_module
from repro.sweep import SweepDirectory


@pytest.fixture()
def accepted(monkeypatch):
    """Client addresses of the connections the server accepts."""
    addresses: list = []
    setup = server_module._ServiceHandler.setup

    def counting_setup(handler):
        addresses.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(server_module._ServiceHandler, "setup", counting_setup)
    return addresses


CONVEN = {
    "workload": "conven00",
    "constraints": {"max_inputs": 2, "max_outputs": 1, "max_ises": 1},
}


def no_sleep(seconds):  # pragma: no cover - failing path
    raise AssertionError(f"client slept {seconds}s")


def test_one_client_sends_many_requests_over_one_connection(tmp_path, accepted):
    with IseService(SweepDirectory(tmp_path / "sweep")) as running:
        client = ServiceClient(running.endpoint, client_id="alice", sleep=no_sleep)
        for _ in range(10):
            assert client.health()["ok"]
        assert client.jobs()["jobs"] == []
        assert len(accepted) == 1
        client.close()
        assert client.health()["ok"]
        client.close()
    assert len(accepted) == 2


def test_request_after_idle_close_goes_out_on_a_new_connection(
    tmp_path, accepted, monkeypatch
):
    """The client sees that the server closed the idle connection before
    it sends, so nothing goes out on the dead one: a POST, which is never
    re-sent once sent, must not."""
    sent: list[str] = []
    request = http.client.HTTPConnection.request

    def counting_request(connection, method, *args, **kwargs):
        sent.append(method)
        return request(connection, method, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", counting_request)
    config = ServiceConfig(request_timeout=0.2)
    with IseService(SweepDirectory(tmp_path / "sweep"), config) as running:
        client = ServiceClient(running.endpoint, client_id="alice", sleep=no_sleep)
        assert client.health()["ok"]
        time.sleep(0.6)  # the server drops the idle connection at 0.2 s
        assert client.submit(CONVEN)["enqueued"] == 1
        time.sleep(0.6)
        assert client.health()["ok"]
        client.close()
    assert sent == ["GET", "POST", "GET"]
    assert len(accepted) == 3


def test_reply_before_reading_the_body_closes_the_connection(tmp_path):
    """Unread body bytes would be parsed as the connection's next request."""
    with IseService(SweepDirectory(tmp_path / "sweep")) as running:
        address = urlsplit(running.endpoint)
        connection = http.client.HTTPConnection(address.hostname, address.port)
        connection.request("POST", "/v1/health", body=b'{"x": 1}')
        response = connection.getresponse()
        response.read()
        assert response.status == 405
        assert response.getheader("Connection") == "close"
        connection.close()


def test_stopped_service_closes_kept_alive_connections(tmp_path):
    running = IseService(SweepDirectory(tmp_path / "sweep"))
    running.start()
    client = ServiceClient(running.endpoint, client_id="alice", retries=1)
    assert client.health()["ok"]
    running.stop()
    with pytest.raises(ReproError):
        client.health()


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each request by the next action of the server's script:
    ``ok`` replies 200, ``drop`` closes the connection without a reply,
    ``stall`` holds the request until the test ends."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _serve(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.server.seen.append((self.command, self.path))
        action = self.server.script.pop(0) if self.server.script else "ok"
        if action == "stall":
            self.server.release.wait(10)
        if action != "ok":
            self.close_connection = True
            return
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _serve


@pytest.fixture()
def scripted():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script, server.seen, server.release = [], [], threading.Event()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.release.set()
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize(
    "call, request_line",
    [
        (lambda client: client.submit({"workload": "conven00"}), ("POST", "/v1/jobs")),
        (lambda client: client.status("0" * 16), ("GET", f"/v1/jobs/{'0' * 16}")),
    ],
    ids=["submit", "status"],
)
def test_request_the_server_stalls_on_is_not_resent(scripted, call, request_line):
    """A reply slower than the client timeout fails at once: the server
    may be acting on the request, so sending it again could repeat it."""
    server, url = scripted
    server.script = ["stall"]
    client = ServiceClient(url, client_id="alice", timeout=0.3, sleep=no_sleep)
    started = time.monotonic()
    with pytest.raises(TimeoutError):
        call(client)
    assert time.monotonic() - started < 2.0
    assert server.seen == [request_line]


def test_post_dropped_on_a_reused_connection_is_not_resent(scripted):
    server, url = scripted
    server.script = ["ok", "drop"]
    client = ServiceClient(url, client_id="alice", sleep=no_sleep)
    assert client.health()["ok"]
    with pytest.raises(ConnectionError):
        client.submit({"workload": "conven00"})
    assert server.seen == [("GET", "/v1/health"), ("POST", "/v1/jobs")]


def test_get_dropped_on_a_reused_connection_is_resent_at_once(scripted):
    """The server closed the connection just as the request went out."""
    server, url = scripted
    server.script = ["ok", "drop", "ok"]
    client = ServiceClient(url, client_id="alice", sleep=no_sleep)
    assert client.health()["ok"]
    assert client.health()["ok"]
    assert server.seen == [("GET", "/v1/health")] * 3
    client.close()


def test_refused_connection_is_retried_with_backoff(scripted):
    """Connecting failed, so the request never left: retry it."""
    server, url = scripted
    server.shutdown()
    server.server_close()
    pauses: list[float] = []
    client = ServiceClient(url, client_id="alice", retries=3, sleep=pauses.append)
    with pytest.raises(ReproError, match="failed after 3 attempt"):
        client.health()
    assert pauses == [0.2, 0.4, 0.8]
