"""End-to-end HTTP tests: real sockets, real workers, real store.

The module-scoped ``service`` fixture runs one :class:`IseService` with
an embedded worker over a file-backed sweep directory; individual tests
spin up narrower services (tiny quotas, no workers, fake-S3 store with
injected faults) where the scenario needs one.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import telemetry
from repro.service import IseService, ServiceClient, ServiceConfig, ServiceClientError, jobs
from repro.service.jobspec import run_workload_cell
from repro.sweep import SweepDirectory
from repro.sweep.hashing import SweepError
from repro.sweep.objectstore import FakeObjectServer, ObjectStoreBackend
from repro.sweep.orchestrator import worker_loop

#: The standing tiny job: the 6-node conven00 block, one cheap cell.
CONVEN = {
    "workload": "conven00",
    "constraints": {"max_inputs": 2, "max_outputs": 1, "max_ises": 1},
}


def strip_timing(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "runtime_s"}


def raw_request(url: str, method: str = "GET", body: bytes | None = None,
                headers: dict | None = None):
    """urllib round trip returning (status, headers, decoded body)."""
    request = urllib.request.Request(
        url, data=body, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(
                response.read() or b"{}"
            )
    except urllib.error.HTTPError as error:
        raw = error.read()
        return error.code, dict(error.headers), json.loads(raw) if raw else {}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    directory = SweepDirectory(tmp_path_factory.mktemp("service") / "sweep")
    config = ServiceConfig(
        local_workers=1, worker_poll=0.05, quota_rps=500.0, quota_burst=1000.0
    )
    with IseService(directory, config) as running:
        yield running


@pytest.fixture()
def client(service):
    return ServiceClient(service.endpoint, client_id="alice")


# ----------------------------------------------------------------------
# The happy path: submit -> worker drains -> fetch
# ----------------------------------------------------------------------
def test_submit_drain_fetch_roundtrip(service, client):
    summary = client.submit(CONVEN)
    assert summary["total_cells"] == 1
    status = client.wait(summary["job_id"], timeout=60)
    assert status["state"] == "done" and not status["timed_out"]
    result = client.result(summary["job_id"])
    (row,) = result["rows"]
    # Row-identical to calling the cell function directly.
    direct = run_workload_cell(
        "conven00", "ISEGEN", CONVEN["constraints"], {}
    )
    assert strip_timing(row) == strip_timing(direct)
    assert result["served_from_store"] == 1


def test_resubmission_is_pure_cache_hit(service, client):
    first = client.submit(CONVEN)
    client.wait(first["job_id"], timeout=60)
    # Any enqueue on the resubmission is a contract violation: make the
    # queue unusable to prove nothing touches it.
    queue = service.directory.queue
    original = queue.enqueue

    def forbidden(task):  # pragma: no cover - failing path
        raise AssertionError(f"cache-hit resubmission enqueued {task.key}")

    queue.enqueue = forbidden
    try:
        again = client.submit(CONVEN)
    finally:
        queue.enqueue = original
    assert again["cached"] == again["total_cells"] == 1
    assert again["enqueued"] == 0
    # The new job id resolves instantly against the shared store.
    assert client.status(again["job_id"])["state"] == "done"
    rows = client.result(again["job_id"])["rows"]
    assert rows == client.result(first["job_id"])["rows"]


def test_cross_client_submissions_share_the_cache(service):
    alice = ServiceClient(service.endpoint, client_id="alice")
    bob = ServiceClient(service.endpoint, client_id="bob")
    first = alice.submit(CONVEN)
    alice.wait(first["job_id"], timeout=60)
    second = bob.submit(CONVEN)
    assert second["cached"] == 1 and second["enqueued"] == 0


def test_job_records_are_namespace_isolated(service):
    alice = ServiceClient(service.endpoint, client_id="alice")
    bob = ServiceClient(service.endpoint, client_id="bob")
    job_id = alice.submit(CONVEN)["job_id"]
    alice.wait(job_id, timeout=60)
    with pytest.raises(ServiceClientError) as excinfo:
        bob.status(job_id)
    assert excinfo.value.status == 404
    listed = [item["job_id"] for item in bob.jobs()["jobs"]]
    assert job_id not in listed
    assert job_id in [item["job_id"] for item in alice.jobs()["jobs"]]


def test_record_namespaces_are_memoized_and_bounded(tmp_path, monkeypatch):
    """Handler threads share the per-client namespace memo: under contention
    it must neither raise nor outgrow its bound."""
    monkeypatch.setattr(jobs, "MAX_CACHED_SPACES", 2)
    manager = jobs.JobManager(SweepDirectory(tmp_path / "sweep"))
    assert manager._space("alice") is manager._space("alice")
    clients = [f"client{number}" for number in range(32)]
    errors: list[Exception] = []

    def churn(offset: int) -> None:
        try:
            for step in range(3000):
                manager._space(clients[(offset + step) % len(clients)])
        except Exception as error:  # noqa: BLE001 - collected for the assert
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(k,)) for k in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(manager._spaces) <= 2


def test_catalog_and_health_endpoints(service, client):
    health = client.health()
    assert health["ok"] and health["local_workers"] == 1
    names = [item["name"] for item in client.workloads()["workloads"]]
    assert "aes" in names and "conven00" in names
    sweeps = [item["name"] for item in client.sweeps()["sweeps"]]
    assert "figure6" in sweeps


def test_metrics_counters_move(service, client):
    before = client.metrics()["metrics"]
    summary = client.submit(CONVEN)  # fully cached by earlier tests
    client.wait(summary["job_id"], timeout=60)
    client.result(summary["job_id"])
    after = client.metrics()["metrics"]
    assert after["http.requests"] > before["http.requests"]
    assert after["cells.served_from_store"] >= before.get(
        "cells.served_from_store", 0
    )
    assert after["jobs.served_from_cache"] >= 1
    assert after["http.submit.seconds"]["count"] >= 1


def test_request_spans_reach_the_trace_stream(service, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    telemetry.configure(trace_path, flush_every=1)
    try:
        ServiceClient(service.endpoint, client_id="alice").health()
        # The handler records its span on leaving the span block, after the
        # reply has gone out, so poll for it instead of reading once.
        deadline = time.monotonic() + 10.0
        names: list[str] = []
        while "service.health" not in names and time.monotonic() < deadline:
            time.sleep(0.01)
            telemetry.flush()
            if trace_path.exists():
                text = trace_path.read_text()
                complete = text[: text.rfind("\n") + 1]
                names = [json.loads(line).get("name") for line in complete.splitlines()]
        assert "service.health" in names
    finally:
        telemetry.configure(None)


# ----------------------------------------------------------------------
# Rejections: 400 / 404 / 405 / 413
# ----------------------------------------------------------------------
def test_malformed_ir_is_http_400(service, client):
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit({"ir": {"nodes": "garbage"}})
    assert excinfo.value.status == 400
    assert "malformed DFG payload" in str(excinfo.value)


def test_invalid_json_body_is_http_400(service):
    status, _, body = raw_request(
        f"{service.endpoint}/v1/jobs", "POST", b"{not json",
        {"Content-Type": "application/json"},
    )
    assert status == 400 and "not valid JSON" in body["error"]


def test_empty_body_is_http_400(service):
    status, _, _ = raw_request(f"{service.endpoint}/v1/jobs", "POST", b"")
    assert status == 400


def test_unknown_route_404_and_wrong_method_405(service):
    status, _, _ = raw_request(f"{service.endpoint}/v2/jobs")
    assert status == 404
    status, _, _ = raw_request(f"{service.endpoint}/v1/health", "POST", b"{}")
    assert status == 405
    status, _, _ = raw_request(f"{service.endpoint}/v1/health", "PUT", b"{}")
    assert status == 405


def test_unknown_and_malformed_job_ids_are_404(service, client):
    for job_id in ("0" * 16, "not-a-job-id", "../../etc/passwd"):
        with pytest.raises(ServiceClientError) as excinfo:
            client.status(job_id)
        assert excinfo.value.status == 404


def test_bad_client_id_is_http_400(service):
    status, _, body = raw_request(
        f"{service.endpoint}/v1/jobs", headers={"X-Client": "../escape"}
    )
    assert status == 400 and "invalid client id" in body["error"]


def test_oversized_body_is_http_413(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    config = ServiceConfig(max_body_bytes=64)
    with IseService(directory, config) as running:
        status, _, _ = raw_request(
            f"{running.endpoint}/v1/jobs", "POST", b"x" * 100
        )
        assert status == 413


def test_incomplete_job_result_is_http_409(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    with IseService(directory, ServiceConfig()) as running:  # no workers
        client = ServiceClient(running.endpoint, client_id="alice")
        job_id = client.submit(CONVEN)["job_id"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 409


# ----------------------------------------------------------------------
# Load shedding: 429 quota, 503 inflight, Retry-After discipline
# ----------------------------------------------------------------------
def test_quota_exhaustion_is_429_with_retry_after(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    config = ServiceConfig(quota_rps=0.001, quota_burst=2.0)
    with IseService(directory, config) as running:
        url = f"{running.endpoint}/v1/health"
        headers = {"X-Client": "greedy"}
        assert raw_request(url, headers=headers)[0] == 200
        assert raw_request(url, headers=headers)[0] == 200
        status, reply_headers, body = raw_request(url, headers=headers)
        assert status == 429
        assert float(reply_headers["Retry-After"]) > 0
        assert "quota" in body["error"]
        # Another client is unaffected: quotas are per-namespace.
        assert raw_request(url, headers={"X-Client": "patient"})[0] == 200


def test_client_retries_429_until_token_refills(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    config = ServiceConfig(quota_rps=5.0, quota_burst=1.0)
    with IseService(directory, config) as running:
        client = ServiceClient(
            running.endpoint, client_id="alice", retries=5, backoff=0.05
        )
        assert client.health()["ok"]
        # Bucket empty now; the client must absorb the 429 by honouring
        # Retry-After (0.2s at 5 rps) and succeed on a later attempt.
        assert client.health()["ok"]


def test_inflight_overload_is_503_with_retry_after(service):
    gate = service.gate
    taken = 0
    try:
        while gate.enter():
            taken += 1
        status, headers, body = raw_request(f"{service.endpoint}/v1/health")
        assert status == 503
        assert float(headers["Retry-After"]) > 0
    finally:
        for _ in range(taken):
            gate.exit()


def test_backend_error_maps_to_503(service, monkeypatch):
    def broken(client, job_id):
        raise SweepError("bucket on fire")

    monkeypatch.setattr(service.jobs, "status", broken)
    status, headers, body = raw_request(
        f"{service.endpoint}/v1/jobs/{'0' * 16}"
    )
    assert status == 503
    assert "bucket on fire" in body["error"]
    assert "Retry-After" in headers


def test_transport_retries_absorb_transient_store_faults(tmp_path):
    """FakeObjectServer fault hooks: 5xx bursts under the submit path."""
    with FakeObjectServer() as fake:
        backend = ObjectStoreBackend("service-bucket", endpoint=fake.endpoint)
        directory = SweepDirectory(tmp_path / "sweep", store_url=backend)
        with IseService(directory, ServiceConfig()) as running:
            client = ServiceClient(running.endpoint, client_id="alice")
            fake.fail_next(2)  # absorbed by the transport's bounded retries
            summary = client.submit(CONVEN)
            assert summary["enqueued"] == 1


# ----------------------------------------------------------------------
# Long-poll and recovery
# ----------------------------------------------------------------------
def test_wait_times_out_cleanly_without_workers(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    with IseService(directory, ServiceConfig()) as running:
        client = ServiceClient(running.endpoint, client_id="alice")
        job_id = client.submit(CONVEN)["job_id"]
        status, _, body = raw_request(
            f"{running.endpoint}/v1/jobs/{job_id}/wait?timeout=0.3&poll=0.05",
            headers={"X-Client": "alice"},
        )
        assert status == 200
        assert body["timed_out"] and body["state"] == "queued"


def test_killed_worker_lease_recovered_via_status(tmp_path):
    """The worker-killed path: claim dies, /wait recovers and re-runs it."""
    directory = SweepDirectory(tmp_path / "sweep", lease_seconds=0.2)
    with IseService(directory, ServiceConfig()) as running:  # no workers yet
        client = ServiceClient(running.endpoint, client_id="alice")
        job_id = client.submit(CONVEN)["job_id"]
        # A phantom worker claims the cell and dies without completing:
        # no heartbeat, no store write — the deterministic mid-cell kill.
        stuck = directory.queue.claim("phantom")
        assert stuck is not None
        deadline_status = client.status(job_id)
        assert deadline_status["state"] in ("running", "queued")
        import time

        time.sleep(0.3)  # let the lease expire
        # The status endpoint piggybacks requeue_expired: the cell returns
        # to pending without any worker polling.
        recovered = client.status(job_id)
        assert recovered["pending"] == 1 and recovered["claimed"] == 0
        # A real worker now drains it; attempt 2 lands in the store.
        worker_loop(directory, poll_interval=0.05)
        final = client.wait(job_id, timeout=10)
        assert final["state"] == "done"
        key = client.result(job_id)  # served fine after recovery
        assert key["rows"][0]["program"] == "conven00"
        stored = directory.store.record(
            json.loads(
                directory.storage.sub("service")
                .sub("jobs")
                .sub("alice")
                .get_text(f"{job_id}.json")
            )["keys"][0]
        )
        assert stored["meta"]["attempt"] >= 2


def test_graceful_shutdown_strands_no_lease(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    config = ServiceConfig(local_workers=2, worker_poll=0.05)
    running = IseService(directory, config)
    running.start()
    client = ServiceClient(running.endpoint, client_id="alice")
    for max_ises in (1, 2, 3, 4):
        client.submit(
            {
                "workload": "conven00",
                "constraints": {
                    "max_inputs": 2,
                    "max_outputs": 1,
                    "max_ises": max_ises,
                },
            }
        )
    running.stop()  # drains the embedded workers between batches
    # Whatever was claimed was completed or released — never stranded.
    assert directory.queue.claimed_keys() == []
    assert running.worker_threads == []


def test_stop_event_interrupts_idle_worker_immediately():
    """The worker_loop stop hook: an idle daemon worker exits promptly."""
    import tempfile
    from pathlib import Path

    directory = SweepDirectory(Path(tempfile.mkdtemp()) / "sweep")
    stop = threading.Event()
    done = threading.Event()

    def run():
        worker_loop(
            directory,
            poll_interval=5.0,  # stop must interrupt this sleep
            exit_when_idle=False,
            stop=stop,
        )
        done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    stop.set()
    assert done.wait(timeout=2.0), "stopped worker did not exit promptly"
