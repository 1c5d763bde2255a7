"""End-to-end service smoke: HTTP front door, CLI worker fleet, SIGKILL.

CI runs this (shard ``service-e2e`` of the ``sweep-e2e`` job) to exercise
the whole ISE-generation-as-a-service path no unit test covers end to
end: a ``repro serve`` subprocess takes a figure6-style sweep job over
HTTP, **two ``repro sweep worker`` CLI processes** drain it from the
shared queue — one of them SIGKILLed right after claiming — and the rows
come back over HTTP identical to the serial in-process harness.

Asserted invariants:

* the submitted job (reduced figure6: 2 I/O pairs x 1 N_ISE x 2
  algorithms = 4 cells) completes although one worker is SIGKILLed
  mid-job and a phantom claim is stranded: the service's status checks
  piggyback lease recovery, so survivors steal and re-execute
  (``attempt >= 2`` on at least one store record);
* the collected tables, fetched over HTTP, are row-identical to
  ``run_figure6`` run serially in this process;
* resubmitting the identical job is a pure cache hit: ``cached == 4``,
  ``enqueued == 0``, and the service metrics count it under
  ``jobs.served_from_cache``;
* SIGTERM shuts the server down cleanly (exit 0) with no stranded
  queue lease;
* a second server with one embedded worker (``--local-workers 1``)
  answers a cold one-cell job waited on with ``/wait?poll=2.0`` in under
  a second: the worker's completion wakes the wait, no poll tick passes.

Usage::

    PYTHONPATH=src python scripts/service_e2e.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.experiments import run_figure6  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.sweep import SweepDirectory  # noqa: E402

#: The reduced figure6 grid: 2 I/O pairs x 1 N_ISE x 2 algorithms = 4 cells.
REDUCED = {"io_sweep": [[2, 1], [4, 2]], "nise_values": [1]}
JOB = {"sweep": "figure6", "options": REDUCED}
LEASE = 4.0
SURVIVORS = 2


def strip_timing(rows):
    return [
        {k: v for k, v in row.items() if k not in ("runtime_us", "runtime_s")}
        for row in rows
    ]


#: The embedded-worker leg's cold job: one cheap conven00 cell.
COLD_JOB = {
    "workload": "conven00",
    "constraints": {"max_inputs": 2, "max_outputs": 1, "max_ises": 1},
}


def start_server(
    shared: Path, env: dict, *extra: str
) -> tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` on an ephemeral port; return (process, URL)."""
    process = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--dir", str(shared), "--port", "0", "--lease", str(LEASE),
            "--quota-rps", "500", "--quota-burst", "1000", *extra,
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError("serve exited before announcing its endpoint")
        print(f"[serve] {line.rstrip()}", flush=True)
        match = re.search(r"serving ISE generation on (http://\S+)", line)
        if match:
            return process, match.group(1)
    raise AssertionError("serve never announced its endpoint")


def stop_server(server: subprocess.Popen) -> None:
    """SIGTERM the server, echo the rest of its output, assert exit 0."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=60)
    tail = server.stdout.read()
    if tail:
        for line in tail.splitlines():
            print(f"[serve] {line}", flush=True)
    assert server.returncode == 0, f"serve exited {server.returncode}"


def embedded_worker_leg(workdir: Path, env: dict) -> float:
    """One cold job against ``serve --local-workers 1``: the embedded
    worker's completion must wake ``/wait`` well inside its 2 s poll."""
    shared = workdir / "embedded"
    server, base_url = start_server(shared, env, "--local-workers", "1")
    try:
        client = ServiceClient(base_url, client_id="e2e")
        submitted = client.submit(COLD_JOB)
        assert submitted["enqueued"] == 1, f"not a cold job: {submitted}"
        final = client.wait(submitted["job_id"], timeout=60, poll=2.0)
        assert final["state"] == "done", final
        assert final["waited_s"] < 1.0, (
            f"/wait took {final['waited_s']}s: the completion did not wake it"
        )
        (row,) = client.result(submitted["job_id"])["rows"]
        assert row["program"] == "conven00", row
    finally:
        stop_server(server)
    assert SweepDirectory(shared).queue.claimed_keys() == [], "stranded lease"
    print(f"[embedded] cold job waited {final['waited_s']}s at poll=2.0", flush=True)
    return final["waited_s"]


def worker_command(shared: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "sweep", "worker",
        "--dir", str(shared), "--poll", "0.05", "--lease", str(LEASE),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None, help="scratch dir (default: mkdtemp)")
    args = parser.parse_args()
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="service-e2e-"))
    workdir.mkdir(parents=True, exist_ok=True)
    shared = workdir / "svc"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    directory = SweepDirectory(shared, lease_seconds=LEASE)

    server, base_url = start_server(shared, env)
    try:
        client = ServiceClient(base_url, client_id="e2e")
        health = client.health()
        assert health["ok"], health
        assert any(w["name"] == "conven00" for w in client.workloads()["workloads"])
        assert any(s["name"] == "figure6" for s in client.sweeps()["sweeps"])

        submitted = client.submit(JOB)
        assert submitted["total_cells"] == 4 and submitted["enqueued"] == 4, submitted
        job_id = submitted["job_id"]
        print(f"[submit] job {job_id}: {submitted['describe']}", flush=True)

        # A phantom claim strands one lease (claimed, never completed), and
        # a victim worker is SIGKILLed right after claiming real work: the
        # deterministic mid-job loss the service must absorb.
        stuck = directory.queue.claim("phantom-worker")
        assert stuck is not None
        victim = subprocess.Popen(
            worker_command(shared), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        deadline = time.time() + 120
        while time.time() < deadline:
            if len(directory.queue.claimed_keys()) >= 2:  # phantom + victim
                break
            time.sleep(0.02)
        else:
            victim.kill()
            raise AssertionError("victim never claimed a cell")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        print("[victim] SIGKILLed after claiming", flush=True)

        survivors = [
            subprocess.Popen(
                worker_command(shared), env=env, stdout=subprocess.PIPE, text=True
            )
            for _ in range(SURVIVORS)
        ]

        # The service's status checks piggyback expired-lease recovery, so
        # long-polling /wait is what returns the dead workers' cells to
        # pending for the survivors.
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done", final
        print(
            f"[wait] done after {final['waited_s']}s "
            f"({final['done']}/{final['total_cells']} cells)",
            flush=True,
        )
        for process in survivors:
            stdout, _ = process.communicate(timeout=600)
            assert process.returncode == 0, f"survivor failed:\n{stdout}"
            print(f"[survivor] {stdout.strip()}", flush=True)

        record = json.loads(
            directory.storage.sub("service").sub("jobs").sub("e2e").get_text(
                f"{job_id}.json"
            )
        )
        attempts = [
            directory.store.record(key)["meta"]["attempt"]
            for key in record["keys"]
        ]
        assert any(attempt >= 2 for attempt in attempts), (
            f"no cell was re-executed after the kill: {attempts}"
        )
        print(f"[store] attempts per cell: {attempts}", flush=True)

        result = client.result(job_id)
        assert result["served_from_store"] == 4, result["served_from_store"]
        (table,) = result["tables"]
        http_rows = strip_timing(table["rows"])
        serial_rows = strip_timing(
            run_figure6(
                io_sweep=[(2, 1), (4, 2)], nise_values=[1], quick_genetic=True
            ).rows
        )
        assert http_rows == serial_rows, "HTTP rows differ from the serial harness"
        print(f"[result] {len(http_rows)} rows identical to serial", flush=True)

        resubmitted = client.submit(JOB)
        assert (
            resubmitted["cached"] == resubmitted["total_cells"] == 4
            and resubmitted["enqueued"] == 0
        ), f"resubmission was not a pure cache hit: {resubmitted}"
        print(f"[resubmit] cached={resubmitted['cached']} enqueued=0", flush=True)

        metrics = client.metrics()["metrics"]
        assert metrics.get("jobs.served_from_cache", 0) >= 1, metrics
        assert metrics.get("cells.served_from_store", 0) >= 4, metrics
    finally:
        stop_server(server)
    assert directory.queue.claimed_keys() == [], "shutdown stranded a lease"

    waited = embedded_worker_leg(workdir, env)
    print(
        "service-e2e OK: figure6 job over HTTP with 2 CLI workers "
        "(one SIGKILLed mid-job) matches the serial harness, identical "
        "resubmission served entirely from the result store, clean SIGTERM "
        "shutdown with no stranded lease; an embedded worker's cold job "
        f"waited {waited}s at poll=2.0",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
