"""Waking ``/wait`` on completion: the sweep directory's change signal.

A job whose cell a worker of this process finishes returns from its wait
at once; one finished by another process is seen within the poll
fallback; a completion that lands between the status check and the
wait is never lost; and a wake-up does not re-run the job's full status
check, however many cells and waiters there are.
"""

from __future__ import annotations

import json
import pickle
import threading
import time

from repro.service import IseService, ServiceClient, ServiceConfig
from repro.service.jobs import JobManager
from repro.sweep import SweepDirectory, worker_loop
from repro.sweep import orchestrator

CONVEN = {
    "workload": "conven00",
    "constraints": {"max_inputs": 2, "max_outputs": 1, "max_ises": 1},
}


def test_cold_job_wait_wakes_before_the_poll_tick(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    with IseService(directory, ServiceConfig(local_workers=1)) as running:
        client = ServiceClient(running.endpoint, client_id="alice")
        summary = client.submit(CONVEN)
        assert summary["enqueued"] == 1  # a store miss: the cell must run
        started = time.monotonic()
        status = client.wait(summary["job_id"], timeout=30, poll=2.0)
        elapsed = time.monotonic() - started
        client.close()
    assert status["state"] == "done"
    # A poll-only wait re-checks after its first 2 s tick at the earliest.
    assert elapsed < 1.0, f"wait took {elapsed:.3f}s"
    record = json.loads(
        directory.storage.sub("service").sub("jobs").sub("alice")
        .get_text(f"{summary['job_id']}.json")
    )
    meta = directory.store.record(record["keys"][0])["meta"]
    assert 0.0 <= meta["queue_wait_s"] < 1.0  # stamped by JobManager.submit


def test_completion_by_another_process_is_seen_within_the_poll_fallback(tmp_path):
    """A second SweepDirectory over the same root shares no in-process
    signal, like a CLI worker in another process."""
    waiter = SweepDirectory(tmp_path / "sweep")
    manager = JobManager(waiter)
    job_id = manager.submit("alice", CONVEN)["job_id"]
    generation = waiter.generation
    finished: list[float] = []

    def remote_worker():
        time.sleep(0.2)  # the wait is already blocked
        worker_loop(
            SweepDirectory(tmp_path / "sweep"),
            on_task=lambda task: finished.append(time.monotonic()),
        )

    thread = threading.Thread(target=remote_worker)
    thread.start()
    status = manager.wait("alice", job_id, timeout=30, poll_interval=0.3)
    returned = time.monotonic()
    thread.join(timeout=30)
    assert status["state"] == "done" and not status["timed_out"]
    assert waiter.generation == generation  # nothing signalled this object
    assert returned - finished[0] < 0.3 + 0.5


def test_completion_between_status_and_wait_is_not_lost(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    manager = JobManager(directory)
    job_id = manager.submit("alice", CONVEN)["job_id"]
    status = manager._status
    calls: list[str] = []

    def status_then_complete(job, record):
        result = status(job, record)
        if not calls:
            # The cell finishes after the check saw it queued and before
            # the wait starts: the wait must return at once, not after
            # its 5 s poll interval.
            assert result[0]["state"] == "queued"
            worker_loop(directory)
        calls.append(result[0]["state"])
        return result

    manager._status = status_then_complete
    final = manager.wait("alice", job_id, timeout=10, poll_interval=5.0)
    assert final["state"] == "done"
    assert calls == ["queued", "done"]
    assert final["waited_s"] < 1.0


def test_wake_ups_do_not_rerun_the_status_check(tmp_path):
    """Each completion wakes every waiter, but a waiter reads only the
    signal's log of stored cells: the full status check (queue listings,
    lease recovery, store probe) runs once at the start and once when the
    job is done, not once per cell per waiter."""
    directory = SweepDirectory(tmp_path / "sweep")
    manager = JobManager(directory)
    grid = {
        "sweep": "figure6",
        "options": {
            "workload": "conven00",
            "io_sweep": [[2, 1], [4, 2]],
            "nise_values": [1],
        },
    }
    job_id = manager.submit("alice", grid)["job_id"]
    status = manager._status
    checks: list[str] = []
    checks_lock = threading.Lock()
    waiters = 3
    all_blocked = threading.Barrier(waiters + 1)

    def counted(job, record):
        result = status(job, record)
        with checks_lock:
            checks.append(result[0]["state"])
            first = len(checks) <= waiters
        if first:
            all_blocked.wait(timeout=10)
        return result

    manager._status = counted
    finals: list[dict] = []
    threads = [
        threading.Thread(
            target=lambda: finals.append(
                manager.wait("alice", job_id, timeout=30, poll_interval=30.0)
            )
        )
        for _ in range(waiters)
    ]
    for thread in threads:
        thread.start()
    all_blocked.wait(timeout=10)  # every waiter has run its first check
    assert worker_loop(directory, exit_when_idle=True).executed == 4
    for thread in threads:
        thread.join(timeout=30)
    assert [final["state"] for final in finals] == ["done"] * waiters
    assert sorted(checks) == ["done"] * waiters + ["queued"] * waiters


def test_stored_log_reports_only_announced_cells(tmp_path, monkeypatch):
    monkeypatch.setattr(orchestrator, "STORED_LOG", 2)
    directory = SweepDirectory(tmp_path / "sweep")
    directory.notify_change()  # an enqueue names no stored cell
    assert directory.stored_since(0) == (1, set())
    directory.notify_change(["a"])
    directory.notify_change(["b"])
    assert directory.stored_since(1) == (3, {"a", "b"})
    assert directory.stored_since(2) == (3, {"b"})
    directory.notify_change(["c"])  # "a" is trimmed off the log
    assert directory.stored_since(1) == (4, None)  # the waiter must check
    assert directory.stored_since(2) == (4, {"b", "c"})


def test_wait_for_change_honours_a_bare_stop_event(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    stop = threading.Event()
    threading.Timer(0.1, stop.set).start()
    started = time.monotonic()
    directory.wait_for_change(directory.generation, 5.0, stop)
    assert time.monotonic() - started < 1.0


def test_the_signal_is_process_local_and_never_pickled(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    directory.notify_change(["a"])
    copy = pickle.loads(pickle.dumps(directory))
    assert copy.root == directory.root and copy.generation == 0
    assert copy.stored_since(0) == (0, set())
    copy.notify_change()  # a working signal of its own
    assert copy.generation == 1 and directory.generation == 1
    assert copy._changed is not directory._changed
