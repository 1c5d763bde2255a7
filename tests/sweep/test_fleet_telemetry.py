"""Fleet telemetry: per-worker JSONL logs, status requeue surfacing,
cross-worker aggregation, and the ``sweep status --telemetry`` view."""

from __future__ import annotations

import json
import time

from repro.cli import main
from repro.parallel import job
from repro.sweep import (
    CellTask,
    SweepDirectory,
    cell_key,
    fleet_telemetry,
    format_fleet_lines,
    status,
    submit,
    worker_loop,
)
from repro.telemetry import StorageSink, spans, storage_logs
from repro.telemetry.report import parse_event_lines


def _double(value):
    return value * 2


def _boom(value):
    raise RuntimeError(f"boom {value}")


def _fail_first(marker):
    """Raise on the first call for *marker* (a path), succeed after."""
    try:
        open(marker, "x").close()
    except FileExistsError:
        return "ok"
    raise RuntimeError("first attempt fails")


def _enqueue(directory, cell):
    directory.queue.enqueue(CellTask(cell_key(cell), cell))


def test_worker_writes_cell_spans_to_storage(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    _enqueue(directory, job(_double, 1))
    _enqueue(directory, job(_double, 2))
    report = worker_loop(directory, poll_interval=0.01, worker="host-a")
    assert report.executed == 2

    storage = directory.storage.sub("telemetry")
    assert storage.list_keys() == ["host-a.jsonl"]
    events, skipped = parse_event_lines(storage.get_text("host-a.jsonl").splitlines())
    assert skipped == 0
    spans = [e for e in events if e["type"] == "span" and e["name"] == "sweep.cell"]
    assert len(spans) == 2
    assert all(s["attrs"]["attempt"] == 1 for s in spans)
    names = [e["name"] for e in events if e["type"] == "event"]
    assert names[0] == "worker.start" and names[-1] == "worker.exit"


def test_failed_cells_flag_error_spans_and_events(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep", max_attempts=1)
    _enqueue(directory, job(_boom, 1))
    report = worker_loop(directory, poll_interval=0.01, worker="host-a")
    assert report.failed == 1

    (telem,) = fleet_telemetry(directory)
    assert telem.worker == "host-a"
    assert telem.cells == 1 and telem.failed == 1
    storage = directory.storage.sub("telemetry")
    events, _ = parse_event_lines(storage.get_text("host-a.jsonl").splitlines())
    failures = [e for e in events if e["type"] == "event" and e["name"] == "cell.failed"]
    assert len(failures) == 1
    assert "boom 1" in failures[0]["attrs"]["error"]


def test_fleet_aggregates_across_two_workers(tmp_path):
    """Satellite: cross-process aggregation — two workers, two telemetry
    blobs, one merged fleet view (plus `trace summary` over the same logs)."""
    directory = SweepDirectory(tmp_path / "sweep")
    for value in range(4):
        _enqueue(directory, job(_double, value))
    first = worker_loop(directory, poll_interval=0.01, worker="host-a", max_tasks=2)
    second = worker_loop(directory, poll_interval=0.01, worker="host-b")
    assert first.executed == 2 and second.executed == 2

    fleet = fleet_telemetry(directory)
    assert [telem.worker for telem in fleet] == ["host-a", "host-b"]
    assert sum(telem.cells for telem in fleet) == 4
    assert all(telem.failed == 0 for telem in fleet)
    assert all(telem.exited for telem in fleet)
    assert all(telem.cell_seconds.count == telem.cells for telem in fleet)

    lines = format_fleet_lines(fleet)
    assert "2 worker(s), 4 cell span(s)" in lines[0]
    assert any("host-a" in line and "2 cell(s)" in line for line in lines)
    assert any("host-b" in line for line in lines)


def test_status_surfaces_expired_lease_worker(tmp_path):
    """Satellite: ``sweep status`` names the worker whose lease expired
    mid-cell and counts the requeue."""
    directory = SweepDirectory(tmp_path / "sweep", lease_seconds=0.05)
    submit(directory, "figure1")
    stuck = directory.queue.claim("dead-host-7")
    assert stuck is not None
    time.sleep(0.06)
    first = status(directory, "figure1")
    assert first.requeued == 1
    (detail,) = first.requeue_details
    assert detail["worker"] == "dead-host-7"
    assert detail["reason"] == "lease-expired"
    assert "dead-host-7" in first.summary()
    assert "requeued 1 expired lease(s)" in first.summary()
    # The scan already recovered the cell; a second status is clean.
    assert status(directory, "figure1").requeued == 0


def test_requeue_details_cover_orphaned_claims(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep", lease_seconds=0.05)
    _enqueue(directory, job(_double, 1))
    stuck = directory.queue.claim("dead-host")
    assert stuck is not None
    # Worker died between claiming and writing its lease.
    (directory.queue.leases_dir / f"{stuck.key}.json").unlink(missing_ok=True)
    time.sleep(0.06)
    details: list = []
    requeued = directory.queue.requeue_expired(details=details)
    assert requeued == [stuck.key]  # return type unchanged: plain key list
    (detail,) = details
    assert detail["reason"] == "orphaned-claim"
    assert detail["worker"] is None


def test_recovering_worker_logs_requeue_event(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep", lease_seconds=0.05)
    _enqueue(directory, job(_double, 5))
    stuck = directory.queue.claim("dead-host-9")
    assert stuck is not None
    time.sleep(0.06)
    worker_loop(directory, poll_interval=0.01, worker="live-host")
    fleet = {telem.worker: telem for telem in fleet_telemetry(directory)}
    assert fleet["live-host"].requeues_recovered == 1
    assert fleet["live-host"].cells == 1
    # The dead worker appears in the fleet view purely as a lease loser.
    assert fleet["dead-host-9"].leases_lost == 1
    assert fleet["dead-host-9"].last_ts is None
    lines = format_fleet_lines(fleet_telemetry(directory))
    assert any("dead-host-9" in line and "presumed dead" in line for line in lines)


def test_cli_sweep_status_telemetry_flag(tmp_path, capsys):
    directory = SweepDirectory(tmp_path / "sweep")
    submit(directory, "figure1")
    worker_loop(directory, poll_interval=0.01, worker="cli-host")
    code = main(["sweep", "status", "figure1", "--dir", str(tmp_path / "sweep"), "--telemetry"])
    assert code == 0
    output = capsys.readouterr().out
    assert "complete" in output
    assert "fleet telemetry: 1 worker(s)" in output
    assert "cli-host" in output
    assert "cells/min" in output
    assert "cell p50" in output

    # Without the flag the fleet block is absent.
    code = main(["sweep", "status", "figure1", "--dir", str(tmp_path / "sweep")])
    assert code == 0
    assert "fleet telemetry" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# Segmented logs and queue wait
# ----------------------------------------------------------------------
def test_fleet_totals_span_segment_rolls(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "SEGMENT_LINES", 4)
    directory = SweepDirectory(tmp_path / "sweep")
    for value in range(7):
        _enqueue(directory, job(_double, value))
    worker_loop(directory, poll_interval=0.01, worker="host-a", claim_batch=1)

    storage = directory.storage.sub("telemetry")
    logs = storage_logs(storage)
    assert list(logs) == ["host-a.jsonl"]
    segments = logs["host-a.jsonl"]
    assert segments[0] == "host-a.jsonl" and segments[1] == "host-a/000001.jsonl"
    written = [line for key in segments for line in storage.get_text(key).splitlines()]
    # worker.start, a queue.claimed event and a sweep.cell span per cell,
    # worker.exit: every event once, in order, across the segments.
    assert len(written) == 2 + 2 * 7
    assert len(segments) == -(-len(written) // 4)
    assert all(len(storage.get_text(key).splitlines()) <= 4 for key in segments)
    events, skipped = parse_event_lines(written)
    assert skipped == 0
    assert events[0]["name"] == "worker.start" and events[-1]["name"] == "worker.exit"

    (telem,) = fleet_telemetry(directory)
    assert telem.cells == 7 and telem.cell_seconds.count == 7
    assert telem.exited


def test_a_new_sink_replaces_the_old_log_of_its_key(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "SEGMENT_LINES", 2)
    storage = SweepDirectory(tmp_path / "sweep").storage.sub("telemetry")
    StorageSink(storage, "host-a.jsonl").write_lines([f"{n}" for n in range(7)])
    assert len(storage_logs(storage)["host-a.jsonl"]) == 4
    StorageSink(storage, "host-a.jsonl").write_lines(["fresh"])
    assert storage_logs(storage) == {"host-a.jsonl": ["host-a.jsonl"]}
    assert storage.get_text("host-a.jsonl") == "fresh\n"


def test_legacy_single_blob_log_still_parses(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "SEGMENT_LINES", 4)
    directory = SweepDirectory(tmp_path / "sweep")
    lines = [
        json.dumps({"type": "span", "name": "sweep.cell", "ts": 100.0 + n, "dur": 0.5})
        for n in range(10)
    ]
    lines.append(json.dumps({"type": "event", "name": "worker.exit", "ts": 200.0}))
    directory.storage.sub("telemetry").put_text("old-host.jsonl", "\n".join(lines) + "\n")
    (telem,) = fleet_telemetry(directory)
    assert telem.worker == "old-host"
    assert telem.cells == 10 and telem.exited
    assert telem.queue_wait_seconds.count == 0


def test_queue_wait_on_store_record_span_and_status(tmp_path, capsys):
    directory = SweepDirectory(tmp_path / "sweep")
    report = submit(directory, "figure1")
    worker_loop(directory, poll_interval=0.01, worker="host-a")

    manifest = directory.load_manifest("figure1")
    for key in manifest["keys"]:
        meta = directory.store.record(key)["meta"]
        assert meta["queue_wait_s"] >= 0.0
        assert meta["enqueued_at"] <= time.time()
    storage = directory.storage.sub("telemetry")
    events, _ = parse_event_lines(storage.get_text("host-a.jsonl").splitlines())
    cells = [e for e in events if e["type"] == "span" and e["name"] == "sweep.cell"]
    assert len(cells) == report.enqueued
    assert all(cell["attrs"]["queue_wait_s"] >= 0.0 for cell in cells)

    (telem,) = fleet_telemetry(directory)
    assert telem.queue_wait_seconds.count == report.enqueued
    code = main(["sweep", "status", "figure1", "--dir", str(tmp_path / "sweep"), "--telemetry"])
    assert code == 0
    assert "queue wait p50" in capsys.readouterr().out


def test_queue_wait_is_recorded_for_the_first_attempt_only(tmp_path):
    """A retried task keeps its first enqueue stamp; its wait would also
    count the failed attempt, so it records none."""
    directory = SweepDirectory(tmp_path / "sweep")
    cell = job(_fail_first, str(tmp_path / "marker"))
    key = cell_key(cell)
    directory.queue.enqueue(CellTask(key, cell, meta={"enqueued_at": time.time() - 100.0}))
    report = worker_loop(directory, poll_interval=0.01, worker="host-a")
    assert report.executed == 1 and report.failed == 1
    assert "queue_wait_s" not in directory.store.record(key)["meta"]

    storage = directory.storage.sub("telemetry")
    events, _ = parse_event_lines(storage.get_text("host-a.jsonl").splitlines())
    spans_by_attempt = {
        e["attrs"]["attempt"]: e["attrs"]
        for e in events
        if e["type"] == "span" and e["name"] == "sweep.cell"
    }
    assert spans_by_attempt[1]["queue_wait_s"] >= 100.0
    assert "queue_wait_s" not in spans_by_attempt[2]
