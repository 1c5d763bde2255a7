"""The service phase: an in-process IseService driven by one closed-loop client.

One embedded worker serves a fresh local SweepDirectory, and one
ServiceClient sends a job, waits for it, fetches its result, and only then
sends the next:

1. one warm-up job, discarded — its claim also resets the worker's idle
   backoff;
2. cold jobs, back to back: distinct single-cell ``workload`` specs from the
   seeded mix, each a store miss — the store's write path (enqueue, claim,
   put).  ``ServiceClient.wait`` polls every 0.25 s by default, and a cell
   finishes well inside one tick, so a cold job takes about one tick;
3. cached jobs: resubmissions of the cold specs, answered from the store —
   its read path (probe, lookup).  Every cold spec is resubmitted once after
   each generation round, so that the samples span the whole run.

A cold job's time is the wait tick, which no host speed moves, so it is
reported in wall seconds.  A cached job's is CPU work in the client, the
server and the store, reported in reference seconds
(:mod:`isebench.hostspeed`): one run of the interpreter loop
:data:`~isebench.hostspeed.PYTHON` precedes each cached job on the client's
thread, and every job of a burst is scaled by the burst's median loop time.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.hwmodel import ISEConstraints
from repro.service import IseService, ServiceConfig
from repro.sweep import SweepDirectory
from repro.workloads import load_workload

from . import hostspeed
from .checks import row_problems, row_signature
from .inputs import WARMUP_JOB

#: Per-client request quota (rate and burst), a deployment setting: far
#: above any closed-loop rate, so the token bucket never shapes the numbers.
QUOTA = 1e6
CLIENT_ID = "perfbench"


def start_service(root: Path) -> IseService:
    config = ServiceConfig(quota_rps=QUOTA, quota_burst=QUOTA, local_workers=1)
    service = IseService(SweepDirectory(root), config)
    service.start()
    return service


@dataclass
class Job:
    spec: dict
    kind: str
    #: Wall interval from submit to result, ``time.perf_counter`` seconds.
    start: float
    end: float
    summary: dict
    rows: list
    problem: str | None = None
    #: Cached jobs: the median host-speed loop seconds of the job's burst.
    loop_s: float | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class ServicePhase:
    cold: list[Job] = field(default_factory=list)
    cached: list[Job] = field(default_factory=list)
    #: Jobs that raised: the client gave up retrying, or a 4xx.
    errors: list[str] = field(default_factory=list)
    #: Jobs sent, the warm-up included, whether or not they raised.
    attempted: int = 0


def run_job(client, spec: dict, kind: str, tracer, op: str) -> Job:
    """submit, wait, result — each route in its own span."""
    with tracer.span("service.job", op=op, kind=kind) as whole:
        with tracer.span("client.submit", op=op, kind=kind):
            summary = client.submit(spec)
        with tracer.span("client.wait", op=op, kind=kind):
            status = client.wait(summary["job_id"])
        with tracer.span("client.result", op=op, kind=kind):
            rows = client.result(summary["job_id"]).get("rows", [])
    job = Job(spec, kind, whole.start, whole.end, summary, rows)
    if status.get("state") != "done" or len(rows) != 1:
        job.problem = f"{kind} job ended {status.get('state')!r} with {len(rows)} row(s)"
    elif kind == "cold" and (summary["cached"], summary["enqueued"]) != (0, 1):
        job.problem = f"cold job did not miss the store: {summary}"
    elif kind == "cached" and (
        summary["cached"] != summary["total_cells"] or summary["enqueued"] != 0
    ):
        job.problem = f"resubmission was not answered from the store: {summary}"
    return job


def run_cold(client, mix: list[dict], count: int, tracer) -> ServicePhase:
    """The warm-up job, then the first *count* specs of *mix* as cold jobs."""
    phase = ServicePhase(attempted=1)
    try:
        run_job(client, WARMUP_JOB, "warmup", tracer, "warmup")
    except ReproError as error:
        phase.errors.append(f"warm-up job: {error}")
    for index, spec in enumerate(mix[:count]):
        phase.attempted += 1
        try:
            phase.cold.append(run_job(client, spec, "cold", tracer, f"cold{index}"))
        except ReproError as error:
            phase.errors.append(f"cold job {spec}: {error}")
    return phase


def run_cached(client, phase: ServicePhase, tracer) -> None:
    """Resubmit every cold spec once, each after one host-speed reading."""
    burst, readings = [], []
    for cold in phase.cold:
        op = f"cached{phase.attempted}"
        phase.attempted += 1
        readings.append(hostspeed.loop_s())
        try:
            job = run_job(client, cold.spec, "cached", tracer, op)
        except ReproError as error:
            phase.errors.append(f"cached job {cold.spec}: {error}")
            continue
        if job.problem is None and job.rows != cold.rows:
            job.problem = "cached rows differ from the cold job's rows"
        burst.append(job)
    for job in burst:
        job.loop_s = statistics.median(readings)
    phase.cached += burst


def row_mismatches(jobs: list[Job], reference: Callable[[dict], dict]) -> list[str]:
    """Each cold job's row must equal the same cell run in-process and carry
    only legal ISEs."""
    failures = []
    for job in jobs:
        if job.problem is not None:
            continue
        row = job.rows[0]
        if row_signature(row) != row_signature(reference(job.spec)):
            failures.append(f"served row differs from the in-process cell: {job.spec}")
            continue
        problems = row_problems(
            load_workload(job.spec["workload"]), row, ISEConstraints(**job.spec["constraints"])
        )
        if problems:
            failures.append(f"{job.spec}: {'; '.join(problems)}")
    return failures


def refusals(snapshot: dict) -> int:
    """429 and 503 answers — the client retries them without reporting."""
    return int(snapshot.get("http.status.429", 0)) + int(snapshot.get("http.status.503", 0))
