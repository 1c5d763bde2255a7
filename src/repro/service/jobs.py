"""Job lifecycle over the sweep substrate: submit → queue → store → rows.

:class:`JobManager` is the service's stateful core, and it owns **no
execution**: submission enqueues cells on the sweep directory's
:class:`~repro.sweep.filequeue.QueueBackend` (``file://`` or ``s3://`` —
whatever worker fleet is attached), and results are read straight from
the content-addressed :class:`~repro.sweep.store.ResultStore`.

Job records are tiny JSON blobs under the sweep storage backend::

    service/jobs/<client>/<job_id>.json

— one namespace per client via :meth:`StorageBackend.sub`, so a client
can only ever address its own job records.  The *result cache* is the
shared store underneath: cell identity is a content hash of (function,
arguments, code-version salt), so two clients submitting the same spec
share one computation — cross-tenant dedup is the point of content
addressing, and job records (what was submitted, when, by whom) stay
private per namespace.

A resubmitted spec maps onto already-stored keys: ``submit`` reports
``cached == total`` and enqueues nothing; ``result`` is served entirely
from the store.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time

from ..sweep.costmodel import cost_key
from ..sweep.filequeue import CellTask
from ..sweep.hashing import cell_key, qualified_name, sweep_salt
from ..sweep.orchestrator import CachedExecutor, MissingCellsError, SweepDirectory
from ..sweep.registry import sweep_spec
from ..sweep.storage import StorageBackend
from .jobspec import JobSpec, ServiceError, build_cells, validate_job

#: Client identifiers are storage path segments — keep them boring.
CLIENT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
DEFAULT_CLIENT = "public"

#: Terminal job states (long-poll returns as soon as one is reached).
TERMINAL_STATES = ("done", "failed")

#: Upper bound on records returned by a job listing.
MAX_LISTED_JOBS = 200

#: Upper bound on the per-client record namespaces a manager keeps built.
MAX_CACHED_SPACES = 1024


def check_client(client: str) -> str:
    """Validate an ``X-Client`` namespace id (it becomes a storage path)."""
    if not isinstance(client, str) or not CLIENT_RE.match(client):
        raise ServiceError(
            "invalid client id: need 1-64 chars of [A-Za-z0-9._-] "
            "starting with an alphanumeric"
        )
    return client


class JobManager:
    """Submit, track, and collect service jobs on one sweep directory."""

    def __init__(
        self,
        directory: SweepDirectory,
        *,
        salt: str | None = None,
        clock=time.time,
    ):
        self.directory = directory
        self.salt = salt if salt is not None else sweep_salt()
        self.clock = clock
        self._jobs = directory.storage.sub("service").sub("jobs")
        #: Per-client record namespaces, oldest first (built once each:
        #: a local backend's constructor makes its directory).
        self._spaces: dict[str, StorageBackend] = {}
        self._spaces_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    @staticmethod
    def _record_key(job_id: str) -> str:
        return f"{job_id}.json"

    def _space(self, client: str) -> StorageBackend:
        # Handler threads share the memo: evicting iterates it.
        with self._spaces_lock:
            space = self._spaces.get(client)
            if space is None:
                space = self._jobs.sub(check_client(client))
                if len(self._spaces) >= MAX_CACHED_SPACES:
                    del self._spaces[next(iter(self._spaces))]
                self._spaces[client] = space
        return space

    def _load(self, client: str, job_id: str) -> dict:
        if not re.fullmatch(r"[0-9a-f]{16}", job_id or ""):
            raise ServiceError(f"malformed job id {job_id!r}", status=404)
        try:
            return json.loads(self._space(client).get_text(self._record_key(job_id)))
        except KeyError:
            raise ServiceError(
                f"no job {job_id!r} for client {client!r}", status=404
            ) from None

    # ------------------------------------------------------------------
    # Submit
    # ------------------------------------------------------------------
    def submit(self, client: str, payload) -> dict:
        """Validate *payload*, enqueue its uncached cells, write the record.

        The cache probe is one batched store listing
        (:meth:`ResultStore.contains_many`), so a fully cached
        resubmission costs a single round trip and enqueues nothing.
        """
        client = check_client(client)
        spec = validate_job(payload)
        cells = build_cells(spec)
        keys = [cell_key(cell, self.salt) for cell in cells]
        unique = list(dict.fromkeys(keys))
        stored = self.directory.store.contains_many(unique)
        failed_keys = set(self.directory.queue.failed_keys())
        cached = enqueued = already_queued = parked = 0
        seen: set[str] = set()
        for key, cell in zip(keys, cells):
            if key in seen:
                continue
            seen.add(key)
            if key in stored:
                cached += 1
                continue
            if key in failed_keys:
                parked += 1
                continue
            task = CellTask(
                key,
                cell,
                meta={
                    "func": qualified_name(cell.func),
                    "salt": self.salt,
                    "cost_key": cost_key(cell),
                },
            )
            if self.directory.queue.enqueue(task):
                enqueued += 1
            else:
                already_queued += 1
        job_id = os.urandom(8).hex()
        record = {
            "id": job_id,
            "client": client,
            "kind": spec.kind,
            "spec": spec.spec,
            "describe": spec.describe(),
            "salt": self.salt,
            "created_at": self.clock(),
            "keys": keys,
            "total_cells": len(unique),
            "cached_at_submit": cached,
            "enqueued": enqueued,
        }
        self._space(client).put_text(self._record_key(job_id), json.dumps(record))
        return {
            "job_id": job_id,
            "kind": spec.kind,
            "describe": spec.describe(),
            "total_cells": len(unique),
            "cached": cached,
            "enqueued": enqueued,
            "already_queued": already_queued,
            "parked_failed": parked,
            "status_url": f"/v1/jobs/{job_id}",
            "result_url": f"/v1/jobs/{job_id}/result",
        }

    # ------------------------------------------------------------------
    # Status / wait
    # ------------------------------------------------------------------
    def status(self, client: str, job_id: str) -> dict:
        """Done/pending/claimed/failed counts for one job's cells.

        Piggybacks the queue's expired-lease recovery scan (exactly like
        ``sweep status``), so a dead worker's cells return to pending even
        when no worker is polling.
        """
        record = self._load(client, job_id)
        keys = set(record["keys"])
        self.directory.queue.requeue_expired()
        done = len(self.directory.store.contains_many(list(keys)))
        pending = len(keys & set(self.directory.queue.pending_keys()))
        claimed = len(keys & set(self.directory.queue.claimed_keys()))
        failed = sorted(keys & set(self.directory.queue.failed_keys()))
        if done == len(keys):
            state = "done"
        elif failed:
            state = "failed"
        elif claimed:
            state = "running"
        else:
            state = "queued"
        failures = []
        for key in failed:
            try:
                detail = self.directory.queue.failure(key)
            except Exception:  # noqa: BLE001 - diagnostics must not fail status
                detail = None
            failures.append({"key": key, "detail": detail})
        status = {
            "job_id": job_id,
            "kind": record["kind"],
            "describe": record["describe"],
            "state": state,
            "created_at": record["created_at"],
            "total_cells": record["total_cells"],
            "done": done,
            "pending": pending,
            "claimed": claimed,
            "failed": len(failed),
        }
        if failures:
            status["failures"] = failures
        return status

    def wait(
        self,
        client: str,
        job_id: str,
        *,
        timeout: float,
        poll_interval: float = 0.25,
        sleep=time.sleep,
    ) -> dict:
        """Long-poll: block until the job reaches a terminal state.

        Returns the final status dict plus ``waited_s`` and ``timed_out``
        — a timeout is a normal 200 whose body says the job is still
        going, not an error.
        """
        started = time.monotonic()
        while True:
            status = self.status(client, job_id)
            waited = time.monotonic() - started
            if status["state"] in TERMINAL_STATES or waited >= timeout:
                status["waited_s"] = round(waited, 3)
                status["timed_out"] = status["state"] not in TERMINAL_STATES
                return status
            sleep(min(poll_interval, max(0.0, timeout - waited)))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self, client: str, job_id: str) -> dict:
        """Assemble the job's result purely from stored cell records.

        Sweep jobs replay the registry harness over the cache (the same
        :func:`~repro.sweep.orchestrator.collect` mechanics), so their
        tables are row-for-row identical to the serial harness.  Cell
        jobs return their rows in submission order.  Incomplete jobs are
        a 409 naming the missing-cell count.
        """
        record = self._load(client, job_id)
        keys = record["keys"]
        if record["kind"] == "sweep":
            spec = sweep_spec(record["spec"]["sweep"])
            executor = CachedExecutor(
                self.directory.store, backend=None, salt=record["salt"]
            )
            try:
                tables = spec.build(
                    executor,
                    **spec.normalize_options(record["spec"]["options"]),
                )
            except MissingCellsError as error:
                raise ServiceError(
                    f"job {job_id} is not complete: {error}", status=409
                ) from error
            payload = [
                {
                    "name": table.name,
                    "description": table.description,
                    "meta": table.meta,
                    "rows": table.rows,
                }
                for table in tables
            ]
            cells_served = len(set(keys))
            body = {"tables": payload}
        else:
            found = dict(self.directory.store.lookup_many(list(dict.fromkeys(keys))))
            missing = [key for key in keys if key not in found]
            if missing:
                raise ServiceError(
                    f"job {job_id} is not complete: {len(missing)} of "
                    f"{len(keys)} cell(s) have no stored result yet",
                    status=409,
                )
            cells_served = len(found)
            body = {"rows": [found[key] for key in keys]}
        body.update(
            {
                "job_id": job_id,
                "kind": record["kind"],
                "describe": record["describe"],
                "total_cells": record["total_cells"],
                "served_from_store": cells_served,
            }
        )
        return body

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------
    def list_jobs(self, client: str) -> dict:
        space = self._space(client)
        records = []
        for key in space.list_keys():
            if not key.endswith(".json") or "/" in key:
                continue
            try:
                record = json.loads(space.get_text(key))
            except (KeyError, ValueError):
                continue
            records.append(
                {
                    "job_id": record.get("id"),
                    "kind": record.get("kind"),
                    "describe": record.get("describe"),
                    "created_at": record.get("created_at"),
                    "total_cells": record.get("total_cells"),
                }
            )
        records.sort(key=lambda item: item.get("created_at") or 0.0, reverse=True)
        truncated = len(records) > MAX_LISTED_JOBS
        return {
            "client": client,
            "jobs": records[:MAX_LISTED_JOBS],
            "truncated": truncated,
        }


__all__ = [
    "DEFAULT_CLIENT",
    "JobManager",
    "JobSpec",
    "MAX_LISTED_JOBS",
    "TERMINAL_STATES",
    "check_client",
]
