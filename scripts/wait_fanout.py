"""Wake-up fan-out: one many-cell job, several concurrent ``/wait`` clients.

Starts ``repro serve --local-workers 2`` on a fresh directory, submits a
figure6 grid over ``conven00`` (28 I/O pairs x 2 N_ISE x 2 algorithms =
112 cells of 5-85 ms each), and has ``--waiters`` threads long-poll the
job at once.  Every completion wakes every waiter, so this is where the
cost of what a waiter does on waking shows.  Prints one JSON line per
repetition: the job's wall time from submit to the last waiter seeing
``done``.

With ``--queue s3`` the store and the queue live on an in-repo
``FakeObjectServer`` (a subprocess), where every listing is an HTTP LIST.

Usage::

    PYTHONPATH=src python scripts/wait_fanout.py --waiters 8 [--queue s3]
        [--reps 4] [--workdir DIR]

Compare two checkouts by running each one's copy of this script.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.service import ServiceClient  # noqa: E402

GRID = {
    "sweep": "figure6",
    "options": {
        "workload": "conven00",
        "io_sweep": [[i, o] for i in range(2, 9) for o in range(1, 5)],
        "nise_values": [1, 2],
    },
}
#: A one-cell job run first, so imports and workload builds are warm.
WARM_UP = {
    "workload": "conven00",
    "constraints": {"max_inputs": 2, "max_outputs": 1, "max_ises": 1},
}


def start(command: list[str], env: dict, pattern: str) -> tuple[subprocess.Popen, str]:
    """Launch *command*; return it and the first match of *pattern* in its output."""
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    for line in process.stdout:
        match = re.search(pattern, line)
        if match:
            threading.Thread(target=process.stdout.read, daemon=True).start()
            return process, match.group(1)
    raise SystemExit(f"{command[3]} exited before announcing its endpoint")


def run_once(workdir: Path, waiters: int, queue: str, env: dict) -> dict:
    processes = []
    extra: list[str] = []
    try:
        if queue == "s3":
            store, endpoint = start(
                [sys.executable, "-u", "-m", "repro.sweep.objectstore", "--port", "0"],
                env,
                r"listening on (http://\S+)",
            )
            processes.append(store)
            env = {**env, "ISEGEN_S3_ENDPOINT": endpoint}
            extra = ["--store-url", "s3://fanout/store", "--queue-url", "s3://fanout/queue"]
        server, url = start(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve", "--dir", str(workdir),
                "--port", "0", "--local-workers", "2", "--quota-rps", "5000",
                "--quota-burst", "10000", *extra,
            ],
            env,
            r"serving ISE generation on (http://\S+)",
        )
        processes.append(server)
        client = ServiceClient(url, client_id="fanout")
        client.wait(client.submit(WARM_UP)["job_id"], timeout=120)
        started = time.perf_counter()
        job = client.submit(GRID)
        finished: list[tuple[float, str]] = []

        def wait() -> None:
            status = ServiceClient(url, client_id="fanout").wait(job["job_id"], timeout=600)
            finished.append((time.perf_counter() - started, status["state"]))

        threads = [threading.Thread(target=wait) for _ in range(waiters)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {
            "queue": queue,
            "waiters": waiters,
            "cells": job["total_cells"],
            "wall_s": round(max(seconds for seconds, _ in finished), 3),
            "states": sorted({state for _, state in finished}),
        }
    finally:
        for process in processes:
            process.terminate()
            process.wait(timeout=60)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--waiters", type=int, default=8)
    parser.add_argument("--queue", choices=("file", "s3"), default="file")
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory(dir=args.workdir) as workroot:
        for rep in range(args.reps):
            result = run_once(Path(workroot) / str(rep), args.waiters, args.queue, env)
            print(json.dumps({"rep": rep, **result}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
