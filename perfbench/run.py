"""End-to-end benchmark of the ISEGEN reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload aes --seed 0 --seconds 32 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``aes``: ISEGEN and the quick Genetic baseline on the AES program;
* ``paper``: Exact, Iterative, Genetic and ISEGEN on the seven Figure-4
  programs.

Both run the same service phase: an in-process ``IseService`` driven by one
closed-loop client, cold single-cell jobs first, then cached resubmissions
after each generation round.  So every workload reports every end-to-end
metric: the algorithm metrics come from its in-process generation rounds,
the job latencies from the service phase.  The CPU-bound timings are in
reference seconds, scaled by the host speed sampled while they ran
(``isebench/hostspeed.py``): the shared host's own drift would otherwise
swamp the program's changes.
``--trace 1`` runs the same workload and seed untraced and then traced,
adds the per-layer probes, prints the per-layer metrics instead, and writes
its spans to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.  ``--smoke``
shrinks every workload to a few seconds (``perfbench/test_smoke.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
are the human-readable report.
"""

from __future__ import annotations

import argparse
import os
import sys

#: Environment knobs that would silently change what is measured.
MEASUREMENT_ENV = (
    "ISEGEN_TRACE",
    "ISEGEN_KERNEL",
    "ISEGEN_SCHEDULE",
    "ISEGEN_WORKLOAD_MEMO",
    "ISEGEN_SWEEP_SALT",
)


def seed_argument(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_known_args(argv)[0].seed


def main() -> int:
    root = os.getcwd()
    source = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a checkout", file=sys.stderr)
        return 2
    for name in MEASUREMENT_ENV:
        os.environ.pop(name, None)
    # String hashing is salted per process, and set iteration order with it:
    # the algorithms' answers do not depend on that order, but how much work
    # they do on the way can.  Derive the salt from the seed, so that two
    # runs of one seed do the same work and a held-out seed also sees a
    # different order.
    salt = str(seed_argument(sys.argv[1:]) % 2**32)
    if os.environ.get("PYTHONHASHSEED") != salt:
        os.environ["PYTHONHASHSEED"] = salt
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # Every measured loop is sequential (one call at a time; one closed-loop
    # client whose requests the service's threads answer in turn), so one CPU
    # suffices.  Pinning keeps the client, handler and worker threads from
    # waking each other across CPUs, which on a small shared VM adds more
    # run-to-run noise than the request itself costs.  The highest-numbered
    # CPU is the one least likely to also field device interrupts.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, source)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from isebench.main import run

    return run(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
