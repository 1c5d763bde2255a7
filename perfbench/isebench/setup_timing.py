"""``setup_s``: the program's set-up, timed in fresh interpreters.

Each sample is one child process (``run.py --setup-probe``).  The child
imports everything first — untimed, so neither bytecode compilation nor
module loading is counted — clears the workload memo, then times:

* ``workloads.build``: ``load_workload`` of every program of the workload;
* ``dfg.prepare``: ``dfg_from_dict`` (which prepares) of the generated blocks;
* ``dfg.kernel_resolve``: the first ``resolve_kernel("auto")``, numpy's
  lazy import;
* ``dfg.index_build``: ``bitset_index()`` of every block;
* ``service.start``: ``IseService.start()`` until ``/v1/health`` answers
  (every workload runs the service phase).

The renumbering between the first two phases is the benchmark generating
its inputs, so it is not timed.  A sample's total is in reference seconds,
scaled by the host speed sampled every :data:`SAMPLE_PERIOD_S` while the
child sets up.  The sampler runs the interpreter loop
:data:`isebench.hostspeed.PYTHON`, since the numpy loop would import numpy
before the timed import.  ``setup_s`` is the median total over the samples.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from repro.dfg import resolve_kernel
from repro.service import ServiceClient
from repro.workloads import load_workload
from repro.workloads.registry import clear_workload_memo

from . import serving
from .hostspeed import PYTHON, HostSpeed
from .inputs import block_inputs, program_from_inputs

RUN_SCRIPT = Path(__file__).resolve().parents[1] / "run.py"
#: A set-up probe running past this is broken, not slow.
PROBE_TIMEOUT_S = 120
#: The set-up takes about 0.1 s, so the host speed is sampled faster than
#: during the measured window: a dozen samples, a few percent of its time.
SAMPLE_PERIOD_S = 0.005


def probe(programs: tuple[str, ...], seed: int, work: Path) -> dict:
    """Child side: time one set-up; ``{"phases": {name: [start, end]},
    "loop_s": host-speed loop seconds}``."""
    clear_workload_memo()
    with HostSpeed(PYTHON, SAMPLE_PERIOD_S) as speed:
        phases = _phases(programs, seed, work)
    first = min(start for start, _ in phases.values())
    last = max(end for _, end in phases.values())
    return {"phases": phases, "loop_s": speed.loop_s(first, last, pad=0.0)}


def _phases(programs: tuple[str, ...], seed: int, work: Path) -> dict:
    clock = time.perf_counter
    phases = {}
    start = clock()
    built = [load_workload(name) for name in programs]
    phases["workloads.build"] = (start, clock())
    blocks = [block_inputs(program, seed) for program in built]
    start = clock()
    generated = [
        program_from_inputs(program.name, program_blocks)
        for program, program_blocks in zip(built, blocks)
    ]
    phases["dfg.prepare"] = (start, clock())
    start = clock()
    resolve_kernel("auto")
    phases["dfg.kernel_resolve"] = (start, clock())
    start = clock()
    for program in generated:
        for block in program:
            block.dfg.bitset_index()
    phases["dfg.index_build"] = (start, clock())
    start = clock()
    service = serving.start_service(work)
    try:
        ServiceClient(service.endpoint, client_id=serving.CLIENT_ID).health()
        phases["service.start"] = (start, clock())
    finally:
        service.stop()
    return phases


def sample(workload: str, seed: int, smoke: bool, root: Path, work: Path) -> dict:
    """Parent side: one :func:`probe` in a child process."""
    command = [
        sys.executable, str(RUN_SCRIPT), "--setup-probe",
        "--workload", workload, "--seed", str(seed), "--work", str(work),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=root, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr.strip()[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def total_s(sample: dict) -> float:
    """The sample's set-up time in reference seconds."""
    wall = sum(end - start for start, end in sample["phases"].values())
    return wall * PYTHON.seconds / sample["loop_s"]
