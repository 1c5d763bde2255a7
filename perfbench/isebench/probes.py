"""Per-layer probes: traced runs only, never inside a timed region.

Each probe isolates one layer's cost through a public entry point.  A probe
looks its entry points up first; when a refactor has removed one, the lookup
raises :class:`EntryPointGone`, that probe's metrics are reported as missing
and the run goes on.  Any other error is a bug and fails the run.
"""

from __future__ import annotations

import hashlib
import importlib
import random

from .stats import median

CORE_METRICS = ("core.bipartition_s", "core.state_toggle_us", "core.state_share")
SCORING_METRICS = ("genetic.score_us",)
SWEEP_METRICS = (
    "sweep.store_probe_ms",
    "sweep.store_lookup_ms",
    "sweep.queue_listing_ms",
    "sweep.queue_cycle_ms",
    "sweep.cell_ms",
)


class EntryPointGone(Exception):
    """A probe's entry point no longer exists."""


def lookup(module: str, *names: str) -> tuple:
    """``module.name`` for each of *names*."""
    try:
        imported = importlib.import_module(module)
        return tuple(getattr(imported, name) for name in names)
    except (ImportError, AttributeError) as error:
        raise EntryPointGone(f"{module}: {error}") from None


def require(owner, *methods: str) -> None:
    """*owner* (a class or an instance) still has each of *methods*."""
    missing = [name for name in methods if not hasattr(owner, name)]
    if missing:
        raise EntryPointGone(f"{getattr(owner, '__name__', type(owner).__name__)} has no {', '.join(missing)}")


def core(programs, constraints, tracer) -> dict[str, float]:
    """``bipartition`` of each program's largest block with the full node
    pool, then the committed toggles of its working cut replayed on a fresh
    ``PartitionState`` — the commit phase, apart from the gain sweep."""
    ISEGenConfig, PartitionState, bipartition = lookup(
        "repro.core", "ISEGenConfig", "PartitionState", "bipartition"
    )
    (resolve_kernel,) = lookup("repro.dfg", "resolve_kernel")
    require(PartitionState, "toggle")

    config = ISEGenConfig()
    kernel = resolve_kernel(config.kernel)
    bipartition_s = replay_s = 0.0
    toggles = 0
    for program in programs:
        dfg = program.largest_block.dfg
        with tracer.span("core.bipartition", op=f"probe:{program.name}") as span:
            result = bipartition(dfg, constraints, config)
        bipartition_s += span.seconds
        # The working cut persists across passes (the default, paper-exact
        # variant), so the passes' toggle orders in sequence are its whole
        # commit trajectory.
        order = [node for trace in result.passes for node in trace.toggle_order]
        state = PartitionState(dfg, constraints, kernel=kernel)
        with tracer.span("core.state_replay", op=f"probe:{program.name}", toggles=len(order)) as span:
            for node in order:
                state.toggle(node)
        replay_s += span.seconds
        toggles += len(order)
    metrics = {"core.bipartition_s": bipartition_s}
    if toggles:
        metrics["core.state_toggle_us"] = replay_s / toggles * 1e6
        metrics["core.state_share"] = replay_s / bipartition_s
    return metrics


def genetic_scoring(program, constraints, seed: int, samples: int, tracer) -> dict[str, float]:
    """Mean cost of scoring one new chromosome — ``merit`` +
    ``io_violation`` + ``convexity_violation_count`` on a fresh
    ``BitsetCutEvaluator`` — over a seeded sample of distinct masks of the
    program's largest block, drawn like the GA's random chromosomes."""
    (BitsetCutEvaluator,) = lookup("repro.core", "BitsetCutEvaluator")
    require(BitsetCutEvaluator, "merit", "io_violation", "convexity_violation_count")

    dfg = program.largest_block.dfg
    candidates = [
        index for index in range(dfg.num_nodes) if not dfg.node_by_index(index).forbidden
    ]
    rng = random.Random(f"scoring:{seed}")
    masks: dict[int, None] = {}
    for _draw in range(samples * 20):
        if len(masks) >= samples:
            break
        density = rng.uniform(0.05, 0.5)
        mask = 0
        for index in candidates:
            if rng.random() < density:
                mask |= 1 << index
        if mask:
            masks[mask] = None
    if not masks:
        return {}
    evaluator = BitsetCutEvaluator(dfg, constraints)
    with tracer.span("genetic.scoring", op="probe", samples=len(masks)) as span:
        for mask in masks:
            evaluator.merit(mask)
            evaluator.io_violation(mask)
            evaluator.convexity_violation_count(mask)
    return {"genetic.score_us": span.seconds / len(masks) * 1e6}


def sweep(directory, keys: list[str], reps: int, tracer) -> dict[str, float]:
    """The store's probe and lookup of one job's key, the queue's three
    listings, and one enqueue -> claim -> complete cycle — all through
    ``SweepDirectory.store``/``.queue``, after the embedded worker stopped."""
    (job,) = lookup("repro.parallel", "job")
    (run_workload_cell,) = lookup("repro.service", "run_workload_cell")
    (CellTask,) = lookup("repro.sweep", "CellTask")
    require(directory, "store", "queue")
    store, queue = directory.store, directory.queue
    require(store, "contains_many", "lookup_many", "record")
    require(
        queue, "failed_keys", "pending_keys", "claimed_keys", "enqueue", "claim_batch", "complete"
    )

    from .inputs import WARMUP_JOB

    probe, lookups, listing, cycle = [], [], [], []
    for key in keys:
        with tracer.span("sweep.store_probe", op=key) as span:
            store.contains_many([key])
        probe.append(span.seconds)
        with tracer.span("sweep.store_lookup", op=key) as span:
            store.lookup_many([key])
        lookups.append(span.seconds)
    for index in range(reps):
        with tracer.span("sweep.queue_listing", op=f"probe{index}") as span:
            queue.failed_keys()
            queue.pending_keys()
            queue.claimed_keys()
        listing.append(span.seconds)
    cell = job(
        run_workload_cell,
        WARMUP_JOB["workload"],
        WARMUP_JOB["algorithm"],
        WARMUP_JOB["constraints"],
        {},
    )
    for index in range(reps):
        key = hashlib.sha256(f"queue-probe-{index}".encode()).hexdigest()
        with tracer.span("sweep.queue_cycle", op=f"probe{index}") as span:
            queue.enqueue(CellTask(key, cell))
            for task in queue.claim_batch(1, worker="perfbench-probe"):
                queue.complete(task)
        cycle.append(span.seconds)
    runtimes = [store.record(key)["meta"]["runtime_s"] for key in keys]
    summaries = {
        "sweep.store_probe_ms": median(probe),
        "sweep.store_lookup_ms": median(lookups),
        "sweep.queue_listing_ms": median(listing),
        "sweep.queue_cycle_ms": median(cycle),
        "sweep.cell_ms": median(runtimes),
    }
    return {name: value * 1e3 for name, value in summaries.items() if value is not None}


def job_keys(service, specs: list[dict]) -> list[str]:
    """The store keys the service gave *specs* (one cell each)."""
    build_cells, validate_job = lookup("repro.service", "build_cells", "validate_job")
    (cell_key,) = lookup("repro.sweep", "cell_key")
    return [cell_key(build_cells(validate_job(spec))[0], service.jobs.salt) for spec in specs]
