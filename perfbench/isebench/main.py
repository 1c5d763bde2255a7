"""One benchmark run: set-up timing, the measured window, checks, report.

Every run has the same shape, so every workload reports every end-to-end
metric:

1. set-up: ``setup_s``, timed in fresh child processes
   (:mod:`isebench.setup_timing`);
2. the measured window of ``--seconds``: an in-process service answers a
   warm-up job and a fixed number of cold jobs (:mod:`isebench.serving`);
   then the workload's generation rounds run (:mod:`isebench.generation`),
   each round followed by one cached resubmission of every cold job, so that
   the rounds and the cached samples both span the rest of the window.  The
   host's speed is sampled throughout, and the CPU-bound timings are
   reported in reference seconds (:mod:`isebench.hostspeed`);
3. checks: every emitted ISE and every served row, re-checked outside the
   timed regions (:mod:`isebench.checks`); each mismatch is a failed
   operation.

A traced run does step 2 twice on the same inputs, untraced and then with
spans and the per-layer probes (:mod:`isebench.probes`), and prints the
per-layer metrics; the ratio of the two passes is ``trace_overhead``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.dfg import resolve_kernel
from repro.hwmodel import ISEConstraints
from repro.service import ServiceClient, run_workload_cell
from repro.workloads import AES_BENCHMARK, PAPER_BENCHMARKS, load_workload

from . import generation, probes, serving, setup_timing
from .hostspeed import PYTHON, HostSpeed, Reference, numpy_reference
from .inputs import block_inputs, job_mix, program_from_inputs
from .spans import SpanRecorder
from .stats import geomean, median, ratio, tail

#: Registered programs of each workload.
WORKLOADS = {"aes": (AES_BENCHMARK,), "paper": PAPER_BENCHMARKS}
#: The host-speed loop each workload's generation calls are scaled by
#: (:mod:`isebench.hostspeed`): AES's time goes to the numpy kernel's gain
#: sweep over its 696-node block, paper's to pure-Python search and scoring
#: on small blocks.
SPEED_REFERENCES = {"aes": numpy_reference, "paper": lambda: PYTHON}


@dataclass(frozen=True)
class Scale:
    setup_samples: int
    #: Cold jobs per measured window.  Forty put the tail at p75, with ten
    #: samples beyond it.
    cold_jobs: int
    #: Generation rounds every measured window runs, whatever its budget.
    #: More run while the next one is expected to fit.
    min_rounds: int
    probe_reps: int
    scoring_samples: int
    #: Programs ``paper`` keeps (None: all seven).
    paper_programs: int | None
    #: N_ISE of the generation calls.
    max_ises: int


FULL = Scale(
    setup_samples=7, cold_jobs=40, min_rounds=2, probe_reps=20,
    scoring_samples=300, paper_programs=None, max_ises=4,
)
#: ``--smoke``: every workload in well under a minute.
SMOKE = Scale(
    setup_samples=1, cold_jobs=2, min_rounds=1, probe_reps=3,
    scoring_samples=20, paper_programs=2, max_ises=1,
)

END_TO_END = {
    "setup_s": "s",
    "isegen_s": "s",
    "baseline_s": "s",
    "cold_job_p50_ms": "ms",
    "cold_job_tail_ms": "ms",
    "cached_job_p50_ms": "ms",
    "cached_job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Set-up phase (span name) -> per-layer metric.
SETUP_METRICS = {
    "workloads.build": "workloads.build_s",
    "dfg.prepare": "dfg.prepare_s",
    "dfg.kernel_resolve": "dfg.kernel_resolve_s",
    "dfg.index_build": "dfg.index_build_s",
    "service.start": "service.start_s",
}
#: ``result.stats`` of ISEGEN, summed over the round's calls.
CORE_COUNTS = (
    "bipartitions", "passes", "toggles", "gain_evals", "gain_cache_hits",
    "shadow_updates", "shadow_cache_hits",
)
ENUMERATION_COUNTS = ("states_visited", "nodes_expanded", "memo_hits", "bound_cuts")
ROUTES = ("submit", "wait", "result")

#: Quality: deterministic for a seed, but each seed is a different input
#: (renumbering moves every index-ordered tie-break, and the Genetic seed
#: changes), so they spread across seeds by design and carry no bound.
QUALITY = {"isegen_speedup": "x", "baseline_speedup": "x"}

PER_LAYER = {
    **QUALITY,
    **{metric: "s" for metric in SETUP_METRICS.values()},
    "core.bipartition_s": "s",
    "core.state_toggle_us": "us",
    "core.state_share": "ratio",
    **{f"core.{name}": "count" for name in CORE_COUNTS},
    "core.gain_cache_hit_ratio": "ratio",
    "core.shadow_accept_ratio": "ratio",
    "genetic.wall_s": "s",
    "genetic.fitness_evals": "count",
    "genetic.memo_hits": "count",
    "genetic.duplicates_skipped": "count",
    "genetic.unique_ratio": "ratio",
    "genetic.score_us": "us",
    "genetic.fitness_share": "ratio",
    "enumeration.wall_s": "s",
    **{f"enumeration.{name}": "count" for name in ENUMERATION_COUNTS},
    "enumeration.states_per_s": "1/s",
    **{name: "ms" for name in probes.SWEEP_METRICS},
    **{f"service.{route}_ms": "ms" for route in ROUTES},
    **{f"service.cached_{route}_ms": "ms" for route in ROUTES},
    **{f"service.handler_{route}_ms": "ms" for route in ROUTES},
    "service.cold_slack_ms": "ms",
    "service.refusals": "count",
    "trace_overhead": "ratio",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end benchmark of the ISEGEN reproduction.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: the benchmark's own smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def program_names(name: str, scale: Scale) -> tuple[str, ...]:
    names = WORKLOADS[name]
    if name == "paper" and scale.paper_programs is not None:
        names = names[: scale.paper_programs]
    return names


@dataclass
class Inputs:
    programs: list
    constraints: ISEConstraints
    mix: list[dict]
    calls: list[generation.Call]
    reference: Reference


def build_inputs(name: str, seed: int, scale: Scale) -> Inputs:
    """This process's own set-up (untimed: ``setup_s`` is measured apart)."""
    programs = [
        program_from_inputs(program, block_inputs(load_workload(program), seed))
        for program in program_names(name, scale)
    ]
    for program in programs:
        for block in program:
            block.dfg.bitset_index()
    constraints = ISEConstraints(max_inputs=4, max_outputs=2, max_ises=scale.max_ises)
    if name == "aes":
        calls = generation.aes_calls(programs[0], seed, constraints)
    else:
        calls = generation.paper_calls(programs, seed, constraints)
    return Inputs(
        programs, constraints, job_mix(seed, scale.cold_jobs), calls, SPEED_REFERENCES[name]()
    )


@dataclass
class Measurement:
    records: list[generation.CallRecord]
    rounds: int
    phase: serving.ServicePhase
    snapshot: dict
    failures: list[str]
    refusals: int
    speed: HostSpeed
    layer: dict[str, float] = field(default_factory=dict)
    missing: dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return (
            sum(record.attempted for record in self.records)
            + self.phase.attempted
            + self.refusals
        )


def measure(inputs, budget, scale, seed, tracer, work, min_rounds, with_probes) -> Measurement:
    started = time.perf_counter()
    service = serving.start_service(work)
    try:
        with HostSpeed(inputs.reference) as speed:
            client = ServiceClient(service.endpoint, client_id=serving.CLIENT_ID)
            phase = serving.run_cold(client, inputs.mix, scale.cold_jobs, tracer)
            records, rounds = generation.run_rounds(
                inputs.calls,
                budget - (time.perf_counter() - started),
                min_rounds,
                tracer,
                lambda: serving.run_cached(client, phase, tracer),
            )
        snapshot = client.metrics()["metrics"]
    finally:
        service.stop()

    known: dict[str, dict] = {}

    def reference(spec: dict) -> dict:
        key = json.dumps(spec, sort_keys=True)
        if key not in known:
            known[key] = run_workload_cell(
                spec["workload"], spec["algorithm"], spec["constraints"], {}
            )
        return known[key]

    failures = [failure for record in records for failure in record.failures]
    failures += phase.errors
    failures += [job.problem for job in phase.cold + phase.cached if job.problem]
    failures += serving.row_mismatches(phase.cold, reference)
    measurement = Measurement(
        records, rounds, phase, snapshot, failures, serving.refusals(snapshot), speed
    )
    if with_probes:
        largest = max(inputs.programs, key=lambda program: program.critical_block_size())
        cold_specs = [job.spec for job in phase.cold]
        for metrics, run_probe in (
            (probes.CORE_METRICS, lambda: probes.core(inputs.programs, inputs.constraints, tracer)),
            (
                probes.SCORING_METRICS,
                lambda: probes.genetic_scoring(
                    largest, inputs.constraints, seed, scale.scoring_samples, tracer
                ),
            ),
            (
                probes.SWEEP_METRICS,
                lambda: probes.sweep(
                    service.directory, probes.job_keys(service, cold_specs),
                    scale.probe_reps, tracer,
                ),
            ),
        ):
            try:
                measurement.layer.update(run_probe())
            except probes.EntryPointGone as error:
                for metric in metrics:
                    measurement.missing[metric] = f"probe entry point gone ({error})"
    return measurement


def wall_s(start: float, end: float) -> float:
    return end - start


def fastest_total(records, seconds, algorithms: tuple[str, ...] | None = None, group: str | None = None):
    """Sum over the chosen calls of each call's fastest round, timed by
    ``seconds(start, end)``, and how many calls that covers (``None`` when
    no chosen call completed)."""
    fastest = [
        min(seconds(start, end) for start, end in record.intervals)
        for record in records
        if record.intervals
        and (algorithms is None or record.call.algorithm in algorithms)
        and (group is None or record.call.group == group)
    ]
    return (sum(fastest) if fastest else None), len(fastest)


def end_to_end(setup_samples: list[dict], m: Measurement) -> tuple[dict, dict]:
    values, notes = {}, {}
    totals = [setup_timing.total_s(sample) for sample in setup_samples]
    values["setup_s"] = median(totals)
    walls = [sum(end - start for start, end in sample["phases"].values()) for sample in setup_samples]
    notes["setup_s"] = (
        f"reference s, median of {len(totals)} set-up(s), each in a fresh process; "
        f"wall {median(walls) or 0:.4g} s"
    )
    for group in ("isegen", "baseline"):
        values[f"{group}_s"], calls = fastest_total(m.records, m.speed.reference_s, group=group)
        wall, _ = fastest_total(m.records, wall_s, group=group)
        notes[f"{group}_s"] = (
            f"reference s, sum over {calls} call(s) of each one's fastest of {m.rounds} "
            f"round(s); wall {wall or 0:.4g} s"
        )
        speedups = [
            record.speedup
            for record in m.records
            if record.call.group == group and record.speedup is not None
        ]
        values[f"{group}_speedup"] = geomean(speedups)
        notes[f"{group}_speedup"] = f"geometric mean over {len(speedups)} call(s)"
    for kind, seconds, clock in (
        ("cold", lambda job: job.seconds, "wall"),
        ("cached", lambda job: job.seconds * PYTHON.seconds / job.loop_s, "reference"),
    ):
        latencies = [seconds(job) * 1e3 for job in getattr(m.phase, kind)]
        values[f"{kind}_job_p50_ms"] = median(latencies)
        wall = median([job.seconds * 1e3 for job in getattr(m.phase, kind)])
        notes[f"{kind}_job_p50_ms"] = f"{clock} ms, {len(latencies)} jobs; wall {wall or 0:.4g} ms"
        percentile, values[f"{kind}_job_tail_ms"] = tail(latencies) or (None, None)
        if percentile is not None:
            notes[f"{kind}_job_tail_ms"] = f"{clock} ms, p{percentile:.1f} of {len(latencies)} jobs"
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return present(values), notes


def present(values: dict) -> dict:
    return {name: value for name, value in values.items() if value is not None}


def _summed_stats(records, algorithms: tuple[str, ...]) -> dict[str, int]:
    summed: dict[str, int] = {}
    for record in records:
        if record.call.algorithm in algorithms:
            for key, value in record.stats.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    summed[key] = summed.get(key, 0) + value
    return summed


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


def per_layer(untraced: Measurement, traced: Measurement, tracer: SpanRecorder) -> tuple[dict, dict]:
    values, missing = {}, dict(traced.missing)
    quality, _ = end_to_end([], traced)
    values.update({name: quality.get(name) for name in QUALITY})
    for phase, metric in SETUP_METRICS.items():
        values[metric] = median(tracer.seconds(phase))

    core = _summed_stats(traced.records, ("ISEGEN",))
    for name in CORE_COUNTS:
        values[f"core.{name}"] = core.get(name, 0)
    values["core.gain_cache_hit_ratio"] = ratio(
        core.get("gain_cache_hits", 0), core.get("gain_cache_hits", 0) + core.get("gain_evals", 0)
    )
    values["core.shadow_accept_ratio"] = ratio(core.get("shadow_updates", 0), core.get("toggles", 0))

    genetic = _summed_stats(traced.records, ("Genetic",))
    evals = genetic.get("fitness_evaluations", 0)
    values["genetic.wall_s"], _ = fastest_total(traced.records, wall_s, ("Genetic",))
    values["genetic.fitness_evals"] = evals
    values["genetic.memo_hits"] = genetic.get("memo_hits", 0)
    values["genetic.duplicates_skipped"] = genetic.get("duplicates_skipped", 0)
    values["genetic.unique_ratio"] = ratio(
        evals, evals + values["genetic.memo_hits"] + values["genetic.duplicates_skipped"]
    )

    enumeration = _summed_stats(traced.records, ("Exact", "Iterative"))
    for name in ENUMERATION_COUNTS:
        values[f"enumeration.{name}"] = enumeration.get(name, 0)
    if any(record.call.algorithm in ("Exact", "Iterative") for record in traced.records):
        values["enumeration.wall_s"], _ = fastest_total(
            traced.records, wall_s, ("Exact", "Iterative")
        )
        values["enumeration.states_per_s"] = ratio(
            values["enumeration.states_visited"], values["enumeration.wall_s"]
        )
    else:
        # The workload runs no enumeration (aes): none of its time goes there.
        values["enumeration.wall_s"] = values["enumeration.states_per_s"] = 0.0

    values.update(traced.layer)
    if "genetic.score_us" in values:
        values["genetic.fitness_share"] = ratio(
            evals * values["genetic.score_us"] * 1e-6, values["genetic.wall_s"]
        )
    else:
        missing["genetic.fitness_share"] = missing.get("genetic.score_us", "")

    for kind, prefix in (("cold", "service."), ("cached", "service.cached_")):
        for route in ROUTES:
            values[f"{prefix}{route}_ms"] = _ms(median(tracer.seconds(f"client.{route}", kind=kind)))
    for route in ROUTES:
        handler = traced.snapshot.get(f"http.{route}.seconds", {})
        values[f"service.handler_{route}_ms"] = _ms(handler.get("p50"))
    parts = [
        values.get(name)
        for name in ("service.submit_ms", "service.result_ms", "sweep.cell_ms")
    ]
    cold_p50 = _ms(median([job.seconds for job in traced.phase.cold]))
    if cold_p50 is not None and None not in parts:
        values["service.cold_slack_ms"] = cold_p50 - sum(parts)
    elif "sweep.cell_ms" in missing:
        missing["service.cold_slack_ms"] = missing["sweep.cell_ms"]
    values["service.refusals"] = untraced.refusals + traced.refusals

    # Timings both passes measured: traced / untraced, geometric mean - 1.
    base, _ = end_to_end([], untraced)
    spanned, _ = end_to_end([], traced)
    timings = ("isegen_s", "baseline_s", "cold_job_p50_ms", "cached_job_p50_ms")
    overhead = geomean(
        [spanned[name] / base[name] for name in timings if base.get(name) and spanned.get(name)]
    )
    values["trace_overhead"] = None if overhead is None else overhead - 1
    return present(values), missing


def print_host_speed(m: Measurement) -> None:
    loop, reference = m.speed.median_loop_s(), m.speed.reference
    if loop is not None:
        print(
            f"host speed: {reference.name} loop {loop * 1e6:.1f} us, median of "
            f"{len(m.speed.samples)} samples (reference {reference.seconds * 1e6:.0f} us): "
            f"about {reference.seconds / loop:.3f} reference seconds per wall second"
        )


def report(units: dict, values: dict, notes: dict, missing: dict, attempted: int, failures: list[str], refusals: int) -> None:
    shown = units if set(QUALITY) <= set(units) else {**units, **QUALITY}
    for name, unit in shown.items():
        if name in values:
            line = f"{name:<28} {values[name]:>14.6g} {unit:<6} {notes.get(name, '')}"
        else:
            line = f"{name:<28} {'missing':>14} {unit:<6} {missing.get(name, 'no samples')}"
        print(line.rstrip())
    failed = len(failures) + refusals
    print(f"attempted {attempted}  failed {failed}  failed_share {failed / attempted:.4f}")
    for failure in failures[:20]:
        print(f"failure: {failure}")
    if refusals:
        print(f"failure: {refusals} request(s) refused with 429/503 and retried by the client")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run(argv: list[str], root: str) -> int:
    args = parse_args(argv)
    scale = SMOKE if args.smoke else FULL
    root = Path(root)
    if args.setup_probe:
        timing = setup_timing.probe(program_names(args.workload, scale), args.seed, args.work)
        print(json.dumps(timing))
        return 0
    work = root / ".perfbench" / f"run-{os.getpid()}"
    try:
        _run(args, scale, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _run(args: argparse.Namespace, scale: Scale, root: Path, work: Path) -> None:
    print(
        f"perfbench: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}, kernel {resolve_kernel('auto').name}"
        + (", smoke sizes" if args.smoke else "")
    )
    tracer = SpanRecorder(enabled=bool(args.trace))
    setup_samples = []
    for index in range(scale.setup_samples):
        sample = setup_timing.sample(
            args.workload, args.seed, args.smoke, root, work / f"setup{index}"
        )
        setup_samples.append(sample)
        for phase, (start, end) in sample["phases"].items():
            tracer.add(phase, start, end, op=f"setup{index}", clock="child")
    inputs = build_inputs(args.workload, args.seed, scale)
    if not args.trace:
        m = measure(
            inputs, args.seconds, scale, args.seed, SpanRecorder(enabled=False),
            work / "measure", scale.min_rounds, with_probes=False,
        )
        values, notes = end_to_end(setup_samples, m)
        print_host_speed(m)
        report(END_TO_END, values, notes, {}, m.attempted, m.failures, m.refusals)
        return
    # Each pass gets half the window, so one round is all it can promise.
    untraced = measure(
        inputs, args.seconds / 2, scale, args.seed, SpanRecorder(enabled=False),
        work / "untraced", 1, with_probes=False,
    )
    traced = measure(
        inputs, args.seconds / 2, scale, args.seed, tracer,
        work / "traced", 1, with_probes=True,
    )
    values, missing = per_layer(untraced, traced, tracer)
    path = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(path)
    print(f"spans: {len(tracer.records)} written to {path.relative_to(root)}")
    report(
        PER_LAYER, values, {}, missing,
        untraced.attempted + traced.attempted,
        untraced.failures + traced.failures,
        untraced.refusals + traced.refusals,
    )
