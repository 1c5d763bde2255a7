"""Generation rounds: the workload's ISE-generation calls, each timed alone.

A round calls every algorithm of the workload once, in a fixed order, on the
same inputs.  Rounds repeat while the next one is expected to end within the
budget, and at least ``min_rounds`` run.  Each call's figure is its fastest
round in reference seconds (:mod:`isebench.hostspeed`): the calls are
deterministic, so the rounds repeat the same work and differ only by what
the host did meanwhile, and the fastest round is the one that stalls
touched least.  Speedups and the legality re-check run after each call,
outside its timing, and every later round must emit exactly the first
round's ISEs.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.baselines import (
    GeneticConfig,
    GeneticGenerator,
    run_exact,
    run_isegen,
    run_iterative,
)
from repro.errors import BaselineInfeasibleError
from repro.hwmodel import ISEConstraints
from repro.reuse import reuse_aware_speedup

from .checks import result_problems
from .inputs import genetic_seed


@dataclass
class Call:
    """One ISE-generation call of a round."""

    label: str
    algorithm: str
    #: ``"isegen"`` or ``"baseline"``: the end-to-end total it adds to.
    group: str
    invoke: Callable[[], object]
    #: ``result -> speedup``, run outside the timing.
    speedup: Callable[[object], float]
    #: The program whose blocks the result's ISEs name.
    program: object


@dataclass
class CallRecord:
    call: Call
    attempted: int = 0
    #: ``(start, end)`` wall interval per round; a refused call's time
    #: counts, it was spent.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    #: Refused by a node limit: one of the paper's missing bars.
    refused: bool = False
    speedup: float | None = None
    stats: dict = field(default_factory=dict)
    signature: object = None
    #: One entry per failed call: it raised, emitted an illegal ISE, or
    #: did not reproduce the first round.
    failures: list[str] = field(default_factory=list)


def result_signature(result) -> list:
    return [(ise.block_name, sorted(ise.cut.members)) for ise in result.ises]


def aes_calls(program, seed: int, constraints: ISEConstraints) -> list[Call]:
    """``run_isegen`` (what ``repro run aes`` does) and the quick Genetic of
    the Figure-6 cell, with Figure 6's reuse-aware speedups."""
    config = GeneticConfig.quick(seed=genetic_seed(seed))

    def speedup(result):
        return reuse_aware_speedup(program, result).reuse_speedup

    return [
        Call(
            "aes/ISEGEN", "ISEGEN", "isegen",
            lambda: run_isegen(program, constraints), speedup, program,
        ),
        Call(
            "aes/Genetic", "Genetic", "baseline",
            lambda: GeneticGenerator(constraints, config).generate(program),
            speedup, program,
        ),
    ]


def paper_calls(programs, seed: int, constraints: ISEConstraints) -> list[Call]:
    """Figure 4's four algorithms per program, with its single-use speedups.

    Genetic runs the quick configuration of Figure 6 under the seeded
    Genetic seed.  The default one takes 12-16 s over the seven programs on
    a 2-vCPU host, too long for repeated rounds within ``--seconds``, and
    its early stop moves its work by up to a quarter from seed to seed.
    """
    config = GeneticConfig.quick(seed=genetic_seed(seed))
    calls = []
    for program in programs:
        runners = (
            ("Exact", "baseline", lambda p=program: run_exact(p, constraints)),
            ("Iterative", "baseline", lambda p=program: run_iterative(p, constraints)),
            (
                "Genetic", "baseline",
                lambda p=program: GeneticGenerator(constraints, config).generate(p),
            ),
            ("ISEGEN", "isegen", lambda p=program: run_isegen(p, constraints)),
        )
        calls += [
            Call(
                f"{program.name}/{algorithm}", algorithm, group, invoke,
                lambda result: result.speedup, program,
            )
            for algorithm, group, invoke in runners
        ]
    return calls


def run_rounds(
    calls: list[Call],
    budget: float,
    min_rounds: int,
    tracer,
    after_round: Callable[[], None],
) -> tuple[list[CallRecord], int]:
    """Repeat the round while the next one is expected to end within *budget*
    seconds; *after_round* runs after each, counted in the round's time.

    Returns the per-call records and the number of rounds run.
    """
    records = [CallRecord(call) for call in calls]
    rounds = 0
    started = time.perf_counter()
    last = 0.0
    while rounds < min_rounds or time.perf_counter() - started + last <= budget:
        round_started = time.perf_counter()
        for record in records:
            _run_call(record, rounds, tracer)
        after_round()
        last = time.perf_counter() - round_started
        rounds += 1
    return records, rounds


def _run_call(record: CallRecord, round_index: int, tracer) -> None:
    """One timed call, then its checks."""
    call = record.call
    record.attempted += 1
    refused = False
    try:
        with tracer.span(f"call.{call.algorithm}", op=f"round{round_index}:{call.label}") as span:
            output = call.invoke()
    except BaselineInfeasibleError:
        refused = True
    except Exception as error:  # noqa: BLE001 - a crashing call is one failed operation
        record.failures.append(f"{call.label} raised {type(error).__name__}: {error}")
        return
    first = not record.intervals
    record.intervals.append((span.start, span.end))
    if first:
        record.refused = refused
        if not refused:
            record.speedup = call.speedup(output)
            record.stats = dict(output.stats)
            record.signature = result_signature(output)
            problems = result_problems(call.program, output)
            if problems:
                record.failures.append(f"{call.label}: {'; '.join(problems)}")
    elif refused != record.refused or (
        not refused and result_signature(output) != record.signature
    ):
        record.failures.append(f"{call.label}: round {round_index} differs from the first round")
