"""Independent legality checks of every emitted ISE, run outside timed regions.

The checks use the frozenset reference helpers of ``repro.dfg`` —
``convexity.is_convex`` and ``io_count.count_io`` — not the bitset
evaluators the algorithms run on, so a fast-path bug cannot vouch for
itself.
"""

from __future__ import annotations

import json
from collections.abc import Collection, Sequence

from repro.dfg.convexity import is_convex
from repro.dfg.io_count import count_io
from repro.errors import ReproError


def cut_problem(dfg, members: Collection[int], constraints, claimed: Collection[int] = ()) -> str | None:
    """Why *members* is not a legal ISE of *dfg*, or ``None`` when it is.

    Legal: non-empty, no forbidden (memory or control) node, convex, within
    the I/O budget, and disjoint from *claimed* — the block's earlier ISEs.
    """
    members = frozenset(members)
    if not members:
        return "empty cut"
    if not constraints.allow_memory:
        forbidden = [index for index in members if dfg.node_by_index(index).forbidden]
        if forbidden:
            return f"contains forbidden node(s) {', '.join(dfg.names_of(forbidden))}"
    if not is_convex(dfg, members):
        return "not convex"
    inputs, outputs = count_io(dfg, members)
    if inputs > constraints.max_inputs or outputs > constraints.max_outputs:
        return f"I/O ({inputs},{outputs}) exceeds {constraints.io}"
    overlap = members.intersection(claimed)
    if overlap:
        return f"overlaps an earlier ISE at {', '.join(dfg.names_of(overlap))}"
    return None


def ise_problems(program, ises: Sequence[tuple[str, Collection[int]]], constraints) -> list[str]:
    """Problems of an ordered ISE list of ``(block name, members)`` pairs."""
    problems = []
    if len(ises) > constraints.max_ises:
        problems.append(f"{len(ises)} ISEs exceed N_ISE {constraints.max_ises}")
    claimed: dict[str, set[int]] = {}
    for position, (block_name, members) in enumerate(ises, start=1):
        try:
            dfg = program.block(block_name).dfg
        except ReproError:
            problems.append(f"ISE {position}: no block {block_name!r}")
            continue
        taken = claimed.setdefault(block_name, set())
        problem = cut_problem(dfg, members, constraints, taken)
        if problem:
            problems.append(f"ISE {position} in {block_name}: {problem}")
        taken.update(members)
    return problems


def result_problems(program, result) -> list[str]:
    """Problems of an ``ISEGenerationResult`` on *program*."""
    ises = [(ise.block_name, ise.cut.members) for ise in result.ises]
    return ise_problems(program, ises, result.constraints)


def row_signature(row: dict) -> str:
    """A service row without its wall-clock field, canonically encoded."""
    return json.dumps(
        {key: value for key, value in row.items() if key != "runtime_s"},
        sort_keys=True,
    )


def row_problems(program, row: dict, constraints) -> list[str]:
    """Problems of a service result row, whose ISEs name their nodes."""
    ises = []
    for ise in row.get("ises", []):
        try:
            dfg = program.block(ise["block"]).dfg
            ises.append((ise["block"], dfg.indices_of(ise["nodes"])))
        except (KeyError, ReproError) as error:
            return [f"unreadable ISE {ise!r}: {error}"]
    return ise_problems(program, ises, constraints)
