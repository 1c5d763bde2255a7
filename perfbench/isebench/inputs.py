"""Seeded inputs of every workload.

The seed drives these inputs and nothing else:

* the Genetic baseline's seed (seed 0 keeps the library default);
* a topological renumbering of every block: seed 0 keeps the registered
  node order that ``repro run`` sees, any other seed lists the same graph's
  nodes in a random topological order — which moves every index-ordered
  tie-break without changing the graph;
* the draw of the service job mix.

``run.py`` also makes it the interpreter's hash seed, so set iteration
order differs between seeds as well.  The program receives only the
generated inputs: blocks reach it as ``dfg_to_dict`` payloads that it
rebuilds with ``dfg_from_dict``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.baselines import GeneticConfig
from repro.dfg import dfg_from_dict, dfg_to_dict
from repro.program import BlockProfile, Program

#: The service job mix: small program x ISEGEN|Greedy x I/O point x N_ISE.
JOB_PROGRAMS = ("conven00", "fbital00", "viterb00", "autcor00")
JOB_ALGORITHMS = ("ISEGEN", "Greedy")
JOB_IO = tuple((inputs, outputs) for inputs in range(2, 7) for outputs in range(1, 4))
JOB_ISES = (1, 2, 3, 4)

#: Outside the mix's I/O range, so it never shares a store key with a mix job.
WARMUP_JOB = {
    "workload": "conven00",
    "algorithm": "ISEGEN",
    "constraints": {"max_inputs": 8, "max_outputs": 4, "max_ises": 1},
}


def genetic_seed(seed: int) -> int:
    return GeneticConfig().seed + seed


def topological_order(payload: dict, rng: random.Random) -> list[int]:
    """Positions of ``payload["nodes"]`` listed in a random topological order."""
    nodes = payload["nodes"]
    position = {node["name"]: index for index, node in enumerate(nodes)}
    waiting = [0] * len(nodes)
    consumers: list[list[int]] = [[] for _ in nodes]
    for index, node in enumerate(nodes):
        for operand in node["operands"]:
            producer = position.get(operand)
            if producer is not None:
                waiting[index] += 1
                consumers[producer].append(index)
    ready = [index for index, count in enumerate(waiting) if count == 0]
    order = []
    while ready:
        index = ready.pop(rng.randrange(len(ready)))
        order.append(index)
        for consumer in consumers[index]:
            waiting[consumer] -= 1
            if not waiting[consumer]:
                ready.append(consumer)
    return order


@dataclass(frozen=True)
class BlockInput:
    """One generated block: its serialized DFG and its profile."""

    payload: dict
    frequency: float
    attrs: dict


def block_inputs(program: Program, seed: int) -> list[BlockInput]:
    """*program*'s blocks serialized, renumbered for *seed* (0: as registered)."""
    blocks = []
    for block in program:
        payload = dfg_to_dict(block.dfg)
        if seed:
            rng = random.Random(f"{seed}:{program.name}:{block.name}")
            nodes = payload["nodes"]
            payload["nodes"] = [nodes[index] for index in topological_order(payload, rng)]
        blocks.append(BlockInput(payload, block.frequency, dict(block.attrs)))
    return blocks


def program_from_inputs(name: str, blocks: list[BlockInput]) -> Program:
    """The program's side of the hand-over: rebuild (and prepare) every block."""
    return Program(
        name,
        [
            BlockProfile(
                dfg=dfg_from_dict(block.payload),
                frequency=block.frequency,
                attrs=dict(block.attrs),
            )
            for block in blocks
        ],
    )


def job_mix(seed: int, count: int) -> list[dict]:
    """Up to *count* distinct single-cell ``workload`` jobs, algorithms alternating."""
    rng = random.Random(f"jobs:{seed}")
    pools = []
    for _algorithm in JOB_ALGORITHMS:
        specs = [
            (program, io, ises)
            for program in JOB_PROGRAMS
            for io in JOB_IO
            for ises in JOB_ISES
        ]
        rng.shuffle(specs)
        pools.append(specs)
    mix = []
    for position in range(min(count, sum(len(pool) for pool in pools))):
        turn = position % len(JOB_ALGORITHMS)
        program, (max_inputs, max_outputs), max_ises = pools[turn][
            position // len(JOB_ALGORITHMS)
        ]
        mix.append(
            {
                "workload": program,
                "algorithm": JOB_ALGORITHMS[turn],
                "constraints": {
                    "max_inputs": max_inputs,
                    "max_outputs": max_outputs,
                    "max_ises": max_ises,
                },
            }
        )
    return mix
