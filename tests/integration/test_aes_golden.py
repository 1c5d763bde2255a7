"""Golden of ISEGEN on the AES program: the ISEs and the search counters.

``run_isegen`` on AES at I/O (4,2) with four ISEs emits the same four 7-node
cuts of the 696-node ``aes.encrypt_block`` under either mask kernel, after
exactly the K-L trajectory these counters describe.  Any change to the
search path therefore shows up here as a reviewed diff.
"""

from repro.baselines import run_isegen
from repro.hwmodel import ISEConstraints
from repro.workloads import load_workload

#: One MixColumns slice (a GF(2^8) doubling plus its XOR tree) per column of
#: the last full round, in the order they are found.
GOLDEN_ISES = [
    [f"r4_c{column}_{name}" for name in ("p1", "r1_dbl", "r1_red", "r1_x", "a1", "m1", "a2")]
    for column in (3, 2, 1, 0)
]

GOLDEN_STATS = {
    "bipartitions": 4,
    "passes": 12,
    "toggles": 7266,
    "shadow_updates": 24,
    "gain_evals": 201361,
    "gain_cache_hits": 2002421,
    "shadow_cache_hits": 4828,
    "shadow_fresh_probes": 0,
}


def test_aes_ises_and_search_counters_are_pinned():
    result = run_isegen(
        load_workload("aes"), ISEConstraints(max_inputs=4, max_outputs=2, max_ises=4)
    )
    assert [ise.block_name for ise in result.ises] == ["aes.encrypt_block"] * 4
    members = [
        sorted(ise.cut.dfg.node_by_index(index).name for index in ise.cut.members)
        for ise in result.ises
    ]
    assert members == [sorted(names) for names in GOLDEN_ISES]
    assert [ise.merit for ise in result.ises] == [6, 6, 6, 6]
    assert {name: result.stats[name] for name in GOLDEN_STATS} == GOLDEN_STATS
