"""Smoke test of the benchmark itself (not part of tier-1)::

    python -m pytest perfbench/test_smoke.py -q

Runs every workload at its ``--smoke`` size, untraced and traced, and checks
that each prints every metric ``BENCHMARK.json`` names, with its unit; that
the output check rejects a deliberately non-convex cut; and that the
benchmark refuses to run, printing no result, where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from isebench.checks import cut_problem  # noqa: E402
from isebench.hostspeed import HostSpeed, Reference  # noqa: E402
from repro.dfg import DataFlowGraph  # noqa: E402
from repro.hwmodel import ISEConstraints  # noqa: E402
from repro.isa import Opcode  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def last_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = last_line(run_benchmark(workload, trace=0))
    assert units(result) == {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = last_line(run_benchmark(workload, trace=1))
    assert units(result) == {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}


def test_output_check_rejects_a_non_convex_cut():
    # x -> a -> b -> c: {a, c} skips b, which lies on the path between them.
    dfg = DataFlowGraph("chain")
    dfg.add_node("a", Opcode.ADD, ["x", "y"])
    dfg.add_node("b", Opcode.ADD, ["a", "y"])
    dfg.add_node("c", Opcode.ADD, ["b", "x"])
    dfg.prepare()
    constraints = ISEConstraints(max_inputs=4, max_outputs=2)
    assert cut_problem(dfg, {0, 2}, constraints) == "not convex"
    assert cut_problem(dfg, {0, 1, 2}, constraints) is None


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run_benchmark("aes", trace=0, cwd=bare)
        assert done.returncode != 0
        assert not done.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
