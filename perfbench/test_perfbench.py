"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    """Run the benchmark; return (exit code, result lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    results = [
        json.loads(line) for line in proc.stdout.splitlines()
        if line.startswith('{"correct"')
    ]
    return proc.returncode, results


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(trace, kind):
    code, results = run_bench("--workload", "all", "--seed", "3",
                              "--seconds", "0.2", "--trace", str(trace))
    assert code == 0
    assert len(results) == len(WORKLOADS)
    units = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        if kind == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_broken_input_fails():
    # A threshold the 25 Gbps flooder never crosses: it is never blocked.
    code, results = run_bench("--workload", "dos-flood", "--seed", "1",
                              "--seconds", "0.2", "--threshold-gbps", "1000")
    assert code != 0
    (result,) = results
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    report = json.loads(
        (HERE / "out" / "dos-flood-seed1-trace0.json").read_text()
    )
    assert "attacker_blocked" in report["failed_checks"]
    assert report["error_rate"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs(name):
    workload = WORKLOADS[name]()
    assert workload.inputs(1) == workload.inputs(1)
    assert workload.inputs(1) != workload.inputs(2)


@pytest.mark.parametrize("name", ["dos-flood", "ctrl-contended"])
def test_fixed_seed_reproduces_sim_metrics(name):
    workload = WORKLOADS[name]()
    inputs = workload.inputs(7)
    outcomes = []
    for _ in range(2):
        state = workload.build(inputs)
        workload.run(state)
        outcomes.append(workload.outcome(state))
    assert all(outcomes[0].checks.values())
    assert outcomes[0].fingerprint() == outcomes[1].fingerprint()
