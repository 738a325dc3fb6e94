"""Fast-path microbenchmark: interpreter vs compiled vs batch.

Pumps the Figure 15 DoS data-plane workload (blocklist, accounting
with register read-modify-write, exact routing -- as compiled from
P4R by the Mantis compiler) through ``SwitchAsic.process`` under both
execution modes, then through the burst-mode ``process_batch`` path
(pooled packets, op-major sweeps, fused actions), and asserts the
compiled engine is at least 3x the interpreter's packet rate and the
batch path at least 2x the compiled per-packet rate.  All numbers land
in a JSON artifact so the speedups are tracked across PRs.
"""

from __future__ import annotations

from benchmarks.conftest import report, report_json
from repro.fastbench import run_fastpath_benchmark

N_PACKETS = 12_000
MIN_SPEEDUP = 3.0
MIN_BATCH_SPEEDUP = 2.0


def test_fastpath_speedup(bench_once, bench_json_path):
    result = bench_once(run_fastpath_benchmark, n_packets=N_PACKETS)

    report(
        "Fast path speedup (Figure 15 DoS workload)",
        ["engine", "pkt/s", "elapsed (s)"],
        [
            ["interpreter", f"{result['interpreter_pps']:,.0f}",
             f"{result['interpreter_elapsed_sec']:.4f}"],
            ["compiled", f"{result['compiled_pps']:,.0f}",
             f"{result['compiled_elapsed_sec']:.4f}"],
            [f"batch (x{result['batch_size']})",
             f"{result['batch_pps']:,.0f}",
             f"{result['batch_elapsed_sec']:.4f}"],
            ["speedup", f"{result['speedup']:.2f}x", ""],
            ["batch speedup", f"{result['batch_speedup_vs_compiled']:.2f}x",
             ""],
        ],
    )
    report_json(result, bench_json_path, name="fastpath_speedup")

    assert result["compiled_pps"] > result["interpreter_pps"]
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"compiled path only {result['speedup']:.2f}x over interpreter "
        f"(target {MIN_SPEEDUP}x): {result}"
    )
    assert result["batch_pps"] > result["compiled_pps"]
    assert result["batch_speedup_vs_compiled"] >= MIN_BATCH_SPEEDUP, (
        f"batch path only {result['batch_speedup_vs_compiled']:.2f}x over "
        f"compiled per-packet (target {MIN_BATCH_SPEEDUP}x): {result}"
    )
