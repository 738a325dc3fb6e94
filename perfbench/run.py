"""Repository benchmark: three whole Mantis scenarios, end to end.

    python3 perfbench/run.py --workload dos-flood --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seconds 3 --trace 1

Workloads (``perfbench/workloads.py``): ``dos-flood`` (Fig. 15, burst
data path + one busy agent), ``fattree-rebalance`` (FatTree(4), per-packet
multi-hop forwarding + 20 agents) and ``ctrl-contended`` (Fig. 12
contention through the ctrl service, no packets).  Each runs in one
single-threaded process on the default engines.

One run:

1. times ``SETUP_PROBES`` fresh processes that build the scenario
   (``setup_s`` is their median);
2. repeats build + run of the seed's scenario until ``--seconds`` have
   passed, with tracing off, and reports median host rates;
3. with ``--trace 1``, gives half of ``--seconds`` to untraced repeats
   and the rest to repeats with every layer's entry points wrapped in
   spans (``tracing.py``), and reports per-layer counts and self times;
4. checks the outputs of every repeat and that every simulated metric
   and count is identical across repeats, traced or not.

End-to-end metrics (``--trace 0``), all host-side:

- ``sim_us_per_s``  -- simulated microseconds advanced per second: how
  fast a user gets through a scenario;
- ``sim_ops_per_s`` -- packets put on the wire (dos-flood,
  fattree-rebalance) or driver ops applied (ctrl-contended) per second;
- ``setup_s``       -- import, compile, build, prologue and route install
  in a fresh process;
- ``peak_rss_mb``   -- peak resident memory of the measuring process.

Times are in reference seconds (``calibrate.py``): host seconds rescaled
by a fixed calibration loop run around each measurement, which cancels
most of a shared machine's speed swings.  The report keeps the plain
wall-clock figures as well.  The simulated-time results (reaction,
mitigation and legacy latencies, goodput, link utilization, delivery)
are deterministic per seed: they are checked exactly and reported with
the per-layer metrics.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The exit code is 1 when any check fails.  A full report
(environment, simulated metrics, checks) and the spans of the last
traced repeat are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

from calibrate import calibration_s, reference_s  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 60
#: Share of ``--seconds`` a traced run spends on untraced repeats (the
#: base of the tracing overhead); the rest goes to traced repeats.
UNTRACED_SHARE = 0.5


@dataclass
class Repeat:
    run_s: float             # host seconds of ``workload.run``
    wall_ns: int             # host ns of build + run (the traced region)
    outcome: Outcome
    tracer: Optional[Tracer]
    calib_s: float = 0.0     # mean of the calibrations around the repeat


def load_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = load_spec()
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


# ---- environment ------------------------------------------------------------


def git_state() -> Dict[str, object]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1")
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        status = subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    if head.returncode or status.returncode:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(),
            "dirty": bool(status.stdout.strip())}


def environment() -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        **git_state(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "mantis_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.startswith("MANTIS_")
        },
    }


# ---- measurement ------------------------------------------------------------


def probe_setup(name: str, seed: int) -> List[Tuple[float, float]]:
    """``(host seconds, calibration seconds)`` of each fresh-process
    set-up (``setup_probe.py``).  Probes may write bytecode caches, so
    every environment measures set-up with a warm cache, as users run."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, env=env, check=True, timeout=SETUP_PROBE_TIMEOUT_S,
            stdout=subprocess.PIPE, text=True,
        )
        sample = json.loads(probe.stdout.splitlines()[-1])
        samples.append((sample["setup_s"], sample["calib_s"]))
    return samples


def one_repeat(workload, inputs, traced: bool) -> Repeat:
    gc.collect()
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        start = time.perf_counter_ns()
        state = workload.build(inputs)
        mid = time.perf_counter_ns()
        workload.run(state)
        end = time.perf_counter_ns()
    return Repeat(run_s=(end - mid) / 1e9, wall_ns=end - start,
                  outcome=workload.outcome(state), tracer=tracer)


def calibrate() -> float:
    """One calibration on a collected heap, so no garbage left by the
    last repeat is traversed inside it."""
    gc.collect()
    return calibration_s()


def repeat_for(workload, inputs, seconds: float, traced: bool) -> List[Repeat]:
    """Repeat build + run until ``seconds`` have passed, calibrating
    between repeats."""
    repeats = []
    before = calibrate()
    deadline = time.perf_counter() + seconds
    while not repeats or time.perf_counter() < deadline:
        repeat = one_repeat(workload, inputs, traced)
        after = calibrate()
        repeat.calib_s = (before + after) / 2
        before = after
        repeats.append(repeat)
    return repeats


def host_metrics(repeats: List[Repeat], setup: List[Tuple[float, float]],
                 calibrated: bool = True) -> Dict[str, float]:
    """Median host rates over the repeats and median set-up time over
    the probes, in reference seconds (``calibrate.py``) or, with
    ``calibrated=False``, in plain wall-clock seconds."""
    def seconds(host_s: float, calib_s: float) -> float:
        return reference_s(host_s, calib_s) if calibrated else host_s

    run_s = [seconds(r.run_s, r.calib_s) for r in repeats]
    return {
        "sim_us_per_s": statistics.median(
            r.outcome.sim_us / s for r, s in zip(repeats, run_s)
        ),
        "sim_ops_per_s": statistics.median(
            r.outcome.work_items / s for r, s in zip(repeats, run_s)
        ),
        "setup_s": statistics.median(seconds(*sample) for sample in setup),
    }


def layer_metrics(repeat: Repeat, names, overhead: float,
                  error_rate: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat; a layer the workload
    does not exercise (no packets, no ctrl service) reads 0."""
    tracer, wall_ns = repeat.tracer, repeat.wall_ns
    outcome = repeat.outcome
    self_ns = tracer.self_times(wall_ns)
    values = dict.fromkeys(names, 0)
    values.update(outcome.counts)
    values.update(outcome.sim)
    pkts = values["switch.pkts"]
    events = values["runtime.events"]
    iterations = values["agent.iterations"]
    values.update({
        "compiler.programs":
            tracer.calls("compiler:repro.system.compile_p4r"),
        "switch.scalar_calls": tracer.calls("switch:SwitchAsic.process"),
        "switch.ns_per_pkt": self_ns["switch"] / pkts if pkts else 0.0,
        "runtime.ns_per_event":
            self_ns["runtime"] / events if events else 0.0,
        "agent.host_us_per_iter":
            self_ns["agent"] / 1e3 / iterations if iterations else 0.0,
        "driver.sim_busy_us": tracer.driver_sim_us,
        "unattributed.self_s": self_ns["unattributed"] / 1e9,
        "trace.overhead": overhead,
        "trace.wall_s": wall_ns / 1e9,
        "error_rate": error_rate,
    })
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_ns[layer] / 1e9
    return values


def self_time_shares(repeat: Repeat) -> Dict[str, float]:
    self_ns = repeat.tracer.self_times(repeat.wall_ns)
    return {name: ns / repeat.wall_ns for name, ns in self_ns.items()}


# ---- one workload -----------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 threshold_gbps: Optional[float]) -> Dict[str, object]:
    declared = declared_metrics()
    env = environment()
    workload = (
        WORKLOADS[name](threshold_gbps=threshold_gbps)
        if threshold_gbps is not None else WORKLOADS[name]()
    )
    inputs = workload.inputs(seed)
    setup = probe_setup(name, seed)
    if trace:
        untraced = repeat_for(workload, inputs, seconds * UNTRACED_SHARE,
                              traced=False)
        traced = repeat_for(workload, inputs,
                            seconds * (1 - UNTRACED_SHARE), traced=True)
    else:
        untraced = repeat_for(workload, inputs, seconds, traced=False)
        traced = []
    repeats = untraced + traced
    env["loadavg_after"] = os.getloadavg()
    env["engines"] = repeats[0].outcome.engines

    # Output checks, the determinism guard (every repeat, traced or
    # not, matches the first) and the self-time ledger of each trace.
    reference = repeats[0].outcome.fingerprint()
    drifted = sum(
        1 for r in repeats[1:] if r.outcome.fingerprint() != reference
    )
    unbalanced = sum(
        1 for r in traced
        if sum(r.tracer.self_times(r.wall_ns).values()) != r.wall_ns
    )
    attempted = sum(r.outcome.ops_attempted for r in repeats) \
        + len(repeats) - 1 + len(traced)
    failed = sum(r.outcome.ops_failed for r in repeats) + drifted \
        + unbalanced
    failed_checks = sorted({
        check for r in repeats
        for check, ok in r.outcome.checks.items() if not ok
    })
    error_rate = failed / attempted

    if trace:
        overhead = statistics.median(r.wall_ns for r in traced) / \
            statistics.median(r.wall_ns for r in untraced)
        per_repeat = [
            layer_metrics(r, declared["per_layer"], overhead, error_rate)
            for r in traced
        ]
        metrics = {
            key: statistics.median(values[key] for values in per_repeat)
            for key in declared["per_layer"]
        }
        kind = "per_layer"
    else:
        metrics = host_metrics(untraced, setup)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kind = "end_to_end"
    missing = sorted(set(declared[kind]) ^ set(metrics))
    correct = failed == 0 and not missing

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env,
        "repeats": {"untraced": len(untraced), "traced": len(traced)},
        "run_s": [r.run_s for r in untraced],
        "calib_s": [r.calib_s for r in untraced],
        "setup_samples_s": setup,
        "wall_clock": host_metrics(untraced, setup, calibrated=False),
        "sim": repeats[0].outcome.sim,
        "checks": repeats[0].outcome.checks,
        "failed_checks": failed_checks,
        "drifted_repeats": drifted,
        "unbalanced_traces": unbalanced,
        "missing_metrics": missing,
        "error_rate": error_rate,
        "metrics": metrics,
    }
    if trace:
        report["self_time_share"] = self_time_shares(traced[-1])
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if trace:
        traced[-1].tracer.write(OUT_DIR / f"{stem}-spans.json",
                                traced[-1].wall_ns)

    print_report(report, declared[kind])
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed + len(missing),
        "metrics": {
            key: {"value": metrics[key], "unit": declared[kind][key]}
            for key in declared[kind] if key in metrics
        },
    }


def print_report(report: Dict[str, object], units: Dict[str, str]) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  "
          f"trace={int(report['trace'])}  repeats={report['repeats']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for key, value in report["sim"].items():
        print(f"  sim  {key:<28} {value:.6g}")
    for key, ok in report["checks"].items():
        print(f"  check {key:<27} {'ok' if ok else 'FAILED'}")
    print(f"  check {'deterministic':<27} "
          f"{'ok' if not report['drifted_repeats'] else 'FAILED'} "
          f"({report['drifted_repeats']} drifted)")
    if report["trace"]:
        print(f"  check {'self_times_sum_to_wall':<27} "
              f"{'ok' if not report['unbalanced_traces'] else 'FAILED'}")
    print(f"  error_rate {report['error_rate']:.6g}")
    if "self_time_share" in report:
        print("  self-time share of traced wall:")
        for layer, share in sorted(report["self_time_share"].items(),
                                   key=lambda item: -item[1]):
            print(f"    {layer:<14} {share:7.2%}")
    for key, value in report["wall_clock"].items():
        print(f"  wall-clock {key:<23} {value:.6g} {units.get(key, '')}")
    for key, value in report["metrics"].items():
        print(f"  {key:<34} {value:.6g} {units.get(key, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--threshold-gbps", type=float, default=None,
        help="dos-flood detection threshold (default: the scenario's); "
             "a value the flooder never crosses makes the checks fail",
    )
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.threshold_gbps is not None and names != ["dos-flood"]:
        parser.error("--threshold-gbps applies to --workload dos-flood only")
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.threshold_gbps)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
