"""Command-line interface: the reproduction's ``mantis`` tool.

Subcommands mirror the workflow of the paper's toolchain:

- ``compile``  -- P4R in, malleable P4 + control-plane spec out
  (the Mantis compiler front door);
- ``inspect``  -- summarize a P4R program: malleables, reactions,
  generated init/measurement layout, resource accounting;
- ``run``      -- bring up the full emulated stack on a P4R program
  and run the dialogue loop for a simulated duration, reporting
  iteration statistics;
- ``run-fabric`` -- run the two-switch multi-hop failover scenario on
  the fabric runtime (both agents as scheduled actors) and emit a
  JSON summary;
- ``run-fattree`` -- run the FatTree(k) fleet rebalancing scenario:
  one scheduler driving a per-switch agent on every edge/agg/core
  switch against an adversarially polarized traffic matrix;
- ``bench-fabric`` -- fabric scaling benchmark: events/sec on a
  2-switch pair vs the FatTree fleet plus the rebalance-vs-static
  max-link-utilization headline (tier-2 perf gate);
- ``bench-fastpath`` -- measure packets/sec of the interpreter vs the
  compiled per-packet vs the compiled burst pipeline on the Figure 15
  DoS workload (tier-2 perf gate);
- ``bench-agent`` -- measure the control-plane fast path: compiled vs
  interpreted reactions/sec, dirty-diff vs full commit op counts, and
  the delta-polling skip rate (tier-2 perf gate);
- ``bench-linkguard`` -- sweep lossy-link rates through the
  LinkGuardian-style protection scenario and emit throughput/FCT
  curves comparing no-protection vs Mantis protection;
- ``bench-ctrl`` -- control-plane service sustained-throughput
  benchmark: sync vs pipelined vs DMA-bulk table updates at 1M+
  entries, contended multi-client latency percentiles, and the
  FatTree(k=8) fleet route-install timing (tier-2 perf gate).

Usage:  python -m repro.cli compile prog.p4r -o build/
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.resources import resource_report
from repro.artifacts import save_artifacts
from repro.compiler.transform import CompilerOptions, compile_p4r
from repro.errors import ReproError
from repro.runtime import AgentActor, Scheduler
from repro.system import MantisSystem


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _compiler_options(args) -> CompilerOptions:
    return CompilerOptions(
        max_init_action_bits=args.init_bits,
        max_init_action_params=args.init_params,
        load_fields=frozenset(args.load_field or ()),
    )


def cmd_compile(args) -> int:
    source = _read(args.source)
    artifacts = compile_p4r(source, _compiler_options(args))
    name = args.name
    paths = save_artifacts(artifacts, args.output, name, p4r_source=source)
    for kind, path in sorted(paths.items()):
        print(f"wrote {kind:5s} {path}")
    return 0


def cmd_inspect(args) -> int:
    source = _read(args.source)
    artifacts = compile_p4r(source, _compiler_options(args))
    spec = artifacts.spec

    print("== Malleables ==")
    for name, value in spec.values.items():
        print(f"  value {name}: width={value.width} init={value.init} "
              f"@ {value.init_table}.{value.param}")
    for name, fld in spec.fields.items():
        print(f"  field {name}: width={fld.width} alts={fld.alts} "
              f"strategy={fld.strategy}")
    malleable_tables = [
        n for n, t in spec.tables.items()
        if t.malleable and not n.startswith("p4r_init")
    ]
    for name in malleable_tables:
        transform = spec.tables[name]
        print(f"  table {name}: key parts={transform.total_key_parts} "
              f"vv@{transform.vv_position}")

    print("\n== Init tables ==")
    for init in spec.init_tables:
        params = ", ".join(f"{p.name}:{p.width}" for p in init.params)
        role = "master" if init.master else "shadowed"
        print(f"  {init.table} ({role}): {params}")

    print("\n== Measurements ==")
    for container in spec.containers:
        slots = ", ".join(
            f"{s.c_name}@{s.shift}+{s.width}" for s in container.slots
        )
        print(f"  {container.register} ({container.pipeline}): {slots}")
    for mirror in spec.mirrors.values():
        suffix = " (original eliminated)" if mirror.original_eliminated else ""
        print(f"  mirror {mirror.original} -> {mirror.duplicate} "
              f"[{mirror.count} entries, ts={mirror.ts}]{suffix}")

    print("\n== Reactions ==")
    for reaction in spec.reactions.values():
        arg_list = ", ".join(
            f"{a.kind} {a.c_name}" for a in reaction.decl.args
        )
        print(f"  {reaction.name}({arg_list})")

    print("\n== Resources (compiled program) ==")
    print(" ", resource_report(artifacts.p4).row())
    return 0


def cmd_run(args) -> int:
    source = _read(args.source)
    kwargs = {}
    if args.fault_seed is not None:
        from repro.faults import random_fault_plan
        from repro.switch.driver import RetryPolicy

        kwargs["fault_plan"] = random_fault_plan(
            args.fault_seed, duration_us=args.duration
        )
        kwargs["retry_policy"] = RetryPolicy()
        kwargs["verify_commits"] = True
    system = MantisSystem.from_source(
        source, _compiler_options(args), pacing_sleep_us=args.pacing,
        reaction_engine=args.engine, commit_mode=args.commit_mode,
        delta_polling=args.delta_polling,
        **kwargs,
    )
    system.agent.prologue()
    # The dialogue loop runs as a scheduled actor on the runtime
    # timeline -- the same path a multi-switch fabric uses.
    scheduler = Scheduler(clock=system.clock)
    scheduler.spawn(AgentActor(system.agent))
    scheduler.run_until(args.duration)
    iterations = system.agent.iterations
    health = system.agent.health()
    print(f"simulated {system.clock.now:.1f} us, "
          f"{iterations} dialogue iterations")
    print(f"reaction engine   : {health.reaction_engine} "
          f"(commits={health.commit_mode}, "
          f"delta_polling={'on' if health.delta_polling else 'off'})")
    print(f"avg reaction time : {system.agent.avg_reaction_time_us:.2f} us")
    print(f"cpu utilization   : {system.agent.cpu_utilization:.1%}")
    phases = system.agent.phase_totals
    split = ", ".join(
        f"{name.rsplit('_us', 1)[0]}={phases[name]:.1f}"
        for name in ("mv_flip_us", "poll_us", "react_us", "commit_us")
    )
    print(f"phase split (us)  : {split}")
    print(f"driver operations : {system.driver.ops_issued}")
    print(f"dirty-diff hits   : {health.dirty_diff_hit_rate:.1%} "
          f"of malleable writes deduplicated")
    if health.delta_polling:
        print(f"delta-poll skips  : {health.delta_poll_skip_rate:.1%} "
              f"of mirror polls")
    status = "healthy" if health.healthy else "DEGRADED"
    print(f"agent health      : {status} "
          f"(failures={health.total_failures}, "
          f"retries={health.driver_retries}, "
          f"timeouts={health.driver_timeouts})")
    if health.last_error:
        print(f"last error        : {health.last_error} "
              f"@ {health.last_error_us:.1f} us")
    if system.fault_injector is not None:
        print(f"injected faults   : {system.fault_injector.triggered} "
              f"(seed {args.fault_seed})")
    if args.json:
        import json
        from dataclasses import asdict

        summary = {
            "simulated_us": system.clock.now,
            "iterations": iterations,
            "avg_reaction_time_us": system.agent.avg_reaction_time_us,
            "cpu_utilization": system.agent.cpu_utilization,
            "phase_totals_us": dict(phases),
            "driver_ops": system.driver.ops_issued,
            "health": asdict(health),
        }
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=1)
        print(f"wrote {args.json}")
    return 0


def cmd_run_fabric(args) -> int:
    import json

    from repro.apps.failover import run_multihop_failover

    summary = run_multihop_failover(
        duration_us=args.duration,
        fail_at_us=args.fail_at,
        heartbeat_period_us=args.heartbeat_period,
        data_rate_gbps=args.rate,
    )
    detection = summary["detection"]
    print(f"scenario          : {summary['scenario']}")
    print(f"switches          : {', '.join(summary['switches'])}")
    print(f"simulated         : {summary['duration_us']:.1f} us "
          f"(link 0 cut at +{args.fail_at:.1f} us)")
    print(f"data delivered    : {summary['sink_rx_packets']} / "
          f"{summary['sender_tx_packets']} packets")
    print(f"s0 forwarded      : {summary['s0_forwarded']} packets "
          f"({summary['s0_link0_dropped']} dropped on dead link)")
    iters = summary["agent_iterations"]
    print(f"agent iterations  : s0={iters['s0']} s1={iters['s1']} "
          f"({summary['agent_actor_fires']} actor fires on one timeline)")
    for name, agent_info in summary.get("agents", {}).items():
        status = "healthy" if agent_info["healthy"] else "DEGRADED"
        print(f"agent {name:12s}: {status}, "
              f"engine={agent_info['reaction_engine']}, "
              f"commits={agent_info['commit_mode']}, "
              f"dirty-diff hits={agent_info['dirty_diff_hit_rate']:.1%}")
    for link in summary.get("links", []):
        state = "up" if link["up"] else "DOWN"
        print(f"link {link['name']:13s}: {state}, "
              f"fault_dropped={link['fault_dropped']}, "
              f"fault_corrupted={link['fault_corrupted']}")
    fires = summary.get("per_agent_fires", {})
    for name, stats in summary.get("per_switch", {}).items():
        print(f"switch {name:11s}: delivered={stats['delivered']} "
              f"forwarded={stats['forwarded']} "
              f"tx={stats['tx_packets']} "
              f"drops={stats['switch_drops']} "
              f"agent_fires={fires.get(f'{name}.agent', 0)}")
    latency = detection["detection_latency_us"]
    if summary["rerouted"]:
        print(f"detection latency : {latency:.1f} us "
              f"(s0 @ {detection['s0_port0_detected_us']:.1f}, "
              f"s1 @ {detection['s1_port0_detected_us']:.1f})")
        print(f"rerouted          : s0 @ "
              f"{detection['s0_rerouted_us']:.1f} us")
    else:
        print("rerouted          : NO (detector never fired)")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=1)
        print(f"wrote {args.json}")
    return 0 if summary["rerouted"] else 1


def cmd_run_fattree(args) -> int:
    import json

    from repro.apps.fabric_lb import compare_fattree, run_fattree_rebalance

    if args.compare:
        result = compare_fattree(
            k=args.k, duration_us=args.duration,
            flows_per_host=args.flows_per_host,
            rate_gbps_per_flow=args.rate,
        )
        static, mantis = result["static"], result["mantis"]
        print(f"scenario          : {result['scenario']} (k={args.k})")
        print(f"fleet             : {mantis['switches']} switches, "
              f"{mantis['hosts']} hosts, {mantis['flows']} flows")
        print(f"static max util   : {result['static_max_utilization']:.4f} "
              f"(hot: {', '.join(static['hot_links'])})")
        print(f"mantis max util   : {result['mantis_max_utilization']:.4f} "
              f"({mantis['shifting_switches']} switches shifted "
              f"{mantis['total_shifts']}x)")
        print(f"improvement       : {result['improvement']:.1%}")
        summary = result
    else:
        summary = run_fattree_rebalance(
            k=args.k, duration_us=args.duration, mantis=not args.static,
            mode=args.mode, flows_per_host=args.flows_per_host,
            rate_gbps_per_flow=args.rate,
            route_bulk=not args.route_per_entry,
        )
        print(f"scenario          : {summary['scenario']} (k={args.k}, "
              f"mode={summary['mode']}, "
              f"{'mantis' if summary['mantis'] else 'static'})")
        print(f"fleet             : {summary['switches']} switches, "
              f"{summary['hosts']} hosts, {summary['flows']} flows")
        print(f"delivered         : {summary['received_packets']} / "
              f"{summary['sent_packets']} packets "
              f"({summary['delivery_rate']:.1%})")
        print(f"max link util     : {summary['max_link_utilization']:.4f} "
              f"(mean {summary['mean_link_utilization']:.4f})")
        print(f"hot links         : {', '.join(summary['hot_links'])}")
        install = summary["route_install"]
        print(f"route install     : {install['driver_ops']} entries as "
              f"{install['bulk_txns']} bulk txns"
              if install["bulk"] else
              f"route install     : {install['driver_ops']} per-entry ops")
        if summary["mantis"]:
            print(f"shifts            : {summary['total_shifts']} across "
                  f"{summary['shifting_switches']} switches "
                  f"(first @ +{summary['first_shift_us'] or 0:.1f} us)"
                  if summary["total_shifts"]
                  else "shifts            : none")
            print(f"agent fires       : {summary['agent_actor_fires']} "
                  f"across {len(summary['per_agent_fires'])} agents")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=1)
        print(f"wrote {args.json}")
    return 0


def cmd_bench_fabric(args) -> int:
    from repro.fastbench import run_fabric_benchmark

    json_path = args.bench_json or args.json
    result = run_fabric_benchmark(
        duration_us=args.duration, k=args.k, json_path=json_path,
    )
    print(f"workload          : {result['workload']} (k={result['k']})")
    for count, point in sorted(
        result["scaling"].items(), key=lambda kv: int(kv[0])
    ):
        print(f"{count:>2s} switches       : "
              f"{point['events_per_sec']:>12,.1f} events/s "
              f"({point['events']} events, {point['wall_sec']:.3f} s wall, "
              f"{point['actor_fires']} actor fires)")
    print(f"scaling ratio     : {result['scaling_ratio']:.2f}x "
          "(fleet vs pair events/s)")
    print(f"static max util   : {result['static_max_utilization']:.4f}")
    print(f"mantis max util   : {result['mantis_max_utilization']:.4f} "
          f"({result['shifting_switches']} switches shifted "
          f"{result['total_shifts']}x)")
    print(f"improvement       : {result['improvement']:.1%}")
    print(f"delivery (mantis) : {result['mantis_delivery_rate']:.1%}")
    if json_path:
        print(f"wrote {json_path}")
    return 0


def cmd_bench_fastpath(args) -> int:
    from repro.fastbench import run_fastpath_benchmark

    json_path = args.bench_json or args.json
    result = run_fastpath_benchmark(
        n_packets=args.packets,
        json_path=json_path,
        batch_size=args.batch_size,
        profile=args.profile,
    )
    print(f"workload          : {result['workload']}")
    print(f"packets           : {result['packets']}")
    print(f"interpreter       : {result['interpreter_pps']:>12,.1f} pkt/s")
    print(f"compiled          : {result['compiled_pps']:>12,.1f} pkt/s")
    batch_label = f"batch (x{result['batch_size']})"
    print(f"{batch_label:<18s}: {result['batch_pps']:>12,.1f} pkt/s")
    print(f"speedup           : {result['speedup']:.2f}x "
          "(compiled vs interpreter)")
    print(f"batch speedup     : "
          f"{result['batch_speedup_vs_compiled']:.2f}x "
          "(batch vs compiled per-packet)")
    if args.profile:
        profile = result["profile"]
        print("-- hot loops (data plane) --")
        for section in ("control_runs", "table_applies", "action_runs"):
            counts = profile["data_plane"][section]
            ranked = sorted(counts.items(), key=lambda kv: -kv[1])
            rendered = ", ".join(f"{name}={count}" for name, count in ranked)
            print(f"  {section:13s}: {rendered}")
        print("-- hot loops (agent, cumulative us) --")
        for phase, total in profile["agent_phases_us"].items():
            print(f"  {phase:13s}: {total}")
    if json_path:
        print(f"wrote {json_path}")
    return 0


def cmd_bench_agent(args) -> int:
    from repro.fastbench import run_agent_benchmark

    json_path = args.bench_json or args.json
    result = run_agent_benchmark(
        iterations=args.iterations,
        json_path=json_path,
    )
    print(f"workload          : {result['workload']}")
    print(f"iterations        : {result['iterations']}")
    print(f"interpreted       : {result['interp_rps']:>12,.1f} reactions/s")
    print(f"compiled          : {result['compiled_rps']:>12,.1f} reactions/s")
    print(f"speedup           : {result['speedup']:.2f}x "
          "(compiled vs interpreted)")
    phases = result["compiled_phase_us"]
    split = ", ".join(
        f"{name.rsplit('_us', 1)[0]}={phases[name]:.1f}"
        for name in ("mv_flip_us", "poll_us", "react_us", "commit_us")
    )
    print(f"phase split (us)  : {split}")
    print(f"commit ops        : diff={result['diff_commit_ops']} "
          f"vs full={result['full_commit_ops']}")
    print(f"dirty-diff hits   : {result['dirty_diff_hit_rate']:.1%}")
    print(f"delta-poll skips  : {result['delta_poll_skip_rate']:.1%} "
          f"(ops {result['delta_poll_ops']} vs "
          f"{result['diff_commit_ops']} without)")
    if json_path:
        print(f"wrote {json_path}")
    return 0


def cmd_bench_linkguard(args) -> int:
    import json

    from repro.apps.linkguard import run_linkguard_sweep

    try:
        loss_rates = tuple(
            float(part) for part in args.loss.split(",") if part.strip()
        )
    except ValueError:
        print(f"error: --loss expects comma-separated rates, "
              f"got {args.loss!r}", file=sys.stderr)
        return 1
    if not loss_rates:
        print("error: --loss expects at least one rate", file=sys.stderr)
        return 1
    result = run_linkguard_sweep(
        loss_rates=loss_rates,
        duration_us=args.duration,
        probe_period_us=args.probe_period,
        transfer_packets=args.transfer,
    )
    print(f"scenario          : linkguard loss sweep "
          f"({args.duration:.0f} us per run, tcp transport)")
    print(f"{'loss':>8s} {'base Gbps':>10s} {'prot Gbps':>10s} "
          f"{'tput x':>7s} {'base FCT':>9s} {'prot FCT':>9s} "
          f"{'FCT x':>6s} {'protect@us':>10s}")
    for loss in loss_rates:
        point = result["points"][repr(loss)]
        base = point["baseline"]
        prot = point["protected"]
        def fmt(value, width, precision=2):
            if value is None:
                return f"{'-':>{width}s}"
            return f"{value:>{width}.{precision}f}"

        print(f"{loss:>8g} {base['throughput_gbps']:>10.2f} "
              f"{prot['throughput_gbps']:>10.2f} "
              f"{point['throughput_ratio']:>7.2f} "
              f"{fmt(base['avg_fct_us'], 9, 1)} "
              f"{fmt(prot['avg_fct_us'], 9, 1)} "
              f"{fmt(point['fct_ratio'], 6)} "
              f"{fmt(prot.get('protect_time_us'), 10, 1)}")
    gate = result["gate"]
    if gate["pass"] is not None:
        verdict = "PASS" if gate["pass"] else "FAIL"
        fct = (f"{gate['fct_ratio']:.2f}x"
               if gate["fct_ratio"] is not None else "-")
        print(f"gate @ {gate['loss_rate']:g} loss : {verdict} "
              f"(throughput {gate['throughput_ratio']:.2f}x, "
              f"FCT {fct}; need >=2x tput or <=0.5x FCT)")
    json_path = args.bench_json or args.json
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(result, handle, indent=1)
        print(f"wrote {json_path}")
    return 0 if gate["pass"] in (True, None) else 1


def cmd_bench_ctrl(args) -> int:
    from repro.ctrl.bench import run_ctrl_benchmark

    if args.entries < 1:
        print("error: --entries expects a positive update count",
              file=sys.stderr)
        return 1
    json_path = args.bench_json or args.json
    result = run_ctrl_benchmark(
        entries=args.entries,
        contended_duration_us=args.duration,
        install_k=args.k,
        json_path=json_path,
    )
    modes = result["modes"]
    print(f"update stream     : {result['entries']:,} table modifies "
          f"over a {result['update_window']:,}-entry window")
    print(f"{'mode':>10s} {'sim us/op':>10s} {'sim ops/s':>14s} "
          f"{'wall ops/s':>12s}")
    for name in ("sync", "pipelined", "bulk"):
        mode = modes[name]
        print(f"{name:>10s} {mode['us_per_op']:>10.3f} "
              f"{mode['sim_updates_per_sec']:>14,.0f} "
              f"{mode['wall_updates_per_sec']:>12,.0f}")
    speedup = result["speedup"]
    gates = result["gates"]
    print(f"pipelined speedup : {speedup['pipelined_vs_sync']:.2f}x "
          f"(gate >= {gates['pipelined_min']:.1f}x: "
          f"{'PASS' if gates['pipelined_pass'] else 'FAIL'})")
    print(f"bulk speedup      : {speedup['bulk_vs_sync']:.2f}x "
          f"(gate >= {gates['bulk_min']:.1f}x: "
          f"{'PASS' if gates['bulk_pass'] else 'FAIL'})")
    contended = result["contended"]
    print(f"contended legacy  : p50={contended['legacy_p50_us']:.2f} us "
          f"p99={contended['legacy_p99_us']:.2f} us "
          f"({contended['legacy_updates']} updates vs "
          f"{contended['agent_iterations']} agent iterations + "
          f"{contended['loader_ops_completed']:,} bulk-loader ops)")
    print(f"offline cross-chk : p50={contended['offline_p50_us']:.2f} us "
          f"p99={contended['offline_p99_us']:.2f} us")
    install = result["route_install"]
    print(f"route install k={install['k']} : bulk "
          f"{install['bulk']['install_wall_sec']:.2f}s wall / "
          f"{install['bulk']['install_sim_us']:.0f} sim us vs per-entry "
          f"{install['per_entry']['install_sim_us']:.0f} sim us "
          f"({install['sim_speedup']:.1f}x, "
          f"{install['bulk']['driver_ops']:,} entries, "
          f"{install['bulk']['bulk_txns']} txns)")
    if json_path:
        print(f"wrote {json_path}")
    return 0 if gates["pipelined_pass"] and gates["bulk_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mantis",
        description="Mantis (SIGCOMM 2020) reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("source", help="P4R source file")
        p.add_argument("--init-bits", type=int, default=512,
                       help="init-action parameter bit budget")
        p.add_argument("--init-params", type=int, default=64,
                       help="max parameters per init action")
        p.add_argument("--load-field", action="append",
                       help="force a malleable field to the "
                            "load-in-prior-stage strategy")

    p_compile = sub.add_parser(
        "compile", help="compile P4R to malleable P4 + spec"
    )
    common(p_compile)
    p_compile.add_argument("-o", "--output", default="build",
                           help="output directory")
    p_compile.add_argument("--name", default="program",
                           help="artifact base name")
    p_compile.set_defaults(func=cmd_compile)

    p_inspect = sub.add_parser(
        "inspect", help="summarize a P4R program's compiled layout"
    )
    common(p_inspect)
    p_inspect.set_defaults(func=cmd_inspect)

    p_run = sub.add_parser(
        "run", help="run the dialogue loop on the emulated stack"
    )
    common(p_run)
    p_run.add_argument("--duration", type=float, default=1000.0,
                       help="simulated microseconds to run")
    p_run.add_argument("--pacing", type=float, default=0.0,
                       help="pacing sleep per iteration (us)")
    p_run.add_argument("--fault-seed", type=int, default=None,
                       help="inject a seeded random fault plan and arm "
                            "driver retries + commit verification")
    p_run.add_argument("--engine", choices=("compiled", "interp"),
                       default=None,
                       help="reaction engine (default: MANTIS_REACTION "
                            "env var, falling back to compiled)")
    p_run.add_argument("--commit-mode", choices=("diff", "full"),
                       default="diff",
                       help="commit only dirty init shadows (diff) or "
                            "rewrite all of them (full)")
    p_run.add_argument("--delta-polling", action="store_true",
                       help="skip mirror polls whose seq counter did "
                            "not advance")
    p_run.add_argument("--json", default=None,
                       help="write the run summary (stats + health) to "
                            "this path")
    p_run.set_defaults(func=cmd_run)

    p_fabric = sub.add_parser(
        "run-fabric",
        help="run the two-switch multi-hop failover scenario on the "
             "fabric runtime",
    )
    p_fabric.add_argument("--duration", type=float, default=600.0,
                          help="simulated microseconds to run")
    p_fabric.add_argument("--fail-at", type=float, default=200.0,
                          help="cut inter-switch link 0 this many "
                               "simulated us after start")
    p_fabric.add_argument("--heartbeat-period", type=float, default=1.0,
                          help="probe period T_s (us)")
    p_fabric.add_argument("--rate", type=float, default=4.0,
                          help="data sender rate (Gbps)")
    p_fabric.add_argument("--json", default=None,
                          help="write the JSON summary to this path")
    p_fabric.set_defaults(func=cmd_run_fabric)

    p_tree = sub.add_parser(
        "run-fattree",
        help="run the FatTree(k) fleet rebalancing scenario (one "
             "scheduler, ~20 per-switch agents)",
    )
    p_tree.add_argument("--k", type=int, default=4,
                        help="fat-tree arity (k pods, k^2*5/4 switches)")
    p_tree.add_argument("--duration", type=float, default=1200.0,
                        help="simulated microseconds to run")
    p_tree.add_argument("--mode",
                        choices=("hashed", "round_robin", "random"),
                        default="hashed",
                        help="ECMP install mode (hashed is the "
                             "Mantis-rebalanceable path)")
    p_tree.add_argument("--static", action="store_true",
                        help="freeze the control plane after route "
                             "install (baseline)")
    p_tree.add_argument("--compare", action="store_true",
                        help="run static and mantis back to back and "
                             "report the utilization improvement")
    p_tree.add_argument("--flows-per-host", type=int, default=4,
                        help="flows per sending host")
    p_tree.add_argument("--rate", type=float, default=1.0,
                        help="rate per flow (Gbps)")
    p_tree.add_argument("--route-per-entry", action="store_true",
                        help="install routes one driver op per entry "
                             "instead of coalesced DMA-burst "
                             "transactions (bulk is the default)")
    p_tree.add_argument("--json", default=None,
                        help="write the JSON summary to this path")
    p_tree.set_defaults(func=cmd_run_fattree)

    p_fab_bench = sub.add_parser(
        "bench-fabric",
        help="fabric scaling benchmark: events/sec on a 2-switch pair "
             "vs the FatTree fleet, plus rebalance-vs-static max-link "
             "utilization",
    )
    p_fab_bench.add_argument("--duration", type=float, default=1200.0,
                             help="simulated microseconds per run")
    p_fab_bench.add_argument("--k", type=int, default=4,
                             help="fat-tree arity for the fleet point")
    p_fab_bench.add_argument("--json", default=None,
                             help="write the result payload to this path")
    p_fab_bench.add_argument("--bench-json", nargs="?",
                             const="BENCH_fabric.json",
                             default=None, metavar="PATH",
                             help="write the tracked benchmark artifact "
                                  "(default path: BENCH_fabric.json at "
                                  "the repo root)")
    p_fab_bench.set_defaults(func=cmd_bench_fabric)

    p_bench = sub.add_parser(
        "bench-fastpath",
        help="compare interpreter vs compiled per-packet vs compiled "
             "burst pipeline packet rates",
    )
    p_bench.add_argument("--packets", type=int, default=20_000,
                         help="packets to pump through each engine")
    p_bench.add_argument("--batch-size", type=int, default=256,
                         help="packets per process_batch call in "
                              "burst mode")
    p_bench.add_argument("--profile", action="store_true",
                         help="also report hot-loop counters (data-plane "
                              "control/table/action counts and agent "
                              "per-phase time)")
    p_bench.add_argument("--json", default=None,
                         help="write the result payload to this path")
    p_bench.add_argument("--bench-json", nargs="?", const="BENCH_fastpath.json",
                         default=None, metavar="PATH",
                         help="write the tracked benchmark artifact "
                              "(default path: BENCH_fastpath.json at the "
                              "repo root)")
    p_bench.set_defaults(func=cmd_bench_fastpath)

    p_agent = sub.add_parser(
        "bench-agent",
        help="compare interpreted vs compiled reaction engines and "
             "diff vs full commits on the DoS dialogue loop",
    )
    p_agent.add_argument("--iterations", type=int, default=300,
                         help="dialogue iterations per engine")
    p_agent.add_argument("--json", default=None,
                         help="write the result payload to this path")
    p_agent.add_argument("--bench-json", nargs="?", const="BENCH_agent.json",
                         default=None, metavar="PATH",
                         help="write the tracked benchmark artifact "
                              "(default path: BENCH_agent.json at the "
                              "repo root)")
    p_agent.set_defaults(func=cmd_bench_agent)

    p_guard = sub.add_parser(
        "bench-linkguard",
        help="sweep lossy-link rates: no-protection vs Mantis "
             "linkguard protection (throughput + FCT curves)",
    )
    p_guard.add_argument("--loss", default="1e-4,1e-3,1e-2,1e-1",
                         help="comma-separated loss rates to sweep")
    p_guard.add_argument("--duration", type=float, default=4000.0,
                         help="simulated microseconds per run")
    p_guard.add_argument("--probe-period", type=float, default=1.0,
                         help="probe period per link direction (us)")
    p_guard.add_argument("--transfer", type=int, default=64,
                         help="packets per transfer for FCT samples")
    p_guard.add_argument("--json", default=None,
                         help="write the result payload to this path")
    p_guard.add_argument("--bench-json", nargs="?",
                         const="BENCH_linkguard.json",
                         default=None, metavar="PATH",
                         help="write the tracked benchmark artifact "
                              "(default path: BENCH_linkguard.json at "
                              "the repo root)")
    p_guard.set_defaults(func=cmd_bench_linkguard)

    p_ctrl = sub.add_parser(
        "bench-ctrl",
        help="control-plane service sustained-throughput benchmark: "
             "sync vs pipelined vs bulk table updates, contended-client "
             "latency, fleet route-install timing",
    )
    p_ctrl.add_argument("--entries", type=int, default=1_048_576,
                        help="table updates per throughput mode")
    p_ctrl.add_argument("--duration", type=float, default=30_000.0,
                        help="contended-scenario window (simulated us)")
    p_ctrl.add_argument("--k", type=int, default=8,
                        help="fat-tree arity for the route-install "
                             "timing")
    p_ctrl.add_argument("--json", default=None,
                        help="write the result payload to this path")
    p_ctrl.add_argument("--bench-json", nargs="?", const="BENCH_ctrl.json",
                        default=None, metavar="PATH",
                        help="write the tracked benchmark artifact "
                             "(default path: BENCH_ctrl.json at the "
                             "repo root)")
    p_ctrl.set_defaults(func=cmd_bench_ctrl)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
