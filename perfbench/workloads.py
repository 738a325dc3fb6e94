"""The benchmark's three workloads, driven through the public APIs.

Each workload is split into four steps so the runner can time them
apart:

- ``inputs(seed)``  -- the generated inputs (pure data, from the seed
  only: flow start phases, benign source addresses, legacy arrival
  phase, loader values);
- ``build(inputs)`` -- compile, build, prologue and route install: the
  set-up a user pays before the first simulated microsecond;
- ``run(state)``    -- drive the scenario in simulated time and drain
  it: the work the host rates time;
- ``outcome(state)`` -- read back an :class:`Outcome` holding the
  simulated-time metrics, the per-layer counts and the output checks
  (untimed: it is the benchmark's analysis, not the program's work).

Everything simulated is deterministic for a given seed, so two runs of
one seed must produce identical ``Outcome.fingerprint()`` values.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.agent.legacy import LegacyClient, LiveLegacyClient, legacy_latencies
from repro.analysis.stats import percentile
from repro.apps.dos import build_dos_scenario
from repro.apps.fabric_lb import build_fattree_rebalance
from repro.ctrl.bench import CONTENDED_P4R
from repro.ctrl.clients import BulkLoader
from repro.runtime.scheduler import AgentActor, Scheduler
from repro.system import MantisSystem

#: Simulated time the fabric runs with senders stopped and agents
#: frozen, so every in-flight packet lands in one ledger bucket.
DRAIN_US = 1_000.0

# dos-flood: Fig. 15's three phases.
DOS_FLOW_START_US = 10.0
DOS_WARMUP_US = 3_000.0
DOS_ATTACK_US = 2_000.0
DOS_RECOVERY_US = 3_000.0
DOS_BURST = 64
DOS_ATTACKER = 0x0AFF0001
#: Benign sources are drawn from 10.0.0.0/16 below the victim address.
DOS_BENIGN_POOL = range(0x0A000001, 0x0A00FF00)

# fattree-rebalance.
FATTREE_DURATION_US = 1_500.0
#: Max link utilization of static ECMP hashing on this traffic matrix
#: (``run-fattree --static``); the Mantis fleet must beat it.
FATTREE_STATIC_MAX_UTIL = 0.64
FATTREE_MIN_DELIVERY = 0.95

# ctrl-contended: the ``repro.ctrl.bench.measure_contended`` shape.
CTRL_DURATION_US = 30_000.0
CTRL_LEGACY_INTERVAL_US = 11.0
CTRL_LOADER_OPS = 40_000
CTRL_LOADER_CHUNK = 64
CTRL_LOADER_QUEUE = 8
#: Live vs offline Fig. 12 p50 agreement, as in the ctrl benchmark test.
CTRL_OFFLINE_TOLERANCE_US = 1.0

#: Drop-ledger buckets that consume a packet (``NetworkSim.drop_totals``).
LEDGER_SINKS = (
    "delivered", "switch_drops", "egress_dropped", "rx_dropped",
    "port_fault_dropped", "link_fault_dropped",
)


@dataclass
class Outcome:
    """What one run of a workload produced."""

    sim_us: float            # simulated time advanced by the run
    work_items: int          # packets put on the wire, or driver ops applied
    sim: Dict[str, float]    # simulated-time fidelity metrics
    counts: Dict[str, float]  # per-layer counts read back from the objects
    checks: Dict[str, bool]  # output checks (True = passed)
    ops_attempted: int
    ops_failed: int
    engines: Dict[str, List[str]] = field(default_factory=dict)

    def fingerprint(self) -> Dict[str, object]:
        """Everything that must repeat exactly for one seed."""
        return {
            "sim_us": self.sim_us,
            "work_items": self.work_items,
            "sim": self.sim,
            "counts": self.counts,
            "checks": self.checks,
            "ops_attempted": self.ops_attempted,
            "ops_failed": self.ops_failed,
        }


# ---- shared read-back helpers ----------------------------------------------


def _agent_counts(systems) -> Dict[str, float]:
    agents = [system.agent for system in systems]
    durations = [d for agent in agents for d in agent.iteration_durations]
    staged = sum(agent.dirty_writes_staged for agent in agents)
    skipped = sum(agent.dirty_writes_skipped for agent in agents)
    counts = {
        "agent.iterations": sum(agent.iterations for agent in agents),
        "agent.reaction_p50_us": percentile(durations, 50),
        "agent.reaction_p99_us": percentile(durations, 99),
        "agent.dirty_diff_hit_rate":
            skipped / (staged + skipped) if staged + skipped else 0.0,
        "agent.delta_poll_skip_rate": sum(
            agent.health().delta_poll_skip_rate for agent in agents
        ) / len(agents),
    }
    for phase in ("mv_flip", "poll", "react", "commit"):
        counts[f"agent.phase_us.{phase}"] = sum(
            agent.phase_totals[f"{phase}_us"] for agent in agents
        )
    return counts


def _switch_counts(systems) -> Dict[str, float]:
    asics = [system.asic for system in systems]
    batches = sum(asic.batch_stats.batches for asic in asics)
    batch_pkts = sum(asic.batch_stats.packets for asic in asics)
    slow = sum(asic.batch_stats.slow_path for asic in asics)
    return {
        "switch.pkts": sum(asic.packets_processed for asic in asics),
        "switch.burst_calls": batches,
        "switch.burst_mean": batch_pkts / batches if batches else 0.0,
        "switch.slow_path_share": slow / batch_pkts if batch_pkts else 0.0,
    }


def _driver_counts(systems) -> Dict[str, float]:
    drivers = [system.driver for system in systems]
    return {
        "driver.ops": sum(d.ops_issued for d in drivers),
        "driver.bulk_txns": sum(d.bulk_txns for d in drivers),
        "driver.errors": sum(d.errors_total for d in drivers),
        "driver.retries": sum(d.retries_total for d in drivers),
    }


def _net_counts(fabric, host_tx: int) -> Dict[str, float]:
    totals = fabric.drop_totals()
    return {
        "net.host_tx": host_tx,
        "net.hops": totals["forwarded"] + totals["delivered"],
        "net.delivered": totals["delivered"],
        "net.drops.switch": totals["switch_drops"],
        "net.drops.egress": totals["egress_dropped"],
        "net.drops.rx": totals["rx_dropped"],
    }


def _runtime_counts(scheduler) -> Dict[str, float]:
    return {
        "runtime.events": scheduler.events.processed,
        "runtime.actor_fires": scheduler.actor_fires,
    }


def _ledger_balances(fabric, host_tx: int) -> bool:
    totals = fabric.drop_totals()
    return host_tx == sum(totals[key] for key in LEDGER_SINKS)


def _engines(systems) -> Dict[str, List[str]]:
    return {
        "pipeline": sorted({s.asic.execution_mode for s in systems}),
        "reaction": sorted({s.agent.reaction_engine for s in systems}),
    }


def _common_checks(systems) -> Dict[str, bool]:
    return {
        "agents_healthy": all(s.agent.health().healthy for s in systems),
    }


def _ops(systems, checks: Dict[str, bool]):
    attempted = sum(s.driver.op_attempts for s in systems) + len(checks)
    failed = sum(s.driver.ops_failed for s in systems) + sum(
        1 for ok in checks.values() if not ok
    )
    return attempted, failed


# ---- dos-flood --------------------------------------------------------------


class DosFlood:
    """Fig. 15 at ``build_dos_scenario`` defaults with a 64-packet
    burst flooder: warm-up, attack, recovery."""

    name = "dos-flood"

    def __init__(self, threshold_gbps: Optional[float] = None):
        self.threshold_gbps = threshold_gbps

    def inputs(self, seed: int) -> Dict[str, object]:
        rng = random.Random(f"{self.name}:{seed}")
        n_benign = inspect.signature(build_dos_scenario).parameters[
            "n_benign"
        ].default
        return {
            "benign_addrs": rng.sample(DOS_BENIGN_POOL, n_benign),
            # Each flow starts at a random phase of its pacing interval.
            "start_phases": [rng.random() for _ in range(n_benign)],
            "attack_offset_us": rng.uniform(0.0, 10.0),
        }

    def build(self, inputs) -> SimpleNamespace:
        kwargs = {"burst_size": DOS_BURST}
        if self.threshold_gbps is not None:
            kwargs["threshold_gbps"] = self.threshold_gbps
        app, sim, flows, sink, attacker = build_dos_scenario(**kwargs)
        sink.flows.clear()
        for flow, addr in zip(flows, inputs["benign_addrs"]):
            flow.fields["ipv4.srcAddr"] = addr
            sink.register_flow(addr, flow)
        app.prologue()
        return SimpleNamespace(inputs=inputs, app=app, sim=sim, flows=flows,
                               attacker=attacker)

    def run(self, state: SimpleNamespace) -> None:
        sim, flows, attacker = state.sim, state.flows, state.attacker
        state.start = start = sim.clock.now
        for flow, phase in zip(flows, state.inputs["start_phases"]):
            flow.start(at_us=start + DOS_FLOW_START_US
                       + phase * flow.pace_interval_us)
        sim.run_until(start + DOS_WARMUP_US)
        state.attack_start = attack_start = (
            start + DOS_WARMUP_US + state.inputs["attack_offset_us"]
        )
        attacker.start(at_us=attack_start)
        sim.run_until(attack_start + DOS_ATTACK_US)
        state.acked_before = sum(flow.acked for flow in flows)
        sim.run_until(attack_start + DOS_ATTACK_US + DOS_RECOVERY_US)
        state.acked_after = sum(flow.acked for flow in flows)
        for flow in flows:
            flow.stop()
        attacker.stop()
        sim.run_until(sim.clock.now + DRAIN_US, agent=False)

    def outcome(self, state: SimpleNamespace) -> Outcome:
        app, sim, flows = state.app, state.sim, state.flows
        systems = [app.system]
        host_tx = state.attacker.tx_packets + sum(f.tx_packets for f in flows)
        block_time = app.block_times.get(DOS_ATTACKER)
        recovered_bits = (
            (state.acked_after - state.acked_before)
            * flows[0].size_bytes * 8
        )
        sim_metrics = {
            "agent.mitigation_us": block_time - state.attack_start
            if block_time is not None else 0.0,
            "net.benign_gbps": recovered_bits / (DOS_RECOVERY_US * 1000.0),
        }
        checks = {
            "attacker_blocked": block_time is not None,
            "no_benign_blocked": all(
                src == DOS_ATTACKER for src in app.block_times
            ),
            "ledger_balances": _ledger_balances(sim, host_tx),
            **_common_checks(systems),
        }
        counts = {
            **_agent_counts(systems), **_switch_counts(systems),
            **_driver_counts(systems), **_net_counts(sim, host_tx),
            **_runtime_counts(sim.scheduler),
        }
        attempted, failed = _ops(systems, checks)
        return Outcome(
            sim_us=sim.clock.now - state.start, work_items=host_tx,
            sim=sim_metrics, counts=counts, checks=checks,
            ops_attempted=attempted, ops_failed=failed,
            engines=_engines(systems),
        )


# ---- fattree-rebalance ------------------------------------------------------


class FattreeRebalance:
    """FatTree(4): 20 switches, 20 ``FabricLbApp`` agents, 32 polarized
    1 Gbps open-loop flows forwarded per packet over 5-hop paths."""

    name = "fattree-rebalance"

    def inputs(self, seed: int) -> Dict[str, object]:
        rng = random.Random(f"{self.name}:{seed}")
        # One start phase per sending host (k^3/8 = 8 hosts at k=4),
        # as a fraction of the flows' packet interval.
        return {"start_phases": [rng.random() for _ in range(8)]}

    def build(self, inputs) -> SimpleNamespace:
        return SimpleNamespace(inputs=inputs,
                               scenario=build_fattree_rebalance())

    def run(self, state: SimpleNamespace) -> None:
        scenario = state.scenario
        fabric = scenario.fabric
        state.start = start = fabric.clock.now
        for sender, phase in zip(scenario.senders,
                                 state.inputs["start_phases"]):
            interval = sender.flows[0]["interval_us"]
            sender.start(at_us=start + phase * interval)
        fabric.run_until(start + FATTREE_DURATION_US)
        # The window's figures, read before the drain adds to them.
        state.utilizations = fabric.link_utilizations(FATTREE_DURATION_US)
        state.sent = sum(sender.tx_packets for sender in scenario.senders)
        state.received = sum(
            sink.rx_packets for sink in scenario.sinks.values()
        )
        for sender in scenario.senders:
            sender.stop()
        fabric.run_until(fabric.clock.now + DRAIN_US, agent=False)

    def outcome(self, state: SimpleNamespace) -> Outcome:
        scenario = state.scenario
        fabric = scenario.fabric
        systems = [app.system for app in scenario.apps.values()]
        host_tx = sum(sender.tx_packets for sender in scenario.senders)
        max_util = max(state.utilizations.values())
        delivery = state.received / state.sent if state.sent else 0.0
        sim_metrics = {
            "net.max_link_util": max_util,
            "net.delivery_rate": delivery,
        }
        checks = {
            "beats_static_max_util": max_util < FATTREE_STATIC_MAX_UTIL,
            "delivery_rate": delivery > FATTREE_MIN_DELIVERY,
            "ledger_balances": _ledger_balances(fabric, host_tx),
            **_common_checks(systems),
        }
        counts = {
            **_agent_counts(systems), **_switch_counts(systems),
            **_driver_counts(systems), **_net_counts(fabric, host_tx),
            **_runtime_counts(fabric.scheduler),
        }
        attempted, failed = _ops(systems, checks)
        return Outcome(
            sim_us=fabric.clock.now - state.start, work_items=host_tx,
            sim=sim_metrics, counts=counts, checks=checks,
            ops_attempted=attempted, ops_failed=failed,
            engines=_engines(systems),
        )


# ---- ctrl-contended ---------------------------------------------------------


class CtrlContended:
    """Fig. 12 contention: a compiled-C Mantis agent (closed loop), an
    open-loop live legacy client, and a closed-loop bulk loader that
    parks on backpressure, all through the ctrl service.  No packets."""

    name = "ctrl-contended"

    def inputs(self, seed: int) -> Dict[str, object]:
        rng = random.Random(f"{self.name}:{seed}")
        return {
            "legacy_phase_us": rng.uniform(0.0, CTRL_LEGACY_INTERVAL_US),
            "loader_values": [
                rng.getrandbits(32) for _ in range(CTRL_LOADER_OPS)
            ],
        }

    def build(self, inputs) -> SimpleNamespace:
        system = MantisSystem.from_source(
            CONTENDED_P4R, ctrl_service=True, record_timeline=True
        )
        system.agent.prologue()
        scheduler = Scheduler(system.clock)
        system.ctrl.attach_scheduler(scheduler)
        legacy_session = system.ctrl.open_session("legacy", priority="legacy")
        legacy = LiveLegacyClient(
            legacy_session, "legacy_table",
            interval_us=CTRL_LEGACY_INTERVAL_US,
        )
        legacy.setup([1], "set_a", [0])
        loader_session = system.ctrl.open_session(
            "loader", priority="bulk", queue_limit=CTRL_LOADER_QUEUE
        )
        loader = BulkLoader(
            loader_session,
            [
                ("write_register", "shadow", i % 64, value)
                for i, value in enumerate(inputs["loader_values"])
            ],
            chunk_size=CTRL_LOADER_CHUNK,
        )
        return SimpleNamespace(inputs=inputs, system=system,
                               scheduler=scheduler, legacy=legacy,
                               loader=loader)

    def run(self, state: SimpleNamespace) -> None:
        system, scheduler = state.system, state.scheduler
        state.start = start = system.clock.now
        state.ops_before = system.driver.ops_issued
        state.end = end = start + CTRL_DURATION_US
        state.legacy.start(
            scheduler, start + state.inputs["legacy_phase_us"], end
        )
        state.loader.start()
        scheduler.spawn(AgentActor(system.agent, name="mantis-agent"))
        scheduler.run_until(end)
        system.ctrl.drain()

    def outcome(self, state: SimpleNamespace) -> Outcome:
        system, legacy = state.system, state.legacy
        start, end = state.start, state.end
        channel = legacy.session.channel
        timeline = system.driver.timeline
        # Legacy ops complete FIFO, so the k-th legacy record is the
        # k-th arrival: time each update from when it was due.
        legacy_ops = sorted(
            (op for op in timeline if op.channel == channel
             and op.start_us >= start),
            key=lambda op: op.excl_start_us,
        )
        arrivals = legacy.arrival_times
        paired = len(legacy_ops) == len(arrivals)
        due_latency = [op.end_us - t for op, t in zip(legacy_ops, arrivals)]
        lateness = [op.start_us - t for op, t in zip(legacy_ops, arrivals)]
        contenders = sorted(
            (op for op in timeline if op.channel != channel
             and op.end_us > start and op.start_us < end),
            key=lambda op: op.excl_start_us,
        )
        offline = legacy_latencies(
            contenders, arrivals,
            LegacyClient(system.driver,
                         interval_us=CTRL_LEGACY_INTERVAL_US).op_cost_us,
        )
        legacy_p50 = percentile(due_latency, 50)

        systems = [system]
        classes = system.ctrl.stats()["classes"]
        sim_metrics = {
            "ctrl.legacy_p50_us": legacy_p50,
            "ctrl.legacy_p99_us": percentile(due_latency, 99),
            "ctrl.legacy_late_p99_us": percentile(lateness, 99),
        }
        checks = {
            "loader_completed":
                state.loader.ops_completed == CTRL_LOADER_OPS,
            "legacy_paired_with_arrivals": paired and min(lateness) >= 0.0,
            "legacy_p50_matches_offline": abs(
                legacy_p50 - percentile(offline, 50)
            ) <= CTRL_OFFLINE_TOLERANCE_US,
            "no_class_failed": all(
                stats["failed"] == 0 for stats in classes.values()
            ),
            **_common_checks(systems),
        }
        counts = {
            **_agent_counts(systems), **_switch_counts(systems),
            **_driver_counts(systems), **_runtime_counts(state.scheduler),
            "ctrl.channel_util":
                system.ctrl.channel.utilization(system.clock.now),
        }
        for name, stats in classes.items():
            for key in ("submitted", "completed", "rejected", "retried",
                        "mean_wait_us"):
                counts[f"ctrl.{name}.{key}"] = stats[key]
        attempted, failed = _ops(systems, checks)
        return Outcome(
            sim_us=system.clock.now - start,
            work_items=system.driver.ops_issued - state.ops_before,
            sim=sim_metrics, counts=counts, checks=checks,
            ops_attempted=attempted, ops_failed=failed,
            engines=_engines(systems),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (DosFlood, FattreeRebalance, CtrlContended)
}
