"""Golden op-timeline digests: host-speed changes must not move a
single simulated op.

Each scenario records every driver op (every :class:`OpRecord` field,
floats by ``repr``), the driver's op/attempt/error/retry/timeout
totals, every injected fault event, the agent's phase totals and
iteration count, and the final clock, then hashes the lot.  The
expected digests were recorded before the control-plane hot path was
reworked; any drift in op order, op timing or fault decisions -- even
one shared by the blocking and service paths, which the differential
suite cannot see -- changes a digest.

Scenarios:

- ``dos``: the Fig. 15 DoS app on the plain synchronous driver, with
  TCP senders and a burst flooder on the network simulator (packet
  events interleave with driver ops through the clock listener);
- ``contended``: the Fig. 12 contention program through the ctrl
  service, with a live legacy client and a bulk loader;
- ``faults``: a seeded :func:`random_fault_plan` against the DoS
  program with retries, commit verification, delta polling and poll
  batching on, so transient, drop, latency and corrupt faults,
  retries and timeouts all run.
"""

import hashlib
import random

from repro.agent.legacy import LiveLegacyClient
from repro.apps.dos import DOS_P4R, DosMitigationApp, build_dos_scenario
from repro.ctrl.bench import CONTENDED_P4R
from repro.ctrl.clients import BulkLoader
from repro.errors import DriverTimeoutError, TransientDriverError
from repro.faults import FaultInjector, random_fault_plan
from repro.runtime.scheduler import AgentActor, Scheduler
from repro.switch.driver import RetryPolicy
from repro.switch.packet import Packet
from repro.system import MantisSystem

FAULT_SEED = 2

EXPECTED = {
    "dos":
        "902b9688930b91a2b1b89bf84b893bb56af80437ba67cd5aaf449141c7cd9a28",
    "contended":
        "a61e24448bf350fdb989fd8c67577a43f2e96cd91d23e0e4e3802477aa1bc6c3",
    "faults":
        "6284fa2a8e1e5214ba92b5120e2788a30e562b2b8ebe86f692f152c2ae679649",
}


def digest(system, injector=None):
    """``(sha256 hex, summary dict)`` of one finished run."""
    driver, agent = system.driver, system.agent
    lines = [
        repr((op.start_us, op.end_us, op.kind, op.target, op.channel,
              op.excl_start_us, op.excl_end_us, op.ops))
        for op in driver.timeline
    ]
    summary = {
        "ops_issued": driver.ops_issued,
        "op_attempts": driver.op_attempts,
        "errors_total": driver.errors_total,
        "retries_total": driver.retries_total,
        "timeouts_total": driver.timeouts_total,
        "timeline_total": driver.timeline_total,
        "iterations": agent.iterations,
        "faults": len(injector.events) if injector is not None else 0,
        "clock_now": repr(system.clock.now),
    }
    lines.append(repr(sorted(summary.items())))
    lines.append(repr(sorted(agent.phase_totals.items())))
    if injector is not None:
        lines.extend(
            repr((event.time_us, event.op_index, event.fault_kind,
                  event.op_kind, event.target, event.channel,
                  event.spec_index))
            for event in injector.events
        )
    text = "\n".join(lines).encode()
    return hashlib.sha256(text).hexdigest(), summary


def run_dos():
    app, sim, flows, _sink, attacker = build_dos_scenario(
        n_benign=6, burst_size=64, min_duration_us=100.0
    )
    app.system.driver.record_timeline = True
    app.prologue()
    for index, flow in enumerate(flows):
        flow.start(at_us=10.0 + index * 3.0)
    sim.run_until(400.0)
    attacker.start(at_us=401.5)
    sim.run_until(1_200.0)
    for flow in flows:
        flow.stop()
    attacker.stop()
    sim.run_until(1_400.0, agent=False)
    return app.system, None


def run_contended():
    system = MantisSystem.from_source(
        CONTENDED_P4R, ctrl_service=True, record_timeline=True
    )
    system.agent.prologue()
    scheduler = Scheduler(system.clock)
    system.ctrl.attach_scheduler(scheduler)
    legacy = LiveLegacyClient(
        system.ctrl.open_session("legacy", priority="legacy"),
        "legacy_table", interval_us=11.0,
    )
    legacy.setup([1], "set_a", [0])
    loader = BulkLoader(
        system.ctrl.open_session("loader", priority="bulk", queue_limit=8),
        [("write_register", "shadow", i % 64, i * 7919) for i in range(3_000)],
        chunk_size=64,
    )
    start = system.clock.now
    legacy.start(scheduler, start + 3.25, start + 2_500.0)
    loader.start()
    scheduler.spawn(AgentActor(system.agent, name="mantis-agent"))
    scheduler.run_until(start + 2_500.0)
    system.ctrl.drain()
    return system, None


def run_faults():
    system = MantisSystem.from_source(
        DOS_P4R,
        retry_policy=RetryPolicy(),
        verify_commits=True,
        delta_polling=True,
        poll_batching=True,
        record_timeline=True,
        num_ports=8,
    )
    app = DosMitigationApp(
        system=system, threshold_gbps=0.5, min_duration_us=20.0
    )
    app.prologue()
    app.add_route(0x0A00FFFF, 1)
    plan = random_fault_plan(
        FAULT_SEED, start_us=system.clock.now, duration_us=1_200.0,
        max_specs=8,
    )
    injector = FaultInjector(plan).attach(system.driver)
    rng = random.Random(FAULT_SEED ^ 0xD05)
    for iteration in range(60):
        if iteration == 50:
            injector.enabled = False
        for _ in range(rng.randrange(1, 4)):
            src = 0x0A000001 + rng.randrange(8)
            system.asic.process(Packet(
                {"ipv4.srcAddr": src, "ipv4.dstAddr": 0x0A00FFFF},
                size_bytes=rng.choice((80, 200, 600)),
            ))
        for _ in range(2):
            system.asic.process(Packet(
                {"ipv4.srcAddr": 0x0AFF0001, "ipv4.dstAddr": 0x0A00FFFF},
                size_bytes=1500,
            ))
        try:
            system.agent.run_iteration()
        except (TransientDriverError, DriverTimeoutError):
            pass  # a reaction-issued add exhausted its retries
    return system, injector


def test_dos_timeline_golden():
    sha, summary = digest(*run_dos())
    assert summary["iterations"] > 0 and summary["ops_issued"] > 0
    assert sha == EXPECTED["dos"], summary


def test_contended_timeline_golden():
    sha, summary = digest(*run_contended())
    assert summary["iterations"] > 0 and summary["ops_issued"] > 0
    assert sha == EXPECTED["contended"], summary


def test_fault_plan_timeline_golden():
    system, injector = run_faults()
    kinds = {event.fault_kind for event in injector.events}
    assert kinds == {"transient", "drop", "latency", "corrupt"}
    assert system.driver.retries_total > 0
    assert system.driver.timeouts_total > 0
    sha, summary = digest(system, injector)
    assert sha == EXPECTED["faults"], summary
