"""The lossy-link fault model: seeded determinism across delivery
paths and pipeline engines, window scheduling, exactly-once drop
accounting, and flap/repair timelines.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import (
    EVENT_LOG_LIMIT,
    FaultPlan,
    FaultSpec,
    install_link_fault_plan,
    random_fault_plan,
    random_mixed_fault_plan,
)
from repro.net.hosts import SinkHost, UdpSender
from repro.net.sim import LinkFaultModel, NetworkSim, PortConfig
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.clock import SimClock
from repro.switch.packet import Packet
from repro.system import MantisSystem

BASE_SEED = int(os.environ.get("MANTIS_FAULT_SEED", "0"))

FORWARD_P4R = STANDARD_METADATA_P4 + """
header_type ipv4_t { fields { srcAddr : 32; dstAddr : 32; proto : 8; } }
header ipv4_t ipv4;
action forward(port) { modify_field(standard_metadata.egress_spec, port); }
action _drop() { drop(); }
table route {
    reads { ipv4.dstAddr : exact; }
    actions { forward; _drop; }
    default_action : _drop();
    size : 16;
}
control ingress { apply(route); }
"""

DST = 0x0A000001


def _forward_system(execution_mode=None, clock=None):
    system = MantisSystem.from_source(
        FORWARD_P4R, num_ports=8, execution_mode=execution_mode, clock=clock
    )
    system.driver.add_entry("route", [DST], "forward", [1])
    return system


def _sender_run(
    burst_size: int,
    fault: LinkFaultModel,
    n_ticks: int = 240,
    execution_mode=None,
):
    """One UDP sender through an ingress-port fault, scalar or burst.

    Same dyadic 1.5 us spacing + common-boundary horizon trick as
    tests/net/test_burst.py, so send instants are float-identical
    across burst sizes."""
    sim = NetworkSim(_forward_system(execution_mode=execution_mode))
    sink = SinkHost("sink")
    sim.attach_host(sink, 1)
    sim.port_stats(0)  # materialize
    sim._default_switch.set_port_fault(0, fault)
    sender = UdpSender(
        "src",
        {"ipv4.srcAddr": 1, "ipv4.dstAddr": DST, "ipv4.proto": 17},
        rate_gbps=8.0,  # 1500 B * 8 / 8000 bpus = 1.5 us interval
        burst_size=burst_size,
    )
    sim.attach_host(sender, 0)
    # Start past the driver-setup clock time (add_entry costs a few
    # us): a tick scheduled in the past would collapse to clock.now in
    # scalar mode but keep its spacing in burst mode.
    sender.start(at_us=10.0)
    # Horizon strictly between tick n_ticks-1 and tick n_ticks: a
    # coalesced sender cannot stop mid-burst, so exact equivalence
    # needs the cut on a common burst boundary (bursts divide n_ticks).
    sim.run_until(10.0 + (n_ticks - 1) * 1.5 + 0.75, agent=False)
    sender.stop()
    sim.run_until(10.0 + n_ticks * 1.5 + 200.0, agent=False)  # flush
    return sim, sink, sender


class TestSeededDeterminism:
    def test_scalar_vs_burst_event_log_identical(self):
        seed = BASE_SEED * 1000 + 17
        results = {}
        for burst in (1, 8):
            fault = LinkFaultModel(
                seed=seed, drop_rate=0.15, corrupt_rate=0.1
            )
            sim, sink, sender = _sender_run(burst, fault)
            results[burst] = (fault.events, fault.dropped, fault.corrupted,
                              sink.rx_packets, sender.tx_packets)
        assert results[1] == results[8]
        events, dropped, corrupted, _, _ = results[1]
        assert dropped > 0 and corrupted > 0
        assert len(events) == dropped + corrupted

    @pytest.mark.parametrize("burst", [1, 8])
    def test_compiled_vs_interpreter_identical(self, burst):
        seed = BASE_SEED * 1000 + 23
        logs = []
        for mode in ("compiled", "interpreter"):
            fault = LinkFaultModel(
                seed=seed, drop_rate=0.12, corrupt_rate=0.08
            )
            _, sink, _ = _sender_run(burst, fault, execution_mode=mode)
            logs.append((fault.events, fault.dropped, fault.corrupted,
                         sink.rx_packets))
        assert logs[0] == logs[1]
        assert logs[0][1] > 0

    def test_same_seed_same_events_different_seed_differs(self):
        runs = []
        for seed in (BASE_SEED * 1000 + 5, BASE_SEED * 1000 + 5,
                     BASE_SEED * 1000 + 6):
            fault = LinkFaultModel(seed=seed, drop_rate=0.2)
            _sender_run(1, fault, n_ticks=120)
            runs.append(tuple(fault.events))
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]

    def test_per_direction_streams_are_independent(self):
        """The "in" stream draws must not consume the "out" stream's
        randomness (the burst-coalescing determinism contract)."""
        model_a = LinkFaultModel(seed=99, drop_rate=0.5)
        model_b = LinkFaultModel(seed=99, drop_rate=0.5)
        packet = Packet({"ipv4.dstAddr": 1})
        verdicts_a = [model_a.admit(packet, 1.0, "in") for _ in range(64)]
        for index in range(64):
            model_b.admit(packet, 1.0, "out")
            assert model_b.admit(packet, 1.0, "in") == verdicts_a[index]


class TestWindowAndScheduling:
    def test_window_gates_on_arrival_time(self):
        fault = LinkFaultModel(seed=3, drop_rate=1.0,
                               window_us=(10.0, 20.0))
        packet = Packet({"ipv4.dstAddr": 1})
        assert fault.admit(packet, 9.99, "in") is None
        assert fault.admit(packet, 10.0, "in") == "drop"
        assert fault.admit(packet, 20.0, "in") == "drop"
        assert fault.admit(packet, 20.01, "in") is None

    def test_max_drops_caps_damage(self):
        fault = LinkFaultModel(seed=3, drop_rate=1.0, max_drops=3)
        packet = Packet({"ipv4.dstAddr": 1})
        verdicts = [fault.admit(packet, 1.0, "in") for _ in range(10)]
        assert verdicts.count("drop") == 3
        assert fault.dropped == 3

    def test_install_link_fault_schedules_on_off(self):
        clock = SimClock()
        fabric = NetworkSim(clock=clock)
        s0 = fabric.add_switch(_forward_system(clock=clock), "s0")
        s1 = fabric.add_switch(_forward_system(clock=clock), "s1")
        link = fabric.connect(s0, 0, s1, 0)
        model = LinkFaultModel(seed=1, drop_rate=1.0)
        fabric.install_link_fault(link, model, at_us=50.0, until_us=100.0)
        assert model.active is False
        fabric.run_until(60.0, agent=False)
        assert model.active is True
        fabric.run_until(120.0, agent=False)
        assert model.active is False

    def test_restore_link_at_models_flap(self):
        clock = SimClock()
        fabric = NetworkSim(clock=clock)
        s0 = fabric.add_switch(_forward_system(clock=clock), "s0")
        s1 = fabric.add_switch(_forward_system(clock=clock), "s1")
        link = fabric.connect(s0, 1, s1, 0)
        # Note s1 routes DST out its port 1 toward the sink host.
        sink = SinkHost("sink")
        s1.attach_host(sink, 1)
        sender = UdpSender(
            "src", {"ipv4.srcAddr": 1, "ipv4.dstAddr": DST,
                    "ipv4.proto": 17},
            rate_gbps=1.2,  # 10 us interval
        )
        s0.attach_host(sender, 2)
        # s0 must route DST toward the link (port 1), not the default
        # entry (port 1 already -- route added in _forward_system).
        sender.start()
        fabric.fail_link_at(link, 100.0)
        fabric.restore_link_at(link, 200.0)
        fabric.run_until(300.0, agent=False)
        assert link.up is True
        during = s0.port_stats(1).dropped
        assert during > 0  # packets died on the dead cable
        assert sink.rx_packets > 0
        # Deliveries resumed after repair: more packets arrived than
        # could have before the cut alone.
        assert sink.rx_packets >= 15


class TestExactlyOnceAccounting:
    def test_down_ingress_counts_rx_dropped_scalar_and_burst(self):
        for burst in (1, 4):
            sim = NetworkSim(_forward_system())
            sink = SinkHost("sink")
            sim.attach_host(sink, 1)
            sim.set_link_up(0, False)
            packets = [
                Packet({"ipv4.srcAddr": i, "ipv4.dstAddr": DST,
                        "ipv4.proto": 17})
                for i in range(burst)
            ]
            if burst == 1:
                sim.send_to_switch(packets[0], 0)
            else:
                sim.send_burst_to_switch(packets, 0, spacing_us=1.0)
            sim.run_until(50.0, agent=False)
            assert sim.port_stats(0).rx_dropped == burst
            assert sim.port_stats(0).dropped == 0
            assert sink.rx_packets == 0

    def test_mid_flight_ingress_down_counts_once(self):
        """A packet already on the wire when the port dies is counted
        in rx_dropped exactly once (scalar and burst paths)."""
        for burst in (1, 4):
            sim = NetworkSim(_forward_system())
            sink = SinkHost("sink")
            sim.attach_host(sink, 1)
            packets = [
                Packet({"ipv4.srcAddr": i, "ipv4.dstAddr": DST,
                        "ipv4.proto": 17})
                for i in range(burst)
            ]
            if burst == 1:
                sim.send_to_switch(packets[0], 0)
            else:
                sim.send_burst_to_switch(packets, 0, spacing_us=0.1)
            # Kill the port before the (>= 1 us latency) arrival.
            sim.events.schedule(0.5, lambda _n: sim.set_link_up(0, False))
            sim.run_until(50.0, agent=False)
            assert sim.port_stats(0).rx_dropped == burst
            assert sink.rx_packets == 0

    def test_fault_drops_counted_only_in_model(self):
        fault = LinkFaultModel(seed=BASE_SEED * 1000 + 31, drop_rate=0.3)
        sim, sink, sender = _sender_run(1, fault, n_ticks=200)
        port = sim.port_stats(0)
        assert fault.dropped > 0
        assert port.rx_dropped == 0
        assert port.dropped == 0
        assert sender.tx_packets == sink.rx_packets + fault.dropped

    def test_conservation_across_lossy_fabric(self):
        """Ledger: host tx == delivered + every drop bucket, with a
        lossy inter-switch link in the path."""
        clock = SimClock()
        fabric = NetworkSim(clock=clock)
        s0 = fabric.add_switch(_forward_system(clock=clock), "s0")
        s1 = fabric.add_switch(_forward_system(clock=clock), "s1")
        link = fabric.connect(s0, 1, s1, 0)
        model = LinkFaultModel(seed=BASE_SEED * 1000 + 37, drop_rate=0.2)
        fabric.install_link_fault(link, model)
        sink = SinkHost("sink")
        s1.attach_host(sink, 1)
        sender = UdpSender(
            "src", {"ipv4.srcAddr": 1, "ipv4.dstAddr": DST,
                    "ipv4.proto": 17},
            rate_gbps=6.0,
        )
        s0.attach_host(sender, 2)
        sender.start()
        fabric.events.schedule(400.0, lambda _n: sender.stop())
        fabric.run_until(700.0, agent=False)  # quiesce
        totals = fabric.drop_totals()
        assert model.dropped > 0
        assert sender.tx_packets == (
            totals["delivered"]
            + totals["switch_drops"]
            + totals["egress_dropped"]
            + totals["rx_dropped"]
            + totals["port_fault_dropped"]
            + totals["link_fault_dropped"]
        )
        assert totals["link_fault_dropped"] == model.dropped

    def test_corrupted_packets_keep_flowing(self):
        fault = LinkFaultModel(
            seed=BASE_SEED * 1000 + 41, corrupt_rate=0.25,
            corrupt_fields=("ipv4.srcAddr",), corrupt_mask=0x80,
        )
        sim, sink, sender = _sender_run(1, fault, n_ticks=100)
        assert fault.corrupted > 0
        # Corruption does not consume packets: everything sent arrives
        # (srcAddr is not routed on).
        assert sink.rx_packets == sender.tx_packets
        kinds = {event[2] for event in fault.events}
        assert kinds == {"corrupt"}
        assert all(
            detail == "ipv4.srcAddr^0x80"
            for _, _, _, detail in fault.events
        )

    def test_corruption_never_touches_intrinsic_metadata(self):
        fault = LinkFaultModel(seed=5, corrupt_rate=1.0)
        packet = Packet({"ipv4.dstAddr": 7,
                         "standard_metadata.ingress_port": 3})
        for _ in range(32):
            fault.admit(packet, 1.0, "in")
        assert packet.fields["standard_metadata.ingress_port"] == 3


class TestPortStatsSurface:
    def test_port_stats_exposes_fault_counters(self):
        fault = LinkFaultModel(seed=BASE_SEED * 1000 + 43, drop_rate=0.3,
                               corrupt_rate=0.1)
        sim, _, _ = _sender_run(1, fault, n_ticks=150)
        stats = sim.port_stats(0)
        assert stats.fault is fault
        assert stats.fault.dropped == fault.dropped
        assert stats.fault.corrupted == fault.corrupted

    def test_link_fault_summary_shape(self):
        clock = SimClock()
        fabric = NetworkSim(clock=clock)
        s0 = fabric.add_switch(_forward_system(clock=clock), "s0")
        s1 = fabric.add_switch(_forward_system(clock=clock), "s1")
        link = fabric.connect(s0, 0, s1, 0)
        fabric.install_link_fault(
            link, LinkFaultModel(seed=1, drop_rate=0.5)
        )
        summary = fabric.link_fault_summary()
        assert summary == [{
            "name": "s0:0<->s1:0", "up": True,
            "fault_dropped": 0, "fault_corrupted": 0,
        }]


class TestPlanLowering:
    def test_link_specs_never_intercept_driver_ops(self):
        spec = FaultSpec(kind="link_drop", probability=0.5)
        assert spec.is_link_fault
        assert not spec.matches("table_add", "route", "pcie", 0, 1.0)

    def test_default_random_plan_unchanged(self):
        """link_fraction=0 must not perturb existing seeded plans."""
        for seed in range(5):
            before = random_fault_plan(seed)
            after = random_fault_plan(seed, link_fraction=0.0)
            assert [vars(a) for a in before.specs] == [
                vars(b) for b in after.specs
            ]

    def test_mixed_plan_has_both_kinds_somewhere(self):
        kinds = set()
        for seed in range(30):
            plan = random_mixed_fault_plan(seed)
            kinds.update(spec.kind for spec in plan.specs)
            for _, spec in plan.link_specs():
                assert spec.window_us is not None
                assert spec.max_triggers is not None
                assert 1e-3 <= spec.probability <= 1e-1
        assert "link_drop" in kinds and "link_corrupt" in kinds
        assert kinds & {"transient", "latency", "drop", "corrupt"}

    def test_install_is_deterministic(self):
        plan = FaultPlan(seed=12, specs=[
            FaultSpec(kind="link_drop", probability=0.3,
                      window_us=(0.0, 100.0), max_triggers=10),
            FaultSpec(kind="link_corrupt", probability=0.2,
                      corrupt_mask=0x4),
        ])
        models = []
        for _ in range(2):
            clock = SimClock()
            fabric = NetworkSim(clock=clock)
            s0 = fabric.add_switch(_forward_system(clock=clock), "s0")
            s1 = fabric.add_switch(_forward_system(clock=clock), "s1")
            fabric.connect(s0, 0, s1, 0)
            fabric.connect(s0, 1, s1, 1)
            models.append(install_link_fault_plan(plan, fabric))
        assert [m.seed for m in models[0]] == [m.seed for m in models[1]]
        assert len(models[0]) == 4  # 2 specs x 2 links
        assert len({m.seed for m in models[0]}) == 4
        first = models[0][0]
        assert first.drop_rate == 0.3
        assert first.window_us == (0.0, 100.0)
        assert first.max_drops == 10

    def test_uncapped_drop_plan_bounds_event_log(self):
        """An uncapped always-drop spec keeps only the last
        EVENT_LOG_LIMIT events, while ``dropped`` counts every drop."""
        plan = FaultPlan(seed=4, specs=[
            FaultSpec(kind="link_drop", probability=1.0),
        ])
        clock = SimClock()
        fabric = NetworkSim(clock=clock)
        s0 = fabric.add_switch(_forward_system(clock=clock), "s0")
        s1 = fabric.add_switch(_forward_system(clock=clock), "s1")
        fabric.connect(s0, 0, s1, 0)
        (model,) = install_link_fault_plan(plan, fabric)
        assert model.max_drops is None
        total = EVENT_LOG_LIMIT + 500
        for index in range(total):
            verdict = model.admit(Packet({"ipv4.dstAddr": DST}),
                                  float(index), "a2b")
            assert verdict == "drop"
        assert model.dropped == total
        assert len(model.events) == EVENT_LOG_LIMIT
        assert model.events[0][0] == float(total - EVENT_LOG_LIMIT)
        assert model.events[-1][0] == float(total - 1)

    def test_targets_filter_by_link_name(self):
        plan = FaultPlan(seed=9, specs=[
            FaultSpec(kind="link_drop", probability=0.5,
                      targets=frozenset({"s0:1<->s1:1"})),
        ])
        clock = SimClock()
        fabric = NetworkSim(clock=clock)
        s0 = fabric.add_switch(_forward_system(clock=clock), "s0")
        s1 = fabric.add_switch(_forward_system(clock=clock), "s1")
        fabric.connect(s0, 0, s1, 0)
        target = fabric.connect(s0, 1, s1, 1)
        installed = install_link_fault_plan(plan, fabric)
        assert len(installed) == 1
        assert target.fault_models == installed
        assert fabric.links[0].fault_models == []
