"""The per-switch fabric layer: switches, ports, links, faults.

One :class:`FabricSwitch` owns everything local to a switch -- port
states with lazy pull-based queue accounting, attached hosts, peer
wiring, and the packet path through its
:class:`~repro.system.MantisSystem` ASIC.  :class:`Link` models an
inter-switch cable (binary kill plus stacked :class:`LinkFaultModel`
lossy degradation).

Scaling contract (the fleet-scale refactor): every per-packet-event
operation here is O(1) in fabric size.  Port state is a dict lookup on
the owning switch, peer handoff is a dict lookup on the egress port,
and queue accounting is *lazy* -- a monotone departure deque per port,
drained only when that port's depth is read or written, so idle ports
cost nothing no matter how many switches or links the fabric carries.

The fabric facade (:class:`repro.net.sim.NetworkSim`) composes these
into an N-switch topology on one shared
:class:`~repro.runtime.Scheduler` timeline; every public name here is
re-exported from :mod:`repro.net.sim` for import compatibility.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.runtime import AgentActor
from repro.switch.packet import Packet
from repro.system import MantisSystem


@dataclass
class PortConfig:
    """Link parameters of one switch port."""

    bandwidth_gbps: float = 25.0
    latency_us: float = 1.0
    queue_capacity_pkts: int = 256

    def serialization_us(self, size_bytes: int) -> float:
        return size_bytes * 8 / (self.bandwidth_gbps * 1000.0)


def _event_log() -> Deque[Tuple[float, str, str, str]]:
    # Imported here: repro.faults imports repro.net at load time.
    from repro.faults.plan import EVENT_LOG_LIMIT

    return deque(maxlen=EVENT_LOG_LIMIT)


@dataclass
class LinkFaultModel:
    """Seeded degradation of one link: probabilistic drops and bit
    corruption (the LinkGuardian-style lossy-link failure mode, as
    opposed to the binary cable kill of :attr:`Link.up`).

    Attach to an inter-switch :class:`Link` (both directions) or to a
    host-facing :class:`_PortState` (``FabricSwitch.set_port_fault``).
    Every decision is drawn from seeded per-direction RNG streams, so
    the drop/corrupt sequence for a given packet stream is a pure
    function of ``(seed, direction, packet order)`` -- bit-identical
    across per-packet and coalesced-burst delivery and across pipeline
    engines (burst coalescing may reorder *foreign* events around a
    burst, but never packets within one direction of one link, which
    is why the streams are per-direction).

    ``window_us`` bounds the degradation to a simulated-time interval
    (gated on each packet's wire arrival instant, which is float-exact
    across delivery paths); ``active`` is the on/off switch that
    :meth:`NetworkSim.install_link_fault` toggles through scheduled
    events.  ``max_drops``/``max_corrupts`` cap the damage so
    randomized fault plans are guaranteed to go quiet.

    Corruption flips one bit (``corrupt_mask``, or a random bit below
    32 when ``None``) in one packet field drawn from
    ``corrupt_fields`` -- by default any non-``standard_metadata``
    field (wire corruption cannot touch switch-local intrinsic
    metadata).  The corrupted packet continues; drops vanish and are
    counted here, and only here (exactly-once accounting).

    ``events`` is a ring of the last
    :data:`~repro.faults.plan.EVENT_LOG_LIMIT` drops and corruptions;
    ``dropped`` and ``corrupted`` count every one.
    """

    seed: int
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    corrupt_fields: Optional[Tuple[str, ...]] = None
    corrupt_mask: Optional[int] = None
    window_us: Optional[Tuple[float, float]] = None
    max_drops: Optional[int] = None
    max_corrupts: Optional[int] = None
    name: str = ""
    active: bool = True
    dropped: int = 0
    corrupted: int = 0
    # (time_us, direction, kind, detail) -- the deterministic event
    # log the seeded-determinism tests compare bit-for-bit.
    events: Deque[Tuple[float, str, str, str]] = field(
        default_factory=_event_log
    )

    def __post_init__(self) -> None:
        self._rngs: Dict[str, random.Random] = {}

    def _rng(self, direction: str) -> random.Random:
        rng = self._rngs.get(direction)
        if rng is None:
            rng = random.Random(
                self.seed * 0x9E3779B1 + zlib.crc32(direction.encode())
            )
            self._rngs[direction] = rng
        return rng

    def set_active(self, active: bool) -> None:
        self.active = active

    def admit(self, packet: Packet, now_us: float, direction: str) -> Optional[str]:
        """Roll this packet's fate: ``"drop"``, ``"corrupt"`` (fields
        already flipped in place), or ``None`` (unharmed)."""
        if not self.active:
            return None
        if self.window_us is not None:
            start, end = self.window_us
            if not start <= now_us <= end:
                return None
        rng = self._rng(direction)
        if self.drop_rate > 0.0 and (
            self.max_drops is None or self.dropped < self.max_drops
        ):
            if rng.random() < self.drop_rate:
                self.dropped += 1
                self.events.append((now_us, direction, "drop", ""))
                return "drop"
        if self.corrupt_rate > 0.0 and (
            self.max_corrupts is None or self.corrupted < self.max_corrupts
        ):
            if rng.random() < self.corrupt_rate:
                return self._corrupt(packet, now_us, direction, rng)
        return None

    def _corrupt(
        self, packet: Packet, now_us: float, direction: str,
        rng: random.Random,
    ) -> Optional[str]:
        eligible = self.corrupt_fields
        if eligible is None:
            eligible = tuple(sorted(
                key for key in packet.fields
                if not key.startswith("standard_metadata.")
            ))
        if not eligible:
            return None
        field_name = eligible[rng.randrange(len(eligible))]
        mask = self.corrupt_mask
        if mask is None:
            mask = 1 << rng.randrange(32)
        packet.fields[field_name] = packet.fields.get(field_name, 0) ^ mask
        self.corrupted += 1
        self.events.append(
            (now_us, direction, "corrupt", f"{field_name}^0x{mask:x}")
        )
        return "corrupt"


@dataclass
class _PortState:
    config: PortConfig
    busy_until: float = 0.0
    queued: int = 0
    up: bool = True
    tx_packets: int = 0
    tx_bytes: int = 0
    dropped: int = 0
    # Host->switch wire losses: packets sent toward a down ingress
    # port, or arriving after it went down mid-flight.  Kept separate
    # from ``dropped`` (egress-side losses) so every lost packet lands
    # in exactly one bucket (see NetworkSim.drop_totals).
    rx_dropped: int = 0
    # Optional lossy-link model for the host-facing cable (both
    # directions); inter-switch cables carry theirs on the Link.
    fault: Optional[LinkFaultModel] = None
    # bits-per-us denominator, precomputed once: serialization on the
    # per-packet path is then ``size * 8 / rate_bits_per_us`` -- the
    # same float operations (hence bit-identical results) as
    # PortConfig.serialization_us, without re-deriving the rate from
    # bandwidth_gbps on every send.
    rate_bits_per_us: float = 0.0
    # Pending departure times, monotonically non-decreasing (each
    # departure is max(now, busy_until) + serialization).  Drained
    # lazily by _drain_port instead of one scheduled event per packet.
    departs: Deque[float] = field(default_factory=deque)

    def __post_init__(self) -> None:
        self.rate_bits_per_us = self.config.bandwidth_gbps * 1000.0


@dataclass
class Link:
    """A cable between two switch ports.

    ``up`` kills the whole cable (both directions) -- the fabric-level
    failure the multi-hop scenarios inject; the per-port ``up`` flag
    of :meth:`FabricSwitch.set_link_up` still models one-sided port
    shutdown (the Figure 16 'switch API that disables ports')."""

    switch_a: "FabricSwitch"
    port_a: int
    switch_b: "FabricSwitch"
    port_b: int
    up: bool = True
    # Degradation models applied (in order) to every packet crossing
    # the cable in either direction; the first "drop" verdict wins.
    fault_models: List[LinkFaultModel] = field(default_factory=list)

    def endpoints(self) -> Tuple[Tuple["FabricSwitch", int],
                                 Tuple["FabricSwitch", int]]:
        return (self.switch_a, self.port_a), (self.switch_b, self.port_b)

    @property
    def name(self) -> str:
        return (
            f"{self.switch_a.name}:{self.port_a}"
            f"<->{self.switch_b.name}:{self.port_b}"
        )

    @property
    def fault_dropped(self) -> int:
        return sum(model.dropped for model in self.fault_models)

    @property
    def fault_corrupted(self) -> int:
        return sum(model.corrupted for model in self.fault_models)

    def admit(self, packet: Packet, now_us: float, direction: str) -> Optional[str]:
        """Run the packet through every fault model on the cable."""
        verdict = None
        for model in self.fault_models:
            result = model.admit(packet, now_us, direction)
            if result == "drop":
                return "drop"
            if result is not None:
                verdict = result
        return verdict


class FabricSwitch:
    """One emulated Mantis switch inside a fabric.

    Owns the per-switch world: port states and their lazy queue
    accounting, attached hosts, switch-to-switch peer wiring, and the
    packet path into and out of its :class:`MantisSystem`'s ASIC.
    Hosts bind against this object (it exposes ``clock``, ``events``,
    ``send_to_switch``/``send_burst_to_switch``), so endpoint code is
    identical whether the switch stands alone or inside an N-switch
    topology.
    """

    def __init__(
        self,
        fabric: "NetworkSim",
        name: str,
        system: MantisSystem,
        default_port: Optional[PortConfig] = None,
    ):
        self.fabric = fabric
        self.name = name
        self.system = system
        self.clock = system.clock
        # Bound once: _ingress runs per delivered packet, and the
        # attribute chain through system.asic would be re-walked on the
        # simulator's hottest edge.  The ASIC's compiled pipeline is
        # likewise built once at load, so the whole per-packet path is
        # allocation- and lookup-free.
        self._process = system.asic.process
        self._process_batch = system.asic.process_batch
        self.events = fabric.scheduler.events
        self.default_port = default_port or PortConfig()
        self.ports: Dict[int, _PortState] = {}
        self.hosts: Dict[int, "HostLike"] = {}
        # port -> (peer switch, peer ingress port, link) for
        # switch-to-switch cables.
        self.peers: Dict[int, Tuple["FabricSwitch", int, Link]] = {}
        self.switch_drops = 0
        self.delivered = 0
        self.forwarded = 0  # packets handed to a peer switch
        # Ports with pending lazy departures; lets depth reads for
        # port A skip draining B's deque.
        self._departing: Set[int] = set()
        # The ASIC pulls live depths (lazy-drained to the exact packet
        # timestamp) instead of relying on pushed snapshots.
        system.asic.queue_model = self._queue_depth_at
        # The agent as a schedulable actor; armed by the fabric's
        # run_until(agent=True).
        self.agent_actor = AgentActor(system.agent, name=f"{name}.agent")
        fabric.scheduler.spawn(self.agent_actor)
        fabric.scheduler.cancel(self.agent_actor)  # armed per run

    # ---- wiring ----------------------------------------------------------

    def configure_port(self, port: int, config: PortConfig) -> None:
        self.ports[port] = _PortState(config)

    def _port(self, port: int) -> _PortState:
        if port not in self.ports:
            self.ports[port] = _PortState(self.default_port)
        return self.ports[port]

    def attach_host(self, host: "HostLike", port: int) -> None:
        if port in self.hosts:
            raise SimulationError(
                f"{self.name}: port {port} already has a host"
            )
        if port in self.peers:
            raise SimulationError(
                f"{self.name}: port {port} is an inter-switch link"
            )
        self.hosts[port] = host
        host.bind(self, port)

    def set_link_up(self, port: int, up: bool) -> None:
        """Fault injection: disable/enable a port's link (the
        Figure 16 experiment's 'switch API that disables ports')."""
        self._port(port).up = up

    def set_port_fault(
        self, port: int, model: Optional[LinkFaultModel]
    ) -> Optional[LinkFaultModel]:
        """Attach (or clear, with ``None``) a lossy-link model to a
        host-facing port; applies to both directions of that cable."""
        self._port(port).fault = model
        return model

    def _add_peer(self, port: int, peer: "FabricSwitch", peer_port: int,
                  link: Link) -> None:
        if port in self.hosts:
            raise SimulationError(
                f"{self.name}: port {port} already has a host"
            )
        if port in self.peers:
            raise SimulationError(
                f"{self.name}: port {port} already linked to "
                f"{self.peers[port][0].name}"
            )
        self.peers[port] = (peer, peer_port, link)

    # ---- queue accounting -------------------------------------------------

    def _drain_port(self, port_index: int, port: _PortState, now: float) -> None:
        """Retire departures due at or before ``now`` and republish the
        depth to the ASIC's port snapshot (kept for callers that read
        ``asic.ports[i].queue_depth`` directly)."""
        departs = port.departs
        while departs and departs[0] <= now:
            departs.popleft()
            port.queued -= 1
        if not departs:
            self._departing.discard(port_index)
        asic_ports = self.system.asic.ports
        if port_index < len(asic_ports):
            asic_ports[port_index].queue_depth = port.queued

    def _queue_depth_at(self, port_index: int, now: float) -> int:
        """``asic.queue_model``: the live depth of one port at ``now``."""
        port = self._port(port_index)
        if port.departs:
            self._drain_port(port_index, port, now)
        return port.queued

    # ---- packet path -------------------------------------------------------

    def send_to_switch(
        self, packet: Packet, ingress_port: int, delay_us: float = 0.0
    ) -> None:
        """A host puts a packet on the wire toward the switch."""
        port = self._port(ingress_port)
        if not port.up:
            port.rx_dropped += 1  # link down: the packet never arrives
            return
        arrival = (
            self.clock.now
            + delay_us
            + port.config.latency_us
            + packet.size_bytes * 8 / port.rate_bits_per_us
        )
        if (
            port.fault is not None
            and port.fault.admit(packet, arrival, "in") == "drop"
        ):
            return  # lost on the wire; counted by the fault model
        packet.fields["standard_metadata.ingress_port"] = ingress_port
        self.events.schedule(
            arrival, lambda now, p=packet, ps=port: self._arrive(ps, p, now)
        )

    def _arrive(self, port: _PortState, packet: Packet, now: float) -> None:
        """Wire arrival of one host packet: re-check the ingress port
        (it may have gone down mid-flight) before pipeline entry."""
        if not port.up:
            port.rx_dropped += 1
            return
        self._ingress(packet, now)

    def send_burst_to_switch(
        self,
        packets: Sequence[Packet],
        ingress_port: int,
        spacing_us: float = 0.0,
        delay_us: float = 0.0,
    ) -> None:
        """A host puts a burst on the wire as ONE event.

        Send times step by ``spacing_us`` (repeated addition, matching
        the per-packet accumulation a scalar sender would do); each
        packet's arrival adds the link latency and its own
        serialization.  The whole burst runs through
        :meth:`SwitchAsic.process_batch` when the first packet's
        arrival is due, with per-packet notional timestamps, so
        timestamps, queue depths, and drop decisions are identical to
        sending the packets individually.  The coalescing trade-off:
        foreign events with timestamps inside the burst window run
        after the burst instead of interleaved with it.
        """
        if not packets:
            return
        port = self._port(ingress_port)
        if not port.up:
            port.rx_dropped += len(packets)
            return
        latency = port.config.latency_us
        rate = port.rate_bits_per_us
        fault = port.fault
        times: List[float] = []
        batch: List[Packet] = []
        send = self.clock.now + delay_us
        for packet in packets:
            arrival = send + latency + packet.size_bytes * 8 / rate
            send += spacing_us
            # Same arrival-time gating and per-direction RNG order as
            # the scalar path, so drop decisions are bit-identical.
            if fault is not None and fault.admit(packet, arrival, "in") == "drop":
                continue
            packet.fields["standard_metadata.ingress_port"] = ingress_port
            times.append(arrival)
            batch.append(packet)
        if not batch:
            return
        self.events.schedule(
            times[0],
            lambda _now, b=batch, t=times, ps=port: self._ingress_burst(
                b, t, ps
            ),
        )

    def _ingress(self, packet: Packet, now: float) -> None:
        result = self._process(packet)
        if result is None:
            self.switch_drops += 1
            return
        egress_port, packet = result
        self._enqueue(egress_port, packet, now)

    def _ingress_burst(
        self,
        packets: List[Packet],
        times: List[float],
        port: Optional[_PortState] = None,
    ) -> None:
        if port is not None and not port.up:
            # The ingress port went down between send and arrival; the
            # whole in-flight burst is lost on the wire.
            port.rx_dropped += len(packets)
            return
        # The sink keeps queue accounting causal: packet i is enqueued
        # before packet i+1 reads depths.
        def sink(index: int, result) -> None:
            if result is None:
                self.switch_drops += 1
                return
            egress_port, packet = result
            self._enqueue(egress_port, packet, times[index])

        self._process_batch(packets, times=times, sink=sink)

    def _enqueue(self, egress_port: int, packet: Packet, now: float) -> None:
        port = self._port(egress_port)
        if not port.up:
            port.dropped += 1
            return
        peer = self.peers.get(egress_port)
        if peer is not None and not peer[2].up:
            port.dropped += 1  # dead cable: lost on the wire
            return
        if port.departs:
            self._drain_port(egress_port, port, now)
        if port.queued >= port.config.queue_capacity_pkts:
            port.dropped += 1
            return
        serialization = packet.size_bytes * 8 / port.rate_bits_per_us
        depart = max(now, port.busy_until) + serialization
        port.busy_until = depart
        port.queued += 1
        port.departs.append(depart)
        self._departing.add(egress_port)
        asic_ports = self.system.asic.ports
        if egress_port < len(asic_ports):
            asic_ports[egress_port].queue_depth = port.queued
        arrival = depart + port.config.latency_us
        self.events.schedule(
            arrival, lambda now2, p=packet, port_=egress_port: self._deliver(
                port_, p, now2
            )
        )
        port.tx_packets += 1
        port.tx_bytes += packet.size_bytes

    def _deliver(self, port_index: int, packet: Packet, now: float) -> None:
        peer = self.peers.get(port_index)
        if peer is not None:
            peer_switch, peer_port, link = peer
            if not link.up or not peer_switch._port(peer_port).up:
                self._port(port_index).dropped += 1
                return
            if link.fault_models:
                direction = "a2b" if link.switch_a is self else "b2a"
                if link.admit(packet, now, direction) == "drop":
                    return  # lost on the wire; the fault model counts it
            # Next hop: the wire traversal (serialization + latency)
            # was already paid at this switch's egress queue, so the
            # packet enters the peer's pipeline at the arrival instant.
            self.forwarded += 1
            packet.fields["standard_metadata.ingress_port"] = peer_port
            peer_switch._ingress(packet, now)
            return
        port_state = self._port(port_index)
        if (
            port_state.fault is not None
            and port_state.fault.admit(packet, now, "out") == "drop"
        ):
            return  # lost on the last hop toward the host
        self.delivered += 1
        host = self.hosts.get(port_index)
        if host is not None:
            host.receive(packet, now)

    # ---- inspection ------------------------------------------------------

    def packet_stats(self) -> Dict[str, int]:
        """Per-switch event/packet ledger for fleet-run summaries."""
        tx_packets = tx_bytes = egress_dropped = rx_dropped = 0
        for port in self.ports.values():
            tx_packets += port.tx_packets
            tx_bytes += port.tx_bytes
            egress_dropped += port.dropped
            rx_dropped += port.rx_dropped
        return {
            "delivered": self.delivered,
            "forwarded": self.forwarded,
            "switch_drops": self.switch_drops,
            "tx_packets": tx_packets,
            "tx_bytes": tx_bytes,
            "egress_dropped": egress_dropped,
            "rx_dropped": rx_dropped,
        }

    def queue_depth(self, port: int) -> int:
        port_state = self._port(port)
        if port_state.departs:
            self._drain_port(port, port_state, self.clock.now)
        return port_state.queued

    def port_stats(self, port: int) -> _PortState:
        return self._port(port)

    def __repr__(self) -> str:
        return (
            f"FabricSwitch({self.name!r}, hosts={sorted(self.hosts)}, "
            f"links={sorted(self.peers)})"
        )


class HostLike:
    """Interface for simulation endpoints (see :mod:`repro.net.hosts`).

    ``bind`` receives the sending surface -- a :class:`FabricSwitch`
    (or the legacy :class:`NetworkSim` shim, which forwards to its one
    switch); both expose ``clock``, ``events``, ``send_to_switch`` and
    ``send_burst_to_switch``."""

    def bind(self, sim: "FabricSwitch", port: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def receive(self, packet: Packet, now: float) -> None:  # pragma: no cover
        raise NotImplementedError
