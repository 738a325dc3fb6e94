"""The assembled switch ASIC.

Loads a (plain, post-Mantis-compile) P4 program and provides:

- packet processing through ingress -> traffic manager -> egress,
- stepped execution that yields between table applications so
  isolation experiments can interleave control-plane writes mid-packet,
- recirculation (bounded),
- per-port queue statistics surfaced in ``standard_metadata``,
- access to tables/registers/counters for the driver.

All per-packet state lives on the packet; all cross-packet state lives
in registers/counters/tables, exactly as on the hardware.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SwitchError
from repro.p4 import ast
from repro.p4.validate import validate_program
from repro.switch.clock import SimClock
from repro.switch.compiled import CompiledPipeline, PipelineProfile
from repro.switch.packet import Packet, STANDARD_METADATA_FIELDS
from repro.switch.pipeline import PipelineExecutor
from repro.switch.registers import RegisterArray
from repro.switch.tables import TableRuntime

# P4-14 source for the intrinsic metadata; programs that reference
# standard_metadata fields should prepend this snippet.
STANDARD_METADATA_P4 = (
    "header_type standard_metadata_t {\n    fields {\n"
    + "".join(
        f"        {name} : {width};\n"
        for name, width in STANDARD_METADATA_FIELDS.items()
    )
    + "    }\n}\nmetadata standard_metadata_t standard_metadata;\n"
)

MAX_RECIRCULATIONS = 4

# Execution-engine selection: "compiled" (generated-code fast path,
# the default) or "interpreter" (the reference tree-walker).  The env
# var is read only when no constructor argument is given, so tests can
# pin a mode per-ASIC while operators flip the whole process.
EXECUTION_MODE_ENV = "MANTIS_PIPELINE"
EXECUTION_MODES = ("compiled", "interpreter")


@dataclass
class CounterRuntime:
    """A P4 counter: a register array plus its counting mode."""

    counter_type: str
    array: RegisterArray


@dataclass
class BatchStats:
    """Always-on aggregates for the batch path.

    ``fused`` counts packets fully handled by the single-pass fast
    loop; ``slow_path`` counts packets that fell back to the generic
    pass-by-pass loop (recirculation, a scalar table fallback, or the
    reference engine).  ``packets == fused + slow_path`` always holds,
    including on error paths.
    """

    batches: int = 0
    packets: int = 0
    fused: int = 0
    slow_path: int = 0


# A packet's processing outcome: (egress_port, packet) or None if dropped.
ProcessResult = Optional[Tuple[int, Packet]]

# Pull-based queue-depth signal: (port, now_us) -> depth.  Installed by
# the network simulator so the traffic manager reads live queue state
# (with lazy departure accounting) instead of a pushed snapshot.
QueueModel = Callable[[int, float], int]


@dataclass
class PortStats:
    """Per-port transmit statistics and a queue-depth signal.

    ``queue_depth`` is set by whoever owns the queueing model (the
    network simulator); standalone ASIC tests leave it at 0.
    """

    tx_packets: int = 0
    tx_bytes: int = 0
    queue_depth: int = 0


class SwitchAsic:
    """A software RMT switch executing one P4 program."""

    def __init__(
        self,
        program: ast.Program,
        clock: Optional[SimClock] = None,
        num_ports: int = 32,
        pipeline_latency_us: float = 0.4,
        seed: int = 0,
        execution_mode: Optional[str] = None,
    ):
        self.clock = clock or SimClock()
        self.num_ports = num_ports
        self.pipeline_latency_us = pipeline_latency_us
        self.program = program
        self._ensure_standard_metadata()
        validate_program(program)

        self.field_masks: Dict[str, int] = {}
        for instance in program.headers.values():
            header_type = program.header_types[instance.header_type]
            for fld in header_type.fields:
                self.field_masks[f"{instance.name}.{fld.name}"] = (
                    (1 << fld.width) - 1
                )

        self.registers: Dict[str, RegisterArray] = {
            name: RegisterArray(name, decl.width, decl.instance_count)
            for name, decl in program.registers.items()
        }
        self.counters: Dict[str, CounterRuntime] = {
            name: CounterRuntime(
                decl.counter_type, RegisterArray(name, 64, decl.instance_count)
            )
            for name, decl in program.counters.items()
        }
        self.tables: Dict[str, TableRuntime] = {
            name: TableRuntime(decl, self._key_widths(decl))
            for name, decl in program.tables.items()
        }
        self.ports: List[PortStats] = [PortStats() for _ in range(num_ports)]
        if execution_mode is None:
            execution_mode = os.environ.get(
                EXECUTION_MODE_ENV, EXECUTION_MODES[0]
            )
        if execution_mode not in EXECUTION_MODES:
            raise SwitchError(
                f"unknown execution mode {execution_mode!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        self.execution_mode = execution_mode
        # One RNG shared by both engines so modify_field_rng_uniform
        # draws the same stream regardless of mode (differential tests
        # depend on this).
        rng = random.Random(seed)
        self._rng = rng
        self._seed = seed
        self.interpreter = PipelineExecutor(self, seed=seed, rng=rng)
        if execution_mode == "compiled":
            self.executor = CompiledPipeline(self, rng=rng)
        else:
            self.executor = self.interpreter
        self.packets_processed = 0
        self.packets_dropped = 0
        # Total pipeline passes, including recirculations: the unit of
        # the switch's packet-level bandwidth (Section 2's point that
        # recirculation divides usable throughput).
        self.pipeline_passes = 0
        self.batch_stats = BatchStats()
        # Set by whoever owns the queueing model; None means the pushed
        # PortStats.queue_depth snapshot is authoritative (standalone
        # ASIC tests, fastbench).
        self.queue_model: Optional[QueueModel] = None
        self.profile: Optional[PipelineProfile] = None

    def _ensure_standard_metadata(self) -> None:
        if "standard_metadata" in self.program.headers:
            return
        header_type = ast.HeaderType(
            "standard_metadata_t",
            [
                ast.FieldDecl(name, width)
                for name, width in STANDARD_METADATA_FIELDS.items()
            ],
        )
        if "standard_metadata_t" not in self.program.header_types:
            self.program.add(header_type, front=True)
        self.program.add(
            ast.HeaderInstance(
                "standard_metadata", "standard_metadata_t", is_metadata=True
            ),
            front=True,
        )

    def _key_widths(self, decl: ast.TableDecl) -> List[int]:
        widths = []
        for read in decl.reads:
            if read.match_type is ast.MatchType.VALID:
                widths.append(1)
            elif isinstance(read.ref, ast.MalleableRef):
                raise SwitchError(
                    f"table {decl.name} still reads malleable {read.ref}; "
                    "run the Mantis compiler before loading"
                )
            else:
                widths.append(self.program.field_width(read.ref))
        return widths

    # ---- lookups used by the driver ---------------------------------------

    def get_register(self, name: str) -> RegisterArray:
        if name not in self.registers:
            raise SwitchError(f"unknown register {name!r}")
        return self.registers[name]

    def get_counter(self, name: str) -> CounterRuntime:
        if name not in self.counters:
            raise SwitchError(f"unknown counter {name!r}")
        return self.counters[name]

    def get_table(self, name: str) -> TableRuntime:
        if name not in self.tables:
            raise SwitchError(f"unknown table {name!r}")
        return self.tables[name]

    # ---- profiling --------------------------------------------------------

    def enable_profiling(self) -> PipelineProfile:
        """Rebuild the compiled engine with hot-loop counters.

        Counting costs one dict increment per control run, table apply,
        and action execution, so it is opt-in.  The engine is rebuilt
        around the *same* RNG object, keeping the packet-visible random
        stream unchanged by profiling."""
        if self.execution_mode != "compiled":
            raise SwitchError("hot-loop profiling requires the compiled engine")
        profile = PipelineProfile()
        self.executor = CompiledPipeline(self, rng=self._rng, profile=profile)
        self.profile = profile
        return profile

    # ---- packet processing --------------------------------------------------

    def _stamp_ingress(self, packet: Packet) -> None:
        packet.fields["standard_metadata.ingress_global_timestamp"] = int(
            self.clock.now
        )

    def _traffic_manager(self, packet: Packet) -> None:
        """Between ingress and egress: resolve the egress port and
        expose its queue depth (the signal Mantis polls)."""
        port = packet.egress_spec
        if not 0 <= port < self.num_ports:
            raise SwitchError(f"egress_spec {port} out of range")
        packet.fields["standard_metadata.egress_port"] = port
        queue_model = self.queue_model
        if queue_model is not None:
            depth = queue_model(port, self.clock.now)
        else:
            depth = self.ports[port].queue_depth
        packet.fields["standard_metadata.enq_qdepth"] = depth
        packet.fields["standard_metadata.deq_qdepth"] = depth
        packet.fields["standard_metadata.egress_global_timestamp"] = int(
            self.clock.now
        )

    def _traffic_manager_at(
        self, packet: Packet, now: float, ts: int
    ) -> None:
        """:meth:`_traffic_manager` with an explicit notional time
        (burst coalescing runs packets at their per-packet arrival
        times while the real clock sits at the burst start)."""
        port = packet.egress_spec
        if not 0 <= port < self.num_ports:
            raise SwitchError(f"egress_spec {port} out of range")
        fields = packet.fields
        fields["standard_metadata.egress_port"] = port
        queue_model = self.queue_model
        if queue_model is not None:
            depth = queue_model(port, now)
        else:
            depth = self.ports[port].queue_depth
        fields["standard_metadata.enq_qdepth"] = depth
        fields["standard_metadata.deq_qdepth"] = depth
        fields["standard_metadata.egress_global_timestamp"] = ts

    def process(self, packet: Packet) -> Optional[Tuple[int, Packet]]:
        """Run a packet through the full pipeline.

        Returns ``(egress_port, packet)`` or ``None`` if dropped.
        Recirculated packets re-enter ingress up to
        ``MAX_RECIRCULATIONS`` times (each pass costs pipeline latency,
        modelling the paper's recirculation bandwidth concern).

        This is the hot path: it duplicates :meth:`process_stepped`
        without the generator machinery, calling the engine's
        ``run_control`` directly.
        """
        self.packets_processed += 1
        executor = self.executor
        fields = packet.fields
        for _pass in range(1 + MAX_RECIRCULATIONS):
            self.pipeline_passes += 1
            fields["standard_metadata.ingress_global_timestamp"] = int(
                self.clock.now
            )
            executor.run_control("ingress", packet)
            if fields["standard_metadata.drop_flag"]:
                break
            self._traffic_manager(packet)
            executor.run_control("egress", packet)
            if (
                fields["standard_metadata.drop_flag"]
                or not fields["standard_metadata.recirculate_flag"]
            ):
                break
            fields["standard_metadata.recirculate_flag"] = 0
        if fields["standard_metadata.drop_flag"]:
            self.packets_dropped += 1
            return None
        port_id = fields["standard_metadata.egress_port"]
        port = self.ports[port_id]
        port.tx_packets += 1
        port.tx_bytes += packet.size_bytes
        return port_id, packet

    def process_batch(
        self,
        packets: Sequence[Packet],
        times: Optional[Sequence[float]] = None,
        sink: Optional[Callable[[int, ProcessResult], None]] = None,
    ) -> List[ProcessResult]:
        """Run a burst of packets through the pipeline in one call.

        Semantically identical to calling :meth:`process` per packet --
        same results, counters, timestamps, and port statistics -- but
        with the per-packet binding work hoisted out of the loop: the
        control kernels, port list, and timestamp are resolved once
        per batch, and the common single-pass forward path runs fused.
        Drops stay inline; recirculation falls back to the generic
        pass-by-pass loop per packet.

        ``times`` optionally gives each packet a notional clock value
        (the network simulator's burst coalescing: one event, exact
        per-packet arrival times).  ``sink`` is called with
        ``(index, result)`` immediately after each packet, letting a
        caller interleave per-packet work -- queue accounting must see
        packet ``i`` enqueued before packet ``i + 1`` reads depths.
        """
        executor = self.executor
        get_plan = getattr(executor, "batch_ops", None)
        if get_plan is None:
            return self._batch_reference(packets, times, sink)
        get_major = getattr(executor, "batch_major_ops", None)
        if get_major is not None:
            major_ops = get_major("ingress")
            if major_ops is not None:
                return self._batch_major(
                    packets, times, sink, major_ops, get_plan("egress") or ()
                )
        ingress_ops = get_plan("ingress")
        egress_ops = get_plan("egress")
        if ingress_ops is None:
            # Profiling: no batch plan; route each packet through the
            # counting control wrappers instead.
            bind = executor.bound_control
            control = bind("ingress")
            ingress_ops = (control,) if control is not None else ()
            control = bind("egress")
            egress_ops = (control,) if control is not None else ()
        ports = self.ports
        num_ports = self.num_ports
        queue_model = self.queue_model
        clock_now = self.clock.now
        shared_ts = int(clock_now) if times is None else None
        results: List[ProcessResult] = []
        append = results.append
        processed = 0
        passes = 0
        dropped = 0
        fused = 0
        slow = 0
        drop_key = "standard_metadata.drop_flag"
        accounted = True
        try:
            for index, packet in enumerate(packets):
                processed += 1
                passes += 1
                # Until this lane lands in ``fused`` or ``slow``, an
                # engine error (e.g. out-of-range egress_spec) must
                # still bucket it so packets == fused + slow_path
                # survives the partial-batch counter flush below.
                accounted = False
                fields = packet.fields
                if shared_ts is None:
                    t_now = times[index]
                    ts = int(t_now)
                else:
                    t_now = clock_now
                    ts = shared_ts
                fields["standard_metadata.ingress_global_timestamp"] = ts
                for op in ingress_ops:
                    if fields[drop_key]:
                        break
                    op(packet)
                if fields[drop_key]:
                    dropped += 1
                    fused += 1
                    accounted = True
                    append(None)
                    if sink is not None:
                        sink(index, None)
                    continue
                port_id = fields["standard_metadata.egress_spec"]
                if not 0 <= port_id < num_ports:
                    raise SwitchError(
                        f"egress_spec {port_id} out of range"
                    )
                fields["standard_metadata.egress_port"] = port_id
                if queue_model is not None:
                    depth = queue_model(port_id, t_now)
                else:
                    depth = ports[port_id].queue_depth
                fields["standard_metadata.enq_qdepth"] = depth
                fields["standard_metadata.deq_qdepth"] = depth
                fields["standard_metadata.egress_global_timestamp"] = ts
                for op in egress_ops:
                    if fields[drop_key]:
                        break
                    op(packet)
                if fields[drop_key]:
                    dropped += 1
                    fused += 1
                    accounted = True
                    append(None)
                    if sink is not None:
                        sink(index, None)
                    continue
                if fields["standard_metadata.recirculate_flag"]:
                    slow += 1
                    accounted = True
                    extra, result = self._recirculate(packet, t_now, ts)
                    passes += extra
                    if result is None:
                        dropped += 1
                    append(result)
                    if sink is not None:
                        sink(index, result)
                    continue
                fused += 1
                accounted = True
                port = ports[port_id]
                port.tx_packets += 1
                port.tx_bytes += packet.size_bytes
                result = (port_id, packet)
                append(result)
                if sink is not None:
                    sink(index, result)
        except SwitchError:
            if not accounted:
                slow += 1
            raise
        finally:
            self.packets_processed += processed
            self.pipeline_passes += passes
            self.packets_dropped += dropped
            stats = self.batch_stats
            stats.batches += 1
            stats.packets += processed
            stats.fused += fused
            stats.slow_path += slow
        return results

    def _batch_major(
        self,
        packets: Sequence[Packet],
        times: Optional[Sequence[float]],
        sink: Optional[Callable[[int, ProcessResult], None]],
        ingress_ops: Sequence[Callable[[List[Packet]], None]],
        egress_ops: Sequence[Callable[[Packet], None]],
    ) -> List[ProcessResult]:
        """Op-major burst execution: each compiled ingress table sweeps
        the whole batch before the next runs, so the apply-frame cost is
        paid once per table per *batch* instead of per packet.

        Only reached when :meth:`CompiledPipeline.batch_major_ops`
        proved the reordering unobservable (straight-line exact-match
        ingress, pairwise-disjoint register/counter/RNG footprints, no
        stateful recirculation); per-packet traffic-manager and egress
        work still runs in arrival order so queue accounting via
        ``sink`` sees packet ``i`` enqueued before ``i + 1``.
        """
        batch = packets if isinstance(packets, list) else list(packets)
        ports = self.ports
        num_ports = self.num_ports
        queue_model = self.queue_model
        clock_now = self.clock.now
        if times is None:
            stamps: Optional[List[int]] = None
            shared_ts = int(clock_now)
            for packet in batch:
                packet.fields[
                    "standard_metadata.ingress_global_timestamp"
                ] = shared_ts
        else:
            stamps = [int(t) for t in times]
            shared_ts = 0
            for packet, ts in zip(batch, stamps):
                packet.fields[
                    "standard_metadata.ingress_global_timestamp"
                ] = ts
        results: List[ProcessResult] = []
        append = results.append
        processed = len(batch)
        passes = len(batch)
        dropped = 0
        fused = 0
        slow = 0
        drop_key = "standard_metadata.drop_flag"
        try:
            try:
                for batch_op in ingress_ops:
                    batch_op(batch)
            except SwitchError:
                # Every lane was mid-sweep; bucket them all so
                # packets == fused + slow_path holds in the flush.
                slow += len(batch)
                raise
            index = -1
            accounted = True
            try:
                for index, packet in enumerate(batch):
                    accounted = False
                    fields = packet.fields
                    if stamps is None:
                        t_now = clock_now
                        ts = shared_ts
                    else:
                        t_now = times[index]
                        ts = stamps[index]
                    if fields[drop_key]:
                        dropped += 1
                        fused += 1
                        accounted = True
                        append(None)
                        if sink is not None:
                            sink(index, None)
                        continue
                    port_id = fields["standard_metadata.egress_spec"]
                    if not 0 <= port_id < num_ports:
                        raise SwitchError(
                            f"egress_spec {port_id} out of range"
                        )
                    fields["standard_metadata.egress_port"] = port_id
                    if queue_model is not None:
                        depth = queue_model(port_id, t_now)
                    else:
                        depth = ports[port_id].queue_depth
                    fields["standard_metadata.enq_qdepth"] = depth
                    fields["standard_metadata.deq_qdepth"] = depth
                    fields["standard_metadata.egress_global_timestamp"] = ts
                    for op in egress_ops:
                        if fields[drop_key]:
                            break
                        op(packet)
                    if fields[drop_key]:
                        dropped += 1
                        fused += 1
                        accounted = True
                        append(None)
                        if sink is not None:
                            sink(index, None)
                        continue
                    if fields["standard_metadata.recirculate_flag"]:
                        slow += 1
                        accounted = True
                        extra, result = self._recirculate(packet, t_now, ts)
                        passes += extra
                        if result is None:
                            dropped += 1
                        append(result)
                        if sink is not None:
                            sink(index, result)
                        continue
                    fused += 1
                    accounted = True
                    port = ports[port_id]
                    port.tx_packets += 1
                    port.tx_bytes += packet.size_bytes
                    result = (port_id, packet)
                    append(result)
                    if sink is not None:
                        sink(index, result)
            except SwitchError:
                # The failing lane plus every unreached lane was
                # already counted in ``processed`` up front: bucket
                # the failing lane as slow, finished-by-ingress drops
                # as fused, and the rest as slow.
                if not accounted:
                    slow += 1
                for later in batch[index + 1:]:
                    if later.fields[drop_key]:
                        dropped += 1
                        fused += 1
                    else:
                        slow += 1
                raise
        finally:
            self.packets_processed += processed
            self.pipeline_passes += passes
            self.packets_dropped += dropped
            stats = self.batch_stats
            stats.batches += 1
            stats.packets += processed
            stats.fused += fused
            stats.slow_path += slow
        return results

    def _batch_reference(
        self,
        packets: Sequence[Packet],
        times: Optional[Sequence[float]],
        sink: Optional[Callable[[int, ProcessResult], None]],
    ) -> List[ProcessResult]:
        """Batch entry for engines without a fused loop: the scalar
        path per packet (the differential reference)."""
        results: List[ProcessResult] = []
        stats = self.batch_stats
        stats.batches += 1
        stats.packets += len(packets)
        stats.slow_path += len(packets)
        for index, packet in enumerate(packets):
            if times is None:
                result = self.process(packet)
            else:
                result = self._process_at(packet, times[index])
            results.append(result)
            if sink is not None:
                sink(index, result)
        return results

    def _process_at(self, packet: Packet, now: float) -> ProcessResult:
        """:meth:`process` with an explicit notional clock value;
        mirrors its structure exactly (same counters, same pass
        bounds) so burst and per-packet runs stay bit-identical."""
        self.packets_processed += 1
        executor = self.executor
        fields = packet.fields
        ts = int(now)
        for _pass in range(1 + MAX_RECIRCULATIONS):
            self.pipeline_passes += 1
            fields["standard_metadata.ingress_global_timestamp"] = ts
            executor.run_control("ingress", packet)
            if fields["standard_metadata.drop_flag"]:
                break
            self._traffic_manager_at(packet, now, ts)
            executor.run_control("egress", packet)
            if (
                fields["standard_metadata.drop_flag"]
                or not fields["standard_metadata.recirculate_flag"]
            ):
                break
            fields["standard_metadata.recirculate_flag"] = 0
        if fields["standard_metadata.drop_flag"]:
            self.packets_dropped += 1
            return None
        port_id = fields["standard_metadata.egress_port"]
        port = self.ports[port_id]
        port.tx_packets += 1
        port.tx_bytes += packet.size_bytes
        return port_id, packet

    def _recirculate(
        self, packet: Packet, now: float, ts: int
    ) -> Tuple[int, ProcessResult]:
        """Passes 2..N of a packet whose first (fused) pass requested
        recirculation; mirrors the tail of :meth:`process`.  Returns
        ``(extra_passes, result)``; the caller owns the counters."""
        executor = self.executor
        fields = packet.fields
        extra = 0
        fields["standard_metadata.recirculate_flag"] = 0
        for _pass in range(MAX_RECIRCULATIONS):
            extra += 1
            fields["standard_metadata.ingress_global_timestamp"] = ts
            executor.run_control("ingress", packet)
            if fields["standard_metadata.drop_flag"]:
                break
            self._traffic_manager_at(packet, now, ts)
            executor.run_control("egress", packet)
            if (
                fields["standard_metadata.drop_flag"]
                or not fields["standard_metadata.recirculate_flag"]
            ):
                break
            fields["standard_metadata.recirculate_flag"] = 0
        if fields["standard_metadata.drop_flag"]:
            return extra, None
        port_id = fields["standard_metadata.egress_port"]
        port = self.ports[port_id]
        port.tx_packets += 1
        port.tx_bytes += packet.size_bytes
        return extra, (port_id, packet)

    def process_stepped(self, packet: Packet) -> Iterator[Tuple[str, str]]:
        """Stepped variant of :meth:`process`; yields
        ``("apply", table)`` before every table application."""
        self.packets_processed += 1
        for _pass in range(1 + MAX_RECIRCULATIONS):
            self.pipeline_passes += 1
            self._stamp_ingress(packet)
            yield from self.executor.iter_control("ingress", packet)
            if packet.dropped:
                break
            self._traffic_manager(packet)
            yield from self.executor.iter_control("egress", packet)
            if packet.dropped or not packet.recirculated:
                break
            packet.fields["standard_metadata.recirculate_flag"] = 0
        if packet.dropped:
            self.packets_dropped += 1
        else:
            port = self.ports[packet.fields["standard_metadata.egress_port"]]
            port.tx_packets += 1
            port.tx_bytes += packet.size_bytes

    def _result(self, packet: Packet) -> Optional[Tuple[int, Packet]]:
        if packet.dropped:
            return None
        return packet.fields["standard_metadata.egress_port"], packet
