"""Span tracing from outside the program.

:class:`Tracer` replaces each layer's entry points (listed in
:func:`entry_points`) with a wrapper that records one span per call --
name, start, end and the index of the enclosing span -- in memory, and
puts the originals back on exit.  Nothing in ``src/`` knows about it.

Patch before building a scenario: several objects bind methods at
construction (``FabricSwitch`` keeps ``asic.process``; hosts schedule
bound ``_tick`` methods), and a binding made before the patch is not
traced.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Time inside the traced region that no span covers
is ``unattributed``; by construction the layer self times plus
``unattributed`` equal the region's wall time.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Dict, List, Optional, Tuple

LAYERS = ("compiler", "switch", "net", "runtime", "agent", "driver", "ctrl")

_DRIVER_OPS = (
    "add_entry", "modify_entry", "delete_entry", "set_default",
    "read_entries", "read_entry", "read_default", "read_registers",
    "write_register", "read_counter", "write_batch",
)


def entry_points() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every traced call.

    Module-level functions are patched where they are looked up
    (``repro.system.compile_p4r``, not the defining module)."""
    import repro.apps.fabric_lb as fabric_lb
    import repro.net.fabric_builder as fabric_builder
    import repro.system as system
    from repro.agent.agent import MantisAgent
    from repro.agent.legacy import LiveLegacyClient
    from repro.ctrl.clients import BulkLoader
    from repro.ctrl.service import CtrlService, CtrlSession, SessionDriver
    from repro.net.events import EventQueue
    from repro.net.fabric import FabricSwitch
    from repro.net.hosts import Host, SinkHost, UdpSender
    from repro.net.tcp import TcpFlow, TcpSink
    from repro.runtime.scheduler import AgentActor, Scheduler
    from repro.switch.asic import SwitchAsic
    from repro.switch.driver import Driver

    points = [
        (system, "compile_p4r", "compiler"),
        (fabric_builder, "parse_p4r", "compiler"),
        (SwitchAsic, "__init__", "switch"),
        (SwitchAsic, "process", "switch"),
        (SwitchAsic, "process_batch", "switch"),
        (fabric_builder.FabricSpec, "build", "net"),
        (fabric_lb, "install_routes", "net"),
        (FabricSwitch, "send_to_switch", "net"),
        (FabricSwitch, "send_burst_to_switch", "net"),
        (FabricSwitch, "_arrive", "net"),
        (FabricSwitch, "_ingress_burst", "net"),
        (FabricSwitch, "_deliver", "net"),
        (Host, "receive", "net"),
        (SinkHost, "receive", "net"),
        (UdpSender, "_tick", "net"),
        (fabric_lb.MultiFlowSender, "_tick", "net"),
        (TcpFlow, "_pump", "net"),
        (TcpFlow, "_paced_pump", "net"),
        (TcpFlow, "_on_ack", "net"),
        (TcpFlow, "_check_timeout", "net"),
        (TcpSink, "receive", "net"),
        (Scheduler, "run_until", "runtime"),
        (EventQueue, "drain", "runtime"),
        (AgentActor, "fire", "runtime"),
        (MantisAgent, "prologue", "agent"),
        (MantisAgent, "run_iteration", "agent"),
        (Driver, "memoize", "driver"),
        (CtrlService, "drain", "ctrl"),
        (CtrlService, "_apply", "ctrl"),
        (CtrlService, "_complete", "ctrl"),
        (CtrlService, "_retry_or_fail", "ctrl"),
        (CtrlSession, "drain", "ctrl"),
        (LiveLegacyClient, "_fire", "ctrl"),
        (BulkLoader, "_feed", "ctrl"),
        (BulkLoader, "_on_chunk", "ctrl"),
    ]
    points += [(Driver, op, "driver") for op in _DRIVER_OPS]
    points += [(SessionDriver, op, "ctrl") for op in _DRIVER_OPS]
    points += [
        (CtrlSession, op, "ctrl")
        for op in ("submit_modify", "submit_add", "submit_set_default",
                   "submit_write_register", "submit_batch",
                   "try_submit_modify", "try_submit_batch")
    ]
    return points


class Tracer:
    """Records spans while installed (``with Tracer() as tracer:``)."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1), in start order.
        self.spans: List[Optional[Tuple[str, int, int, int]]] = []
        self.layer_of: Dict[str, str] = {}
        #: Simulated time spent inside outermost ``Driver`` ops.
        self.driver_sim_us = 0.0
        self._stack: List[int] = []
        self._driver_depth = 0
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        from repro.switch.driver import Driver

        for owner, attr, layer in entry_points():
            original = (
                vars(owner)[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            name = f"{layer}:{getattr(owner, '__name__', owner)}.{attr}"
            self.layer_of[name] = layer
            wrapper = self._wrap(original, name, sim=owner is Driver)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, sim: bool):
        spans, stack, now_ns = self.spans, self._stack, time.perf_counter_ns

        if not sim:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = now_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = now_ns()
                    stack.pop()
                    spans[index] = (name, start, end, parent)
            return traced

        @functools.wraps(fn)
        def traced_driver(driver, *args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outer = self._driver_depth == 0
            self._driver_depth += 1
            sim_start = driver.clock.now
            start = now_ns()
            try:
                return fn(driver, *args, **kwargs)
            finally:
                end = now_ns()
                self._driver_depth -= 1
                if outer:
                    self.driver_sim_us += driver.clock.now - sim_start
                stack.pop()
                spans[index] = (name, start, end, parent)
        return traced_driver

    # ---- read-out ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_times(self, wall_ns: int) -> Dict[str, int]:
        """Self time per layer plus ``unattributed``, in ns."""
        spans = self.spans
        covered = [0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {layer: 0 for layer in LAYERS}
        roots = 0
        for index, (name, start, end, parent) in enumerate(spans):
            totals[self.layer_of[name]] += end - start - covered[index]
            if parent < 0:
                roots += end - start
        totals["unattributed"] = wall_ns - roots
        return totals

    def write(self, path, wall_ns: int) -> None:
        """Write the spans as JSON: a name table plus
        ``[name index, start ns, end ns, parent index]`` rows."""
        names = sorted(self.layer_of)
        ids = {name: index for index, name in enumerate(names)}
        with open(path, "w") as handle:
            json.dump({
                "names": names,
                "layers": [self.layer_of[name] for name in names],
                "wall_ns": wall_ns,
                "spans": [
                    [ids[name], start, end, parent]
                    for name, start, end, parent in self.spans
                ],
            }, handle, separators=(",", ":"))
