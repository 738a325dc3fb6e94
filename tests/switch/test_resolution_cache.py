"""Per-table resolution caches of the compiled engine.

The generated control kernels resolve an exact-match key to its action
once per table generation and reuse the result for every later packet
carrying that key.  These tests pin the two properties that makes
safe:

- coherence -- every control-plane write (add/modify/delete/
  set_default) is seen by the next lookup, whether it lands between
  packets or mid-packet through ``iter_control``'s yield-before-apply
  contract.  Checked differentially against the interpreter, which has
  no cache, so a stale resolution shows up as a divergence;
- bounded memory -- a cache never holds more than one resolution per
  installed entry plus the shared default, however many distinct
  missing keys the traffic carries.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.dos import DOS_P4R
from repro.errors import SwitchError
from repro.p4.parser import parse_p4
from repro.switch.asic import STANDARD_METADATA_P4, SwitchAsic
from repro.switch.compiled import packet_snapshot, run_differential
from repro.switch.packet import Packet
from repro.system import MantisSystem

# Three exact-only shapes: a one-field key (cached bare), a two-field
# key with a valid() part (cached as the index tuple), and a keyless
# table whose only resolution is its default action.
COHERENCE_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { key : 16; tag : 16; out : 16; mode : 8; } }
header h_t hdr;

action set_tag(v) {
    modify_field(hdr.tag, v);
    modify_field(standard_metadata.egress_spec, 1);
}
action tag_miss(v) { modify_field(hdr.tag, v); }
action set_out(v) { modify_field(hdr.out, v); }
action set_mode(v) { modify_field(hdr.mode, v); }
action block() { drop(); }

table mode { actions { set_mode; } default_action : set_mode(1); }
table first {
    reads { hdr.key : exact; }
    actions { set_tag; tag_miss; block; }
    default_action : tag_miss(7);
}
table second {
    reads { valid(hdr) : exact; hdr.tag : exact; }
    actions { set_out; block; }
    default_action : set_out(0);
}
control ingress { apply(mode); apply(first); apply(second); }
"""

KEYS = (1, 2, 3, 4)
TAGS = (7, 10, 20, 30)
TABLE_ACTIONS = {
    "first": ("set_tag", "tag_miss", "block"),
    "second": ("set_out", "block"),
    "mode": ("set_mode",),
}


def _build(execution_mode: str) -> SwitchAsic:
    return SwitchAsic(
        parse_p4(COHERENCE_P4R), num_ports=4, seed=3,
        execution_mode=execution_mode,
    )


def _key(table: str, value: int) -> list:
    return [True, value] if table == "second" else [value]


def _args(action: str, value: int) -> list:
    return [] if action == "block" else [value]


def _apply_op(asic: SwitchAsic, handles: List[Tuple[str, int]], op) -> None:
    """One control-plane write.  Handles are picked by position among
    the live entries, so both engines replay the identical sequence."""
    kind = op[0]
    if kind == "add":
        _, table, value, action, arg = op
        handle = asic.tables[table].add_entry(
            _key(table, value), action, _args(action, arg)
        )
        handles.append((table, handle))
    elif kind == "modify" and handles:
        _, pick, action, arg = op
        table, handle = handles[pick % len(handles)]
        if action not in TABLE_ACTIONS[table]:
            action = TABLE_ACTIONS[table][0]
        asic.tables[table].modify_entry(
            handle, action_name=action, action_args=_args(action, arg)
        )
    elif kind == "delete" and handles:
        _, pick = op
        table, handle = handles.pop(pick % len(handles))
        asic.tables[table].delete_entry(handle)
    elif kind == "default":
        _, table, action, arg = op
        asic.tables[table].set_default(action, _args(action, arg))


def _packet(key: int) -> Packet:
    return Packet(
        {"hdr.key": key, "hdr.tag": 0, "hdr.out": 0, "hdr.mode": 0},
        valid_headers={"hdr"}, size_bytes=100,
    )


def _drive(script):
    """Replay a script of packets and control-plane writes.

    Steps: ``("pkt", key)`` runs ``process`` (the generated kernel),
    ``("burst", keys)`` runs ``process_batch``, ``("op", op)`` writes
    between packets, and ``("mid", key, table, op)`` writes while a
    packet is stopped at ``iter_control``'s yield before ``table``."""

    def drive(asic: SwitchAsic):
        handles: List[Tuple[str, int]] = []
        observed = []
        for step in script:
            kind = step[0]
            if kind == "pkt":
                packet = _packet(step[1])
                asic.process(packet)
                observed.append(packet_snapshot(packet))
            elif kind == "burst":
                packets = [_packet(key) for key in step[1]]
                asic.process_batch(packets)
                observed.extend(packet_snapshot(p) for p in packets)
            elif kind == "op":
                _apply_op(asic, handles, step[1])
            else:
                _, key, at_table, op = step
                packet = _packet(key)
                for _kind, table in asic.process_stepped(packet):
                    if table == at_table:
                        _apply_op(asic, handles, op)
                observed.append(packet_snapshot(packet))
        return observed

    return drive


def _warm(key: int = 1, n: int = 4):
    return [("pkt", key)] * n


class TestCoherence:
    """Every write is visible to the next lookup, cache or not."""

    def _check(self, script) -> None:
        run_differential(_build, _drive(script))

    def test_add_between_packets(self):
        self._check(
            _warm() + [("op", ("add", "first", 1, "set_tag", 10))]
            + _warm() + [("burst", [1, 2, 1])]
        )

    def test_modify_between_packets(self):
        self._check(
            [("op", ("add", "first", 1, "set_tag", 10))] + _warm()
            + [("op", ("modify", 0, "set_tag", 20))] + _warm()
            + [("op", ("modify", 0, "block", 0))] + _warm()
            + [("burst", [1, 1, 2])]
        )

    def test_delete_between_packets(self):
        self._check(
            [("op", ("add", "first", 1, "set_tag", 10)),
             ("op", ("add", "second", 10, "set_out", 5))]
            + _warm() + [("op", ("delete", 1))] + _warm()
            + [("op", ("delete", 0))] + _warm() + [("burst", [1, 1])]
        )

    def test_set_default_between_packets(self):
        self._check(
            _warm(key=2) + [("op", ("default", "first", "tag_miss", 30))]
            + _warm(key=2) + [("op", ("default", "mode", "set_mode", 9))]
            + _warm(key=2) + [("op", ("default", "second", "block", 0))]
            + _warm(key=2) + [("burst", [2, 3])]
        )

    def test_writes_between_bursts(self):
        # Bursts only: the op-major sweeps must notice each write on
        # their own, with no per-packet kernel call in between.
        self._check(
            [("op", ("add", "first", 1, "set_tag", 10)),
             ("op", ("add", "second", 10, "set_out", 5)),
             ("burst", [1, 2, 1]),
             ("op", ("modify", 0, "set_tag", 20)),
             ("burst", [1, 2, 1]),
             ("op", ("default", "first", "tag_miss", 10)),
             ("op", ("default", "mode", "set_mode", 3)),
             ("burst", [2, 1]),
             ("op", ("delete", 1)),
             ("burst", [2, 1]),
             ("op", ("delete", 0)),
             ("burst", [1, 1])]
        )

    def test_add_mid_packet(self):
        self._check(
            _warm() + [("mid", 1, "first", ("add", "first", 1, "set_tag", 10))]
            + _warm()
        )

    def test_modify_mid_packet(self):
        self._check(
            [("op", ("add", "first", 1, "set_tag", 10)),
             ("op", ("add", "second", 10, "set_out", 5))]
            + _warm()
            + [("mid", 1, "first", ("modify", 0, "set_tag", 20)),
               ("mid", 1, "second", ("modify", 1, "block", 0))]
            + _warm()
        )

    def test_delete_mid_packet(self):
        self._check(
            [("op", ("add", "first", 1, "set_tag", 10))] + _warm()
            + [("mid", 1, "first", ("delete", 0))] + _warm()
        )

    def test_set_default_mid_packet(self):
        self._check(
            _warm(key=3)
            + [("mid", 3, "mode", ("default", "mode", "set_mode", 4)),
               ("mid", 3, "first", ("default", "first", "block", 0))]
            + _warm(key=3)
        )

    def test_write_to_a_later_table_mid_packet(self):
        # The packet is stopped before ``first``; ``second`` changes
        # under it and must apply to this very packet.
        self._check(
            [("op", ("add", "first", 1, "set_tag", 10)),
             ("op", ("add", "second", 10, "set_out", 5))]
            + _warm()
            + [("mid", 1, "first", ("modify", 1, "set_out", 6))]
            + _warm()
        )

    def test_failed_resolution_counts_and_is_not_cached(self):
        # A wrong-arity default fails at lookup in both engines and
        # still counts the miss; the fixed default then takes effect.
        def drive(asic: SwitchAsic):
            outcomes = []
            table = asic.tables["first"]
            for args in ([], [1, 2], [11]):
                # set_default checks the action name, not its arity.
                table.set_default("tag_miss", args)
                packet = _packet(9)
                try:
                    asic.process(packet)
                    outcomes.append(packet_snapshot(packet))
                except SwitchError as err:
                    outcomes.append(str(err))
            return outcomes

        observed = run_differential(_build, drive)
        assert isinstance(observed[0], str) and "expected 1 args" in observed[0]
        assert observed[2]["fields"]["hdr.tag"] == 11


_ACTIONS = st.sampled_from(("set_tag", "tag_miss", "block"))
_OPS = st.one_of(
    st.tuples(st.just("add"), st.just("first"),
              st.sampled_from(KEYS), st.sampled_from(("set_tag", "block")),
              st.sampled_from(TAGS)),
    st.tuples(st.just("add"), st.just("second"), st.sampled_from(TAGS),
              st.sampled_from(("set_out", "block")), st.integers(0, 9)),
    st.tuples(st.just("modify"), st.integers(0, 7), _ACTIONS,
              st.sampled_from(TAGS)),
    st.tuples(st.just("delete"), st.integers(0, 7)),
    st.tuples(st.just("default"), st.just("first"),
              st.sampled_from(("tag_miss", "block")), st.sampled_from(TAGS)),
    st.tuples(st.just("default"), st.just("mode"), st.just("set_mode"),
              st.integers(0, 9)),
)
_STEPS = st.one_of(
    st.tuples(st.just("pkt"), st.sampled_from(KEYS)),
    st.tuples(st.just("burst"), st.lists(st.sampled_from(KEYS), max_size=5)),
    st.tuples(st.just("op"), _OPS),
    st.tuples(st.just("mid"), st.sampled_from(KEYS),
              st.sampled_from(("mode", "first", "second")), _OPS),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_STEPS, min_size=1, max_size=30))
def test_random_interleavings_match_interpreter(script):
    run_differential(_build, _drive(script))


class TestBoundedMemory:
    """ROADMAP aim 3: long runs stay bounded."""

    DST = 0x0B000001

    def _dos(self) -> MantisSystem:
        system = MantisSystem.from_source(
            DOS_P4R, num_ports=8, execution_mode="compiled"
        )
        system.agent.prologue()
        system.driver.add_entry("route", [self.DST], "forward", [1])
        system.agent.table("blocklist").add([0x0AFF0099], "block")
        system.agent.run_iteration()
        return system

    def _assert_bounded(self, system: MantisSystem) -> None:
        caches = system.asic.executor._caches
        assert {"blocklist", "route", "accounting"} <= set(caches)
        for name, cache in caches.items():
            entries = system.asic.tables[name].entry_count
            held = len(cache.hits) + (cache.default is not None)
            assert len(cache.hits) <= entries, name
            assert held <= entries + 1, name

    @pytest.mark.parametrize("delivery", ["scalar", "burst"])
    def test_distinct_missing_sources_stay_bounded(self, delivery: str):
        system = self._dos()
        packets = [
            Packet({"ipv4.srcAddr": 0x0C000000 + i, "ipv4.dstAddr": self.DST,
                    "ipv4.proto": 17}, size_bytes=100)
            for i in range(10_000)
        ]
        if delivery == "scalar":
            results = [system.asic.process(packet) for packet in packets]
        else:
            results = []
            for start in range(0, len(packets), 64):
                results.extend(
                    system.asic.process_batch(packets[start:start + 64])
                )
        assert all(result is not None for result in results)
        blocklist = system.asic.tables["blocklist"]
        assert blocklist.misses >= 10_000
        self._assert_bounded(system)
        # A blocked source still resolves to its entry afterwards.
        blocked = Packet({"ipv4.srcAddr": 0x0AFF0099,
                          "ipv4.dstAddr": self.DST}, size_bytes=100)
        assert system.asic.process(blocked) is None
        self._assert_bounded(system)
