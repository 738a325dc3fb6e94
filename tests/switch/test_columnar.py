"""Burst-path differentials that outlived the columnar engine.

These scenarios first pinned the numpy struct-of-arrays engine against
the compiled one.  That engine is gone; the scenarios still exercise
behaviour that stays -- the compiled burst path (``process_batch``
with and without a sink), the interpreter's reference burst path,
recirculation budgets, RNG actions, control-level conditionals,
rotated hash inputs and the batch-stats invariant on error paths --
so they now pin the compiled burst path against the interpreter
(the oracle).  Class and test names are kept from the original suite.
Everything must be bit-identical: egress sequences, field maps,
registers, counters, table statistics and port counters.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_batch import (  # noqa: E402  (corpus helpers)
    APPS,
    _build,
    _run_batch,
    _run_scalar,
    _observable,
)

from repro.errors import SwitchError
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.compiled import asic_state_snapshot
from repro.switch.packet import Packet
from repro.system import MantisSystem

from hypothesis import given, settings, strategies as st  # noqa: E402


def _run_batch_nosink(system, workload, batch_size: int) -> List[object]:
    """Like test_batch._run_batch but without a sink: observations come
    from the list ``process_batch`` returns."""
    observed: List[object] = []
    for start in range(0, len(workload), batch_size):
        chunk = [
            Packet(fields, size_bytes=1000)
            for fields in workload[start:start + batch_size]
        ]
        observed.extend(
            _observable(r) for r in system.asic.process_batch(chunk)
        )
    return observed


def _assert_same_state(reference, candidate) -> None:
    state_ref = asic_state_snapshot(reference.asic)
    state_new = asic_state_snapshot(candidate.asic)
    for section in state_ref:
        assert state_new[section] == state_ref[section], section


def _from_source(source: str, mode: str) -> MantisSystem:
    system = MantisSystem.from_source(
        source, num_ports=8, execution_mode=mode
    )
    system.agent.prologue()
    return system


class TestColumnarEquivalence:
    """compiled burst == interpreter burst == interpreter per packet on
    every use-case program."""

    N_PACKETS = 96

    @pytest.mark.parametrize("name", sorted(APPS))
    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_matches_compiled_with_sink(self, name: str, batch_size: int):
        """The interpreter's reference burst path, sink-delivered,
        agrees with the compiled burst path on the whole corpus."""
        workload = APPS[name][2](self.N_PACKETS)
        compiled = _build(name, "compiled")
        compiled_obs = _run_batch(compiled, workload, batch_size)
        interp = _build(name, "interpreter")
        interp_obs = _run_batch(interp, workload, batch_size)
        assert interp_obs == compiled_obs
        _assert_same_state(compiled, interp)

    @pytest.mark.parametrize("name", ["dos", "ecmp", "recirc"])
    def test_matches_interpreter(self, name: str):
        workload = APPS[name][2](48)
        interp = _build(name, "interpreter")
        interp_obs = _run_scalar(interp, workload)
        compiled = _build(name, "compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size=16)
        assert compiled_obs == interp_obs
        _assert_same_state(interp, compiled)


RNG_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { roll : 16; } }
header h_t hdr;

action sample() {
    modify_field_rng_uniform(hdr.roll, 0, 1023);
    modify_field(standard_metadata.egress_spec, 1);
}
table sampler { actions { sample; } default_action : sample(); }
control ingress { apply(sampler); }
"""


class TestForcedFallbacks:
    """Shapes the burst path cannot sweep op-major still agree with
    the per-packet oracle."""

    def test_rng_action_drains_per_lane(self):
        """Both engines seed random.Random(0), so the compiled burst
        must consume the stream in exactly the per-packet order."""
        workload = [{"hdr.roll": 0} for _ in range(48)]
        interp = _from_source(RNG_P4R, "interpreter")
        interp_obs = _run_scalar(interp, workload)
        compiled = _from_source(RNG_P4R, "compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size=16)
        assert compiled_obs == interp_obs
        _assert_same_state(interp, compiled)
        rolls = {obs[1]["hdr.roll"] for obs in compiled_obs}
        assert len(rolls) > 1  # the stream really advanced per lane
        stats = compiled.asic.batch_stats
        assert stats.packets == 48
        assert stats.packets == stats.fused + stats.slow_path


class TestRandomizedDifferential:
    """Hypothesis: arbitrary field mixes and batch splits through the
    DoS pipeline agree with the interpreter, state included."""

    @settings(max_examples=25, deadline=None)
    @given(
        seeds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),  # srcAddr
                st.integers(min_value=0, max_value=2**32 - 1),  # dstAddr
                st.integers(min_value=0, max_value=255),        # proto
            ),
            min_size=1,
            max_size=40,
        ),
        batch_size=st.integers(min_value=1, max_value=17),
        route_victim=st.booleans(),
    )
    def test_dos_random_workloads(self, seeds, batch_size, route_victim):
        workload = [
            {"ipv4.srcAddr": src, "ipv4.dstAddr": dst, "ipv4.proto": proto,
             "tcp.seq": i}
            for i, (src, dst, proto) in enumerate(seeds)
        ]
        if route_victim and workload:
            workload[0]["ipv4.dstAddr"] = 0x0B000001
        interp = _build("dos", "interpreter")
        interp_obs = _run_scalar(interp, workload)
        compiled = _build("dos", "compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size)
        assert compiled_obs == interp_obs
        _assert_same_state(interp, compiled)
        stats = compiled.asic.batch_stats
        assert stats.packets == stats.fused + stats.slow_path


class TestRotatedHashRandomized:
    """Hypothesis: ECMP traffic with the malleable hash inputs rotated
    between batches -- the compiled burst path must track every staged
    alt configuration exactly like the interpreter."""

    @settings(max_examples=15, deadline=None)
    @given(
        flows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),  # srcAddr
                st.integers(min_value=0, max_value=2**32 - 1),  # dstAddr
                st.integers(min_value=0, max_value=255),        # proto
                st.integers(min_value=0, max_value=2**16 - 1),  # sport
                st.integers(min_value=0, max_value=2**16 - 1),  # dport
            ),
            min_size=1,
            max_size=48,
        ),
        rotations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),  # hash_in1 alt
                st.integers(min_value=0, max_value=2),  # hash_in2 alt
            ),
            min_size=1,
            max_size=3,
        ),
        batch_size=st.integers(min_value=1, max_value=19),
    )
    def test_ecmp_rotated_inputs(self, flows, rotations, batch_size):
        workload = [
            {"ipv4.srcAddr": src, "ipv4.dstAddr": dst, "ipv4.proto": proto,
             "l4.sport": sport, "l4.dport": dport}
            for src, dst, proto, sport, dport in flows
        ]

        def run(mode, drive):
            system = _build("ecmp", mode)
            observed: List[object] = []
            for alt1, alt2 in rotations:
                system.agent.write_malleable("hash_in1", alt1)
                system.agent.write_malleable("hash_in2", alt2)
                system.agent.run_iteration()  # vv flip commits the alts
                observed.append(drive(system))
            return system, observed

        interp, interp_obs = run(
            "interpreter", lambda system: _run_scalar(system, workload)
        )
        compiled, compiled_obs = run(
            "compiled",
            lambda system: _run_batch_nosink(system, workload, batch_size),
        )
        assert compiled_obs == interp_obs
        _assert_same_state(interp, compiled)


COND_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 16; g : 16; } }
header h_t hdr;
action to_a() { modify_field(standard_metadata.egress_spec, 1); }
action to_b() { modify_field(standard_metadata.egress_spec, 2); }
table ta { actions { to_a; } default_action : to_a(); }
table tb { actions { to_b; } default_action : to_b(); }
control ingress {
    if (hdr.f > 100) { apply(ta); } else { apply(tb); }
}
"""


class TestMaskedSelectConditional:
    """Control-level if/else through the compiled burst kernels."""

    def _workload(self, n: int):
        return [{"hdr.f": (i * 37) % 256, "hdr.g": i % 9} for i in range(n)]

    @pytest.mark.parametrize("batch_size", [1, 9, 32])
    def test_if_else_matches_compiled(self, batch_size: int):
        workload = self._workload(64)
        interp = _from_source(COND_P4R, "interpreter")
        interp_obs = _run_scalar(interp, workload)
        compiled = _from_source(COND_P4R, "compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size)
        assert compiled_obs == interp_obs
        _assert_same_state(interp, compiled)
        # Both arms actually fire in this workload.
        ports = {obs[0] for obs in compiled_obs if obs is not None}
        assert ports == {1, 2}


BOUNCE_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { hops : 8; } }
header h_t hdr;
action bounce() {
    add_to_field(hdr.hops, 1);
    modify_field(standard_metadata.egress_spec, 1);
    recirculate();
}
action finish() { modify_field(standard_metadata.egress_spec, 3); }
action fling() { modify_field(standard_metadata.egress_spec, 200); }
table hopper {
    reads { hdr.hops : exact; }
    actions { bounce; finish; fling; }
    default_action : finish();
}
control ingress { apply(hopper); }
"""


def _bounce_build(mode: str, bounce_until: int = 2):
    system = _from_source(BOUNCE_P4R, mode)
    for hops in range(bounce_until):
        system.driver.add_entry("hopper", [hops], "bounce", [])
    return system


class TestColumnarRecirculation:
    """Recirculate-flagged lanes in a compiled burst re-run exactly
    like the per-packet recirculation loop."""

    def _workload(self, n: int):
        return [{"hdr.hops": i % 2, "ipv4.srcAddr": i} for i in range(n)]

    @pytest.mark.parametrize("batch_size", [1, 7, 24])
    def test_stateless_bounce_matches_compiled(self, batch_size: int):
        workload = self._workload(48)
        interp = _bounce_build("interpreter")
        interp_obs = _run_scalar(interp, workload)
        compiled = _bounce_build("compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size)
        assert compiled_obs == interp_obs
        _assert_same_state(interp, compiled)
        stats = compiled.asic.batch_stats
        assert stats.packets == 48
        assert stats.packets == stats.fused + stats.slow_path
        assert compiled.asic.pipeline_passes == interp.asic.pipeline_passes

    def test_budget_exhaustion_matches_compiled(self):
        """Every pass re-bounces: the budget runs out and the packet
        delivers from its final pass with the flag cleared -- same as
        the per-packet loop."""
        workload = self._workload(16)
        interp = _bounce_build("interpreter", bounce_until=16)
        interp_obs = _run_scalar(interp, workload)
        compiled = _bounce_build("compiled", bounce_until=16)
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size=8)
        assert compiled_obs == interp_obs
        _assert_same_state(interp, compiled)
        assert compiled.asic.pipeline_passes == interp.asic.pipeline_passes
        for obs in compiled_obs:
            assert obs is not None
            port, fields, _headers = obs
            assert port == 1  # bounce's egress_spec
            assert fields["standard_metadata.recirculate_flag"] == 0

    def test_oor_spec_mid_recirc_raises_in_both_engines(self):
        """A lane that recirculates into an out-of-range egress_spec
        raises from the burst path of both engines; the stats
        invariant survives."""
        workload = [{"hdr.hops": 0, "ipv4.srcAddr": i} for i in range(12)]
        for mode in ("compiled", "interpreter"):
            system = _from_source(BOUNCE_P4R, mode)
            system.driver.add_entry("hopper", [0], "bounce", [])
            system.driver.add_entry("hopper", [1], "fling", [])
            with pytest.raises(SwitchError, match="egress_spec"):
                _run_batch_nosink(system, workload, batch_size=12)
            stats = system.asic.batch_stats
            assert stats.packets == stats.fused + stats.slow_path


OOR_SPEC_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 32; } }
header h_t hdr;

action widecast() { modify_field(standard_metadata.egress_spec, 200); }
table blast { actions { widecast; } default_action : widecast(); }
control ingress { apply(blast); }
"""


class TestBatchStatsErrorAccounting:
    """A SwitchError mid-batch must leave
    ``packets == fused + slow_path`` (every packet bucketed once)."""

    @pytest.mark.parametrize("mode", ["compiled", "interpreter"])
    def test_oor_egress_spec_keeps_invariant(self, mode: str):
        system = _from_source(OOR_SPEC_P4R, mode)
        packets = [Packet({"hdr.f": i}) for i in range(10)]
        with pytest.raises(SwitchError, match="egress_spec"):
            system.asic.process_batch(packets)
        stats = system.asic.batch_stats
        assert stats.packets == 10
        assert stats.packets == stats.fused + stats.slow_path

    @pytest.mark.parametrize("mode", ["compiled", "interpreter"])
    def test_oor_egress_spec_with_sink_keeps_invariant(self, mode: str):
        system = _from_source(OOR_SPEC_P4R, mode)
        packets = [Packet({"hdr.f": i}) for i in range(6)]
        with pytest.raises(SwitchError, match="egress_spec"):
            system.asic.process_batch(packets, sink=lambda i, r: None)
        stats = system.asic.batch_stats
        assert stats.packets == 6
        assert stats.packets == stats.fused + stats.slow_path
