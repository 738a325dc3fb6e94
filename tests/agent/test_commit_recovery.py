"""Commit-failure recovery: the dialogue loop under a faulty control
channel (DESIGN.md, "Fault model and recovery").

The protocol guarantees under test:

- a failed vv flip defers the commit with ALL staged state preserved;
  the next successful commit applies it atomically;
- a flip that lands is never retried (no double flips), only the
  mirror phase is rolled forward;
- a failed mv flip or measurement poll degrades to the previous
  checkpoint instead of crashing the loop;
- ``verify_commits`` turns silently dropped commit writes into
  retried transients;
- ``health()`` reports degradation while any of this is outstanding
  and recovers once the channel does.
"""

import pytest

from repro.compiler import CompilerOptions
from repro.errors import TransientDriverError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    shadow_parity_violations,
)
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.packet import Packet
from repro.system import MantisSystem

WIDE = STANDARD_METADATA_P4 + """
header_type h_t { fields { o0 : 32; o1 : 32; o2 : 32; o3 : 32; } }
header h_t hdr;
malleable value v0 { width : 32; init : 1; }
malleable value v1 { width : 32; init : 1; }
malleable value v2 { width : 32; init : 1; }
malleable value v3 { width : 32; init : 1; }
action stamp() {
    modify_field(hdr.o0, ${v0});
    modify_field(hdr.o1, ${v1});
    modify_field(hdr.o2, ${v2});
    modify_field(hdr.o3, ${v3});
}
table t { actions { stamp; } default_action : stamp(); }
control ingress { apply(t); }
"""

TABLE_PROGRAM = STANDARD_METADATA_P4 + """
header_type h_t { fields { key : 16; out1 : 16; } }
header h_t hdr;
action set_out(v) { modify_field(hdr.out1, v); }
action nop() { no_op(); }
malleable table m {
    reads { hdr.key : exact; }
    actions { set_out; nop; }
    default_action : nop();
    size : 32;
}
control ingress { apply(m); }
"""

REGISTER_PROGRAM = STANDARD_METADATA_P4 + """
header_type flow_t { fields { v : 32; } }
header flow_t flow;

register acc { width : 32; instance_count : 4; }

action record() { register_write(acc, 0, flow.v); }
table t { actions { record; } default_action : record(); }
control ingress { apply(t); }

reaction watch(reg acc[0:3]) {
    int x = acc[0];
}
"""


def observe_wide(system):
    packet = Packet({"hdr.o0": 0})
    system.asic.process(packet)
    return [packet.get(f"hdr.o{i}") for i in range(4)]


def wide_system(**kwargs):
    # Force a split: some malleables land in non-master init shadows,
    # so a commit spans several driver writes.
    options = CompilerOptions(max_init_action_bits=80)
    system = MantisSystem.from_source(WIDE, options, **kwargs)
    system.agent.prologue()
    assert len(system.spec.init_tables) >= 2
    return system


def inject(system, *specs, seed=0):
    plan = FaultPlan(seed=seed, specs=list(specs))
    return FaultInjector(plan).attach(system.driver)


class TestCommitDeferral:
    def test_single_flip_failure_recovers_within_iteration(self):
        system = wide_system()
        agent = system.agent
        master = agent._master.table
        inject(system, FaultSpec(
            kind="transient", op_kinds=frozenset({"table_set_default"}),
            targets=frozenset({master}), max_triggers=1,
        ))
        for name in ("v0", "v1", "v2", "v3"):
            agent.write_malleable(name, 7)
        agent.run_iteration()
        # The commit retried inside the iteration and landed.
        assert observe_wide(system) == [7, 7, 7, 7]
        assert agent._total_failures == 1
        # A later clean iteration clears the failure streak.
        agent.run_iteration()
        assert agent.health().healthy

    def test_persistent_flip_failure_defers_whole_commit(self):
        system = wide_system()
        agent = system.agent
        master = agent._master.table
        # 5 in-iteration retries + 2 next-iteration retries all fail;
        # the 8th attempt succeeds.
        inject(system, FaultSpec(
            kind="transient", op_kinds=frozenset({"table_set_default"}),
            targets=frozenset({master}), max_triggers=7,
        ))
        for name in ("v0", "v1", "v2", "v3"):
            agent.write_malleable(name, 9)
        agent.run_iteration()
        # Nothing visible: the flip never landed, staged state intact.
        assert observe_wide(system) == [1, 1, 1, 1]
        health = agent.health()
        assert health.degraded and health.commit_pending
        assert health.consecutive_failed_iterations == 1
        assert agent._master_staged or any(
            s.dirty for s in agent._init_shadows.values()
        )
        agent.run_iteration()
        # All four values appear atomically, in one later commit.
        assert observe_wide(system) == [9, 9, 9, 9]
        agent.run_iteration()
        assert agent.health().healthy

    def test_no_torn_state_while_deferred(self):
        """Even across a multi-init-table commit interrupted at an
        arbitrary write, packets see all-old or all-new."""
        system = wide_system()
        agent = system.agent
        master = agent._master.table
        # Fail prepares (init-shadow entry writes) a few times too.
        injector = inject(
            system,
            FaultSpec(kind="transient",
                      op_kinds=frozenset({"table_modify"}),
                      probability=0.5, max_triggers=4),
            FaultSpec(kind="transient",
                      op_kinds=frozenset({"table_set_default"}),
                      targets=frozenset({master}),
                      probability=0.5, max_triggers=4),
            seed=11,
        )
        for name in ("v0", "v1", "v2", "v3"):
            agent.write_malleable(name, 5)
        for _ in range(6):
            agent.run_iteration()
            assert observe_wide(system) in ([1, 1, 1, 1], [5, 5, 5, 5])
        injector.enabled = False
        agent.run_iteration()
        agent.run_iteration()
        assert observe_wide(system) == [5, 5, 5, 5]
        assert agent.health().healthy

    def test_staged_master_survives_failed_write(self):
        """Regression: staged values must not be cleared before the
        device accepted the write."""
        system = wide_system()
        agent = system.agent

        def failing_set_default(*args, **kwargs):
            raise TransientDriverError("injected")

        agent.write_malleable("v0", 42)
        staged_before = dict(agent._master_staged)
        args_before = list(agent._master_args)
        system.driver.set_default = failing_set_default
        with pytest.raises(TransientDriverError):
            agent._write_master(vv=agent.vv ^ 1, fold_staged=True)
        assert agent._master_staged == staged_before
        assert agent._master_args == args_before


class TestMirrorRollForward:
    def _system(self):
        system = MantisSystem.from_source(TABLE_PROGRAM)
        system.agent.prologue()
        return system

    def observe(self, system, key):
        packet = Packet({"hdr.key": key})
        system.asic.process(packet)
        return packet.get("hdr.out1")

    def test_mirror_failure_leaves_commit_visible_and_rolls_forward(self):
        system = self._system()
        agent = system.agent
        handle = agent.table("m")
        handle.add([1], "set_out", [5])  # prepare (clean channel)
        injector = inject(system, FaultSpec(
            kind="transient", op_kinds=frozenset({"table_add"}),
            targets=frozenset({"m"}), max_triggers=50,
        ))
        agent.run_iteration()
        # The flip landed: packets already see the new entry...
        assert self.observe(system, 1) == 5
        # ...but the old-version copy is missing it (mirror deferred).
        assert handle.mirror_backlog == 1
        health = agent.health()
        assert health.degraded and health.commit_pending
        assert shadow_parity_violations(system)
        injector.enabled = False
        agent.run_iteration()
        assert handle.mirror_backlog == 0
        assert shadow_parity_violations(system) == []
        assert agent.health().healthy
        assert self.observe(system, 1) == 5

    def test_commit_never_double_flips(self):
        """A flip that landed must not be repeated when its mirror
        phase fails: vv advances exactly once per committed batch."""
        system = self._system()
        agent = system.agent
        handle = agent.table("m")
        handle.add([2], "set_out", [7])
        injector = inject(system, FaultSpec(
            kind="transient", op_kinds=frozenset({"table_add"}),
            targets=frozenset({"m"}), max_triggers=50,
        ))
        vv_before = agent.vv
        agent.run_iteration()  # flip + failed mirror, retried in place
        assert agent.vv == vv_before ^ 1
        injector.enabled = False
        agent.run_iteration()  # drains backlog, then its own flip
        assert agent.vv == vv_before
        assert handle.mirror_backlog == 0

    def test_interrupted_mirror_does_not_resurrect_deleted_entries(self):
        """A stale mirror op must not replay after a later generation
        deleted the entry: generations drain strictly in order, before
        new prepares."""
        system = self._system()
        agent = system.agent
        handle = agent.table("m")
        user_id = handle.add([3], "set_out", [9])
        injector = inject(system, FaultSpec(
            kind="transient", op_kinds=frozenset({"table_add"}),
            targets=frozenset({"m"}), max_triggers=50,
        ))
        agent.run_iteration()  # committed; mirror of the add deferred
        assert handle.mirror_backlog == 1
        injector.enabled = False
        handle.delete(user_id)  # next generation deletes it
        agent.run_iteration()
        agent.run_iteration()
        assert shadow_parity_violations(system) == []
        assert self.observe(system, 3) == 0  # gone from both copies
        assert handle.user_entry_count() == 0


class TestMeasurementDegradation:
    def _system(self):
        system = MantisSystem.from_source(REGISTER_PROGRAM)
        system.agent.prologue()
        observed = []
        system.agent.attach_python(
            "watch", lambda ctx: observed.append(ctx.args["acc"][0])
        )
        return system, observed

    def test_failed_mv_flip_reuses_previous_checkpoint(self):
        system, observed = self._system()
        agent = system.agent
        master = agent._master.table
        system.asic.process(Packet({"flow.v": 10}))
        agent.run_iteration()  # clean: reads 10
        inject(system, FaultSpec(
            kind="transient", op_kinds=frozenset({"table_set_default"}),
            targets=frozenset({master}), max_triggers=1,
        ))
        agent.run_iteration()  # mv flip fails: stale-but-consistent poll
        assert observed == [10, 10]
        assert agent._total_failures == 1
        agent.run_iteration()
        assert agent.health().healthy

    def test_failed_poll_serves_cached_values(self):
        system, observed = self._system()
        agent = system.agent
        system.asic.process(Packet({"flow.v": 10}))
        agent.run_iteration()  # populates the timestamp cache
        inject(system, FaultSpec(
            kind="transient", op_kinds=frozenset({"register_read"}),
            max_triggers=1,
        ))
        agent.run_iteration()  # the mirror poll fails: cache serves 10
        assert observed == [10, 10]
        agent.run_iteration()
        assert agent.health().healthy


class TestVerifyCommits:
    def test_dropped_flip_detected_and_retried(self):
        system = wide_system(verify_commits=True)
        agent = system.agent
        master = agent._master.table
        inject(system, FaultSpec(
            kind="drop", op_kinds=frozenset({"table_set_default"}),
            targets=frozenset({master}), max_triggers=1,
        ))
        for name in ("v0", "v1", "v2", "v3"):
            agent.write_malleable(name, 6)
        agent.run_iteration()
        # The dropped write was caught by read-back and rewritten.
        assert observe_wide(system) == [6, 6, 6, 6]
        assert agent._total_failures >= 1
        agent.run_iteration()
        assert agent.health().healthy

    def test_dropped_shadow_prepare_detected(self):
        system = wide_system(verify_commits=True)
        agent = system.agent
        shadow_tables = frozenset(agent._init_shadows)
        assert shadow_tables
        inject(system, FaultSpec(
            kind="drop", op_kinds=frozenset({"table_modify"}),
            targets=shadow_tables, max_triggers=1,
        ))
        for name in ("v0", "v1", "v2", "v3"):
            agent.write_malleable(name, 8)
        agent.run_iteration()
        assert observe_wide(system) == [8, 8, 8, 8]
        agent.run_iteration()
        assert agent.health().healthy
        assert shadow_parity_violations(system) == []


class TestCommitPathMemoization:
    def test_init_shadow_prepare_uses_memo(self):
        """Satellite fix: the per-commit init-shadow entry writes must
        ride the prologue's memoized instruction buffers."""
        system = wide_system()
        agent = system.agent
        calls = []
        real_modify = system.driver.modify_entry

        def spy(table, entry_id, action=None, args=None, memo=None, **kw):
            calls.append((table, memo))
            return real_modify(
                table, entry_id, action=action, args=args, memo=memo, **kw
            )

        system.driver.modify_entry = spy
        for name in ("v0", "v1", "v2", "v3"):
            agent.write_malleable(name, 3)
        agent.run_iteration()
        shadow_calls = [
            (table, memo) for table, memo in calls
            if table in agent._init_shadows
        ]
        assert shadow_calls  # the split program really has shadows
        assert all(memo is not None for _table, memo in shadow_calls)


FIELD_TABLE_PROGRAM = STANDARD_METADATA_P4 + """
header_type h_t { fields { a : 16; b : 16; out1 : 16; } }
header h_t hdr;
malleable field sel {
    width : 16; init : hdr.a;
    alts { hdr.a, hdr.b }
}
action set_out(v) { modify_field(hdr.out1, v); }
action nop() { no_op(); }
malleable table m {
    reads { ${sel} : exact; }
    actions { set_out; nop; }
    default_action : nop();
    size : 32;
}
control ingress { apply(m); }
"""


class TestFailedPrepareRollback:
    """A user entry on a malleable-field table fans out to one concrete
    entry per alt.  When the prepare fails midway and its rollback
    fails too, the entries already installed must not go live at the
    next flip with no owner."""

    def test_orphans_from_failed_rollback_are_purged_before_the_flip(self):
        system = MantisSystem.from_source(FIELD_TABLE_PROGRAM)
        agent = system.agent
        agent.prologue()
        handle = agent.table("m")
        first = system.driver.op_attempts + 1
        # The first concrete add lands, the second fails, and so does
        # the rollback's delete of the first.
        injector = inject(system, FaultSpec(
            kind="transient",
            op_kinds=frozenset({"table_add", "table_delete"}),
            targets=frozenset({"m"}), op_range=(first + 1, first + 2),
        ))
        with pytest.raises(TransientDriverError) as raised:
            handle.add([4], "set_out", [9])
        assert isinstance(raised.value.__cause__, TransientDriverError)
        assert handle.user_entry_count() == 0
        assert len(system.asic.get_table("m").entries) == 1
        assert handle.mirror_backlog == 1
        assert agent.health().degraded

        injector.enabled = False
        agent.run_iteration()
        assert handle.mirror_backlog == 0
        assert agent.health().healthy
        assert len(system.asic.get_table("m").entries) == 0
        packet = Packet({"hdr.a": 4, "hdr.b": 4})
        system.asic.process(packet)
        assert packet.get("hdr.out1") == 0
