"""Driver fault injection, retry policy, and error accounting.

The contract under test (DESIGN.md, "Fault model and recovery"): an
injected failure never leaves a mutation behind, costs are charged
for the wasted round trips, retries respect the backoff/deadline
budget, and drop/corrupt faults are restricted to the op kinds where
their semantics are well-defined.
"""

import pytest

from repro.errors import DriverError, DriverTimeoutError, TransientDriverError
from repro.faults import (
    CORRUPTIBLE_KINDS,
    DROPPABLE_KINDS,
    EVENT_LOG_LIMIT,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    random_fault_plan,
)
from repro.p4.parser import parse_p4
from repro.switch.asic import STANDARD_METADATA_P4, SwitchAsic
from repro.switch.driver import Driver, RetryPolicy

PROGRAM = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 32; } }
header h_t hdr;

register wide { width : 32; instance_count : 64; }
counter pkts { type : packets; instance_count : 4; }

action set_f(v) { modify_field(hdr.f, v); }
action bump() { count(pkts, 1); }
action nop() { no_op(); }

table t1 {
    reads { hdr.f : exact; }
    actions { set_f; bump; nop; }
    default_action : nop();
}
control ingress { apply(t1); }
"""


def make_driver(plan=None, policy=None):
    asic = SwitchAsic(parse_p4(PROGRAM))
    driver = Driver(asic, retry_policy=policy)
    if plan is not None:
        FaultInjector(plan).attach(driver)
    return driver


def transient_plan(**kwargs):
    return FaultPlan(seed=1, specs=[FaultSpec(kind="transient", **kwargs)])


class TestTransientFaults:
    def test_raises_without_mutation(self):
        driver = make_driver(transient_plan(max_triggers=1))
        with pytest.raises(TransientDriverError):
            driver.add_entry("t1", [5], "set_f", [9])
        assert not driver.asic.tables["t1"].entries
        assert driver.ops_issued == 0
        assert driver.errors_total == 1
        assert driver.op_errors == {"table_add": 1}

    def test_failed_round_trip_still_costs(self):
        driver = make_driver(transient_plan(max_triggers=1))
        model = driver.model
        start = driver.clock.now
        with pytest.raises(TransientDriverError):
            driver.write_register("wide", 0, 1)
        assert driver.clock.now - start == pytest.approx(
            model.op_prep_us + model.pcie_rtt_us
        )
        assert driver.asic.registers["wide"].read(0) == 0

    def test_retry_policy_recovers(self):
        driver = make_driver(
            transient_plan(max_triggers=2),
            policy=RetryPolicy(max_attempts=4, backoff_base_us=2.0),
        )
        entry = driver.add_entry("t1", [5], "set_f", [9])
        assert driver.asic.tables["t1"].entries[entry].action_args == [9]
        assert driver.retries_total == 2
        assert driver.op_retries == {"table_add": 2}
        assert driver.errors_total == 2
        assert driver.ops_issued == 1

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_base_us=2.0, backoff_multiplier=2.0,
            backoff_max_us=3.0, deadline_us=None,
        )
        driver = make_driver(transient_plan(max_triggers=3), policy=policy)
        model = driver.model
        start = driver.clock.now
        driver.write_register("wide", 0, 1)
        elapsed = driver.clock.now - start
        # 3 failed trips + backoffs (2, then 4->capped 3, then 8->3)
        # + 1 successful trip.
        failed = 3 * (model.op_prep_us + model.pcie_rtt_us)
        success = model.op_prep_us + model.pcie_rtt_us + model.register_write_us
        assert elapsed == pytest.approx(failed + (2.0 + 3.0 + 3.0) + success)

    def test_attempt_exhaustion_times_out(self):
        driver = make_driver(
            transient_plan(),  # unbounded: every attempt fails
            policy=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(DriverTimeoutError):
            driver.write_register("wide", 0, 1)
        assert driver.timeouts_total == 1
        assert driver.errors_total == 3  # one per failed attempt
        assert driver.asic.registers["wide"].read(0) == 0

    def test_deadline_times_out_before_attempts(self):
        policy = RetryPolicy(
            max_attempts=100, backoff_base_us=50.0, backoff_max_us=50.0,
            deadline_us=60.0,
        )
        driver = make_driver(transient_plan(), policy=policy)
        start = driver.clock.now
        with pytest.raises(DriverTimeoutError):
            driver.write_register("wide", 0, 1)
        assert driver.timeouts_total == 1
        # The op gave up within (roughly) its deadline budget.
        assert driver.clock.now - start < 65.0

    def test_op_kind_filter(self):
        driver = make_driver(
            transient_plan(op_kinds=frozenset({"register_write"}))
        )
        driver.add_entry("t1", [5], "set_f", [9])  # unaffected
        with pytest.raises(TransientDriverError):
            driver.write_register("wide", 0, 1)

    def test_window_filter(self):
        driver = make_driver(transient_plan(window_us=(100.0, 200.0)))
        driver.write_register("wide", 0, 1)  # before the window
        driver.clock.advance(150.0)
        with pytest.raises(TransientDriverError):
            driver.write_register("wide", 0, 2)


class TestDropFaults:
    def test_dropped_write_reports_success(self):
        plan = FaultPlan(
            seed=1, specs=[FaultSpec(kind="drop", max_triggers=1)]
        )
        driver = make_driver(plan)
        driver.set_default("t1", "set_f", [3])  # dropped, no exception
        assert driver.asic.tables["t1"].default_action == ("nop", [])
        driver.set_default("t1", "set_f", [3])  # trigger budget spent
        assert driver.asic.tables["t1"].default_action == ("set_f", [3])

    def test_drop_restricted_to_value_writes(self):
        # A drop spec never matches ops with results (reads, adds):
        # losing those silently would be semantically ill-defined.
        plan = FaultPlan(seed=1, specs=[FaultSpec(kind="drop")])
        driver = make_driver(plan)
        entry = driver.add_entry("t1", [5], "set_f", [9])
        assert entry in driver.asic.tables["t1"].entries
        assert driver.read_registers("wide", 0, 0) == [0]
        driver.delete_entry("t1", entry)
        assert not driver.asic.tables["t1"].entries
        assert "table_add" not in DROPPABLE_KINDS
        assert "table_delete" not in DROPPABLE_KINDS

    def test_dropped_register_write(self):
        plan = FaultPlan(
            seed=1,
            specs=[FaultSpec(kind="drop", targets=frozenset({"wide"}))],
        )
        driver = make_driver(plan)
        driver.write_register("wide", 3, 77)
        assert driver.asic.registers["wide"].read(3) == 0


class TestCorruptFaults:
    def test_register_read_corruption_is_deterministic(self):
        driver = make_driver()
        driver.asic.registers["wide"].write(0, 0x10)
        plan = FaultPlan(
            seed=7,
            specs=[FaultSpec(kind="corrupt", corrupt_mask=0x01,
                             max_triggers=1)],
        )
        replays = []
        for _ in range(2):
            asic = SwitchAsic(parse_p4(PROGRAM))
            asic.registers["wide"].write(0, 0x10)
            fresh = Driver(asic)
            FaultInjector(
                FaultPlan(seed=7, specs=plan.specs)
            ).attach(fresh)
            replays.append(fresh.read_registers("wide", 0, 2))
        assert replays[0] == replays[1]  # same seed, same corruption
        corrupted = replays[0]
        assert corrupted != [0x10, 0, 0]
        assert sum(1 for a, b in zip(corrupted, [0x10, 0, 0]) if a != b) == 1

    def test_device_state_not_corrupted(self):
        plan = FaultPlan(seed=7, specs=[FaultSpec(kind="corrupt")])
        driver = make_driver(plan)
        driver.asic.registers["wide"].write(0, 0x10)
        driver.read_registers("wide", 0, 0)
        # Only the returned payload is corrupted, never the device.
        assert driver.asic.registers["wide"].read(0) == 0x10

    def test_counter_read_corruption(self):
        plan = FaultPlan(
            seed=3,
            specs=[FaultSpec(kind="corrupt", corrupt_mask=0xF0)],
        )
        driver = make_driver(plan)
        assert driver.read_counter("pkts", 0) == 0xF0
        assert "counter_read" in CORRUPTIBLE_KINDS

    def test_corrupt_restricted_to_reads(self):
        plan = FaultPlan(seed=3, specs=[FaultSpec(kind="corrupt")])
        driver = make_driver(plan)
        driver.set_default("t1", "set_f", [3])
        assert driver.asic.tables["t1"].default_action == ("set_f", [3])


class TestLatencyFaults:
    def test_latency_spike_adds_time(self):
        plan = FaultPlan(
            seed=1,
            specs=[FaultSpec(kind="latency", extra_us=25.0, max_triggers=1)],
        )
        driver = make_driver(plan)
        model = driver.model
        start = driver.clock.now
        driver.write_register("wide", 0, 1)
        slow = driver.clock.now - start
        start = driver.clock.now
        driver.write_register("wide", 1, 1)
        fast = driver.clock.now - start
        assert slow == pytest.approx(fast + 25.0)
        assert driver.asic.registers["wide"].read(0) == 1  # still landed


class TestInjectorBookkeeping:
    def test_events_record_what_fired(self):
        plan = FaultPlan(
            seed=1,
            specs=[FaultSpec(kind="transient", max_triggers=2)],
        )
        driver = make_driver(plan)
        injector = driver.fault_injector
        for _ in range(2):
            with pytest.raises(TransientDriverError):
                driver.write_register("wide", 0, 1)
        driver.write_register("wide", 0, 1)
        assert injector.triggered == 2
        assert [e.fault_kind for e in injector.events] == ["transient"] * 2
        assert all(e.op_kind == "register_write" for e in injector.events)

    def test_event_log_is_bounded_but_triggered_counts_all(self):
        plan = FaultPlan(seed=1, specs=[FaultSpec(kind="latency")])
        driver = make_driver(plan)
        injector = driver.fault_injector
        for index in range(10_000):
            driver.write_register("wide", index % 64, index)
        assert injector.triggered == 10_000
        assert len(injector.events) <= EVENT_LOG_LIMIT
        assert injector.events[-1].op_index == driver.op_attempts

    def test_disable_silences_injection(self):
        driver = make_driver(transient_plan())
        driver.fault_injector.enabled = False
        driver.write_register("wide", 0, 1)
        assert driver.asic.registers["wide"].read(0) == 1

    def test_random_plans_are_reproducible(self):
        plan_a = random_fault_plan(42)
        plan_b = random_fault_plan(42)
        assert plan_a.specs == plan_b.specs
        assert plan_a.end_us() > 0
        assert random_fault_plan(43).specs != plan_a.specs

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="gremlin")


class TestReadBackOps:
    def test_read_entries_round_trip(self):
        driver = make_driver()
        a = driver.add_entry("t1", [1], "set_f", [10])
        b = driver.add_entry("t1", [2], "nop", [], priority=3)
        entries = {e[0]: e for e in driver.read_entries("t1")}
        assert entries[a] == (a, (1,), "set_f", [10], 0)
        assert entries[b] == (b, (2,), "nop", [], 3)

    def test_read_default_round_trip(self):
        driver = make_driver()
        assert driver.read_default("t1") == ("nop", [])  # from the P4 source
        driver.set_default("t1", "set_f", [3])
        assert driver.read_default("t1") == ("set_f", [3])

    def test_read_entries_cost_scales(self):
        driver = make_driver()
        start = driver.clock.now
        driver.read_entries("t1")
        empty = driver.clock.now - start
        for key in range(50):
            driver.add_entry("t1", [key], "nop", [])
        start = driver.clock.now
        driver.read_entries("t1")
        full = driver.clock.now - start
        assert full == pytest.approx(
            empty + 50 * driver.model.table_read_per_entry_us
        )

    def test_read_counter_supports_memoization(self):
        driver = make_driver()
        memo = driver.memoize("counter", "pkts")
        start = driver.clock.now
        driver.read_counter("pkts", 0, memo=memo)
        memoized = driver.clock.now - start
        fresh = make_driver()
        start = fresh.clock.now
        fresh.read_counter("pkts", 0)
        plain = fresh.clock.now - start
        assert plain - memoized == pytest.approx(
            driver.model.op_prep_us - driver.model.memoized_prep_us
        )

    def test_counter_memo_mismatch_rejected(self):
        driver = make_driver()
        memo = driver.memoize("register", "wide")
        with pytest.raises(DriverError):
            driver.read_counter("pkts", 0, memo=memo)
