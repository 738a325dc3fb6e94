"""Control-plane driver with a calibrated PCIe latency cost model.

This module substitutes for the paper's modified Barefoot driver.  The
*shape* of its cost model is what Figures 10-12 measure:

- every non-batched operation pays one PCIe round trip;
- software preparation cost drops by ~an order of magnitude for
  *memoized* operations (instruction buffers precomputed in the
  prologue -- the paper's "caching/memoization of device instructions");
- reads of consecutive entries of one register array are DMA-bursts:
  the first word is included in the base cost, each additional byte
  costs only tens of nanoseconds (Figure 10a's register-argument line);
- reads/updates of *distinct* objects each pay their own base cost
  (Figure 10a's field-argument line is linear in packed registers);
- batched operations share a single PCIe round trip.

The driver serializes all operations (the dialogue loop is
single-threaded; legacy clients queue behind at most one in-flight
Mantis operation -- Section 6).  With ``record_timeline=True`` every
operation's ``(start, end, channel)`` interval is logged so the
Figure 12 experiment can measure legacy-update interference.

Failure model: every operation runs through :meth:`Driver._execute`,
which admits the op past an optional fault injector (see
``repro.faults``) *before* touching ASIC state -- an injected failure
therefore never leaves a mutation behind, and the cost model and
device state cannot desync.  An optional :class:`RetryPolicy` retries
:class:`TransientDriverError` with exponential backoff in simulated
microseconds and converts exhausted budgets into
:class:`DriverTimeoutError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DriverError, DriverTimeoutError, TransientDriverError
from repro.switch.asic import SwitchAsic
from repro.switch.tables import KeyPart


@dataclass
class DriverCostModel:
    """Latency parameters, in microseconds of simulated time.

    Defaults are calibrated so that the end-to-end reaction times of
    the paper's use cases land in the reported "10s of us" range; see
    EXPERIMENTS.md for the calibration notes.
    """

    pcie_rtt_us: float = 0.9
    op_prep_us: float = 0.6
    memoized_prep_us: float = 0.08
    table_modify_us: float = 0.5
    table_add_us: float = 1.3
    table_delete_us: float = 0.6
    table_set_default_us: float = 0.5
    table_read_base_us: float = 0.5
    table_read_per_entry_us: float = 0.02
    register_read_base_us: float = 0.5
    register_read_per_byte_us: float = 0.012
    register_write_us: float = 0.4
    # Bulk/streamed writes (RBFRT-style): a whole heterogeneous batch
    # of table/register writes coalesces into one DMA-burst-priced
    # transaction -- one setup charge, then a small per-entry
    # increment, instead of a full device op per entry.
    bulk_setup_us: float = 1.5
    bulk_table_entry_us: float = 0.12
    bulk_register_entry_us: float = 0.03

    def bulk_write_cost(self, table_entries: int, register_writes: int = 0) -> float:
        """Device cost of one coalesced bulk-write transaction
        carrying ``table_entries`` table ops and ``register_writes``
        register writes (excluding PCIe/prep)."""
        return (
            self.bulk_setup_us
            + table_entries * self.bulk_table_entry_us
            + register_writes * self.bulk_register_entry_us
        )

    def register_read_cost(self, entries: int, width_bits: int) -> float:
        """Device cost of a burst read of ``entries`` consecutive
        entries of one array (excluding PCIe/prep)."""
        total_bytes = entries * ((width_bits + 7) // 8)
        extra_bytes = max(0, total_bytes - 4)
        return self.register_read_base_us + extra_bytes * self.register_read_per_byte_us

    def table_read_cost(self, entries: int) -> float:
        """Device cost of reading back ``entries`` installed entries."""
        return self.table_read_base_us + entries * self.table_read_per_entry_us


@dataclass
class RetryPolicy:
    """Retry semantics for transient control-channel failures.

    ``backoff_base_us * backoff_multiplier ** (attempt - 1)`` (capped
    at ``backoff_max_us``) of simulated time separates attempts; an op
    that would exceed ``deadline_us`` of total elapsed time, or that
    uses up ``max_attempts``, raises :class:`DriverTimeoutError`.
    """

    max_attempts: int = 4
    backoff_base_us: float = 2.0
    backoff_multiplier: float = 2.0
    backoff_max_us: float = 50.0
    deadline_us: Optional[float] = 400.0


@dataclass
class OpRecord:
    """One completed driver operation (for interference analysis).

    ``excl_start_us``/``excl_end_us`` bound the *device-exclusive*
    window -- the ASIC access itself.  Software preparation and the
    PCIe transfer are pipelined per requester and do not block a
    concurrent legacy client; only the device window serializes
    (Section 6's "queue behind at most one set of operations").
    """

    start_us: float
    end_us: float
    kind: str
    target: str
    channel: str
    excl_start_us: float = 0.0
    excl_end_us: float = 0.0
    #: Logical operations covered by this record (1 for normal ops,
    #: the batch size for one coalesced ``bulk_write`` transaction).
    ops: int = 1


@dataclass
class MemoHandle:
    """Prologue-precomputed instruction buffer for one device object.

    Operations issued with a memo skip most software preparation
    (``memoized_prep_us`` instead of ``op_prep_us``).
    """

    kind: str
    name: str


class Driver:
    """Single serialized access path to the switch ASIC."""

    def __init__(
        self,
        asic: SwitchAsic,
        model: Optional[DriverCostModel] = None,
        record_timeline: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        timeline_limit: Optional[int] = None,
    ):
        self.asic = asic
        self.clock = asic.clock
        self.model = model or DriverCostModel()
        self.record_timeline = record_timeline
        self.retry_policy = retry_policy
        # With a limit, the timeline is a bounded ring: million-op
        # benchmark runs keep only the most recent ``timeline_limit``
        # records instead of accumulating memory forever.  Without one
        # (the Fig. 12 path) it stays a plain unbounded list.
        self.timeline_limit = timeline_limit
        if timeline_limit is not None:
            if timeline_limit <= 0:
                raise DriverError(
                    f"timeline_limit must be positive, got {timeline_limit}"
                )
            self.timeline = deque(maxlen=timeline_limit)
        else:
            self.timeline: List[OpRecord] = []
        #: Total records ever produced (monotonic even when the ring
        #: has evicted old entries).
        self.timeline_total = 0
        self.ops_issued = 0
        #: Coalesced bulk-write transactions issued (each counts its
        #: batch size into ``ops_issued``).
        self.bulk_txns = 0
        # Ablation knob: when False, every operation pays the full
        # (unmemoized) software preparation cost.
        self.memoization_enabled = True
        self._batch_depth = 0
        self._batch_pcie_paid = False
        self._memos: Dict[Tuple[str, str], MemoHandle] = {}
        # Fault surface: an object with an ``intercept(kind, target,
        # channel, op_index, now)`` method (repro.faults.FaultInjector
        # installs itself here); ``post_op_hooks`` run after every
        # *successful* op (used by invariant checkers).
        self.fault_injector = None
        self.post_op_hooks: List[Callable[[str, str, str], None]] = []
        # Error accounting (surfaced through MantisAgent.health()).
        self.op_attempts = 0
        self.ops_failed = 0
        self.errors_total = 0
        self.retries_total = 0
        self.timeouts_total = 0
        self.op_errors: Dict[str, int] = {}
        self.op_retries: Dict[str, int] = {}
        self.last_error: Optional[str] = None
        self.last_error_us: float = 0.0

    # ---- memoization (prologue) -------------------------------------------

    def memoize(self, kind: str, name: str) -> MemoHandle:
        """Precompute the instruction buffer for one object.

        Costs one op's preparation time (paid in the prologue, where
        latency does not matter) and returns a reusable handle.
        """
        key = (kind, name)
        if key not in self._memos:
            self._check_target(kind, name)
            self.clock.advance(self.model.op_prep_us)
            self._memos[key] = MemoHandle(kind, name)
        return self._memos[key]

    def _check_target(self, kind: str, name: str) -> None:
        if kind == "table":
            self.asic.get_table(name)
        elif kind == "register":
            self.asic.get_register(name)
        elif kind == "counter":
            self.asic.get_counter(name)
        else:
            raise DriverError(f"unknown memo kind {kind!r}")

    # ---- batching -------------------------------------------------------------

    def batch(self) -> "_BatchContext":
        """Group subsequent operations into one PCIe transaction."""
        return _BatchContext(self)

    # ---- cost accounting -------------------------------------------------------

    def _record_error(self, kind: str, message: str) -> None:
        self.ops_failed += 1
        self.errors_total += 1
        self.op_errors[kind] = self.op_errors.get(kind, 0) + 1
        self.last_error = message
        self.last_error_us = self.clock.now

    # ---- control-plane service hooks --------------------------------------
    #
    # The pipelined service (repro.ctrl) schedules device windows
    # itself, in simulated time, and funnels accounting back through
    # these helpers so ops_issued / timeline / fault and error counters
    # mean the same thing on both paths.

    def admit_fault(self, kind: str, target: str, channel: str):
        """Fault admission for one attempt (service async path)."""
        self.op_attempts += 1
        if self.fault_injector is None:
            return None
        return self.fault_injector.intercept(
            kind, target, channel, self.op_attempts, self.clock.now
        )

    def note_error(self, kind: str, message: str) -> None:
        self._record_error(kind, message)

    def note_retry(self, kind: str) -> None:
        self.retries_total += 1
        self.op_retries[kind] = self.op_retries.get(kind, 0) + 1

    def note_timeout(self) -> None:
        self.timeouts_total += 1

    def complete_op(
        self, kind: str, target: str, channel: str,
        start_us: float, end_us: float,
        excl_start_us: float, excl_end_us: float, op_count: int = 1,
    ) -> None:
        """Account one successfully applied op (service async path);
        its :class:`OpRecord` is built only when the timeline is on."""
        self.ops_issued += op_count
        self.timeline_total += 1
        if self.record_timeline:
            self.timeline.append(OpRecord(
                start_us, end_us, kind, target, channel,
                excl_start_us, excl_end_us, op_count,
            ))
        for hook in self.post_op_hooks:
            hook(kind, target, channel)

    def _execute(
        self,
        kind: str,
        target: str,
        device_cost: float,
        memo: Optional[MemoHandle],
        channel: str,
        apply: Optional[Callable[[], object]] = None,
        session=None,
        op_count: int = 1,
    ) -> object:
        """Run one operation: fault admission, then the ASIC mutation
        (``apply``), then cost accounting.

        The mutation runs strictly *after* the fault decision, so an
        injected failure can never leave device state behind, and
        strictly *before* the clock charge, so an ``apply`` that
        raises (e.g. a full table) costs nothing -- device state and
        the cost model stay in lockstep either way.
        """
        model = self.model
        prep = (
            model.memoized_prep_us
            if memo is not None and self.memoization_enabled
            else model.op_prep_us
        )
        clock = self.clock
        injector = self.fault_injector
        attempt = 0
        while True:
            self.op_attempts += 1
            if session is not None:
                # Session-scoped batching: a concurrent client's op
                # must not be mispriced by another session's open
                # batch, so each session carries its own batch state.
                pcie = session.next_pcie_us()
            elif self._batch_depth == 0:
                pcie = model.pcie_rtt_us
            elif not self._batch_pcie_paid:
                pcie = model.pcie_rtt_us
                self._batch_pcie_paid = True
            else:
                pcie = 0.0
            fault = None
            if injector is not None:
                fault = injector.intercept(
                    kind, target, channel, self.op_attempts, clock.now
                )
            if fault is None or fault.kind != "transient":
                break
            attempt += 1
            if attempt == 1:
                op_start = clock.now  # nothing has advanced it yet
            self._reject_attempt(kind, target, prep + pcie, attempt, op_start)
        start = clock.now
        if fault is None:
            result = None if apply is None else apply()
            extra = 0.0
        else:
            # Latency, drop and corrupt faults let the op complete.
            # A drop is a silently lost write: cost is paid, success is
            # reported, nothing lands (the injector restricts it to
            # value writes, which have no result to lose).
            result = None
            if fault.kind != "drop" and apply is not None:
                result = apply()
            extra = fault.extra_us if fault.kind == "latency" else 0.0
        if session is not None:
            # Blocking session op: the shared channel may hold the
            # device for another client, so the exclusive window
            # starts at the later of prep-done and device-free.
            # Uncontended, this degenerates to exactly the
            # synchronous timing below (same total, same window,
            # bit-identical float arithmetic).
            excl_start, excl_end, done = session.reserve(
                start, prep, device_cost, extra, pcie
            )
            clock.advance_to(done)
        else:
            clock.advance(prep + device_cost + pcie + extra)
            excl_start = start + prep
            excl_end = start + prep + device_cost + extra
        if fault is not None and fault.kind == "corrupt":
            result = fault.corrupt(result)
        self.ops_issued += op_count
        self.timeline_total += 1
        if self.record_timeline:
            self.timeline.append(OpRecord(
                start, clock.now, kind, target, channel,
                excl_start, excl_end, op_count,
            ))
        for hook in self.post_op_hooks:
            hook(kind, target, channel)
        return result

    def _reject_attempt(
        self, kind: str, target: str, wasted_us: float, attempt: int,
        op_start_us: float,
    ) -> None:
        """One attempt hit an injected transient failure: the round
        trip happened but the device rejected the op, so pay prep +
        PCIe and mutate nothing.  Raises unless the retry policy allows
        another attempt within its budget (counted from
        ``op_start_us``), in which case the backoff is slept here."""
        self.clock.advance(wasted_us)
        message = f"injected transient failure on {kind} {target!r}"
        self._record_error(kind, message)
        error = TransientDriverError(message)
        policy = self.retry_policy
        if policy is None:
            raise error
        if attempt >= policy.max_attempts:
            self.timeouts_total += 1
            raise DriverTimeoutError(
                f"{kind} {target!r} failed after {attempt} attempts"
            ) from error
        backoff = min(
            policy.backoff_base_us
            * policy.backoff_multiplier ** (attempt - 1),
            policy.backoff_max_us,
        )
        if policy.deadline_us is not None and \
                self.clock.now + backoff > op_start_us + policy.deadline_us:
            self.timeouts_total += 1
            raise DriverTimeoutError(
                f"{kind} {target!r} exceeded its "
                f"{policy.deadline_us} us deadline"
            ) from error
        self.clock.advance(backoff)
        self.retries_total += 1
        self.op_retries[kind] = self.op_retries.get(kind, 0) + 1

    def prep_cost(
        self, memo_kind: str, name: str, memo: Optional[MemoHandle] = None
    ) -> float:
        """Software prep cost one op on ``name`` would pay right now
        (memoized if a handle exists) -- the service prices prep at
        submit time with this."""
        memo = self._use_memo(memo, memo_kind, name)
        if memo is not None and self.memoization_enabled:
            return self.model.memoized_prep_us
        return self.model.op_prep_us

    def _use_memo(
        self, memo: Optional[MemoHandle], kind: str, name: str
    ) -> Optional[MemoHandle]:
        if memo is None:
            return self._memos.get((kind, name))
        if memo.kind != kind or memo.name != name:
            raise DriverError(
                f"memo for {memo.kind}/{memo.name} used on {kind}/{name}"
            )
        return memo

    # ---- table operations ---------------------------------------------------------

    def add_entry(
        self,
        table: str,
        key: Sequence[KeyPart],
        action: str,
        args: Sequence[int] = (),
        priority: int = 0,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> int:
        memo = self._use_memo(memo, "table", table)
        runtime = self.asic.get_table(table)
        return self._execute(
            "table_add", table, self.model.table_add_us, memo, channel,
            apply=lambda: runtime.add_entry(key, action, args, priority),
            session=session,
        )

    def modify_entry(
        self,
        table: str,
        entry_id: int,
        action: Optional[str] = None,
        args: Optional[Sequence[int]] = None,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> None:
        memo = self._use_memo(memo, "table", table)
        runtime = self.asic.get_table(table)
        self._execute(
            "table_modify", table, self.model.table_modify_us, memo, channel,
            apply=lambda: runtime.modify_entry(entry_id, action, args),
            session=session,
        )

    def delete_entry(
        self,
        table: str,
        entry_id: int,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> None:
        memo = self._use_memo(memo, "table", table)
        runtime = self.asic.get_table(table)
        self._execute(
            "table_delete", table, self.model.table_delete_us, memo, channel,
            apply=lambda: runtime.delete_entry(entry_id),
            session=session,
        )

    def set_default(
        self,
        table: str,
        action: str,
        args: Sequence[int] = (),
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> None:
        memo = self._use_memo(memo, "table", table)
        runtime = self.asic.get_table(table)
        self._execute(
            "table_set_default", table, self.model.table_set_default_us,
            memo, channel,
            apply=lambda: runtime.set_default(action, args),
            session=session,
        )

    # ---- table read-back (crash recovery / commit verification) ------------

    def read_entries(
        self,
        table: str,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> List[Tuple[int, Tuple[KeyPart, ...], str, List[int], int]]:
        """Read back every installed entry of one table as
        ``(entry_id, key, action, args, priority)`` tuples."""
        memo = self._use_memo(memo, "table", table)
        runtime = self.asic.get_table(table)

        def apply():
            return [
                (
                    entry.entry_id,
                    tuple(entry.key),
                    entry.action_name,
                    list(entry.action_args),
                    entry.priority,
                )
                for entry in runtime.entries.values()
            ]

        device_cost = self.model.table_read_cost(len(runtime.entries))
        return self._execute(
            "table_read", table, device_cost, memo, channel, apply=apply,
            session=session,
        )

    def read_entry(
        self,
        table: str,
        entry_id: int,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> Optional[Tuple[int, Tuple[KeyPart, ...], str, List[int], int]]:
        """Read back one installed entry by id (or None if absent).

        The dirty-diff commit path verifies only the entries it wrote;
        this costs a single-entry read instead of a whole-table dump.
        """
        memo = self._use_memo(memo, "table", table)
        runtime = self.asic.get_table(table)

        def apply():
            entry = runtime.entries.get(entry_id)
            if entry is None:
                return None
            return (
                entry.entry_id,
                tuple(entry.key),
                entry.action_name,
                list(entry.action_args),
                entry.priority,
            )

        return self._execute(
            "table_read", table, self.model.table_read_cost(1), memo, channel,
            apply=apply, session=session,
        )

    def read_default(
        self,
        table: str,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> Optional[Tuple[str, List[int]]]:
        """Read back a table's default action as ``(action, args)``."""
        memo = self._use_memo(memo, "table", table)
        runtime = self.asic.get_table(table)

        def apply():
            default = runtime.default_action
            return None if default is None else (default[0], list(default[1]))

        return self._execute(
            "table_read", table, self.model.table_read_cost(0), memo, channel,
            apply=apply, session=session,
        )

    # ---- register operations ----------------------------------------------------------

    def read_registers(
        self,
        name: str,
        lo: int = 0,
        hi: Optional[int] = None,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> List[int]:
        """Burst-read entries ``lo..hi`` (inclusive) of one array."""
        memo = self._use_memo(memo, "register", name)
        register = self.asic.get_register(name)
        if hi is None:
            hi = register.instance_count - 1
        device_cost = self.model.register_read_cost(hi - lo + 1, register.width)
        return self._execute(
            "register_read", name, device_cost, memo, channel,
            apply=lambda: register.read_range(lo, hi),
            session=session,
        )

    def write_register(
        self,
        name: str,
        index: int,
        value: int,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> None:
        memo = self._use_memo(memo, "register", name)
        register = self.asic.get_register(name)
        self._execute(
            "register_write", name, self.model.register_write_us, memo, channel,
            apply=lambda: register.write(index, value),
            session=session,
        )

    def read_counter(
        self,
        name: str,
        index: int,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> int:
        memo = self._use_memo(memo, "counter", name)
        counter = self.asic.get_counter(name)
        return self._execute(
            "counter_read",
            name,
            self.model.register_read_cost(1, 64),
            memo,
            channel,
            apply=lambda: counter.array.read(index),
            session=session,
        )


    # ---- bulk/streamed writes ---------------------------------------------

    def write_batch(
        self,
        ops: Sequence[Tuple],
        channel: str = "mantis",
        session=None,
    ) -> List[object]:
        """Apply a heterogeneous batch of writes as ONE coalesced
        DMA-burst transaction (RBFRT-style bulk insert).

        ``ops`` is a sequence of tuples:

        - ``("add", table, key, action, args[, priority])``
        - ``("modify", table, entry_id, action, args)``
        - ``("delete", table, entry_id)``
        - ``("set_default", table, action, args)``
        - ``("write_register", name, index, value)``

        The whole batch pays one software prep, one PCIe round trip and
        one bulk-priced device window (`DriverCostModel.bulk_write_cost`),
        occupies a single device-exclusive slot in the timeline, and
        counts ``len(ops)`` into ``ops_issued`` so op-count parity with
        per-entry execution holds.  Fault admission happens once per
        transaction: a transient failure rejects (and retries) the
        batch *as a whole* before any mutation lands -- bulk writes are
        all-or-nothing, never partially applied.

        Returns the per-op results in order (entry ids for adds, else
        ``None``).
        """
        ops = list(ops)
        if not ops:
            return []
        applies, table_entries, register_writes = self.bulk_applies(ops)
        device_cost = self.model.bulk_write_cost(table_entries, register_writes)
        result = self._execute(
            "bulk_write",
            f"bulk[{len(ops)}]",
            device_cost,
            None,
            channel,
            apply=lambda: [fn() for fn in applies],
            session=session,
            op_count=len(ops),
        )
        self.bulk_txns += 1
        return result

    def bulk_applies(
        self, ops: Sequence[Tuple]
    ) -> Tuple[List[Callable[[], object]], int, int]:
        """Resolve bulk ops (the :meth:`write_batch` verb table) into
        apply closures plus the ``(table_entries, register_writes)``
        counts that price the transaction.  Unknown tables, registers
        and verbs raise here, before anything is applied."""
        applies: List[Callable[[], object]] = []
        table_entries = 0
        register_writes = 0
        for op in ops:
            verb = op[0]
            if verb == "add":
                _, table, key, action, args = op[:5]
                priority = op[5] if len(op) > 5 else 0
                runtime = self.asic.get_table(table)
                applies.append(
                    lambda r=runtime, k=key, a=action, g=args, p=priority:
                        r.add_entry(k, a, g, p)
                )
                table_entries += 1
            elif verb == "modify":
                _, table, entry_id, action, args = op
                runtime = self.asic.get_table(table)
                applies.append(
                    lambda r=runtime, e=entry_id, a=action, g=args:
                        r.modify_entry(e, a, g)
                )
                table_entries += 1
            elif verb == "delete":
                _, table, entry_id = op
                runtime = self.asic.get_table(table)
                applies.append(
                    lambda r=runtime, e=entry_id: r.delete_entry(e)
                )
                table_entries += 1
            elif verb == "set_default":
                _, table, action, args = op
                runtime = self.asic.get_table(table)
                applies.append(
                    lambda r=runtime, a=action, g=args: r.set_default(a, g)
                )
                table_entries += 1
            elif verb == "write_register":
                _, name, index, value = op
                register = self.asic.get_register(name)
                applies.append(
                    lambda r=register, i=index, v=value: r.write(i, v)
                )
                register_writes += 1
            else:
                raise DriverError(f"unknown bulk op verb {verb!r}")
        return applies, table_entries, register_writes


class _BatchContext:
    """Context manager implementing request batching."""

    def __init__(self, driver: Driver):
        self.driver = driver

    def __enter__(self) -> Driver:
        if self.driver._batch_depth == 0:
            self.driver._batch_pcie_paid = False
        self.driver._batch_depth += 1
        return self.driver

    def __exit__(self, *exc_info) -> None:
        self.driver._batch_depth -= 1
        if self.driver._batch_depth == 0:
            self.driver._batch_pcie_paid = False
