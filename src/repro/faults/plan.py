"""Deterministic fault injection for the control-plane driver.

Hardware control channels fail in ways the happy-path simulator never
exercises: slow PCIe ops, rejected writes, lost responses, corrupted
DMA reads.  This module injects those failures *deterministically* --
every decision is drawn from a seeded RNG and gated on the simulated
clock and a monotone per-driver op counter, so a failing run replays
exactly under the same seed.

Fault kinds:

- ``transient`` -- the op raises :class:`TransientDriverError`; the
  driver guarantees no device mutation landed (the wasted round trip
  still costs prep + PCIe time);
- ``latency``   -- the op succeeds but takes ``extra_us`` longer
  (a control-channel latency spike);
- ``drop``      -- a *value write* reports success but never lands
  (restricted to ``table_modify`` / ``table_set_default`` /
  ``register_write``: ops with no return value, so silent loss is
  well-defined);
- ``corrupt``   -- a *read* returns bit-flipped data (restricted to
  ``register_read`` / ``counter_read``).

Specs filter by op kind, target object, channel, op-attempt index
window, and simulated-time window, and can fire probabilistically
and/or a bounded number of times.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, FrozenSet, List, Optional, Tuple

FAULT_KINDS = ("transient", "latency", "drop", "corrupt")

# Data-plane link fault kinds.  Specs with these kinds never match
# driver operations -- they are lowered onto fabric links as
# :class:`~repro.net.sim.LinkFaultModel` instances by
# :func:`repro.faults.links.install_link_fault_plan`, sharing the
# plan's seed and the same time-window semantics as driver faults.
LINK_FAULT_KINDS = ("link_drop", "link_corrupt")

ALL_FAULT_KINDS = FAULT_KINDS + LINK_FAULT_KINDS

#: Most recent :class:`FaultEvent` records a :class:`FaultInjector`
#: keeps; an uncapped always-on spec would otherwise grow the log by
#: one record per op for the whole run.
EVENT_LOG_LIMIT = 4096

# Ops a `drop` fault may target: value writes with no return value.
DROPPABLE_KINDS = frozenset(
    {"table_modify", "table_set_default", "register_write"}
)
# Ops a `corrupt` fault may target: reads returning integer payloads.
CORRUPTIBLE_KINDS = frozenset({"register_read", "counter_read"})


@dataclass
class FaultSpec:
    """One fault rule: what to inject and which ops it may hit.

    All filters are conjunctive; ``None`` means "any".  ``predicate``
    (not serialized) receives ``(op_kind, target, channel)`` after the
    declarative filters pass -- an escape hatch for tests that need to
    target e.g. "the second set_default after arming".
    """

    kind: str
    op_kinds: Optional[FrozenSet[str]] = None
    targets: Optional[FrozenSet[str]] = None
    channels: Optional[FrozenSet[str]] = None
    op_range: Optional[Tuple[int, Optional[int]]] = None
    window_us: Optional[Tuple[float, float]] = None
    probability: float = 1.0
    max_triggers: Optional[int] = None
    extra_us: float = 20.0  # latency faults
    corrupt_mask: int = 0xFF  # corrupt faults: XOR mask on one word
    predicate: Optional[Callable[[str, str, str], bool]] = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{ALL_FAULT_KINDS}"
            )
        if self.op_kinds is not None:
            self.op_kinds = frozenset(self.op_kinds)
        if self.targets is not None:
            self.targets = frozenset(self.targets)
        if self.channels is not None:
            self.channels = frozenset(self.channels)

    @property
    def is_link_fault(self) -> bool:
        return self.kind in LINK_FAULT_KINDS

    def matches(
        self, op_kind: str, target: str, channel: str,
        op_index: int, now_us: float,
    ) -> bool:
        if self.kind in LINK_FAULT_KINDS:
            return False  # link specs never intercept driver ops
        if self.kind == "drop" and op_kind not in DROPPABLE_KINDS:
            return False
        if self.kind == "corrupt" and op_kind not in CORRUPTIBLE_KINDS:
            return False
        if self.op_kinds is not None and op_kind not in self.op_kinds:
            return False
        if self.targets is not None and target not in self.targets:
            return False
        if self.channels is not None and channel not in self.channels:
            return False
        if self.op_range is not None:
            lo, hi = self.op_range
            if op_index < lo or (hi is not None and op_index > hi):
                return False
        if self.window_us is not None:
            start, end = self.window_us
            if not start <= now_us <= end:
                return False
        if self.predicate is not None and not self.predicate(
            op_kind, target, channel
        ):
            return False
        return True


@dataclass
class FaultPlan:
    """A seeded set of fault rules applied to one driver."""

    seed: int
    specs: List[FaultSpec] = field(default_factory=list)

    def end_us(self) -> float:
        """Upper bound of every windowed spec (0.0 if none are
        windowed) -- past this instant a windowed plan is inert."""
        return max(
            (spec.window_us[1] for spec in self.specs if spec.window_us),
            default=0.0,
        )

    def link_specs(self) -> List[Tuple[int, FaultSpec]]:
        """``(spec_index, spec)`` pairs of the link-fault specs."""
        return [
            (index, spec)
            for index, spec in enumerate(self.specs)
            if spec.is_link_fault
        ]

    def driver_specs(self) -> List[Tuple[int, FaultSpec]]:
        """``(spec_index, spec)`` pairs of the driver-fault specs."""
        return [
            (index, spec)
            for index, spec in enumerate(self.specs)
            if not spec.is_link_fault
        ]


@dataclass
class FaultEvent:
    """One injected fault, for post-hoc analysis and assertions."""

    time_us: float
    op_index: int
    fault_kind: str
    op_kind: str
    target: str
    channel: str
    spec_index: int


class _ActiveFault:
    """What the driver consumes for one intercepted operation."""

    __slots__ = ("kind", "extra_us", "_mask", "_rng")

    def __init__(self, spec: FaultSpec, rng: random.Random):
        self.kind = spec.kind
        self.extra_us = spec.extra_us
        self._mask = spec.corrupt_mask
        self._rng = rng

    def corrupt(self, result):
        if isinstance(result, list) and result:
            corrupted = list(result)
            index = self._rng.randrange(len(corrupted))
            corrupted[index] ^= self._mask
            return corrupted
        if isinstance(result, int):
            return result ^ self._mask
        return result


class FaultInjector:
    """Hooks a :class:`FaultPlan` into one driver.

    The driver consults :meth:`intercept` before every operation
    attempt (including retries); the first matching spec wins.  All
    randomness (probability rolls, corruption placement) comes from
    one ``random.Random(plan.seed)``, so behaviour is a pure function
    of the plan and the op sequence.

    ``events`` is a ring of the last :data:`EVENT_LOG_LIMIT` injected
    faults; ``triggered`` counts every fault ever injected.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.enabled = True
        self.events: Deque[FaultEvent] = deque(maxlen=EVENT_LOG_LIMIT)
        self.triggered = 0
        self._trigger_counts = [0] * len(plan.specs)

    def attach(self, driver) -> "FaultInjector":
        driver.fault_injector = self
        return self

    def intercept(
        self, op_kind: str, target: str, channel: str,
        op_index: int, now_us: float,
    ) -> Optional[_ActiveFault]:
        if not self.enabled:
            return None
        for index, spec in enumerate(self.plan.specs):
            if (
                spec.max_triggers is not None
                and self._trigger_counts[index] >= spec.max_triggers
            ):
                continue
            if not spec.matches(op_kind, target, channel, op_index, now_us):
                continue
            if spec.probability < 1.0 and self.rng.random() >= spec.probability:
                continue
            self._trigger_counts[index] += 1
            self.triggered += 1
            self.events.append(
                FaultEvent(
                    now_us, op_index, spec.kind, op_kind, target, channel,
                    index,
                )
            )
            return _ActiveFault(spec, self.rng)
        return None


def random_fault_plan(
    seed: int,
    start_us: float = 0.0,
    duration_us: float = 2000.0,
    max_specs: int = 6,
    kinds: Tuple[str, ...] = FAULT_KINDS,
    link_fraction: float = 0.0,
) -> FaultPlan:
    """Generate a randomized, bounded fault plan.

    Every spec is time-windowed inside ``[start_us, start_us +
    duration_us]`` and trigger-capped, so the plan is guaranteed to go
    quiet: after ``plan.end_us()`` the system must be able to converge
    back to healthy.  Identical seeds produce identical plans.

    With ``link_fraction > 0`` each spec slot becomes a *link* fault
    (``link_drop``/``link_corrupt``, lowered onto fabric links by
    :func:`repro.faults.links.install_link_fault_plan`) with that
    probability -- a mixed driver+link plan for the randomized sweep.
    The ``link_fraction`` roll is short-circuited at 0.0 so the
    default draw sequence (hence every existing seeded plan) is
    unchanged.
    """
    rng = random.Random(seed)
    specs: List[FaultSpec] = []
    for _ in range(rng.randint(2, max_specs)):
        if link_fraction > 0.0 and rng.random() < link_fraction:
            specs.append(_random_link_spec(rng, start_us, duration_us))
            continue
        kind = rng.choice(kinds)
        window_start = start_us + rng.random() * duration_us * 0.7
        window_len = duration_us * (0.05 + rng.random() * 0.3)
        window_end = min(window_start + window_len, start_us + duration_us)
        op_kinds = None
        if kind == "transient" and rng.random() < 0.5:
            op_kinds = frozenset(
                rng.sample(
                    [
                        "table_add", "table_modify", "table_set_default",
                        "table_delete", "register_read", "register_write",
                        "counter_read", "table_read",
                    ],
                    rng.randint(1, 4),
                )
            )
        specs.append(
            FaultSpec(
                kind=kind,
                op_kinds=op_kinds,
                window_us=(window_start, window_end),
                probability=rng.uniform(0.15, 0.9),
                max_triggers=rng.randint(1, 10),
                extra_us=rng.uniform(5.0, 80.0),
                corrupt_mask=1 << rng.randrange(0, 16),
            )
        )
    return FaultPlan(seed=seed, specs=specs)


def _random_link_spec(
    rng: random.Random, start_us: float, duration_us: float
) -> FaultSpec:
    """One randomized link-fault spec.

    ``probability`` is reinterpreted as the per-packet drop/corrupt
    rate (log-uniform over ~1e-3..1e-1, the LinkGuardian regime);
    ``max_triggers`` caps the damage so plans still go quiet.
    """
    kind = rng.choice(LINK_FAULT_KINDS)
    window_start = start_us + rng.random() * duration_us * 0.7
    window_len = duration_us * (0.05 + rng.random() * 0.3)
    window_end = min(window_start + window_len, start_us + duration_us)
    return FaultSpec(
        kind=kind,
        window_us=(window_start, window_end),
        probability=10.0 ** rng.uniform(-3.0, -1.0),
        max_triggers=rng.randint(5, 200),
        corrupt_mask=1 << rng.randrange(0, 16),
    )


def random_mixed_fault_plan(
    seed: int,
    start_us: float = 0.0,
    duration_us: float = 2000.0,
    max_specs: int = 8,
    link_fraction: float = 0.45,
) -> FaultPlan:
    """A mixed driver+link plan -- what the 50-seed CI sweep runs."""
    return random_fault_plan(
        seed,
        start_us=start_us,
        duration_us=duration_us,
        max_specs=max_specs,
        link_fraction=link_fraction,
    )
