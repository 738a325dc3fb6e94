"""Fault subsystem: deterministic driver fault injection, link fault
lowering, and invariant checkers for the recovery guarantees (see
DESIGN.md, "Fault model and recovery")."""

from repro.faults.invariants import (
    VersionInvariantChecker,
    shadow_parity_violations,
)
from repro.faults.links import (
    install_link_fault_plan,
    link_fault_model_for,
)
from repro.faults.plan import (
    ALL_FAULT_KINDS,
    CORRUPTIBLE_KINDS,
    DROPPABLE_KINDS,
    EVENT_LOG_LIMIT,
    FAULT_KINDS,
    LINK_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    random_fault_plan,
    random_mixed_fault_plan,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "CORRUPTIBLE_KINDS",
    "DROPPABLE_KINDS",
    "EVENT_LOG_LIMIT",
    "FAULT_KINDS",
    "LINK_FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "VersionInvariantChecker",
    "install_link_fault_plan",
    "link_fault_model_for",
    "random_fault_plan",
    "random_mixed_fault_plan",
    "shadow_parity_violations",
]
