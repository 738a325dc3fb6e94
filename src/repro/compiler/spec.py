"""Control-plane specification -- the compiler's second artifact.

The paper's compiler emits C code that knows where every malleable
lives, how to poll every reaction argument, and how to expand entries
of transformed tables.  This reproduction emits the same knowledge as
a structured, JSON-serializable specification.  The Mantis agent
resolves it once, at prologue (or crash recovery), into the positions
and poll plans its dialogue loop uses, so no iteration searches it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.p4 import ast
from repro.p4r.ast import P4RProgram, ReactionDecl


@dataclass
class InitParam:
    """One parameter of an init action.

    ``kind`` is ``"value"`` (malleable value), ``"field_alt"`` (alt
    selector of a malleable field), ``"vv"`` or ``"mv"`` (version
    bits).  ``name`` is the ``p4r_meta_`` field the action writes.
    """

    name: str
    width: int
    kind: str
    malleable: str = ""  # owning malleable, for value/field_alt
    init: int = 0


@dataclass
class InitTableSpec:
    """One generated init table.

    The first (``master=True``) table carries vv and mv and is updated
    via its default action -- a single-entry atomic update, the
    serialization point of Section 5.1.1.  Later init tables match on
    vv and are maintained like malleable tables (two entries).
    """

    table: str
    action: str
    params: List[InitParam] = field(default_factory=list)
    master: bool = False

    def param_index(self, name: str) -> int:
        for index, param in enumerate(self.params):
            if param.name == name:
                return index
        raise KeyError(f"init table {self.table} has no param {name!r}")


@dataclass
class FieldSlot:
    """Placement of one ing/egr reaction argument inside a packed
    32-bit measurement container."""

    c_name: str
    ref: str  # "instance.field"
    width: int
    shift: int
    reaction: str


@dataclass
class MeasureContainer:
    """One generated measurement register (2 entries, indexed by mv)."""

    register: str
    pipeline: str  # "ing" | "egr"
    slots: List[FieldSlot] = field(default_factory=list)

    def used_bits(self) -> int:
        return sum(slot.width for slot in self.slots)


@dataclass
class RegisterMirror:
    """Double-buffered mirror of a user register (Section 5.2).

    The duplicate has ``2 * padded_count`` entries indexed by
    ``mv * padded_count + original_index``; ``ts`` carries a per-write
    sequence number so the agent's cache can reject stale checkpoint
    values; ``seq`` is the data-plane-side sequence counter.
    """

    original: str
    duplicate: str
    ts: str
    seq: str
    count: int
    padded_count: int
    width: int
    original_eliminated: bool = False


@dataclass
class ReadSpec:
    """How one *user-level* read of a transformed table maps onto the
    compiled table's key positions.

    ``kind == "plain"``: one position, unchanged semantics.
    ``kind == "mbl"``: the user key part fans out over ``positions``
    (one per alt) plus a selector position.
    """

    kind: str
    match_type: str
    width: int
    positions: List[int] = field(default_factory=list)
    field_name: str = ""  # malleable field, for kind == "mbl"
    alt_count: int = 0
    selector_position: int = -1


@dataclass
class ActionSpecialization:
    """Map from a user action to its per-alt-combination variants."""

    fields: List[str] = field(default_factory=list)  # mbl field names, in order
    # keys are comma-joined alt indices ("0,1"), JSON-friendly
    variants: Dict[str, str] = field(default_factory=dict)

    def variant(self, alt_indices: Tuple[int, ...]) -> str:
        return self.variants[",".join(str(i) for i in alt_indices)]


@dataclass
class TableTransformSpec:
    """Everything the agent needs to drive one transformed table."""

    name: str
    malleable: bool
    reads: List[ReadSpec] = field(default_factory=list)
    # selector reads appended for action specialization:
    # field name -> key position
    action_selectors: Dict[str, int] = field(default_factory=dict)
    vv_position: int = -1  # -1 when the table has no vv read
    actions: Dict[str, ActionSpecialization] = field(default_factory=dict)
    total_key_parts: int = 0


@dataclass
class MalleableValueSpec:
    name: str
    width: int
    init: int
    init_table: str
    param: str


@dataclass
class MalleableFieldSpec:
    name: str
    width: int
    alts: List[str] = field(default_factory=list)
    init_index: int = 0
    selector_width: int = 1
    init_table: str = ""
    param: str = ""
    strategy: str = "specialize"  # or "load"


@dataclass
class LoadTableSpec:
    """A generated load table (the end-of-Section-4.1 optimization):
    one entry per alternative, installed once in the prologue."""

    table: str
    field_name: str
    actions: List[str] = field(default_factory=list)


@dataclass
class ControlPlaneSpec:
    """The complete control-plane artifact."""

    init_tables: List[InitTableSpec] = field(default_factory=list)
    load_tables: List[LoadTableSpec] = field(default_factory=list)
    values: Dict[str, MalleableValueSpec] = field(default_factory=dict)
    fields: Dict[str, MalleableFieldSpec] = field(default_factory=dict)
    tables: Dict[str, TableTransformSpec] = field(default_factory=dict)
    containers: List[MeasureContainer] = field(default_factory=list)
    mirrors: Dict[str, RegisterMirror] = field(default_factory=dict)
    reactions: Dict[str, "ReactionSpec"] = field(default_factory=dict)
    meta_instance: str = "p4r_meta_"

    @property
    def master_init(self) -> InitTableSpec:
        for init in self.init_tables:
            if init.master:
                return init
        raise KeyError("spec has no master init table")

    def container_for(self, reaction: str, c_name: str):
        """Locate the (container, slot) holding a field argument."""
        for container in self.containers:
            for slot in container.slots:
                if slot.reaction == reaction and slot.c_name == c_name:
                    return container, slot
        raise KeyError(f"no container slot for {reaction}/{c_name}")

    def to_dict(self) -> dict:
        """JSON-serializable form (written next to the emitted P4)."""
        return asdict(self)


@dataclass
class ReactionSpec:
    """One reaction, with arguments resolved to polling locations."""

    name: str
    decl: ReactionDecl
    # per-arg: ("container", c_name) / ("mirror", reg name) / ("mbl", name)
    arg_sources: List[Tuple[str, str]] = field(default_factory=list)


@dataclass
class CompiledArtifacts:
    """The compiler's output bundle."""

    p4r: P4RProgram
    p4: ast.Program
    p4_source: str
    spec: ControlPlaneSpec
