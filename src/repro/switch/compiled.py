"""Compile-to-code fast path for the packet pipeline.

:class:`CompiledPipeline` lowers a loaded program once, at
construction time:

- every ``"instance.field"`` key string is built exactly once and
  interned into the code that reads or writes it (the interpreter
  re-builds these with an f-string on every access);
- every field-width mask is resolved from ``asic.field_masks`` at
  compile time, so per-packet writes are a dict store plus at most one
  ``&``;
- primitive dispatch (the interpreter's string-comparison ladder) is
  resolved once per action body into pre-specialized step closures,
  and a resolved (action, args) pair is further fused into one
  straight-line function with its arguments folded in as constants;
- expression trees in ``if`` conditions are folded into flat lambdas,
  with constant subtrees evaluated at compile time;
- each control block becomes one generated function (its *kernel*):
  per table a drop check, the lookup key built inline, a probe of the
  table's :class:`ResolutionCache`, the hit/miss bump, and a call to
  the fused runner (or the step loop when the action is not fusable).
  Non-exact tables and ``if`` conditions are called from the kernel as
  closures.  Generated sources are compiled once per process, so a
  fleet of switches running one program shares the code objects.

Table entries, default actions, and register contents are not baked
into any code.  Each exact-only table's :class:`ResolutionCache`
remembers what a key resolved to for one
:attr:`~repro.switch.tables.TableRuntime.generation` of the table;
every add/modify/delete/set_default bumps that counter, and every
probe compares it first, so the Mantis agent's shadow-flip writes take
effect on the very next lookup -- including one made mid-packet from
:meth:`CompiledPipeline.iter_control`.

The tree-walking :class:`~repro.switch.pipeline.PipelineExecutor`
remains the reference semantics; :func:`run_differential` replays one
workload through both engines and asserts identical packet and ASIC
state, and the tests in ``tests/switch/test_compiled.py`` keep the two
in lockstep.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import SwitchError
from repro.p4 import ast
from repro.switch.hashing import compute_hash
from repro.switch.packet import Packet

_DROP = "standard_metadata.drop_flag"

# A compiled primitive step: (action_args, packet) -> None.
StepFn = Callable[[List[int], Packet], None]
# A compiled control-block op: (packet) -> None.
OpFn = Callable[[Packet], None]

# An op-major batch op: one table applied across a whole burst
# (dropped packets skipped), amortizing the per-packet apply frame.
BatchOpFn = Callable[[List[Packet]], None]

# Binary operators with the interpreter's exact semantics: comparisons
# and boolean connectives produce ints, arithmetic is unbounded (width
# masking happens at field writes, not inside expressions).
_BIN_FNS: Dict[str, Callable[[int, int], int]] = {
    "==": lambda l, r: 1 if l == r else 0,
    "!=": lambda l, r: 1 if l != r else 0,
    "<": lambda l, r: 1 if l < r else 0,
    "<=": lambda l, r: 1 if l <= r else 0,
    ">": lambda l, r: 1 if l > r else 0,
    ">=": lambda l, r: 1 if l >= r else 0,
    "&&": lambda l, r: 1 if l and r else 0,
    "||": lambda l, r: 1 if l or r else 0,
    "+": lambda l, r: l + r,
    "-": lambda l, r: l - r,
    "&": lambda l, r: l & r,
    "|": lambda l, r: l | r,
    "^": lambda l, r: l ^ r,
    "<<": lambda l, r: l << r,
    ">>": lambda l, r: l >> r,
}

_ARITH_FNS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda l, r: l + r,
    "subtract": lambda l, r: l - r,
    "bit_and": lambda l, r: l & r,
    "bit_or": lambda l, r: l | r,
    "bit_xor": lambda l, r: l ^ r,
    "shift_left": lambda l, r: l << r,
    "shift_right": lambda l, r: l >> r,
    "min": min,
    "max": max,
}

# Source templates mirroring _ARITH_FNS for the action fuser, which
# emits flat Python instead of stacking closures.
_ARITH_EXPRS: Dict[str, str] = {
    "add": "({l} + {r})",
    "subtract": "({l} - {r})",
    "bit_and": "({l} & {r})",
    "bit_or": "({l} | {r})",
    "bit_xor": "({l} ^ {r})",
    "shift_left": "({l} << {r})",
    "shift_right": "({l} >> {r})",
    "min": "min({l}, {r})",
    "max": "max({l}, {r})",
}

_FLAG_KEYS = {
    "recirculate": "standard_metadata.recirculate_flag",
    "clone_ingress_pkt_to_egress": "standard_metadata.clone_flag",
    "mark_ecn": "standard_metadata.ecn_marked",
}


class PipelineProfile:
    """Hot-loop counters for one compiled pipeline.

    The emulator runs on pre-parsed packets, so the classic
    parse/match/action phases map onto what the engine actually
    executes: control-block runs (per-pass framing), table applies
    (match), and action executions (action).  Counting costs one dict
    increment per event, so profiles are opt-in via
    ``SwitchAsic.enable_profiling``."""

    __slots__ = ("control_runs", "table_applies", "action_runs")

    def __init__(self):
        self.control_runs: Dict[str, int] = {}
        self.table_applies: Dict[str, int] = {}
        self.action_runs: Dict[str, int] = {}

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {
            "control_runs": dict(self.control_runs),
            "table_applies": dict(self.table_applies),
            "action_runs": dict(self.action_runs),
        }


def _counting_op(fn: "OpFn", counts: Dict[str, int], name: str) -> "OpFn":
    counts[name] = 0

    def counted(packet: Packet, _fn=fn, _counts=counts, _name=name) -> None:
        _counts[_name] += 1
        _fn(packet)

    return counted


def _counting_step(fn: "StepFn", counts: Dict[str, int], name: str) -> "StepFn":
    counts[name] = 0

    def counted(
        args: List[int], packet: Packet, _fn=fn, _counts=counts, _name=name
    ) -> None:
        _counts[_name] += 1
        _fn(args, packet)

    return counted


_UNSET = object()


def _const_int(arg, params: Dict[str, int]) -> Optional[int]:
    """The compile-time integer value of a primitive argument once
    action parameters are bound, or ``None`` if it is packet-dependent."""
    if isinstance(arg, int):
        return arg
    if isinstance(arg, str):
        return params.get(arg)
    return None


def _tables_in(statements) -> Iterator[str]:
    """All table names applied anywhere in a statement list (recursing
    through conditionals)."""
    for stmt in statements:
        if isinstance(stmt, ast.ApplyCall):
            yield stmt.table
        elif isinstance(stmt, ast.IfBlock):
            yield from _tables_in(stmt.then_body)
            yield from _tables_in(stmt.else_body)


def _raising_step(message: str) -> StepFn:
    """A step that raises when *executed* -- semantic errors the
    interpreter only reports at run time must not become load-time
    failures in the compiled engine."""

    def step(args: List[int], packet: Packet) -> None:
        raise SwitchError(message)

    return step


@functools.lru_cache(maxsize=1024)
def _code_for(source: str, filename: str):
    """One code object per generated source text.  Every switch of a
    fleet loads the same program, so their kernels and fused runners
    differ only in the objects bound into them, not in their source."""
    return compile(source, filename, "exec")


def _define(source: str, filename: str, namespace: Dict[str, object]):
    """Run generated ``source`` (one ``def``) against ``namespace`` and
    return the function it defines."""
    namespace["__builtins__"] = {}
    local: Dict[str, object] = {}
    exec(  # noqa: S102 - source assembled from parsed P4 only
        _code_for(source, filename), namespace, local
    )
    (fn,) = local.values()
    return fn


# A resolved table lookup: (matched, steps, args, fused, action).
# ``steps``/``args`` run the action through its step closures; ``fused``
# is the straight-line runner for the same (action, args), or ``None``
# when the body is not fusable.  ``action`` is ``None`` for a miss with
# no default action (nothing runs).
_NO_ACTION = (False, (), (), None, None)


class ResolutionCache:
    """What each lookup key of one exact-only table resolves to.

    ``hits`` maps the key of each installed entry that a packet has
    probed to its resolution; every miss shares the single ``default``
    resolution.  The cache therefore holds at most ``entry_count + 1``
    resolutions whatever keys the traffic carries.  Both are dropped
    as soon as :attr:`TableRuntime.generation` moves, and every add,
    modify, delete and ``set_default`` moves it, so probes never see a
    stale entry.

    Single-field tables key ``hits`` by the bare field value; the
    others by the lookup-key tuple the table's index uses."""

    __slots__ = ("runtime", "index", "hits", "default", "generation",
                 "_resolve")

    def __init__(self, runtime, resolve: Callable[[tuple], tuple]):
        self.runtime = runtime
        self.index = runtime._exact_index
        # Cleared in place, never rebound: generated code binds it.
        self.hits: Dict[object, tuple] = {}
        self.default: Optional[tuple] = None
        self.generation = runtime.generation
        self._resolve = resolve

    def sync(self) -> None:
        """Drop every resolution if the table changed since they were
        made."""
        generation = self.runtime.generation
        if generation != self.generation:
            self.hits.clear()
            self.default = None
            self.generation = generation

    def miss(self, key, key_tuple: tuple) -> tuple:
        """Resolve a key absent from ``hits`` (call after :meth:`sync`).

        A resolution error (unknown action, wrong arity) still counts
        the lookup, as the interpreter counts it before running the
        action."""
        matched = key_tuple in self.index
        result = None if matched else self.default
        if result is None:
            try:
                result = self._resolve(key_tuple)
            except SwitchError:
                if matched:
                    self.runtime.hits += 1
                else:
                    self.runtime.misses += 1
                raise
            if matched:
                self.hits[key] = result
            else:
                self.default = result
        return result


class CompiledPipeline:
    """The compiled execution engine for one ASIC's program.

    API-compatible with :class:`~repro.switch.pipeline.PipelineExecutor`
    (``run_control`` / ``iter_control`` / ``apply_table`` /
    ``run_action``), so :class:`~repro.switch.asic.SwitchAsic` can
    select either engine behind one attribute.
    """

    def __init__(
        self,
        asic,
        rng: Optional[random.Random] = None,
        profile: Optional[PipelineProfile] = None,
    ):
        self.asic = asic
        self.rng = rng if rng is not None else random.Random(0)
        self.profile = profile
        program = asic.program
        # Raw (steps, n_params) per action, recorded by _compile_action:
        # resolved lookups execute step tuples directly, skipping the
        # per-call action frame.
        self._action_steps: Dict[str, Tuple[Tuple[StepFn, ...], int]] = {}
        self._actions: Dict[str, StepFn] = {
            name: self._compile_action(decl)
            for name, decl in program.actions.items()
        }
        if profile is not None:
            # Under profiling every resolved action runs through its
            # counting closure (see _make_resolver), every kernel calls
            # the counting apply closures, and every control is wrapped:
            # one code generator, with all execution paths counted.
            self._actions = {
                name: _counting_step(fn, profile.action_runs, name)
                for name, fn in self._actions.items()
            }
        # Fused (action, args) specializations.  Keyed by resolved
        # action name + concrete argument tuple; safe to keep for the
        # pipeline's lifetime because the generated code depends only
        # on the action declaration and stable asic containers
        # (register/counter value lists), never on table entries.
        self._fused_runners: Dict[Tuple[Optional[str], tuple], object] = {}
        self._fused_sweeps: Dict[Tuple[Optional[str], tuple], object] = {}
        self._caches: Dict[str, ResolutionCache] = {
            name: ResolutionCache(runtime, self._make_resolver(runtime))
            for name, runtime in asic.tables.items()
            if runtime._exact_only
        }
        # Standalone applies serve iter_control, apply_table and the
        # profiled kernels; unprofiled kernels inline their tables, so
        # the applies are built on first use (see _apply_fn).
        self._applies: Dict[str, OpFn] = {}
        if profile is not None:
            for name, runtime in asic.tables.items():
                self._applies[name] = _counting_op(
                    self._compile_apply(runtime), profile.table_applies, name
                )
        self._controls: Dict[str, OpFn] = {}
        self._stepped: Dict[str, List] = {}
        for name, decl in program.controls.items():
            compiled = self._compile_control(decl.body)
            if profile is not None:
                compiled = _counting_op(compiled, profile.control_runs, name)
            self._controls[name] = compiled
            self._stepped[name] = self._compile_stepped(decl.body)
        # Ingress tables admitted to op-major execution, or ``None``.
        # Never admitted under profiling: the profiled run must route
        # every packet through the counting closures.  The sweeps are
        # generated on first use, since per-packet fleets never burst.
        self._major_tables: Optional[Tuple[object, ...]] = None
        if profile is None:
            self._major_tables = self._admit_batch_major(
                program.controls.get("ingress"),
                program.controls.get("egress"),
            )
        self._major_plan: Optional[Tuple[BatchOpFn, ...]] = None

    # ---- control blocks ---------------------------------------------------

    def run_control(self, control_name: str, packet: Packet) -> None:
        """Run a control block to completion on one packet."""
        run = self._controls.get(control_name)
        if run is not None:
            run(packet)

    def bound_control(self, control_name: str) -> Optional[OpFn]:
        """The compiled kernel for one control block, or ``None`` if
        the program does not define it.

        The batch path hoists this lookup out of its packet loop: one
        bind per burst instead of a dict probe (plus a call frame for
        absent controls) per packet."""
        return self._controls.get(control_name)

    def iter_control(
        self, control_name: str, packet: Packet
    ) -> Iterator[Tuple[str, str]]:
        """Stepped execution with the interpreter's contract: yields
        ``("apply", table)`` *before* each table application so callers
        can interleave control-plane operations mid-pipeline."""
        steps = self._stepped.get(control_name)
        if steps is not None:
            yield from _run_stepped(steps, packet)

    # ---- batch execution --------------------------------------------------

    def batch_ops(self, control_name: str) -> Optional[Tuple[OpFn, ...]]:
        """The batch execution plan for one control block: its kernel
        (an undefined control is an empty plan).  Returns ``None`` under
        profiling, where the batch driver binds the counting controls
        itself."""
        if self.profile is not None:
            return None
        control = self._controls.get(control_name)
        return (control,) if control is not None else ()

    def _make_resolver(self, runtime) -> Callable[[tuple], tuple]:
        """A ``key_tuple -> (matched, steps, args, fused, action)``
        resolver for one exact-only table; its :class:`ResolutionCache`
        calls it once per key per table generation.

        ``fused`` is the flat specialized runner for the resolved
        (action, args) pair -- see :meth:`_fuse_runner` -- or ``None``
        when the action body has a shape the fuser does not cover, in
        which case callers fall back to the generic step loop.  Under
        profiling the only step is the counting action closure and
        nothing is fused, so every run is counted."""
        resolve_steps = self._resolve_steps
        fuse = self._fuse_runner
        counted = self._actions if self.profile is not None else None
        index = runtime._exact_index

        def resolve(key_tuple: tuple) -> tuple:
            entry = index.get(key_tuple)
            if entry is None:
                default = runtime.default_action
                if default is None:
                    return _NO_ACTION
                name, args = default
                matched = False
            else:
                name = entry.action_name
                args = entry.action_args
                matched = True
            steps = resolve_steps(name, args)
            args = tuple(args)
            if counted is not None:
                return (matched, (counted[name],), args, None, name)
            return (matched, steps, args, fuse(name, args), name)

        return resolve

    def _resolve_steps(
        self, action_name: str, action_args: List[int]
    ) -> Tuple[StepFn, ...]:
        """Pre-flight an action for resolved execution: same unknown-
        action and arity errors as the compiled run fns, paid once per
        (table, key) per table generation instead of once per packet."""
        entry = self._action_steps.get(action_name)
        if entry is None:
            raise SwitchError(f"unknown action {action_name!r}")
        steps, n_params = entry
        if len(action_args) != n_params:
            raise SwitchError(
                f"action {action_name}: expected {n_params} args, "
                f"got {len(action_args)}"
            )
        return steps

    # ---- generated kernels ------------------------------------------------
    #
    # Control blocks, exact-table applies and op-major sweeps are emitted
    # as Python source and compiled once per source text (_code_for).
    # Every object the code touches is bound as a default argument under
    # a positional name (_t0, _c1, ...), so two switches loading the same
    # program generate byte-identical source.

    def _compile_control(self, statements: List[ast.Statement]) -> OpFn:
        """One generated function running a control block on a packet."""
        env: Dict[str, object] = {}
        lines: List[str] = []
        self._emit_block(statements, env, lines, "    ")
        return _define(
            _function_source("_control", "p", env,
                             ["    f = p.fields"] + lines),
            "<control kernel>",
            env,
        )

    def _emit_block(
        self,
        statements: List[ast.Statement],
        env: Dict[str, object],
        lines: List[str],
        pad: str,
    ) -> None:
        for stmt in statements:
            # A dropped packet runs nothing more in this control.
            lines.append(f"{pad}if f[{_DROP!r}]:")
            lines.append(f"{pad}    return")
            if isinstance(stmt, ast.ApplyCall):
                runtime = self.asic.tables.get(stmt.table)
                if runtime is None:
                    raise SwitchError(f"unknown table {stmt.table!r}")
                if runtime._exact_only and self.profile is None:
                    self._emit_exact(runtime, env, lines, pad, sweep=False)
                else:
                    apply = _bind(env, "_a", self._apply_fn(stmt.table))
                    lines.append(f"{pad}{apply}(p)")
            elif isinstance(stmt, ast.IfBlock):
                cond = self._compile_expr(stmt.cond)
                if isinstance(cond, int):  # constant condition: fold
                    taken = stmt.then_body if cond else stmt.else_body
                    self._emit_block(taken, env, lines, pad)
                    continue
                lines.append(f"{pad}if {_bind(env, '_k', cond)}(p):")
                branch: List[str] = []
                self._emit_block(stmt.then_body, env, branch, pad + "    ")
                lines.extend(branch or [f"{pad}    pass"])
                if stmt.else_body:
                    lines.append(f"{pad}else:")
                    self._emit_block(stmt.else_body, env, lines, pad + "    ")
            else:  # pragma: no cover - parser emits only the kinds above
                raise SwitchError(f"unknown statement {stmt!r}")

    def _emit_exact(
        self,
        runtime,
        env: Dict[str, object],
        lines: List[str],
        pad: str,
        sweep: bool,
    ) -> Tuple[str, str]:
        """Emit one exact-only table apply on packet ``p`` (fields
        ``f``): the inline key, the cache probe, the hit/miss bump, and
        the action run.  Per-packet code checks the table generation
        first; a ``sweep`` checks it once per batch (the control plane
        cannot run inside one) and counts into locals ``hits``/``misses``.
        Returns the names bound to the runtime and its cache."""
        cache = self._caches[runtime.decl.name]
        table = _bind(env, "_t", runtime)
        memo = _bind(env, "_c", cache)
        hits = _bind(env, "_h", cache.hits)
        index = _bind(env, "_x", cache.index)
        key, key_tuple = _key_source(runtime.decl.reads)
        if not sweep:
            lines.extend(_sync_source(table, memo, pad))
        bump_hit, bump_miss = (
            ("hits += 1", "misses += 1") if sweep
            else (f"{table}.hits += 1", f"{table}.misses += 1")
        )
        lines.extend(
            pad + line
            for line in (
                f"k = {key}",
                f"r = {hits}.get(k)",
                "if r is None:",
                f"    r = {memo}.default",
                f"    if r is None or {key_tuple} in {index}:",
                f"        r = {memo}.miss(k, {key_tuple})",
                "m, s, a, fn, _n = r",
                "if m:",
                f"    {bump_hit}",
                "else:",
                f"    {bump_miss}",
                "if fn is not None:",
                "    fn(p, f)",
                "else:",
                "    for st in s:",
                "        st(a, p)",
            )
        )
        return table, memo

    # ---- action fusion ----------------------------------------------------
    #
    # Once a lookup has resolved to an (action, args) pair, every
    # action parameter is a known integer, so the whole primitive
    # sequence can be emitted as one flat Python function -- no step
    # dispatch, no argument closures, constants folded in the source.
    # This is the reproduction's version of the paper's precomputation
    # argument (SS6): resolve once, then run straight-line code.

    def _fuse_runner(self, action_name, args: tuple):
        """A fused per-packet runner ``fn(packet, fields)`` for one
        resolved action, or ``None`` if the body is not fusable."""
        cache = self._fused_runners
        key = (action_name, args)
        fn = cache.get(key, _UNSET)
        if fn is _UNSET:
            fn = cache[key] = self._build_fused(action_name, args, False)
        return fn

    def _fuse_sweep(self, action_name, args: tuple):
        """A fused whole-batch sweep ``fn(packets) -> live_count`` for
        one resolved keyless action (``None`` action name means
        miss-with-no-default: count live packets, run nothing)."""
        cache = self._fused_sweeps
        key = (action_name, args)
        fn = cache.get(key, _UNSET)
        if fn is _UNSET:
            fn = cache[key] = self._build_fused(action_name, args, True)
        return fn

    def _build_fused(self, action_name, args: tuple, sweep: bool):
        env: Dict[str, object] = {}
        body: List[str] = []
        if action_name is not None:
            decl = self.asic.program.actions.get(action_name)
            if decl is None or len(decl.params) != len(args):
                return None
            params = dict(zip(decl.params, args))
            env.update(min=min, max=max)
            for call in decl.body:
                if not self._fuse_call(call, params, env, body):
                    return None
        if sweep:
            inner = "".join(f"        {line}\n" for line in body)
            src = (
                "def _fused(packets):\n"
                "    live = 0\n"
                "    for p in packets:\n"
                "        f = p.fields\n"
                f"        if f[{_DROP!r}]:\n"
                "            continue\n"
                "        live += 1\n"
                f"{inner}"
                "    return live\n"
            )
        else:
            inner = "".join(f"    {line}\n" for line in body) or "    pass\n"
            src = f"def _fused(p, f):\n{inner}"
        return _define(src, f"<fused {action_name}>", env)

    def _fuse_value(self, arg, params: Dict[str, int]) -> Optional[str]:
        """Render a primitive argument as a source expression over the
        per-packet locals ``p``/``f``; ``None`` if not renderable."""
        if isinstance(arg, int):
            return repr(arg)
        if isinstance(arg, ast.FieldRef):
            return f"f.get({arg.header + '.' + arg.field!r}, 0)"
        if isinstance(arg, str) and arg in params:
            return repr(params[arg])
        return None

    def _fuse_call(
        self,
        call: ast.PrimitiveCall,
        params: Dict[str, int],
        env: Dict[str, object],
        body: List[str],
    ) -> bool:
        """Emit source lines for one primitive call; ``False`` when the
        shape is outside the fusable subset (caller falls back to the
        generic step loop)."""
        name = call.name
        args = call.args
        asic = self.asic

        if name == "no_op":
            return True
        if name == "drop":
            body.append(f"f[{_DROP!r}] = 1")
            return True
        if name in _FLAG_KEYS:
            body.append(f"f[{_FLAG_KEYS[name]!r}] = 1")
            return True

        if name == "modify_field":
            dst = self._dst(args[0])
            if dst is None:
                return False
            key, mask = dst
            value = self._fuse_value(args[1], params)
            if value is None:
                return False
            if len(args) > 2:
                extra = self._fuse_value(args[2], params)
                if extra is None:
                    return False
                value = f"({value} & {extra})"
            if mask is not None:
                value = f"({value}) & {mask}"
            body.append(f"f[{key!r}] = {value}")
            return True

        if name in _ARITH_EXPRS:
            dst = self._dst(args[0])
            if dst is None:
                return False
            key, mask = dst
            left = self._fuse_value(args[1], params)
            right = self._fuse_value(args[2], params)
            if left is None or right is None:
                return False
            value = _ARITH_EXPRS[name].format(l=left, r=right)
            if mask is not None:
                value = f"{value} & {mask}"
            body.append(f"f[{key!r}] = {value}")
            return True

        if name in ("add_to_field", "subtract_from_field"):
            dst = self._dst(args[0])
            if dst is None:
                return False
            key, mask = dst
            delta = self._fuse_value(args[1], params)
            if delta is None:
                return False
            sign = "+" if name == "add_to_field" else "-"
            value = f"(f.get({key!r}, 0) {sign} {delta})"
            if mask is not None:
                value = f"{value} & {mask}"
            body.append(f"f[{key!r}] = {value}")
            return True

        if name == "register_write":
            register = asic.get_register(args[0])
            values = register.values
            size = len(values)
            width_mask = register.mask
            index = self._fuse_value(args[1], params)
            value = self._fuse_value(args[2], params)
            if index is None or value is None:
                return False
            vals_name = f"_o{len(env)}"
            env[vals_name] = values
            const_index = _const_int(args[1], params)
            if const_index is not None and 0 <= const_index < size:
                body.append(
                    f"{vals_name}[{const_index}] = ({value}) & {width_mask}"
                )
                return True
            reg_name = f"_o{len(env)}"
            env[reg_name] = register
            body.extend(
                [
                    f"_i = {index}",
                    f"_v = {value}",
                    f"if 0 <= _i < {size}:",
                    f"    {vals_name}[_i] = _v & {width_mask}",
                    "else:",
                    f"    {reg_name}.write(_i, _v)",
                ]
            )
            return True

        if name == "register_read":
            dst = self._dst(args[0])
            if dst is None:
                return False
            key, mask = dst
            register = asic.get_register(args[1])
            values = register.values
            size = len(values)
            index = self._fuse_value(args[2], params)
            if index is None:
                return False
            vals_name = f"_o{len(env)}"
            env[vals_name] = values
            const_index = _const_int(args[2], params)
            if const_index is not None and 0 <= const_index < size:
                value = f"{vals_name}[{const_index}]"
                if mask is not None:
                    value = f"{value} & {mask}"
                body.append(f"f[{key!r}] = {value}")
                return True
            reg_name = f"_o{len(env)}"
            env[reg_name] = register
            value = (
                f"({vals_name}[_i] if 0 <= _i < {size} "
                f"else {reg_name}.read(_i))"
            )
            if mask is not None:
                value = f"{value} & {mask}"
            body.extend([f"_i = {index}", f"f[{key!r}] = {value}"])
            return True

        if name == "count":
            counter = asic.get_counter(args[0])
            array = counter.array
            values = array.values
            width_mask = array.mask
            amount = "p.size_bytes" if counter.counter_type == "bytes" else "1"
            index = self._fuse_value(args[1], params)
            if index is None:
                return False
            const_index = _const_int(args[1], params)
            if const_index is not None and 0 <= const_index < len(values):
                vals_name = f"_o{len(env)}"
                env[vals_name] = values
                body.append(
                    f"{vals_name}[{const_index}] = "
                    f"({vals_name}[{const_index}] + {amount}) & {width_mask}"
                )
                return True
            arr_name = f"_o{len(env)}"
            env[arr_name] = array
            body.append(f"{arr_name}.increment({index}, {amount})")
            return True

        if name == "modify_field_rng_uniform":
            dst = self._dst(args[0])
            if dst is None:
                return False
            key, mask = dst
            lo = self._fuse_value(args[1], params)
            hi = self._fuse_value(args[2], params)
            if lo is None or hi is None:
                return False
            env["_rng"] = self.rng
            value = f"_rng.randint({lo}, {hi})"
            if mask is not None:
                value = f"({value}) & {mask}"
            body.append(f"f[{key!r}] = {value}")
            return True

        # Hash offsets and anything unrecognized keep their compiled
        # step closures.
        return False

    # ---- op-major batch execution -----------------------------------------

    def batch_major_ops(
        self, control_name: str
    ) -> Optional[Tuple[BatchOpFn, ...]]:
        """The op-major plan for a control block: each op sweeps the
        whole batch, so the per-packet apply frame is paid once per
        table per *batch*.  ``None`` when unavailable -- profiling, a
        non-straight-line control, non-exact tables, or tables whose
        cross-packet state (registers, counters, the RNG) overlaps, in
        which case op-major would reorder observable effects."""
        if control_name != "ingress" or self._major_tables is None:
            return None
        if self._major_plan is None:
            self._major_plan = tuple(
                self._compile_major_apply(runtime)
                for runtime in self._major_tables
            )
        return self._major_plan

    def _action_resources(self, action_name: str) -> Optional[set]:
        """Cross-packet state an action touches.  ``None`` for unknown
        actions (unanalyzable)."""
        decl = self.asic.program.actions.get(action_name)
        if decl is None:
            return None
        resources = set()
        for call in decl.body:
            name = call.name
            if name == "register_write":
                resources.add(f"reg:{call.args[0]}")
            elif name == "register_read":
                resources.add(f"reg:{call.args[1]}")
            elif name == "count":
                resources.add(f"ctr:{call.args[0]}")
            elif name == "modify_field_rng_uniform":
                resources.add("rng")
            elif name == "recirculate":
                resources.add("recirc")
        return resources

    def _table_resources(self, runtime) -> Optional[set]:
        """Cross-packet state reachable from any action this table can
        invoke (entries and the rebindable default are both validated
        against ``decl.action_names``, so this union is sound)."""
        names = set(runtime.decl.action_names)
        default = runtime.decl.default_action
        if default:
            names.add(default[0])
        resources = set()
        for name in names:
            action_resources = self._action_resources(name)
            if action_resources is None:
                return None
            resources |= action_resources
        return resources

    def _admit_batch_major(
        self, ingress_decl, egress_decl
    ) -> Optional[Tuple[object, ...]]:
        """The ingress tables, in order, if op-major execution is
        sound, or ``None`` if per-packet order must be preserved.

        Op-major execution runs table k over every packet before table
        k+1 sees any.  That is observably identical to packet-major
        execution iff no cross-packet state (register, counter, RNG) is
        shared between two ops -- including every table the egress
        control might apply, since egress runs per packet *after* the
        op-major ingress sweep.  Recirculation replays ingress out of
        sweep order, so it too forces the fallback unless the pipeline
        is entirely stateless."""
        body = ingress_decl.body if ingress_decl is not None else []
        runtimes = []
        for stmt in body:
            if not isinstance(stmt, ast.ApplyCall):
                return None
            runtime = self.asic.tables.get(stmt.table)
            if runtime is None or not runtime._exact_only:
                return None
            runtimes.append(runtime)
        footprints = []
        for runtime in runtimes:
            resources = self._table_resources(runtime)
            if resources is None:
                return None
            footprints.append(resources)
        egress_resources = set()
        if egress_decl is not None:
            for table_name in _tables_in(egress_decl.body):
                runtime = self.asic.tables.get(table_name)
                if runtime is None:
                    return None
                resources = self._table_resources(runtime)
                if resources is None:
                    return None
                egress_resources |= resources
        footprints.append(egress_resources)
        shared = set()
        for resources in footprints:
            if resources & shared:
                return None
            shared |= resources
        if "recirc" in shared and shared != {"recirc"}:
            return None
        return tuple(runtimes)

    def _compile_major_apply(self, runtime) -> BatchOpFn:
        """One table's op-major sweep: apply it to every live packet in
        the batch through the table's resolution cache, with hit/miss
        accounting accumulated locally and flushed once."""
        cache = self._caches[runtime.decl.name]

        if not runtime.decl.reads:
            # Keyless (Mantis init/collect tables, RMW accounting): one
            # resolution covers the whole sweep, and the fused variant
            # runs the entire action body inline inside one batch loop.
            fuse_sweep = self._fuse_sweep

            def major_keyless(
                packets: List[Packet], _cache=cache, _runtime=runtime
            ) -> None:
                _cache.sync()
                hit = _cache.hits.get(()) or _cache.miss((), ())
                matched, steps, args, _fused, name = hit
                sweep = fuse_sweep(name, args)
                if sweep is not None:
                    live = sweep(packets)
                else:
                    live = 0
                    for packet in packets:
                        if packet.fields[_DROP]:
                            continue
                        live += 1
                        for step in steps:
                            step(args, packet)
                if matched:
                    _runtime.hits += live
                else:
                    _runtime.misses += live

            return major_keyless

        env: Dict[str, object] = {}
        body: List[str] = []
        table, memo = self._emit_exact(
            runtime, env, body, " " * 12, sweep=True
        )
        lines = _sync_source(table, memo, "    ") + [
            "    hits = 0",
            "    misses = 0",
            "    try:",
            "        for p in packets:",
            "            f = p.fields",
            f"            if f[{_DROP!r}]:",
            "                continue",
            *body,
            "    finally:",
            f"        {table}.hits += hits",
            f"        {table}.misses += misses",
        ]
        return _define(
            _function_source("_sweep", "packets", env, lines),
            "<op-major sweep>",
            env,
        )

    def _compile_stepped(self, statements: List[ast.Statement]) -> List:
        """Compile to generator-producing steps for ``iter_control``."""
        steps = []
        for stmt in statements:
            if isinstance(stmt, ast.ApplyCall):

                def step(
                    packet: Packet, _name=stmt.table, _apply=self._apply_fn
                ):
                    yield ("apply", _name)
                    _apply(_name)(packet)

                steps.append(step)
            elif isinstance(stmt, ast.IfBlock):
                cond = self._compile_expr(stmt.cond)
                then_steps = self._compile_stepped(stmt.then_body)
                else_steps = self._compile_stepped(stmt.else_body)

                def step(
                    packet: Packet,
                    _c=cond,
                    _t=then_steps,
                    _e=else_steps,
                ):
                    taken = _t if (_c if isinstance(_c, int) else _c(packet)) else _e
                    yield from _run_stepped(taken, packet)

                steps.append(step)
            else:  # pragma: no cover - parser emits only the kinds above
                raise SwitchError(f"unknown statement {stmt!r}")
        return steps

    # ---- tables -----------------------------------------------------------

    def _apply_fn(self, table_name: str) -> OpFn:
        apply = self._applies.get(table_name)
        if apply is None:
            runtime = self.asic.tables.get(table_name)
            if runtime is None:
                raise SwitchError(f"unknown table {table_name!r}")
            apply = self._applies[table_name] = self._compile_apply(runtime)
        return apply

    def apply_table(self, table_name: str, packet: Packet) -> None:
        self._apply_fn(table_name)(packet)

    def _compile_apply(self, runtime) -> OpFn:
        if runtime._exact_only:
            # Exact-only tables: the same generated probe the control
            # kernels inline, as a standalone function (iter_control,
            # apply_table, and every apply under profiling).
            env: Dict[str, object] = {}
            lines = ["    f = p.fields"]
            self._emit_exact(runtime, env, lines, "    ", sweep=False)
            return _define(
                _function_source("_apply", "p", env, lines),
                "<table apply>",
                env,
            )

        build_key = self._compile_key(runtime.decl.reads)
        actions = self._actions

        def apply(
            packet: Packet,
            _runtime=runtime,
            _key=build_key,
            _actions=actions,
        ) -> None:
            result = _runtime.lookup_key(_key(packet))
            if result is None:
                return
            action_name, action_args = result
            action = _actions.get(action_name)
            if action is None:
                raise SwitchError(f"unknown action {action_name!r}")
            action(action_args, packet)

        return apply

    def _compile_key(
        self, reads: List[ast.TableRead]
    ) -> Callable[[Packet], tuple]:
        extractors = []
        for read in reads:
            if read.match_type is ast.MatchType.VALID:
                extractors.append(
                    lambda p, _h=read.ref.header: _h in p.valid_headers
                )
            else:
                ref = read.ref
                key = f"{ref.header}.{ref.field}"
                if read.mask is None:
                    extractors.append(lambda p, _k=key: p.fields.get(_k, 0))
                else:
                    extractors.append(
                        lambda p, _k=key, _m=read.mask: p.fields.get(_k, 0) & _m
                    )
        if not extractors:
            return lambda packet: ()
        if len(extractors) == 1:
            only = extractors[0]
            return lambda packet, _e=only: (_e(packet),)
        if len(extractors) == 2:
            first, second = extractors
            return lambda packet, _a=first, _b=second: (
                _a(packet), _b(packet),
            )
        if len(extractors) == 3:
            first, second, third = extractors
            return lambda packet, _a=first, _b=second, _c=third: (
                _a(packet), _b(packet), _c(packet),
            )
        parts = tuple(extractors)
        return lambda packet, _parts=parts: tuple(e(packet) for e in _parts)

    # ---- expressions ------------------------------------------------------

    def _compile_expr(self, expr):
        """Compile an ``if`` condition operand.

        Returns an ``int`` for constant subtrees (folded) or a closure
        ``packet -> int``.
        """
        if isinstance(expr, int):
            return expr
        if isinstance(expr, ast.FieldRef):
            key = f"{expr.header}.{expr.field}"
            return lambda p, _k=key: p.fields.get(_k, 0)
        if isinstance(expr, ast.ValidRef):
            header = expr.header
            return lambda p, _h=header: 1 if _h in p.valid_headers else 0
        if isinstance(expr, ast.BinOp):
            fn = _BIN_FNS.get(expr.op)
            if fn is None:
                raise SwitchError(f"unknown condition operator {expr.op!r}")
            left = self._compile_expr(expr.left)
            right = self._compile_expr(expr.right)
            if isinstance(left, int) and isinstance(right, int):
                return fn(left, right)
            lf = _expr_fn(left)
            rf = _expr_fn(right)
            return lambda p, _l=lf, _r=rf, _f=fn: _f(_l(p), _r(p))
        if isinstance(expr, ast.MalleableRef):
            message = (
                f"malleable reference {expr} reached the data plane; "
                "the program was not compiled by the Mantis compiler"
            )

            def leaked(p, _m=message):
                raise SwitchError(_m)

            return leaked
        raise SwitchError(f"cannot evaluate expression {expr!r}")

    # ---- actions ----------------------------------------------------------

    def run_action(
        self, action_name: str, action_args: List[int], packet: Packet
    ) -> None:
        action = self._actions.get(action_name)
        if action is None:
            raise SwitchError(f"unknown action {action_name!r}")
        action(action_args, packet)

    def _compile_action(self, action: ast.ActionDecl) -> StepFn:
        param_index = {name: i for i, name in enumerate(action.params)}
        steps = tuple(
            self._compile_primitive(call, param_index) for call in action.body
        )
        n_params = len(action.params)
        name = action.name
        self._action_steps[name] = (steps, n_params)

        if len(steps) == 1:
            only = steps[0]

            def run_one(
                args: List[int], packet: Packet, _step: StepFn = only
            ) -> None:
                if len(args) != n_params:
                    raise SwitchError(
                        f"action {name}: expected {n_params} args, "
                        f"got {len(args)}"
                    )
                _step(args, packet)

            return run_one

        def run(args: List[int], packet: Packet) -> None:
            if len(args) != n_params:
                raise SwitchError(
                    f"action {name}: expected {n_params} args, "
                    f"got {len(args)}"
                )
            for step in steps:
                step(args, packet)

        return run

    # ---- primitive arguments ---------------------------------------------

    def _compile_arg(self, arg, param_index: Dict[str, int]):
        """Compile a primitive argument to an ``int`` constant or a
        closure ``(args, packet) -> int``."""
        if isinstance(arg, int):
            return arg
        if isinstance(arg, ast.FieldRef):
            key = f"{arg.header}.{arg.field}"
            return lambda a, p, _k=key: p.fields.get(_k, 0)
        if isinstance(arg, str):
            if arg in param_index:
                index = param_index[arg]
                return lambda a, p, _i=index: a[_i]

            def unresolved(a, p, _arg=arg):
                raise SwitchError(f"unresolved action parameter {_arg!r}")

            return unresolved
        if isinstance(arg, ast.MalleableRef):
            message = (
                f"malleable reference {arg} reached the data plane; "
                "compile the program with the Mantis compiler first"
            )

            def leaked(a, p, _m=message):
                raise SwitchError(_m)

            return leaked

        def bad(a, p, _arg=arg):
            raise SwitchError(f"cannot resolve primitive argument {_arg!r}")

        return bad

    def _dst(self, arg) -> Optional[Tuple[str, Optional[int]]]:
        """Pre-resolve a destination field to ``(key, width_mask)``;
        ``None`` when the argument is not a field reference."""
        if not isinstance(arg, ast.FieldRef):
            return None
        key = f"{arg.header}.{arg.field}"
        return key, self.asic.field_masks.get(key)

    def _store(self, key: str, mask: Optional[int], value_fn) -> StepFn:
        """A step writing ``value_fn(args, packet)`` to a field, with
        the width mask (resolved at compile time) applied inline."""
        if mask is None:

            def step(a, p, _k=key, _v=value_fn):
                p.fields[_k] = _v(a, p)

        else:

            def step(a, p, _k=key, _m=mask, _v=value_fn):
                p.fields[_k] = _v(a, p) & _m

        return step

    # ---- primitives -------------------------------------------------------

    def _compile_primitive(
        self, call: ast.PrimitiveCall, params: Dict[str, int]
    ) -> StepFn:
        name = call.name
        args = call.args
        asic = self.asic

        if name == "no_op":
            return _noop_step
        if name == "drop":

            def drop_step(a, p):
                p.fields[_DROP] = 1

            return drop_step

        if name in ("recirculate", "clone_ingress_pkt_to_egress", "mark_ecn"):
            flag = {
                "recirculate": "standard_metadata.recirculate_flag",
                "clone_ingress_pkt_to_egress": "standard_metadata.clone_flag",
                "mark_ecn": "standard_metadata.ecn_marked",
            }[name]

            def flag_step(a, p, _k=flag):
                p.fields[_k] = 1

            return flag_step

        if name == "modify_field":
            dst = self._dst(args[0])
            if dst is None:
                return _raising_step(
                    f"primitive destination must be a field, got {args[0]!r}"
                )
            key, mask = dst
            value = self._compile_arg(args[1], params)
            extra = (
                self._compile_arg(args[2], params) if len(args) > 2 else None
            )
            if extra is None and isinstance(value, int):
                constant = value if mask is None else value & mask

                def const_step(a, p, _k=key, _c=constant):
                    p.fields[_k] = _c

                return const_step
            value_fn = _arg_fn(value)
            if extra is None:
                return self._store(key, mask, value_fn)
            extra_fn = _arg_fn(extra)
            return self._store(
                key,
                mask,
                lambda a, p, _v=value_fn, _e=extra_fn: _v(a, p) & _e(a, p),
            )

        if name in _ARITH_FNS:
            dst = self._dst(args[0])
            if dst is None:
                return _raising_step(
                    f"primitive destination must be a field, got {args[0]!r}"
                )
            key, mask = dst
            op = _ARITH_FNS[name]
            if isinstance(args[1], ast.FieldRef) and isinstance(
                args[2], ast.FieldRef
            ):
                # Both sources are fields (the dominant shape, e.g.
                # ``add(x, x, pkt_len)``): one flat closure, no
                # per-operand indirection.
                left_key = f"{args[1].header}.{args[1].field}"
                right_key = f"{args[2].header}.{args[2].field}"
                if mask is None:

                    def arith_ff(
                        a, p, _k=key, _a=left_key, _b=right_key, _op=op
                    ):
                        fields = p.fields
                        fields[_k] = _op(
                            fields.get(_a, 0), fields.get(_b, 0)
                        )

                    return arith_ff

                def arith_ff_masked(
                    a, p, _k=key, _a=left_key, _b=right_key, _op=op, _m=mask
                ):
                    fields = p.fields
                    fields[_k] = (
                        _op(fields.get(_a, 0), fields.get(_b, 0)) & _m
                    )

                return arith_ff_masked
            left = _arg_fn(self._compile_arg(args[1], params))
            right = _arg_fn(self._compile_arg(args[2], params))
            return self._store(
                key,
                mask,
                lambda a, p, _l=left, _r=right, _op=op: _op(_l(a, p), _r(a, p)),
            )

        if name in ("add_to_field", "subtract_from_field"):
            dst = self._dst(args[0])
            if dst is None:
                return _raising_step(
                    f"primitive destination must be a field, got {args[0]!r}"
                )
            key, mask = dst
            delta = _arg_fn(self._compile_arg(args[1], params))
            sign = 1 if name == "add_to_field" else -1
            return self._store(
                key,
                mask,
                lambda a, p, _k=key, _d=delta, _s=sign: (
                    p.fields.get(_k, 0) + _s * _d(a, p)
                ),
            )

        if name == "register_write":
            register = asic.get_register(args[0])
            # The values list is a stable object (RegisterArray only
            # mutates it in place), so closing over it skips the
            # read/write method dispatch on every packet.
            values = register.values
            width_mask = register.mask
            index = self._compile_arg(args[1], params)
            value = self._compile_arg(args[2], params)
            if isinstance(index, int) and 0 <= index < len(values):
                if isinstance(args[2], ast.FieldRef):
                    value_key = f"{args[2].header}.{args[2].field}"

                    def reg_write_const_field(
                        a, p, _vals=values, _i=index, _vk=value_key,
                        _m=width_mask,
                    ):
                        _vals[_i] = p.fields.get(_vk, 0) & _m

                    return reg_write_const_field
                value_fn = _arg_fn(value)

                def reg_write_const(
                    a, p, _vals=values, _i=index, _v=value_fn, _m=width_mask
                ):
                    _vals[_i] = _v(a, p) & _m

                return reg_write_const
            index_fn = _arg_fn(index)
            value_fn = _arg_fn(value)
            size = len(values)

            def reg_write_step(
                a, p, _vals=values, _i=index_fn, _v=value_fn,
                _m=width_mask, _n=size, _r=register,
            ):
                idx = _i(a, p)
                val = _v(a, p)
                if 0 <= idx < _n:
                    _vals[idx] = val & _m
                else:
                    _r.write(idx, val)  # raises the range error

            return reg_write_step

        if name == "register_read":
            dst = self._dst(args[0])
            if dst is None:
                return _raising_step(
                    f"primitive destination must be a field, got {args[0]!r}"
                )
            key, mask = dst
            register = asic.get_register(args[1])
            values = register.values
            index = self._compile_arg(args[2], params)
            if isinstance(index, int) and 0 <= index < len(values):
                if mask is None:

                    def reg_read_const(a, p, _k=key, _vals=values, _i=index):
                        p.fields[_k] = _vals[_i]

                    return reg_read_const

                def reg_read_const_masked(
                    a, p, _k=key, _vals=values, _i=index, _m=mask
                ):
                    p.fields[_k] = _vals[_i] & _m

                return reg_read_const_masked
            index_fn = _arg_fn(index)
            size = len(values)
            if mask is None:

                def reg_read_step(
                    a, p, _k=key, _vals=values, _i=index_fn, _n=size,
                    _r=register,
                ):
                    idx = _i(a, p)
                    p.fields[_k] = (
                        _vals[idx] if 0 <= idx < _n else _r.read(idx)
                    )

                return reg_read_step

            def reg_read_step_masked(
                a, p, _k=key, _vals=values, _i=index_fn, _n=size,
                _r=register, _m=mask,
            ):
                idx = _i(a, p)
                p.fields[_k] = (
                    _vals[idx] if 0 <= idx < _n else _r.read(idx)
                ) & _m

            return reg_read_step_masked

        if name == "count":
            counter = asic.get_counter(args[0])
            array = counter.array
            values = array.values
            width_mask = array.mask
            count_bytes = counter.counter_type == "bytes"
            index = self._compile_arg(args[1], params)
            if isinstance(index, int) and 0 <= index < len(values):
                if count_bytes:

                    def count_bytes_const(
                        a, p, _vals=values, _i=index, _m=width_mask
                    ):
                        _vals[_i] = (_vals[_i] + p.size_bytes) & _m

                    return count_bytes_const

                def count_pkts_const(
                    a, p, _vals=values, _i=index, _m=width_mask
                ):
                    _vals[_i] = (_vals[_i] + 1) & _m

                return count_pkts_const
            index_fn = _arg_fn(index)

            def count_step(a, p, _arr=array, _i=index_fn, _bytes=count_bytes):
                _arr.increment(_i(a, p), p.size_bytes if _bytes else 1)

            return count_step

        if name == "modify_field_with_hash_based_offset":
            return self._compile_hash(call, params)

        if name == "modify_field_rng_uniform":
            dst = self._dst(args[0])
            if dst is None:
                return _raising_step(
                    f"primitive destination must be a field, got {args[0]!r}"
                )
            key, mask = dst
            lo = _arg_fn(self._compile_arg(args[1], params))
            hi = _arg_fn(self._compile_arg(args[2], params))
            rng = self.rng
            return self._store(
                key,
                mask,
                lambda a, p, _lo=lo, _hi=hi, _rng=rng: _rng.randint(
                    _lo(a, p), _hi(a, p)
                ),
            )

        return _raising_step(f"unsupported primitive action {name!r}")

    def _compile_hash(
        self, call: ast.PrimitiveCall, params: Dict[str, int]
    ) -> StepFn:
        program = self.asic.program
        dst = self._dst(call.args[0])
        if dst is None:
            return _raising_step(
                f"primitive destination must be a field, got {call.args[0]!r}"
            )
        key, mask = dst
        base = _arg_fn(self._compile_arg(call.args[1], params))
        calc_name = call.args[2]
        size = _arg_fn(self._compile_arg(call.args[3], params))
        if calc_name not in program.field_list_calcs:
            return _raising_step(
                f"unknown field_list_calculation {calc_name!r}"
            )
        calc = program.field_list_calcs[calc_name]
        inputs: List[Tuple[str, int]] = []
        for list_name in calc.inputs:
            for ref in program.field_lists[list_name].entries:
                if not isinstance(ref, ast.FieldRef):
                    return _raising_step(
                        f"cannot hash non-field reference {ref!r}"
                    )
                field_key = f"{ref.header}.{ref.field}"
                width_mask = self.asic.field_masks.get(field_key, (1 << 32) - 1)
                inputs.append((field_key, width_mask.bit_length()))
        algorithm = calc.algorithm
        output_width = calc.output_width
        input_plan = tuple(inputs)

        def value_fn(a, p, _in=input_plan, _alg=algorithm, _w=output_width,
                     _base=base, _size=size):
            fields = p.fields
            hashed = compute_hash(
                _alg, [(fields.get(k, 0), bits) for k, bits in _in], _w
            )
            modulus = _size(a, p)
            return _base(a, p) + (hashed % modulus if modulus else hashed)

        return self._store(key, mask, value_fn)


# ---- module helpers -------------------------------------------------------


def _noop_step(args: List[int], packet: Packet) -> None:
    return None


def _expr_fn(value):
    """Wrap a folded constant as a ``packet -> int`` closure."""
    if isinstance(value, int):
        return lambda p, _c=value: _c
    return value


def _arg_fn(value):
    """Wrap a folded constant as an ``(args, packet) -> int`` closure."""
    if isinstance(value, int):
        return lambda a, p, _c=value: _c
    return value


def _run_stepped(steps, packet: Packet):
    fields = packet.fields
    for step in steps:
        if fields[_DROP]:
            return
        yield from step(packet)


def _bind(env: Dict[str, object], prefix: str, obj: object) -> str:
    """Bind ``obj`` into generated code under a positional name."""
    name = f"{prefix}{len(env)}"
    env[name] = obj
    return name


def _function_source(
    name: str, params: str, env: Dict[str, object], body: List[str]
) -> str:
    """A ``def`` taking ``params`` plus every bound object as a default
    argument (read as a fast local, not a global)."""
    defaults = "".join(f", {bound}={bound}" for bound in env)
    return f"def {name}({params}{defaults}):\n" + "\n".join(body) + "\n"


def _key_source(reads: List[ast.TableRead]) -> Tuple[str, str]:
    """Source for an exact-only table's lookup on packet ``p`` (fields
    ``f``): the cache-key expression, and the index-key expression in
    terms of the cache key ``k`` (a one-field key is cached bare)."""
    parts = []
    for read in reads:
        if read.match_type is ast.MatchType.VALID:
            parts.append(f"({read.ref.header!r} in p.valid_headers)")
            continue
        part = f"f.get({read.ref.header + '.' + read.ref.field!r}, 0)"
        if read.mask is not None:
            part = f"({part} & {read.mask})"
        parts.append(part)
    if len(parts) == 1:
        return parts[0], "(k,)"
    return "(" + "".join(f"{part}, " for part in parts) + ")", "k"


def _sync_source(table: str, memo: str, pad: str) -> List[str]:
    """Drop a stale resolution cache before probing it."""
    return [
        f"{pad}if {table}.generation != {memo}.generation:",
        f"{pad}    {memo}.sync()",
    ]


# ---- differential testing hook --------------------------------------------


def asic_state_snapshot(asic) -> Dict[str, object]:
    """All cross-packet ASIC state, in a comparable form."""
    return {
        "registers": {
            name: list(reg.values) for name, reg in asic.registers.items()
        },
        "counters": {
            name: list(counter.array.values)
            for name, counter in asic.counters.items()
        },
        "tables": {
            name: {
                "hits": table.hits,
                "misses": table.misses,
                "default": table.default_action,
                "entries": {
                    entry_id: (
                        entry.key,
                        entry.action_name,
                        tuple(entry.action_args),
                        entry.priority,
                    )
                    for entry_id, entry in table.entries.items()
                },
            }
            for name, table in asic.tables.items()
        },
        "ports": [
            (port.tx_packets, port.tx_bytes) for port in asic.ports
        ],
        "packets_processed": asic.packets_processed,
        "packets_dropped": asic.packets_dropped,
        "pipeline_passes": asic.pipeline_passes,
    }


def packet_snapshot(packet: Packet) -> Dict[str, object]:
    """A packet's observable outcome, in a comparable form."""
    return {
        "fields": dict(packet.fields),
        "valid_headers": frozenset(packet.valid_headers),
        "dropped": packet.dropped,
    }


def run_differential(
    build: Callable[[str], "object"],
    drive: Callable[[object], object],
) -> object:
    """Replay one workload through both execution engines and assert
    identical behaviour.

    ``build(execution_mode)`` must return a fresh
    :class:`~repro.switch.asic.SwitchAsic` (or any object exposing the
    same registers/counters/tables/ports surface) configured for the
    given mode; ``drive(asic)`` runs the workload and returns the
    per-packet observables to compare (a list of
    :func:`packet_snapshot` results, say).  Raises
    :class:`~repro.errors.SwitchError` naming the first divergence;
    returns the compiled run's observables on agreement.
    """
    reference = build("interpreter")
    observed_ref = drive(reference)
    compiled = build("compiled")
    observed_fast = drive(compiled)
    if observed_ref != observed_fast:
        raise SwitchError(
            "differential mismatch in workload observables:\n"
            f"  interpreter: {observed_ref!r}\n"
            f"  compiled:    {observed_fast!r}"
        )
    state_ref = asic_state_snapshot(reference)
    state_fast = asic_state_snapshot(compiled)
    for section in state_ref:
        if state_ref[section] != state_fast[section]:
            raise SwitchError(
                f"differential mismatch in ASIC state ({section}):\n"
                f"  interpreter: {state_ref[section]!r}\n"
                f"  compiled:    {state_fast[section]!r}"
            )
    return observed_fast
