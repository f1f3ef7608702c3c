"""Generating-extension construction (§2.1's "dynamic-compiler generator").

At static compile time, each dynamic region is compiled into a
:class:`GeneratingExtension`: per analysis context ``(block, division)``,
a pre-planned list of *actions* — set-up evaluations interleaved with emit
actions whose operands are already split into holes (run-time constants)
and dynamic registers.  The runtime specializer simply interprets these
action lists; it never re-runs the BTA or inspects the original IR, which
is the paper's staging claim ("these functions are in effect hard-wired
into the custom compiler for that region").  Building an extension also
proves which loop headers would unroll without bound
(:func:`find_runaway_loops`), so the specializer can refuse them up front.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.analysis.cfg import natural_loops
from repro.analysis.liveness import liveness
from repro.bta.facts import (
    ContextFacts,
    Division,
    EMPTY_DIVISION,
    InstrClass,
    PromotionPoint,
    RegionInfo,
)
from repro.dyc.plans import InstrPlan, plan_instruction
from repro.errors import SpecializationError
from repro.ir.instructions import (
    BinOp,
    Branch,
    Imm,
    Instr,
    Jump,
    Op,
    Reg,
    Return,
)

ContextKey = tuple[str, Division]


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EvalAction:
    """Execute a static computation on the static store at specialize
    time (set-up code)."""

    instr: Instr
    klass: InstrClass  # STATIC, STATIC_LOAD, or STATIC_CALL


@dataclass(frozen=True)
class EmitAction:
    """Emit a template instruction, filling holes from the static store.

    ``holes`` names the register operands that are static at this point
    and therefore become run-time-constant values; ``plan`` carries the
    statically computed ZCP/DAE/SR plan.
    """

    instr: Instr
    holes: frozenset[str]
    plan: InstrPlan | None = None


@dataclass(frozen=True)
class ResidualAction:
    """Materialize static variables that become dynamic here.

    Emitted for ``make_dynamic``: the variables' current run-time-constant
    values are emitted as constant moves so downstream dynamic code can
    read them (static-to-dynamic residualization).  The analogous
    transition at control-flow merges is handled by the specializer when
    it transfers a static store to a successor context.
    """

    names: tuple[str, ...]


@dataclass(frozen=True)
class PromoteAction:
    """A dynamic-to-static promotion point (§2.2.1–2.2.2).

    ``emit`` is the dynamic instruction computing the promoted value
    (``None`` for pure annotation promotions).  Specialization of the
    current context stops here with a ``Promote`` terminator; the
    continuation (the remaining actions of this block) is specialized
    lazily, once per distinct tuple of promoted values.
    """

    point: PromotionPoint
    emit: EmitAction | None = None


Action = EvalAction | EmitAction | PromoteAction | ResidualAction


# ----------------------------------------------------------------------
# Terminators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TermStatic:
    """A branch on a static condition: folded at specialize time."""

    instr: Branch


@dataclass(frozen=True)
class TermDynamic:
    """A branch on a dynamic condition: emitted, both arms specialized."""

    action: EmitAction


@dataclass(frozen=True)
class TermJump:
    """An unconditional edge."""

    target: str


@dataclass(frozen=True)
class TermReturn:
    """A host-level return emitted inside the region."""

    action: EmitAction


Terminator = TermStatic | TermDynamic | TermJump | TermReturn


#: Successor resolution: ("exit", exit_index) or ("context", context_key).
SuccInfo = tuple[str, object]


@dataclass
class ActionBlock:
    """The compiled form of one (block, division) analysis context."""

    label: str
    division: Division
    #: Variables whose values identify a specialization context at this
    #: block (the static variables live at entry), sorted for determinism.
    key_vars: tuple[str, ...]
    actions: list[Action] = field(default_factory=list)
    terminator: Terminator | None = None
    #: Successor label -> SuccInfo.
    succ_info: dict[str, SuccInfo] = field(default_factory=dict)


@dataclass
class GeneratingExtension:
    """The custom dynamic compiler for one region."""

    region: RegionInfo
    blocks: dict[ContextKey, ActionBlock] = field(default_factory=dict)
    entry_key: ContextKey = ("", EMPTY_DIVISION)
    #: Action index at which entry specialization starts (just after the
    #: region-entry PromoteAction, whose values the dispatcher supplies).
    entry_start: int = 0
    #: Loop structure of the template, for SW/MW unrolling attribution:
    #: header label -> frozenset of body labels.
    loops: dict[str, frozenset[str]] = field(default_factory=dict)
    #: Loop-header contexts whose specialization provably never
    #: converges (:func:`find_runaway_loops`), read by the specializer
    #: and by lint code DYC106.
    runaway: dict[ContextKey, RunawayLoop] = field(default_factory=dict)

    def block(self, key: ContextKey) -> ActionBlock:
        try:
            return self.blocks[key]
        except KeyError:
            raise SpecializationError(
                f"region {self.region.region_id}: no compiled context "
                f"{key!r}"
            ) from None

    def resolve_context(self, label: str,
                        division: Division) -> ContextKey:
        """Find the compiled context for an edge target."""
        if (label, division) in self.blocks:
            return (label, division)
        # Polyvariant division disabled (or divisions merged): a single
        # context exists per label.
        for key in self.blocks:
            if key[0] == label:
                return key
        raise SpecializationError(
            f"region {self.region.region_id}: no context for block "
            f"{label!r}"
        )


def build_generating_extension(region: RegionInfo) -> GeneratingExtension:
    """Compile a region's BTA facts into a generating extension."""
    template = region.template
    if template is None:
        raise SpecializationError(
            f"region {region.region_id} has no template snapshot"
        )
    live = liveness(template)
    genext = GeneratingExtension(region=region)
    genext.entry_key = (region.entry_block, EMPTY_DIVISION)
    genext.loops = {
        loop.header: frozenset(loop.body)
        for loop in natural_loops(template)
    }

    exit_index = {label: i for i, label in enumerate(region.exits)}

    for (label, division), facts in region.contexts.items():
        block = template.blocks[label]
        action_block = _compile_context(
            region, facts, block.instrs, live.live_out[label]
        )
        # Successor resolution.
        for succ in block.successors():
            if succ in facts.exit_successors:
                action_block.succ_info[succ] = ("exit", exit_index[succ])
            else:
                succ_division = facts.succ_division.get(
                    succ, facts.division_out
                )
                action_block.succ_info[succ] = (
                    "context", (succ, succ_division)
                )
        genext.blocks[(label, division)] = action_block

    _fix_entry_start(genext)
    _prune_unreachable(genext)
    genext.runaway = find_runaway_loops(genext)
    return genext


def _compile_context(region: RegionInfo, facts: ContextFacts,
                     instrs: list[Instr],
                     live_out: frozenset[str]) -> ActionBlock:
    action_block = ActionBlock(
        label=facts.label,
        division=facts.division,
        key_vars=tuple(sorted(facts.static_in)),
    )
    for index, instr in enumerate(instrs):
        klass = facts.classes[index]
        is_terminator = index == len(instrs) - 1

        if klass is InstrClass.ANNOTATION:
            promotion = facts.promotions.get(index)
            if promotion is not None:
                action_block.actions.append(PromoteAction(promotion))
            else:
                from repro.ir.instructions import MakeDynamic

                if isinstance(instr, MakeDynamic):
                    action_block.actions.append(
                        ResidualAction(instr.names)
                    )
            continue

        if klass in (InstrClass.STATIC, InstrClass.STATIC_LOAD,
                     InstrClass.STATIC_CALL):
            action_block.actions.append(EvalAction(instr, klass))
            continue

        if klass is InstrClass.PROMOTION:
            emit = _emit_action(instr, index, facts, instrs, live_out)
            if emit.plan is not None:
                # The promotion dispatch reads the defining
                # instruction's result from the environment at run
                # time, so it must never be elided — even when all its
                # *template* uses are static computations (which fold).
                emit = EmitAction(
                    emit.instr, emit.holes,
                    dataclasses.replace(emit.plan, remote=True),
                )
            promotion = facts.promotions[index]
            action_block.actions.append(PromoteAction(promotion, emit))
            continue

        if klass is InstrClass.STATIC_BRANCH:
            action_block.terminator = TermStatic(instr)
            continue

        if klass is InstrClass.DYNAMIC_BRANCH:
            action_block.terminator = TermDynamic(
                _emit_action(instr, index, facts, instrs, live_out)
            )
            continue

        # Plain dynamic instructions (including Jump/Return terminators).
        if isinstance(instr, Jump):
            action_block.terminator = TermJump(instr.target)
        elif isinstance(instr, Return):
            action_block.terminator = TermReturn(
                _emit_action(instr, index, facts, instrs, live_out)
            )
        elif is_terminator:
            raise SpecializationError(
                f"unsupported region terminator "
                f"{type(instr).__name__} in {facts.label!r}"
            )
        else:
            action_block.actions.append(
                _emit_action(instr, index, facts, instrs, live_out)
            )
    if action_block.terminator is None:
        raise SpecializationError(
            f"context {facts.label!r} compiled without a terminator"
        )
    return action_block


def _emit_action(instr: Instr, index: int, facts: ContextFacts,
                 instrs: list[Instr],
                 live_out: frozenset[str]) -> EmitAction:
    static = facts.static_before[index]
    holes = frozenset(name for name in instr.uses() if name in static)
    plan = plan_instruction(instr, index, facts, instrs, live_out)
    return EmitAction(instr=instr, holes=holes, plan=plan)


def _fix_entry_start(genext: GeneratingExtension) -> None:
    """Locate the entry PromoteAction; entry dispatch supplies its values,
    so entry specialization starts just after it."""
    entry_block = genext.blocks.get(genext.entry_key)
    if entry_block is None:
        raise SpecializationError(
            f"region {genext.region.region_id}: missing entry context"
        )
    for i, action in enumerate(entry_block.actions):
        if isinstance(action, PromoteAction) and action.point.kind == "entry":
            genext.entry_start = i + 1
            return
    genext.entry_start = 0


def _prune_unreachable(genext: GeneratingExtension) -> None:
    """Drop contexts not reachable from the entry context.

    The BTA fixpoint can record stale contexts (division keys produced by
    intermediate iterations); they are never specialized, so drop them to
    keep Table 2's division counts honest.
    """
    reachable: set[ContextKey] = set()
    worklist = [genext.entry_key]
    while worklist:
        key = worklist.pop()
        if key in reachable or key not in genext.blocks:
            continue
        reachable.add(key)
        block = genext.blocks[key]
        for kind, payload in block.succ_info.values():
            if kind == "context":
                label, division = payload
                try:
                    worklist.append(
                        genext.resolve_context(label, division)
                    )
                except SpecializationError:
                    continue
    genext.blocks = {
        key: block for key, block in genext.blocks.items()
        if key in reachable
    }


# ----------------------------------------------------------------------
# Runaway unrolling (§2.2.2, §2.2.4), proved when the extension is built
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunawayLoop:
    """A loop-header context whose specialization never converges.

    A cycle of contexts leads from the header back to itself, and every
    trip around it steps the static ``variable`` by constants of one
    sign (``direction``) while nothing that steers specialization reads
    it, so each trip reaches the header with a value it never had and
    mints a fresh context.  ``guards`` pair each header key variable a
    static branch on the cycle tests with the truth value the cycle
    needs; the cycle never writes them, so they hold on every trip once
    they hold at the header.
    """

    header: str
    variable: str
    direction: int
    guards: tuple[tuple[str, bool], ...]

    def applies(self, store: dict) -> bool:
        """Does the header context with this static store run away?"""
        if type(store.get(self.variable)) is not int:
            return False
        return all(bool(store.get(name)) is want
                   for name, want in self.guards)

    @property
    def reason(self) -> str:
        trend = "grows" if self.direction > 0 else "shrinks"
        return (f"static {self.variable!r} {trend} on every trip around "
                f"loop {self.header!r} and no static exit test reads it, "
                "so every trip mints a fresh context")


@dataclass(frozen=True)
class _Leg:
    """One context as a leg of a runaway cycle for one variable."""

    step: int  # sign of the variable's change across the context
    leaked: frozenset[str]  # other static names derived from it at exit
    writes: frozenset[str]


def find_runaway_loops(genext: GeneratingExtension
                       ) -> dict[ContextKey, RunawayLoop]:
    """Loop-header contexts whose specialization provably never ends.

    A header context qualifies when a cycle of contexts leads back to
    it on which

    * no context has a promotion point;
    * every branch is dynamic (both arms are specialized), or static on
      a header key variable that the cycle never writes;
    * one static key variable changes only by adding nonzero constants
      of one sign;
    * values derived from that variable reach only itself, template
      holes, ``pure`` calls and arithmetic: no static branch or other
      context key reads them;
    * no set-up code can trap: no static ``@`` load, and division,
      modulus and shifts only by constants that cannot trap.

    The specializer fails such a context before processing it, and lint
    code DYC106 reports it.
    """
    # Only a variable some context steps by a constant can qualify.
    stepped = {
        action.instr.dest
        for block in genext.blocks.values() for action in block.actions
        if isinstance(action, EvalAction)
        and _constant_step(action.instr, action.instr.dest)
    }
    candidates = [
        (key, var) for key, block in genext.blocks.items()
        if key[0] in genext.loops
        for var in block.key_vars if var in stepped
    ]
    if not candidates:
        return {}
    edges = {key: _context_edges(genext, block)
             for key, block in genext.blocks.items()}
    legs_by_var: dict[str, dict[ContextKey, _Leg]] = {}
    found: dict[ContextKey, RunawayLoop] = {}
    for key, var in candidates:
        header = genext.blocks[key]
        # Most loops fail at the header itself: its exit test reads
        # ``var``, or a value that is not a header key.
        if key in found or _leg(header, var) is None or any(
                guard and guard[0] not in header.key_vars
                for _, guard in edges[key]):
            continue
        if var not in legs_by_var:
            legs_by_var[var] = {
                other: leg for other, block in genext.blocks.items()
                if (leg := _leg(block, var)) is not None
            }
        loop = _runaway_cycle(genext, edges, legs_by_var[var], key, var)
        if loop is not None:
            found[key] = loop
    return found


def _context_edges(genext: GeneratingExtension, block: ActionBlock
                   ) -> list[tuple[ContextKey, tuple[str, bool] | None]]:
    """Successor contexts the specializer can reach from ``block``, each
    with the ``(variable, truth)`` guard its static branch needs."""
    term = block.terminator
    if isinstance(term, TermStatic):
        instr = term.instr
        if isinstance(instr.cond, Reg):
            arms = [(instr.if_true, (instr.cond.name, True)),
                    (instr.if_false, (instr.cond.name, False))]
        else:
            arms = [(instr.if_true if instr.cond.value else instr.if_false,
                     None)]
    elif isinstance(term, TermReturn):
        arms = []
    else:
        arms = [(label, None) for label in block.succ_info]
    edges = []
    for label, guard in arms:
        kind, payload = block.succ_info[label]
        if kind != "context":
            continue
        try:
            edges.append((genext.resolve_context(*payload), guard))
        except SpecializationError:
            continue
    return edges


def _leg(block: ActionBlock, var: str) -> _Leg | None:
    """Summarize ``block`` as a leg of a runaway cycle for ``var``.

    ``None`` when the block cannot lie on one: ``var`` is not one of its
    keys, it promotes, it makes ``var`` dynamic or redefines it other
    than by adding constants of one sign, its set-up code can trap, or a
    value derived from ``var`` decides its static branch.
    """
    if var not in block.key_vars:
        return None
    derived = {var}
    writes: set[str] = set()
    step = 0
    for action in block.actions:
        if isinstance(action, PromoteAction):
            return None
        if isinstance(action, ResidualAction):
            names = set(action.names)
        else:
            names = set(action.instr.defs())
        if isinstance(action, EvalAction):
            if _may_trap(action):
                return None
            if var in names:
                delta = _constant_step(action.instr, var)
                if delta == 0 or delta * step < 0:
                    return None
                step = 1 if delta > 0 else -1
                continue
            if derived.intersection(action.instr.uses()):
                derived |= names
                writes |= names
                continue
        elif var in names:
            return None
        derived -= names
        writes |= names
    term = block.terminator
    if isinstance(term, TermStatic) and isinstance(term.instr.cond, Reg) \
            and term.instr.cond.name in derived:
        return None
    return _Leg(step, frozenset(derived - {var}), frozenset(writes))


def _may_trap(action: EvalAction) -> bool:
    """Can this set-up computation trap on integer operands?"""
    if action.klass is InstrClass.STATIC_LOAD:
        return True  # an address out of range
    instr = action.instr
    if not isinstance(instr, BinOp):
        return False
    safe = isinstance(instr.rhs, Imm)
    if instr.op in (Op.DIV, Op.MOD):
        return not (safe and instr.rhs.value != 0)
    if instr.op in (Op.SHL, Op.SHR):
        return not (safe and instr.rhs.value >= 0)
    return False


def _constant_step(instr: Instr, var: str) -> int:
    """The integer constant ``instr`` adds to ``var`` (``var = var + c``,
    ``var = c + var`` or ``var = var - c``); 0 for anything else."""
    if not isinstance(instr, BinOp) or instr.op not in (Op.ADD, Op.SUB):
        return 0
    lhs, rhs = instr.lhs, instr.rhs
    if instr.op is Op.ADD and isinstance(lhs, Imm):
        lhs, rhs = rhs, lhs
    if not (isinstance(lhs, Reg) and lhs.name == var
            and isinstance(rhs, Imm) and type(rhs.value) is int):
        return 0
    return rhs.value if instr.op is Op.ADD else -rhs.value


def _runaway_cycle(genext: GeneratingExtension, edges: dict,
                   legs: dict[ContextKey, _Leg], header_key: ContextKey,
                   var: str) -> RunawayLoop | None:
    """A runaway cycle through ``header_key`` stepping ``var``, if any."""
    header = genext.blocks[header_key]
    # Static branches may test only header keys that every leg carries
    # and none writes, so their values are the header's on every trip.
    legs = {
        key: leg for key, leg in legs.items()
        if all(guard is None or guard[0] in header.key_vars
               for _, guard in edges[key])
    }
    tested = {guard[0] for key in legs for _, guard in edges[key] if guard}
    legs = {
        key: leg for key, leg in legs.items()
        if not tested & leg.writes
        and tested <= set(genext.blocks[key].key_vars)
    }
    if header_key not in legs:
        return None
    for direction in (1, -1):
        allowed = {key: leg for key, leg in legs.items()
                   if leg.step in (0, direction)}
        guards = _closed_walk(genext, edges, allowed, header_key)
        if guards is not None:
            return RunawayLoop(header_key[0], var, direction, guards)
    return None


def _closed_walk(genext: GeneratingExtension, edges: dict,
                 legs: dict[ContextKey, _Leg], header_key: ContextKey
                 ) -> tuple[tuple[str, bool], ...] | None:
    """The guards of a walk from the header back to it through ``legs``
    with at least one stepping leg and consistent guards, if one exists.
    """
    if header_key not in legs:
        return None
    start = (header_key, legs[header_key].step != 0, frozenset())
    seen = {start}
    stack = [start]
    while stack:
        key, stepped, guards = stack.pop()
        for succ, guard in edges[key]:
            leg = legs.get(succ)
            if leg is None or legs[key].leaked.intersection(
                    genext.blocks[succ].key_vars):
                continue
            if guard is not None:
                if (guard[0], not guard[1]) in guards:
                    continue
                guards_after = guards | {guard}
            else:
                guards_after = guards
            if succ == header_key:
                if stepped:
                    return tuple(sorted(guards_after))
                continue
            state = (succ, stepped or leg.step != 0, guards_after)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return None
