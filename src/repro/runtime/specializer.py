"""The runtime specializer: drives generating extensions to produce code.

Specialization is a worklist over *specialization contexts* — an analysis
context ``(block, division)`` plus the concrete values of the static
variables live at its entry.  Because a loop whose induction variables
are static re-enters its header context with *different values*, each
iteration becomes a fresh context: that is program-point-specific
polyvariant specialization, and complete single-way loop unrolling falls
out as a linear chain of contexts.  A context reached with values seen
before links back to the existing code, so multi-way unrolling produces
the paper's "directed graph of unrolled loop bodies" (§2.2.4), including
back edges for loops in the interpreted program (mipsi).

Internal promotions (§2.2.2) suspend specialization: the block's emitted
code ends in a ``Promote`` terminator, and the rest of the action list is
specialized *lazily*, once per distinct tuple of promoted values, through
the promotion point's own code cache (multi-stage specialization).

All work here is charged to the dynamic-compilation overhead account via
the :class:`~repro.runtime.overhead.OverheadModel`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dyc.genext import (
    ActionBlock,
    EmitAction,
    EvalAction,
    GeneratingExtension,
    PromoteAction,
    ResidualAction,
    TermDynamic,
    TermJump,
    TermReturn,
    TermStatic,
)
from repro.errors import SpecializationBudgetError, SpecializationError
from repro.ir.eval import eval_binop, eval_unop
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    ExitRegion,
    Imm,
    Instr,
    Jump,
    Load,
    Move,
    Operand,
    Promote,
    Reg,
    Return,
    UnOp,
)
from repro.runtime.emit import BlockEmitter
from repro.runtime.fallback import dynamic_arm, ensure_dynamic_blocks

#: Safety valve against runaway specialization (e.g. an unbounded loop
#: whose bound was wrongly annotated static).  The runaway loops the
#: generating extension proves (``GeneratingExtension.runaway``) fail
#: before their first context; this budget catches the rest.
MAX_CONTEXTS_PER_BATCH = 200_000


@dataclass
class SpecializedCode:
    """One dynamically generated code version (one entry-cache value)."""

    region_id: int
    function: Function
    footprint: int = 0
    #: (label, division, live static values) -> emitted block label.
    contexts: dict[tuple, str] = field(default_factory=dict)
    #: exit index -> label of the ExitRegion thunk block.
    exit_blocks: dict[int, str] = field(default_factory=dict)
    #: Labels cached externally (entry/promotion caches): never deleted.
    protected_labels: set[str] = field(default_factory=set)
    label_counter: int = 0
    #: template label -> label of its fully dynamic copy, built lazily by
    #: budget truncation (see :mod:`repro.runtime.fallback`).
    dynamic_labels: dict[str, str] = field(default_factory=dict)

    def fresh_label(self, hint: str) -> str:
        self.label_counter += 1
        return f"{hint}${self.label_counter}"

    def cache_identity(self) -> tuple:
        """Stable identity fields for code-cache entry checksums.

        Lazy promotions mutate the block map of a cached code version in
        place, so the checksum covers only fields that are fixed at
        creation (the entry label is a batch-entry label, protected from
        jump threading, hence stable too).
        """
        return (self.region_id, self.function.name, self.function.entry)


@dataclass
class PendingPromotion:
    """A suspended specialization, resumed per promoted-value tuple."""

    emission_id: int
    code: SpecializedCode
    genext: GeneratingExtension
    block_key: tuple
    action_index: int
    store: dict
    point_names: tuple[str, ...]
    policy: str
    cache: object  # CodeCache | UncheckedCache
    frames: dict = field(default_factory=dict)


@dataclass
class _Task:
    label: str
    block_key: tuple
    action_index: int
    store: dict
    #: loop-header label -> the header specialization context (emitted
    #: label) this chain is currently "inside", for SW/MW attribution.
    frames: dict = field(default_factory=dict)


class Specializer:
    """Interprets generating extensions to build specialized code."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def specialize_entry(self, genext: GeneratingExtension, machine,
                         entry_values: dict,
                         attempt: int = 1) -> SpecializedCode:
        """Build the code version for one tuple of region-entry values."""
        region = genext.region
        self._maybe_fault(
            "specializer.entry", region_id=region.region_id,
            context_key=tuple(entry_values.values()), attempt=attempt,
        )
        stats = self.runtime.stats.for_region(
            region.region_id, region.function_name
        )
        stats.specializations += 1
        per_label: dict = {}
        for (label, division) in genext.blocks:
            per_label.setdefault(label, set()).add(division)
        stats.divisions_used = max(
            stats.divisions_used,
            max((len(divs) for divs in per_label.values()), default=1),
        )
        code = SpecializedCode(
            region_id=region.region_id,
            function=Function(
                name=f"region{region.region_id}", params=()
            ),
        )
        entry_label = code.fresh_label(region.entry_block)
        code.function.entry = entry_label
        frames: dict = {}
        if region.entry_block in genext.loops:
            frames[region.entry_block] = entry_label
        task = _Task(
            label=entry_label,
            block_key=genext.entry_key,
            action_index=genext.entry_start,
            store=dict(entry_values),
            frames=frames,
        )
        self._run_batch(code, genext, machine, [task],
                        setup=self.runtime.overhead.region_setup)
        return code

    def specialize_continuation(self, pending: PendingPromotion, machine,
                                values: tuple, attempt: int = 1) -> str:
        """Lazily specialize a promotion continuation for ``values``."""
        self._maybe_fault(
            "specializer.continuation",
            region_id=pending.code.region_id,
            context_key=tuple(values), attempt=attempt,
        )
        store = dict(pending.store)
        store.update(zip(pending.point_names, values))
        label = pending.code.fresh_label("cont")
        task = _Task(
            label=label,
            block_key=pending.block_key,
            action_index=pending.action_index,
            store=store,
            frames=dict(pending.frames),
        )
        self._run_batch(pending.code, pending.genext, machine, [task],
                        setup=self.runtime.overhead.promote_setup)
        return label

    def residualize_continuation(self, pending: PendingPromotion,
                                 machine, values: tuple) -> str:
        """Degraded promotion rung: residualize instead of specializing.

        When specializing a promotion continuation keeps failing, the
        continuation is emitted as ordinary dynamic code — the promoted
        values and suspended static store become constant moves and
        control jumps into the fully dynamic template copies.  Correct
        for *any* promoted values, at interpreted-template speed.
        """
        code = pending.code
        genext = pending.genext
        overhead = self.runtime.overhead
        stats = self.runtime.stats.for_region(
            genext.region.region_id, genext.region.function_name
        )
        dc_account = [overhead.promote_setup]

        def charge(cycles: float) -> None:
            dc_account[0] += cycles

        before_instrs = code.function.instruction_count()
        store = dict(pending.store)
        store.update(zip(pending.point_names, values))
        label = code.fresh_label("dyncont")
        task = _Task(
            label=label,
            block_key=pending.block_key,
            action_index=pending.action_index,
            store=store,
            frames=dict(pending.frames),
        )
        self._emit_truncation(code, genext, task, stats, charge)
        code.protected_labels.add(label)
        code.function.bump_version()
        new_instrs = code.function.instruction_count() - before_instrs
        charge(overhead.icache_flush_base
               + overhead.icache_flush_per_instr * new_instrs)
        stats.instructions_generated += new_instrs
        stats.dc_cycles += dc_account[0]
        machine.charge_dc(dc_account[0])
        code.footprint = code.function.instruction_count()
        stats.residualized_continuations += 1
        return label

    def _maybe_fault(self, point: str, *, region_id, context_key,
                     attempt) -> None:
        faults = self.runtime.faults
        if faults.active and faults.should_fire(point):
            raise SpecializationError(
                f"injected fault at {point}",
                region_id=region_id, context_key=context_key,
                fault_point=point, attempt=attempt,
            )

    # ------------------------------------------------------------------
    # Batch driver
    # ------------------------------------------------------------------

    def _run_batch(self, code: SpecializedCode,
                   genext: GeneratingExtension, machine,
                   tasks: list[_Task], setup: float) -> None:
        overhead = self.runtime.overhead
        stats = self.runtime.stats.for_region(
            genext.region.region_id, genext.region.function_name
        )
        dc_account = [setup]

        def charge(cycles: float) -> None:
            dc_account[0] += cycles

        before_instrs = code.function.instruction_count()
        budget = (self.runtime.config.specialize_budget
                  or MAX_CONTEXTS_PER_BATCH)
        faults = self.runtime.faults
        if faults.active and faults.should_fire("specializer.budget"):
            budget = 0  # collapse the budget: every context truncates
        # A context the generating extension proved runaway would only
        # mint contexts until the budget runs out; fail it up front.
        # Degrade mode truncates at the budget instead, and an armed
        # fault could fail the batch first, so both run on.
        runaway = ({} if self.runtime.degrade or faults.active
                   else genext.runaway)
        worklist: deque[_Task] = deque(tasks)
        processed = 0
        while worklist:
            processed += 1
            if processed > budget:
                if not self.runtime.degrade:
                    raise SpecializationBudgetError(
                        f"region {genext.region.region_id}: "
                        f"specialization exceeded {budget} contexts — "
                        "an annotated loop may not terminate statically",
                        region_id=genext.region.region_id,
                    )
                # Graceful rung: residualize every unfinished context as
                # ordinary dynamic code (the unrolling that ran away
                # becomes a plain loop) and keep the contexts already
                # specialized.
                while worklist:
                    task = worklist.popleft()
                    self._emit_truncation(code, genext, task, stats,
                                          charge)
                    stats.budget_truncations += 1
                break
            task = worklist.popleft()
            loop = runaway.get(task.block_key)
            if loop is not None and loop.applies(task.store):
                raise SpecializationBudgetError(
                    f"region {genext.region.region_id}: specialization "
                    f"would have exceeded {budget} contexts — "
                    f"{loop.reason}",
                    region_id=genext.region.region_id,
                )
            self._process_task(code, genext, machine, task, worklist,
                               stats, charge)

        code.protected_labels.update(t.label for t in tasks)
        self._thread_jumps(code, protected=code.protected_labels)
        # The batch added blocks and retargeted jumps in code that may
        # already be executing (lazy promotions patch a running buffer):
        # invalidate any cached translations of it.
        code.function.bump_version()
        new_instrs = code.function.instruction_count() - before_instrs
        charge(overhead.icache_flush_base
               + overhead.icache_flush_per_instr * new_instrs)
        stats.instructions_generated += new_instrs
        stats.dc_cycles += dc_account[0]
        machine.charge_dc(dc_account[0])
        code.footprint = code.function.instruction_count()

    # ------------------------------------------------------------------
    # One context
    # ------------------------------------------------------------------

    def _process_task(self, code: SpecializedCode,
                      genext: GeneratingExtension, machine, task: _Task,
                      worklist: deque, stats, charge) -> None:
        overhead = self.runtime.overhead
        action_block = genext.block(task.block_key)
        emitter = BlockEmitter(self.runtime.config, overhead, stats,
                               charge, faults=self.runtime.faults)
        store = task.store
        charge(overhead.block_alloc)
        stats.contexts_specialized += 1
        if action_block.label in genext.loops:
            key = (action_block.label, action_block.division)
            stats.loop_context_counts[key] = (
                stats.loop_context_counts.get(key, 0) + 1
            )

        terminator = None
        actions = action_block.actions
        for index in range(task.action_index, len(actions)):
            action = actions[index]
            if isinstance(action, EvalAction):
                self._eval_static(action, store, machine, stats, charge)
            elif isinstance(action, EmitAction):
                values = self._hole_values(action, store)
                emitter.emit_template(action.instr, values, action.plan)
                # The variable is dynamic from here on: any stale static
                # value must not leak into later folds or residuals.
                for dest in action.instr.defs():
                    store.pop(dest, None)
            elif isinstance(action, ResidualAction):
                for name in action.names:
                    if name in store:
                        emitter.emit_residual(name, store.pop(name))
            elif isinstance(action, PromoteAction):
                if action.emit is not None:
                    values = self._hole_values(action.emit, store)
                    emitter.emit_template(
                        action.emit.instr, values, action.emit.plan
                    )
                    for dest in action.emit.instr.defs():
                        store.pop(dest, None)
                terminator = self._suspend_for_promotion(
                    code, genext, task, index, action, store, stats,
                    charge,
                )
                break
            else:  # pragma: no cover - defensive
                raise SpecializationError(
                    f"unknown action {type(action).__name__}"
                )

        if terminator is None:
            terminator = self._finish_terminator(
                code, genext, action_block, store, emitter, worklist,
                stats, charge, task.frames,
            )

        instrs = emitter.flush(terminator)
        code.function.blocks[task.label] = BasicBlock(task.label, instrs)

    # ------------------------------------------------------------------
    # Budget truncation (dynamic residualization)
    # ------------------------------------------------------------------

    def _emit_truncation(self, code: SpecializedCode,
                         genext: GeneratingExtension, task: _Task,
                         stats, charge) -> None:
        """Finish ``task``'s block as ordinary dynamic code.

        The block residualizes the whole static store, replays the
        remaining template actions verbatim (statics are in the
        environment now, so the unfilled holes read the right values),
        and transfers into the fully dynamic template copies built by
        :func:`ensure_dynamic_blocks` — no further contexts are minted.
        """
        overhead = self.runtime.overhead
        mapping = ensure_dynamic_blocks(code, genext, charge,
                                        overhead.emit_instruction)
        exit_index = {
            label: i for i, label in enumerate(genext.region.exits)
        }
        # A plain emitter: no faults (truncation is the recovery path)
        # and no plans, so nothing is folded or elided.
        emitter = BlockEmitter(self.runtime.config, overhead, stats,
                               charge)
        charge(overhead.block_alloc)
        for name in sorted(task.store):
            emitter.emit_residual(name, task.store[name])

        action_block = genext.block(task.block_key)
        actions = action_block.actions
        for index in range(task.action_index, len(actions)):
            action = actions[index]
            if isinstance(action, (EvalAction, EmitAction)):
                emitter.emit_raw(action.instr)
            elif isinstance(action, PromoteAction):
                if action.emit is not None:
                    emitter.emit_raw(action.emit.instr)
            # ResidualAction: the whole store was residualized above.

        def arm(template_target: str) -> str:
            kind, payload = action_block.succ_info[template_target]
            if kind == "exit":
                return dynamic_arm(code, template_target, mapping,
                                   exit_index, charge,
                                   overhead.emit_instruction)
            return mapping[payload[0]]

        term = action_block.terminator
        charge(overhead.emit_instruction)
        if isinstance(term, TermJump):
            kind, payload = action_block.succ_info[term.target]
            if kind == "exit":
                terminator: Instr = ExitRegion(payload)
            else:
                terminator = Jump(mapping[payload[0]])
        elif isinstance(term, (TermStatic, TermDynamic)):
            instr = (term.instr if isinstance(term, TermStatic)
                     else term.action.instr)
            cond = emitter.prepare_terminator_operand(instr.cond, {})
            terminator = Branch(cond, arm(instr.if_true),
                                arm(instr.if_false))
        elif isinstance(term, TermReturn):
            instr = term.action.instr
            if instr.value is None:
                terminator = Return(None)
            else:
                terminator = Return(
                    emitter.prepare_terminator_operand(instr.value, {})
                )
        else:  # pragma: no cover - defensive
            raise SpecializationError(
                f"unknown terminator {type(term).__name__}",
                region_id=genext.region.region_id,
            )

        instrs = emitter.flush(terminator)
        code.function.blocks[task.label] = BasicBlock(task.label, instrs)

    # ------------------------------------------------------------------
    # Set-up code evaluation
    # ------------------------------------------------------------------

    def _static_value(self, operand: Operand, store: dict):
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Reg):
            try:
                return store[operand.name]
            except KeyError:
                raise SpecializationError(
                    f"static variable {operand.name!r} has no value at "
                    "specialize time (BTA/specializer mismatch)"
                ) from None
        raise SpecializationError(f"cannot evaluate operand {operand!r}")

    def _hole_values(self, action: EmitAction, store: dict) -> dict:
        values = {}
        for name in action.holes:
            try:
                values[name] = store[name]
            except KeyError:
                raise SpecializationError(
                    f"static variable {name!r} has no value at "
                    "specialize time (BTA/specializer mismatch)"
                ) from None
        return values

    def _eval_static(self, action: EvalAction, store: dict, machine,
                     stats, charge) -> None:
        """Run one set-up computation at dynamic compile time."""
        instr = action.instr
        costs = machine.costs
        overhead = self.runtime.overhead
        charge(overhead.eval_overhead)

        if isinstance(instr, Move):
            value = self._static_value(instr.src, store)
            charge(costs.move_cost(isinstance(value, float)))
            store[instr.dest] = value
            stats.static_instrs_folded += 1
        elif isinstance(instr, UnOp):
            src = self._static_value(instr.src, store)
            charge(costs.binop_cost("alu", isinstance(src, float)))
            store[instr.dest] = eval_unop(instr.op, src)
            stats.static_instrs_folded += 1
        elif isinstance(instr, BinOp):
            lhs = self._static_value(instr.lhs, store)
            rhs = self._static_value(instr.rhs, store)
            is_float = isinstance(lhs, float) or isinstance(rhs, float)
            charge(costs.binop_cost(instr.op.value, is_float))
            store[instr.dest] = eval_binop(instr.op, lhs, rhs)
            stats.static_instrs_folded += 1
        elif isinstance(instr, Load):
            addr = self._static_value(instr.addr, store)
            charge(costs.load)
            store[instr.dest] = machine.memory.load(addr)
            stats.static_loads_folded += 1
            if self.runtime.config.check_annotations:
                machine.memory.watch(int(addr))
        elif isinstance(instr, Call):
            args = [self._static_value(a, store) for a in instr.args]
            result = self.runtime.compile_time_call(
                machine, instr.callee, args, charge
            )
            if instr.dest is not None:
                store[instr.dest] = result
            stats.static_calls_folded += 1
        else:  # pragma: no cover - defensive
            raise SpecializationError(
                f"cannot evaluate {type(instr).__name__} statically"
            )

    # ------------------------------------------------------------------
    # Promotions
    # ------------------------------------------------------------------

    def _suspend_for_promotion(self, code: SpecializedCode,
                               genext: GeneratingExtension, task: _Task,
                               action_index: int, action: PromoteAction,
                               store: dict, stats, charge) -> Promote:
        point = action.point
        policy = self.runtime.effective_policy(point.policy)
        emission_id = self.runtime.new_emission_id()
        pending = PendingPromotion(
            emission_id=emission_id,
            code=code,
            genext=genext,
            block_key=task.block_key,
            action_index=action_index + 1,
            store=dict(store),
            point_names=point.names,
            policy=policy,
            cache=self.runtime.make_cache(policy, stats=stats),
            frames=dict(task.frames),
        )
        self.runtime.register_pending(pending)
        stats.internal_promotion_points += 1
        charge(self.runtime.overhead.emit_instruction)
        return Promote(
            region_id=genext.region.region_id,
            point_id=point.point_id,
            keys=point.names,
            policy=policy,
            emission_id=emission_id,
        )

    # ------------------------------------------------------------------
    # Terminators and successor plumbing
    # ------------------------------------------------------------------

    def _finish_terminator(self, code: SpecializedCode,
                           genext: GeneratingExtension,
                           action_block: ActionBlock, store: dict,
                           emitter: BlockEmitter, worklist: deque,
                           stats, charge, frames: dict):
        overhead = self.runtime.overhead
        term = action_block.terminator

        if isinstance(term, TermJump):
            return self._goto(code, genext, action_block, term.target,
                              store, emitter, worklist, stats, charge,
                              frames)

        if isinstance(term, TermStatic):
            cond = self._static_value(term.instr.cond, store)
            stats.static_branches_folded += 1
            charge(overhead.static_branch_fold)
            target = term.instr.if_true if cond else term.instr.if_false
            return self._goto(code, genext, action_block, target, store,
                              emitter, worklist, stats, charge, frames)

        if isinstance(term, TermDynamic):
            instr = term.action.instr
            values = self._hole_values(term.action, store)
            cond = emitter.prepare_terminator_operand(instr.cond, values)
            true_label = self._succ_label(
                code, genext, action_block, instr.if_true, store,
                emitter, worklist, stats, charge, frames,
            )
            false_label = self._succ_label(
                code, genext, action_block, instr.if_false, store,
                emitter, worklist, stats, charge, frames,
            )
            charge(overhead.emit_instruction + 2 * overhead.branch_patch)
            return Branch(cond, true_label, false_label)

        if isinstance(term, TermReturn):
            instr = term.action.instr
            values = self._hole_values(term.action, store)
            charge(overhead.emit_instruction)
            if instr.value is None:
                return Return(None)
            value = emitter.prepare_terminator_operand(instr.value,
                                                       values)
            return Return(value)

        raise SpecializationError(
            f"unknown terminator {type(term).__name__}"
        )

    def _goto(self, code, genext, action_block, template_target, store,
              emitter, worklist, stats, charge, frames):
        """Terminator for an unconditional transfer to a template label."""
        kind, payload = action_block.succ_info[template_target]
        charge(self.runtime.overhead.emit_instruction)
        if kind == "exit":
            self._residualize_exit(genext, template_target, store,
                                   emitter)
            return ExitRegion(payload)
        label = self._context_label(code, genext, payload, store,
                                    emitter, worklist, stats, frames)
        return Jump(label)

    def _residualize_exit(self, genext, exit_label: str, store: dict,
                          emitter: BlockEmitter) -> None:
        """Materialize statics that are live in the host after the exit.

        An exit edge normally carries no live static values, but a
        variable can be static here and demoted *on the edge* (e.g. a
        loop-variant derived static when the loop itself left the
        region); its value must be emitted before control leaves.
        """
        live = genext.region.live_in.get(exit_label, frozenset())
        for name in sorted(store):
            if name in live:
                emitter.emit_residual(name, store[name])

    def _succ_label(self, code, genext, action_block, template_target,
                    store, emitter, worklist, stats, charge,
                    frames: dict) -> str:
        """Emitted label for a branch target (exit thunk or context)."""
        kind, payload = action_block.succ_info[template_target]
        if kind == "exit":
            self._residualize_exit(genext, template_target, store,
                                   emitter)
            if payload not in code.exit_blocks:
                label = code.fresh_label(f"exit{payload}")
                code.function.blocks[label] = BasicBlock(
                    label, [ExitRegion(payload)]
                )
                code.exit_blocks[payload] = label
                charge(self.runtime.overhead.emit_instruction)
            return code.exit_blocks[payload]
        return self._context_label(code, genext, payload, store,
                                   emitter, worklist, stats, frames)

    def _context_label(self, code: SpecializedCode,
                       genext: GeneratingExtension, payload, store: dict,
                       emitter: BlockEmitter, worklist: deque,
                       stats, frames: dict) -> str:
        """Memoized lookup/creation of a specialization context.

        Variables that are static here but live-and-dynamic in the
        successor context are *residualized*: their run-time-constant
        values are emitted as constant moves before control transfers.
        """
        label, division = payload
        succ_key = genext.resolve_context(label, division)
        succ_block = genext.block(succ_key)
        live = genext.region.live_in.get(succ_key[0], frozenset())
        keyed = set(succ_block.key_vars)
        for name in sorted(store):
            if name in live and name not in keyed:
                emitter.emit_residual(name, store[name])
        try:
            values = tuple(store[v] for v in succ_block.key_vars)
        except KeyError as missing:
            raise SpecializationError(
                f"static variable {missing} required by context "
                f"{succ_key!r} is absent from the store"
            ) from None
        context_id = (succ_key[0], succ_key[1], values)
        is_header = succ_key[0] in genext.loops
        existing = code.contexts.get(context_id)
        if existing is not None:
            if is_header:
                stats.record_loop_edge(
                    succ_key[0], frames.get(succ_key[0]), existing
                )
            return existing
        new_label = code.fresh_label(succ_key[0])
        code.contexts[context_id] = new_label
        child_frames = frames
        if is_header:
            stats.record_loop_edge(
                succ_key[0], frames.get(succ_key[0]), new_label
            )
            child_frames = dict(frames)
            child_frames[succ_key[0]] = new_label
        worklist.append(_Task(
            label=new_label,
            block_key=succ_key,
            action_index=0,
            store=dict(zip(succ_block.key_vars, values)),
            frames=child_frames,
        ))
        return new_label

    @staticmethod
    def _thread_jumps(code: SpecializedCode,
                      protected: set[str]) -> None:
        """Remove jump-only blocks left by contexts that emitted nothing.

        A context whose computations were all static produces an empty
        block ending in a jump; references to it are retargeted past it
        and the block deleted.  ``protected`` labels (batch entries, whose
        labels are cached externally) are kept even when trivial.
        """
        function = code.function
        trivial: dict[str, str] = {}
        #: jump-only predecessors may absorb a singleton terminator block
        #: (ExitRegion / Return) directly.
        singleton_terms: dict[str, object] = {}
        for label, block in function.blocks.items():
            if label in protected or len(block.instrs) != 1:
                continue
            only = block.instrs[0]
            if isinstance(only, Jump) and only.target != label:
                trivial[label] = only.target
            elif isinstance(only, (ExitRegion, Return)):
                singleton_terms[label] = only
        if not trivial and not singleton_terms:
            return

        def resolve(label: str) -> str:
            seen = set()
            while label in trivial and label not in seen:
                seen.add(label)
                label = trivial[label]
            return label

        for block in function.blocks.values():
            term = block.instrs[-1]
            if isinstance(term, Jump):
                final = resolve(term.target)
                if final in singleton_terms:
                    block.instrs[-1] = singleton_terms[final]
                elif final != term.target:
                    block.instrs[-1] = Jump(final)
            elif isinstance(term, Branch):
                if_true = resolve(term.if_true)
                if_false = resolve(term.if_false)
                if (if_true, if_false) != (term.if_true, term.if_false):
                    block.instrs[-1] = Branch(term.cond, if_true,
                                              if_false)
        if function.entry in trivial:
            function.entry = resolve(function.entry)
        for context_id, label in list(code.contexts.items()):
            if label in trivial:
                code.contexts[context_id] = resolve(label)
        for label in trivial:
            del function.blocks[label]
        # Delete singleton terminator blocks nothing references anymore.
        still_referenced: set[str] = {function.entry}
        for block in function.blocks.values():
            still_referenced.update(block.instrs[-1].successors())
        for label in singleton_terms:
            if label not in still_referenced \
                    and label in function.blocks:
                del function.blocks[label]
                for index, thunk in list(code.exit_blocks.items()):
                    if thunk == label:
                        del code.exit_blocks[index]

