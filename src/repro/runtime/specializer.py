"""The runtime specializer: runs lowered generating extensions.

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

Each context runs one entry point of the region's generating extension,
lowered to closures when the program was compiled
(:mod:`repro.dyc.lowering`): the steps, then the terminator closure,
which emits the block's last instruction and queues successor contexts.
This module drives the worklist, owns the per-batch run state the
closures read (:class:`_Batch`), and finishes each batch.

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
    EmitAction,
    EvalAction,
    GeneratingExtension,
    PromoteAction,
    TermDynamic,
    TermJump,
    TermReturn,
    TermStatic,
)
from repro.errors import SpecializationBudgetError, SpecializationError
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Branch,
    ExitRegion,
    Instr,
    Jump,
    Promote,
    Return,
)
from repro.runtime.emit import BlockEmitter
from repro.runtime.fallback import ensure_dynamic_blocks, exit_thunk
from repro.runtime.stats import RegionStats

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
    #: The region's statistics and ``OverheadModel.fixed_dispatch_cost``
    #: of the policy, bound when the point is suspended so a dispatch
    #: looks neither up.
    stats: RegionStats
    dispatch_cost: float | None
    frames: dict = field(default_factory=dict)


@dataclass(slots=True)
class _Task:
    label: str
    block_key: tuple
    action_index: int
    store: dict
    #: loop-header label -> the header specialization context (emitted
    #: label) this chain is currently "inside", for SW/MW attribution.
    frames: dict = field(default_factory=dict)


class _Batch:
    """The run state of one specialization batch.

    Lowered closures (:mod:`repro.dyc.lowering`) take it as their first
    argument: they hold only the extension's data, and read everything
    that belongs to the run from here.  Every charge of the batch,
    including the emitter's, lands in :attr:`dc` in occurrence order.
    """

    __slots__ = ("runtime", "genext", "lowered", "code", "machine",
                 "memory", "costs", "overhead", "stats", "emitter",
                 "worklist", "dc", "eval_cost", "emit_cost",
                 "check_annotations")

    def __init__(self, runtime, genext: GeneratingExtension,
                 code: SpecializedCode, machine, stats,
                 setup: float) -> None:
        overhead = runtime.overhead
        self.runtime = runtime
        self.genext = genext
        self.lowered = genext.lowered
        self.code = code
        self.machine = machine
        self.memory = machine.memory
        self.costs = machine.costs
        self.overhead = overhead
        self.stats = stats
        self.worklist: deque[_Task] = deque()
        self.dc = setup
        self.eval_cost = overhead.eval_overhead
        self.emit_cost = overhead.emit_instruction
        self.check_annotations = runtime.config.check_annotations
        self.emitter = BlockEmitter(runtime.config, overhead, stats,
                                    self.charge, faults=runtime.faults)

    def charge(self, cycles: float) -> None:
        self.dc += cycles

    def push(self, label: str, key: tuple, store: dict,
             frames: dict) -> None:
        """Queue a new context of the analysis context ``key``."""
        self.worklist.append(_Task(label, key, 0, store, frames))

    def suspend(self, block_key, resume: int, point, store: dict,
                frames: dict) -> Promote:
        """End the block at a promotion point; its continuation resumes
        at action ``resume`` once per tuple of promoted values."""
        runtime = self.runtime
        policy = runtime.effective_policy(point.policy)
        emission_id = runtime.new_emission_id()
        pending = PendingPromotion(
            emission_id=emission_id,
            code=self.code,
            genext=self.genext,
            block_key=block_key,
            action_index=resume,
            store=dict(store),
            point_names=point.names,
            policy=policy,
            cache=runtime.make_cache(policy, stats=self.stats),
            stats=self.stats,
            dispatch_cost=self.overhead.fixed_dispatch_cost(policy),
            frames=dict(frames),
        )
        runtime.register_pending(pending)
        self.stats.internal_promotion_points += 1
        self.dc += self.emit_cost
        return Promote(
            region_id=self.genext.region.region_id,
            point_id=point.point_id,
            keys=point.names,
            policy=policy,
            emission_id=emission_id,
        )


class Specializer:
    """Runs lowered generating extensions to build specialized code."""

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
        stats.divisions_used = max(stats.divisions_used,
                                   genext.lowered.divisions_used)
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
        self._run_batch(code, genext, machine, stats, [task],
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
        code = pending.code
        label = code.fresh_label("cont")
        task = _Task(
            label=label,
            block_key=pending.block_key,
            action_index=pending.action_index,
            store=store,
            frames=dict(pending.frames),
        )
        # The code version outlives a failed batch: the continuation is
        # retried, or resumed for other values, in it.  The contexts the
        # batch minted go with the batch, or those would link to blocks
        # that were never built.
        minted = len(code.contexts)
        try:
            self._run_batch(code, pending.genext, machine, pending.stats,
                            [task],
                            setup=self.runtime.overhead.promote_setup)
        except BaseException:
            for context_id in list(code.contexts)[minted:]:
                del code.contexts[context_id]
            raise
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
        stats = pending.stats
        batch = _Batch(self.runtime, genext, code, machine, stats,
                       overhead.promote_setup)
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
        self._emit_truncation(batch, task)
        code.protected_labels.add(label)
        code.function.bump_version()
        new_instrs = code.function.instruction_count() - before_instrs
        batch.charge(overhead.icache_flush_base
                     + overhead.icache_flush_per_instr * new_instrs)
        stats.instructions_generated += new_instrs
        stats.dc_cycles += batch.dc
        machine.charge_dc(batch.dc)
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
                   stats: RegionStats, tasks: list[_Task],
                   setup: float) -> None:
        overhead = self.runtime.overhead
        batch = _Batch(self.runtime, genext, code, machine, stats, setup)
        before_instrs = code.function.instruction_count()
        budget = (self.runtime.config.specialize_budget
                  or MAX_CONTEXTS_PER_BATCH)
        faults = self.runtime.faults
        if faults.active and faults.should_fire("specializer.budget"):
            budget = 0  # collapse the budget: every context truncates
        # A context the generating extension proved runaway would only
        # mint contexts until the budget runs out; fail it up front.
        # Degrade mode truncates at the budget instead, and an armed
        # fault (the runtime's registry holds only the points that fire
        # inside a run) could fail the batch first, so both run on.
        runaway = ({} if self.runtime.degrade or faults.active
                   else genext.runaway)
        worklist = batch.worklist
        worklist.extend(tasks)
        process = self._process_task
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
                    self._emit_truncation(batch, worklist.popleft())
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
            process(batch, task)

        code.protected_labels.update(t.label for t in tasks)
        self._thread_jumps(code, protected=code.protected_labels)
        # The batch added blocks and retargeted jumps in code that may
        # already be executing (lazy promotions patch a running buffer):
        # invalidate any cached translations of it.
        code.function.bump_version()
        new_instrs = code.function.instruction_count() - before_instrs
        batch.charge(overhead.icache_flush_base
                     + overhead.icache_flush_per_instr * new_instrs)
        stats.instructions_generated += new_instrs
        stats.dc_cycles += batch.dc
        machine.charge_dc(batch.dc)
        code.footprint = code.function.instruction_count()

    # ------------------------------------------------------------------
    # One context
    # ------------------------------------------------------------------

    def _process_task(self, batch: _Batch, task: _Task) -> None:
        """Specialize one context: run its lowered entry point."""
        entry = batch.lowered.entry_point(task.block_key,
                                          task.action_index)
        emitter = batch.emitter
        emitter.reset()
        store = task.store
        batch.dc += batch.overhead.block_alloc
        stats = batch.stats
        stats.contexts_specialized += 1
        counted = entry.counted
        if counted is not None:
            counts = stats.loop_context_counts
            counts[counted] = counts.get(counted, 0) + 1
        for step in entry.steps:
            step(batch, store)
        terminator = entry.finish(batch, store, task)
        label = task.label
        batch.code.function.blocks[label] = BasicBlock(
            label, emitter.flush(terminator))

    # ------------------------------------------------------------------
    # Budget truncation (dynamic residualization)
    # ------------------------------------------------------------------

    def _emit_truncation(self, batch: _Batch, task: _Task) -> None:
        """Finish ``task``'s block as ordinary dynamic code.

        The block residualizes the whole static store, replays the
        remaining template actions verbatim (statics are in the
        environment now, so the unfilled holes read the right values),
        and transfers into the fully dynamic template copies built by
        :func:`ensure_dynamic_blocks` — no further contexts are minted.
        """
        code, genext, charge = batch.code, batch.genext, batch.charge
        overhead = batch.overhead
        mapping = ensure_dynamic_blocks(code, genext, charge,
                                        overhead.emit_instruction)
        # A plain emitter: no faults (truncation is the recovery path)
        # and no plans, so nothing is folded or elided.
        emitter = BlockEmitter(self.runtime.config, overhead, batch.stats,
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
                return exit_thunk(code, payload, charge,
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
    # Jump threading
    # ------------------------------------------------------------------

    @staticmethod
    def _thread_jumps(code: SpecializedCode,
                      protected: set[str]) -> None:
        """Remove jump-only blocks left by contexts that emitted nothing.

        A context whose computations were all static produces an empty
        block ending in a jump; references to it are retargeted past it
        and the block deleted.  ``protected`` labels (batch entries, whose
        labels are cached externally) are kept even when trivial.  A
        cycle of jump-only blocks is a loop that never exits, so one of
        its blocks is kept, jumping to itself.
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

        # Break each cycle of trivial blocks at the first block a walk
        # meets twice; afterwards every chain ends outside ``trivial``.
        done: set[str] = set()
        for start in list(trivial):
            walk: list[str] = []
            label = start
            while label in trivial and label not in done:
                if label in walk:
                    del trivial[label]
                    break
                walk.append(label)
                label = trivial[label]
            done.update(walk)

        def resolve(label: str) -> str:
            while label in trivial:
                label = trivial[label]
            return label

        for block in function.blocks.values():
            term = block.instrs[-1]
            if type(term) is Jump:
                if term.target not in trivial:
                    if term.target in singleton_terms:
                        block.instrs[-1] = singleton_terms[term.target]
                    continue
                final = resolve(term.target)
                if final in singleton_terms:
                    block.instrs[-1] = singleton_terms[final]
                else:
                    block.instrs[-1] = Jump(final)
            elif type(term) is Branch:
                if term.if_true in trivial or term.if_false in trivial:
                    block.instrs[-1] = Branch(term.cond,
                                              resolve(term.if_true),
                                              resolve(term.if_false))
        if trivial:
            if function.entry in trivial:
                function.entry = resolve(function.entry)
            contexts = code.contexts
            for context_id, label in contexts.items():
                if label in trivial:
                    contexts[context_id] = resolve(label)
            for label in trivial:
                del function.blocks[label]
        if not singleton_terms:
            return
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
