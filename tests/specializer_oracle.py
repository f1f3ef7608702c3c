"""The action interpreter the lowered generating extensions replaced.

:class:`InterpretingSpecializer` specializes each context by walking its
``ActionBlock`` at run time, one ``isinstance`` dispatch per action, the
way the runtime did before ``compile_annotated`` lowered every entry
point to generated code (``repro.dyc.lowering``).  It shares the batch loop,
promotion suspension, budget truncation and jump threading with
:class:`~repro.runtime.specializer.Specializer`, so a differential test
comparing the two checks only the lowering.  It is a test oracle, as
``repro.analysis.legacy`` is for the dataflow framework.
"""

from __future__ import annotations

from repro.dyc.genext import (
    EmitAction,
    EvalAction,
    PromoteAction,
    ResidualAction,
    TermDynamic,
    TermJump,
    TermReturn,
    TermStatic,
)
from repro.errors import SpecializationError
from repro.ir.eval import eval_binop, eval_unop
from repro.ir.function import BasicBlock
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    ExitRegion,
    Imm,
    Jump,
    Load,
    Move,
    Reg,
    Return,
    UnOp,
)
from repro.runtime.emit import BlockEmitter
from repro.runtime.specializer import Specializer, Task


class InterpretingSpecializer(Specializer):
    """Interprets generating extensions' action lists per context."""

    def _process_task(self, batch, task) -> None:
        genext = batch.genext
        overhead = batch.overhead
        stats = batch.stats
        charge = batch.charge
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
                self._eval_static(action, store, batch)
            elif isinstance(action, EmitAction):
                values = self._hole_values(action, store)
                emitter.emit_template(action.instr, values, action.plan)
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
                terminator = batch.suspend(task.block_key, index + 1,
                                           action.point, store,
                                           task.frames)
                break
            else:
                raise SpecializationError(
                    f"unknown action {type(action).__name__}"
                )

        if terminator is None:
            terminator = self._finish_terminator(batch, action_block,
                                                 store, emitter,
                                                 task.frames)
        instrs = emitter.flush(terminator)
        batch.code.function.blocks[task.label] = BasicBlock(task.label,
                                                            instrs)

    # ------------------------------------------------------------------
    # Set-up code evaluation
    # ------------------------------------------------------------------

    def _static_value(self, operand, store: dict):
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

    def _eval_static(self, action: EvalAction, store: dict, batch) -> None:
        instr = action.instr
        machine = batch.machine
        costs = machine.costs
        stats = batch.stats
        charge = batch.charge
        charge(batch.overhead.eval_overhead)

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
        else:
            raise SpecializationError(
                f"cannot evaluate {type(instr).__name__} statically"
            )

    # ------------------------------------------------------------------
    # Terminators and successor plumbing
    # ------------------------------------------------------------------

    def _finish_terminator(self, batch, action_block, store: dict,
                           emitter: BlockEmitter, frames: dict):
        overhead = batch.overhead
        term = action_block.terminator

        if isinstance(term, TermJump):
            return self._goto(batch, action_block, term.target, store,
                              emitter, frames)

        if isinstance(term, TermStatic):
            cond = self._static_value(term.instr.cond, store)
            batch.stats.static_branches_folded += 1
            batch.charge(overhead.static_branch_fold)
            target = term.instr.if_true if cond else term.instr.if_false
            return self._goto(batch, action_block, target, store, emitter,
                              frames)

        if isinstance(term, TermDynamic):
            instr = term.action.instr
            values = self._hole_values(term.action, store)
            cond = emitter.prepare_terminator_operand(instr.cond, values)
            true_label = self._succ_label(batch, action_block,
                                          instr.if_true, store, emitter,
                                          frames)
            false_label = self._succ_label(batch, action_block,
                                           instr.if_false, store,
                                           emitter, frames)
            batch.charge(overhead.emit_instruction
                         + 2 * overhead.branch_patch)
            return Branch(cond, true_label, false_label)

        if isinstance(term, TermReturn):
            instr = term.action.instr
            values = self._hole_values(term.action, store)
            batch.charge(overhead.emit_instruction)
            if instr.value is None:
                return Return(None)
            return Return(
                emitter.prepare_terminator_operand(instr.value, values))

        raise SpecializationError(
            f"unknown terminator {type(term).__name__}"
        )

    def _goto(self, batch, action_block, template_target, store, emitter,
              frames):
        kind, payload = action_block.succ_info[template_target]
        batch.charge(batch.overhead.emit_instruction)
        if kind == "exit":
            self._residualize_exit(batch.genext, template_target, store,
                                   emitter)
            return ExitRegion(payload)
        return Jump(self._context_label(batch, payload, store, emitter,
                                        frames))

    def _residualize_exit(self, genext, exit_label: str, store: dict,
                          emitter: BlockEmitter) -> None:
        live = genext.region.live_in.get(exit_label, frozenset())
        for name in sorted(store):
            if name in live:
                emitter.emit_residual(name, store[name])

    def _succ_label(self, batch, action_block, template_target, store,
                    emitter, frames: dict) -> str:
        kind, payload = action_block.succ_info[template_target]
        if kind == "exit":
            code = batch.code
            self._residualize_exit(batch.genext, template_target, store,
                                   emitter)
            if payload not in code.exit_blocks:
                label = code.fresh_label(f"exit{payload}")
                code.function.blocks[label] = BasicBlock(
                    label, [ExitRegion(payload)]
                )
                code.exit_blocks[payload] = label
                batch.charge(batch.overhead.emit_instruction)
            return code.exit_blocks[payload]
        return self._context_label(batch, payload, store, emitter, frames)

    def _context_label(self, batch, payload, store: dict,
                       emitter: BlockEmitter, frames: dict) -> str:
        genext, code, stats = batch.genext, batch.code, batch.stats
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
        batch.worklist.append(Task(
            label=new_label,
            block_key=succ_key,
            action_index=0,
            store=dict(zip(succ_block.key_vars, values)),
            frames=child_frames,
        ))
        return new_label
