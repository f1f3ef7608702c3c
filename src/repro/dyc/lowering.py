"""Generating extensions lowered to closures (§2.1's "hard-wired" emit code).

:func:`build_generating_extension` plans each analysis context as a list
of actions, and as its last step :func:`lower_extension` compiles those
lists into Python closures, so the run-time specializer executes the
plan instead of interpreting it: the action kinds, operand layouts, cost
methods, successor contexts and residualization sets an action list
fixes are decided here, not on every specialized context.

An *entry point* is ``(context key, start)``: specialization of a context
starts at action 0, the entry context also at ``entry_start`` (just after
the region-entry promotion), and a promotion continuation at ``i + 1``
for the ``PromoteAction`` at index ``i``.  All of them are known when the
extension is built, and each lowers to a tuple of step closures plus one
terminator closure (:class:`EntryPoint`).

The closures capture only the extension's own data.  Everything that
belongs to a run arrives through their first argument ``b``, one
specialization batch (``repro.runtime.specializer._Batch``): the code
buffer ``code``, the block ``emitter``, the region ``stats``, the run's
``machine``, ``memory`` and ``costs``, the ``overhead`` model, the
``runtime``, the cycle accumulator ``dc``, the per-batch constants
``eval_cost``, ``emit_cost`` and ``check_annotations``, and the methods
``charge``, ``push`` (queue a new context) and ``suspend`` (a promotion
point).  So one lowered extension serves every run that shares the
compiled program, under each run's own cost and overhead models.

A successor the extension cannot resolve lowers to a closure that raises
``resolve_context``'s :class:`SpecializationError` when a context
transfers to it, not earlier: unreachable arms are legal.
"""

from __future__ import annotations

from repro.errors import SpecializationError
from repro.ir.eval import BINOP_FUNCS, UNOP_FUNCS
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
from repro.dyc.genext import (
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

class EntryPoint:
    """One ``(context key, start)``: its steps and its terminator.

    ``steps`` run in order on ``(b, store)``; ``finish(b, store, task)``
    returns the block's terminator instruction.  ``counted`` is the
    extension's own ``(label, division)`` when the context is a loop
    header (the key of ``RegionStats.loop_context_counts``), else
    ``None``.
    """

    __slots__ = ("counted", "steps", "finish")

    def __init__(self, counted, steps: tuple, finish) -> None:
        self.counted = counted
        self.steps = steps
        self.finish = finish


class LoweredExtension:
    """Every entry point of one generating extension, built once."""

    __slots__ = ("region_id", "entries", "divisions_used")

    def __init__(self, region_id: int, entries: dict,
                 divisions_used: int) -> None:
        self.region_id = region_id
        self.entries = entries
        #: Most divisions any one block label was compiled under.
        self.divisions_used = divisions_used

    def entry_point(self, key, start: int) -> EntryPoint:
        try:
            return self.entries[key, start]
        except KeyError:
            raise SpecializationError(
                f"region {self.region_id}: no compiled context {key!r}"
            ) from None


def lower_extension(genext: GeneratingExtension) -> LoweredExtension:
    """Lower every entry point of ``genext`` to closures."""
    entries: dict = {}
    for key, block in genext.blocks.items():
        counted = ((block.label, block.division)
                   if block.label in genext.loops else None)
        actions = block.actions
        # Each action lowers once; the entry points share the closures.
        lowered = [_lower_action(action) for action in actions]
        terminator = _lower_terminator(genext, block)
        starts = {0}
        starts.update(index + 1 for index, action in enumerate(actions)
                      if isinstance(action, PromoteAction))
        if key == genext.entry_key:
            starts.add(genext.entry_start)
        for start in sorted(starts):
            steps: list = []
            finish = terminator
            for index in range(start, len(actions)):
                action = actions[index]
                if isinstance(action, PromoteAction):
                    if action.emit is not None:
                        steps.append(lowered[index])
                    finish = _lower_suspend(index + 1, action.point)
                    break
                steps.append(lowered[index])
            entries[key, start] = EntryPoint(counted, tuple(steps),
                                             finish)
    per_label: dict = {}
    for label, division in genext.blocks:
        per_label.setdefault(label, set()).add(division)
    divisions_used = max((len(divs) for divs in per_label.values()),
                         default=1)
    return LoweredExtension(genext.region.region_id, entries,
                            divisions_used)


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------

def _unbound(name: str) -> SpecializationError:
    return SpecializationError(
        f"static variable {name!r} has no value at specialize time "
        "(BTA/specializer mismatch)"
    )


def _fails(message: str):
    """A closure that raises ``message`` when it runs: such errors are
    raised when specialization reaches them, never by the lowering."""
    def fail(*args):
        raise SpecializationError(message)
    return fail


def _lower_action(action):
    if isinstance(action, EvalAction):
        return _lower_eval(action.instr)
    if isinstance(action, EmitAction):
        return _lower_emit(action)
    if isinstance(action, ResidualAction):
        return _lower_residual(action.names)
    if isinstance(action, PromoteAction):
        # Only its emit runs as a step; the suspension is a terminator.
        return _lower_emit(action.emit) if action.emit is not None \
            else None
    return _fails(f"unknown action {type(action).__name__}")


def _reader(operand):
    """``store -> value`` for one static operand."""
    if isinstance(operand, Imm):
        value = operand.value
        return lambda store: value
    if isinstance(operand, Reg):
        name = operand.name

        def read(store):
            try:
                return store[name]
            except KeyError:
                raise _unbound(name) from None
        return read
    return _fails(f"cannot evaluate operand {operand!r}")


def _lower_eval(instr):
    """One set-up computation, with its operand layout and cost method
    fixed; costs are read from the run's models."""
    if isinstance(instr, Move):
        return _lower_move(instr.dest, instr.src)
    if isinstance(instr, BinOp):
        return _lower_binop(instr)
    if isinstance(instr, UnOp):
        dest, apply = instr.dest, UNOP_FUNCS.get(instr.op)
        if apply is None:
            return _fails(f"{instr.op} is not a unary operator")
        read = _reader(instr.src)

        def unop(b, store):
            b.dc += b.eval_cost
            src = read(store)
            b.dc += b.costs.binop_cost("alu", isinstance(src, float))
            store[dest] = apply(src)
            b.stats.static_instrs_folded += 1
        return unop
    if isinstance(instr, Load):
        dest = instr.dest
        read = _reader(instr.addr)

        def load(b, store):
            b.dc += b.eval_cost
            addr = read(store)
            b.dc += b.costs.load
            store[dest] = b.memory.load(addr)
            b.stats.static_loads_folded += 1
            if b.check_annotations:
                b.memory.watch(int(addr))
        return load
    if isinstance(instr, Call):
        dest, callee = instr.dest, instr.callee
        readers = tuple(_reader(arg) for arg in instr.args)

        def call(b, store):
            b.dc += b.eval_cost
            args = [read(store) for read in readers]
            result = b.runtime.compile_time_call(b.machine, callee, args,
                                                 b.charge)
            if dest is not None:
                store[dest] = result
            b.stats.static_calls_folded += 1
        return call
    return _fails(f"cannot evaluate {type(instr).__name__} statically")


def _lower_move(dest: str, src):
    if isinstance(src, Reg):
        name = src.name

        def move(b, store):
            b.dc += b.eval_cost
            try:
                value = store[name]
            except KeyError:
                raise _unbound(name) from None
            b.dc += b.costs.move_cost(isinstance(value, float))
            store[dest] = value
            b.stats.static_instrs_folded += 1
        return move
    read = _reader(src)

    def move_value(b, store):
        b.dc += b.eval_cost
        value = read(store)
        b.dc += b.costs.move_cost(isinstance(value, float))
        store[dest] = value
        b.stats.static_instrs_folded += 1
    return move_value


def _lower_binop(instr: BinOp):
    dest, lhs, rhs = instr.dest, instr.lhs, instr.rhs
    op_name = instr.op.value
    apply = BINOP_FUNCS.get(instr.op)
    if apply is None:
        return _fails(f"{op_name} is not a binary operator")
    if isinstance(lhs, Reg) and isinstance(rhs, Reg):
        left, right = lhs.name, rhs.name

        def binop_regs(b, store):
            b.dc += b.eval_cost
            try:
                x = store[left]
                y = store[right]
            except KeyError as missing:
                raise _unbound(missing.args[0]) from None
            b.dc += b.costs.binop_cost(
                op_name, isinstance(x, float) or isinstance(y, float))
            store[dest] = apply(x, y)
            b.stats.static_instrs_folded += 1
        return binop_regs
    if isinstance(lhs, Reg) and isinstance(rhs, Imm):
        left, y = lhs.name, rhs.value
        y_float = isinstance(y, float)

        def binop_reg_imm(b, store):
            b.dc += b.eval_cost
            try:
                x = store[left]
            except KeyError:
                raise _unbound(left) from None
            b.dc += b.costs.binop_cost(
                op_name, isinstance(x, float) or y_float)
            store[dest] = apply(x, y)
            b.stats.static_instrs_folded += 1
        return binop_reg_imm
    read_lhs, read_rhs = _reader(lhs), _reader(rhs)

    def binop(b, store):
        b.dc += b.eval_cost
        x = read_lhs(store)
        y = read_rhs(store)
        b.dc += b.costs.binop_cost(
            op_name, isinstance(x, float) or isinstance(y, float))
        store[dest] = apply(x, y)
        b.stats.static_instrs_folded += 1
    return binop


def _lower_residual(names: tuple[str, ...]):
    def residualize(b, store):
        emitter = b.emitter
        for name in names:
            if name in store:
                emitter.emit_residual(name, store.pop(name))
    return residualize


def _hole_values(holes: tuple[str, ...], store: dict) -> dict:
    values = {}
    for name in holes:
        try:
            values[name] = store[name]
        except KeyError:
            raise _unbound(name) from None
    return values


def _filler(instr, holes: frozenset[str]):
    """``store -> instr`` with every hole operand replaced by an ``Imm``
    of its static value (each hole read in ``holes`` order)."""
    order = tuple(holes)
    if type(instr) is Call:
        dest, callee, args, static = (instr.dest, instr.callee, instr.args,
                                      instr.static)
        spots = [(i, a.name) for i, a in enumerate(args)
                 if type(a) is Reg and a.name in holes]

        def fill_call(store):
            values = _hole_values(order, store)
            filled = list(args)
            for i, name in spots:
                filled[i] = Imm(values[name])
            return Call(dest, callee, tuple(filled), static=static)
        return fill_call
    cls = type(instr)
    fields = [getattr(instr, name) for name in cls.__dataclass_fields__]
    spots = [(i, f.name) for i, f in enumerate(fields)
             if type(f) is Reg and f.name in holes]

    def fill(store):
        values = _hole_values(order, store)
        filled = list(fields)
        for i, name in spots:
            filled[i] = Imm(values[name])
        return cls(*filled)
    return fill


def _lower_emit(action: EmitAction):
    """Emit one template instruction: its holes are filled here, and
    ``BlockEmitter.emit_filled`` does the rest."""
    instr, plan = action.instr, action.plan
    count = len(action.holes)
    defs = instr.defs()

    if not count:
        def emit(b, store):
            b.emitter.emit_filled(instr, plan, 0)
            for dest in defs:
                # Dynamic from here on: a stale static value must not
                # leak into later folds or residuals.
                store.pop(dest, None)
        return emit
    fill = _filler(instr, action.holes)

    def emit_holes(b, store):
        b.emitter.emit_filled(fill(store), plan, count)
        for dest in defs:
            store.pop(dest, None)
    return emit_holes


def _lower_suspend(resume: int, point):
    def suspend(b, store, task):
        return b.suspend(task.block_key, resume, point, store, task.frames)
    return suspend


# ----------------------------------------------------------------------
# Terminators and context transfers
# ----------------------------------------------------------------------

def _lower_terminator(genext: GeneratingExtension, block):
    term = block.terminator

    if isinstance(term, TermJump):
        return _lower_goto(genext, block, term.target)

    if isinstance(term, TermStatic):
        instr = term.instr
        on_true = _lower_goto(genext, block, instr.if_true)
        on_false = _lower_goto(genext, block, instr.if_false)
        read = _reader(instr.cond)

        def static_branch(b, store, task):
            cond = read(store)
            b.stats.static_branches_folded += 1
            b.dc += b.overhead.static_branch_fold
            return (on_true if cond else on_false)(b, store, task)
        return static_branch

    if isinstance(term, TermDynamic):
        instr = term.action.instr
        holes = tuple(term.action.holes)
        cond = instr.cond
        arm_true = _lower_arm(genext, block, instr.if_true)
        arm_false = _lower_arm(genext, block, instr.if_false)

        def dynamic_branch(b, store, task):
            values = _hole_values(holes, store)
            operand = b.emitter.prepare_terminator_operand(cond, values)
            if_true = arm_true(b, store, task)
            if_false = arm_false(b, store, task)
            overhead = b.overhead
            b.dc += overhead.emit_instruction + 2 * overhead.branch_patch
            return Branch(operand, if_true, if_false)
        return dynamic_branch

    if isinstance(term, TermReturn):
        holes = tuple(term.action.holes)
        value = term.action.instr.value

        def ret(b, store, task):
            values = _hole_values(holes, store)
            b.dc += b.emit_cost
            if value is None:
                return Return(None)
            return Return(
                b.emitter.prepare_terminator_operand(value, values))
        return ret
    return _fails(f"unknown terminator {type(term).__name__}")


def _exit_live(genext: GeneratingExtension, exit_label: str) -> tuple:
    """Names live in the host after an exit edge, sorted: a static one
    is residualized before control leaves (an exit edge normally carries
    none, but a variable can be demoted *on* the edge)."""
    return tuple(sorted(genext.region.live_in.get(exit_label, ())))


def _residualize(emitter, names: tuple, store: dict) -> None:
    for name in names:
        if name in store:
            emitter.emit_residual(name, store[name])


def _lower_goto(genext, block, target: str):
    """Terminator for an unconditional transfer to a template label."""
    kind, payload = block.succ_info[target]
    if kind == "exit":
        live = _exit_live(genext, target)

        def goto_exit(b, store, task):
            b.dc += b.emit_cost
            _residualize(b.emitter, live, store)
            return ExitRegion(payload)
        return goto_exit
    transfer = _lower_transfer(genext, *payload)

    def goto(b, store, task):
        b.dc += b.emit_cost
        return Jump(transfer(b, store, task))
    return goto


def _lower_arm(genext, block, target: str):
    """Emitted label for a dynamic branch arm (exit thunk or context)."""
    kind, payload = block.succ_info[target]
    if kind != "exit":
        return _lower_transfer(genext, *payload)
    live = _exit_live(genext, target)
    hint = f"exit{payload}"

    def exit_arm(b, store, task):
        _residualize(b.emitter, live, store)
        code = b.code
        label = code.exit_blocks.get(payload)
        if label is None:
            label = code.fresh_label(hint)
            code.function.blocks[label] = BasicBlock(
                label, [ExitRegion(payload)])
            code.exit_blocks[payload] = label
            b.dc += b.emit_cost
        return label
    return exit_arm


def _lower_transfer(genext, label: str, division):
    """Memoized lookup or creation of a successor context.

    Statics live in the successor but not among its key variables are
    residualized first: their values are emitted as constant moves
    before control transfers.  Each edge lowers a transfer of its own,
    so the contexts it mints keep the edge's own division object: an
    equal division from another edge may repr in another order.
    """
    try:
        succ_key = genext.resolve_context(label, division)
    except SpecializationError as error:
        return _fails(error.message)
    succ_label, succ_division = succ_key
    key_vars = genext.blocks[succ_key].key_vars
    live = genext.region.live_in.get(succ_label, frozenset())
    residual = tuple(sorted(live - set(key_vars)))
    is_header = succ_label in genext.loops
    # The successor is queued by key, not by a captured entry point: a
    # loop's closures would otherwise form reference cycles that keep a
    # dropped program alive until the cycle collector runs.

    def transfer(b, store, task):
        for name in residual:
            if name in store:
                b.emitter.emit_residual(name, store[name])
        try:
            values = tuple([store[name] for name in key_vars])
        except KeyError as missing:
            raise SpecializationError(
                f"static variable {missing} required by context "
                f"{succ_key!r} is absent from the store"
            ) from None
        context_id = (succ_label, succ_division, values)
        code = b.code
        frames = task.frames
        existing = code.contexts.get(context_id)
        if existing is not None:
            if is_header:
                b.stats.record_loop_edge(
                    succ_label, frames.get(succ_label), existing)
            return existing
        new_label = code.fresh_label(succ_label)
        code.contexts[context_id] = new_label
        if is_header:
            b.stats.record_loop_edge(
                succ_label, frames.get(succ_label), new_label)
            frames = dict(frames)
            frames[succ_label] = new_label
        b.push(new_label, succ_key, dict(zip(key_vars, values)), frames)
        return new_label
    return transfer
