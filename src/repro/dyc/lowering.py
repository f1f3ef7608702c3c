"""Generating extensions compiled to code (§1's "hard-wired" emit code).

:func:`build_generating_extension` plans each analysis context as a list
of actions, and as its last step :func:`lower_extension` walks every
*entry point* of those lists into a *shape* and its *holes*, so the
run-time specializer runs generated code instead of interpreting the
plan: the action kinds, operand layouts, cost methods, successor
contexts and residualization sets an action list fixes are decided
here, not on every specialized context.

An entry point is ``(context key, start)``: specialization of a context
starts at action 0, the entry context also at ``entry_start`` (just after
the region-entry promotion), and a promotion continuation at ``i + 1``
for the ``PromoteAction`` at index ``i``.  All of them are known when the
extension is built.

A shape is a tuple of parts, one per set-up evaluation, emit and
residualization, then the terminator.  It records instruction classes,
operand kinds (a static register, an immediate that fits or must be
materialized, the ``j``-th hole, a dynamic register, or one an earlier
emit of the entry point may have noted for zero/copy propagation), hole
counts, plan flags, successor kinds and key counts, and never a
register name, a value or a label: those are the holes.  :func:`_render`
writes one Python function for a shape, ``def context(b, task,
<holes>)``, and its code object is compiled once per process into a
cache bounded by :data:`_TEMPLATE_CAP`, as threaded execution's block
templates are (``repro.machine.threaded``).  An entry point's function
is that code object with its holes as default arguments, built at the
entry point's first use.  The function does what the action
interpreter and the completion stage (:mod:`repro.runtime.emit`) did
for the context, in the same order: the set-up evaluations, the hole
fills, the zero/copy-propagation and strength-reduction checks,
immediate fitting and materialization, the dead-assignment bookkeeping
and the append, residualization, and the successor transfer.  What it cannot decide from the shape it leaves to
the run's :class:`~repro.runtime.emit.BlockEmitter`: an emit whose
operand carries a note, one with two constant operands, a zero/copy
hit and a reduction.  A context that emits nothing and ends in a jump
records its successor label in place of a block, which jump threading
(``Specializer._thread_jumps``) resolves.

Everything that belongs to a run arrives through ``b``, one
specialization batch (``repro.runtime.specializer._Batch``): the code
buffer and its block and context maps, the block ``emitter``, the region
``stats``, the run's ``machine``, ``memory`` and cost terms, the
overhead charges, the cycle accumulator ``dc``, the optimization
switches and the worklist.  So one lowered extension serves every run
that shares the compiled program, under each run's own cost and overhead
models.  Successors are queued by context key, so no function refers to
another and the lowered form holds no reference cycle.

A successor the extension cannot resolve lowers to a part that raises
``resolve_context``'s :class:`SpecializationError` when a context
transfers to it, not earlier: unreachable arms are legal.
"""

from __future__ import annotations

import builtins
import threading
import types

from repro.errors import SpecializationError
from repro.ir.eval import BINOP_FUNCS, UNOP_FUNCS, fits_immediate
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
    Store,
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
from repro.dyc.plans import ZCP_RULES
from repro.runtime.emit import (
    MAT_PLAN,
    MAT_PREFIX,
    NO_USE,
    BufferedInstr,
    check_template_fault,
)
from repro.runtime.specializer import Task

#: Bound on the process-wide template cache, in shapes.  The ALL_ON
#: pass over the ten workloads uses 86 and a whole Table 5 sweep 168;
#: past the bound the oldest shape is evicted (it recompiles if it is met
#: again).
_TEMPLATE_CAP = 1024

#: shape -> the code object of its template.  Read without the lock;
#: written under it.
_TEMPLATES: dict[tuple, types.CodeType] = {}
_TEMPLATE_LOCK = threading.Lock()

#: Zero/copy rules by operator: constant -> ``(kind, left ok)``.
_ZCP_BY_OP = {
    op: {constant: rule for (other, constant), rule in ZCP_RULES.items()
         if other is op}
    for op, _ in ZCP_RULES
}

#: Emitted instruction classes with a fast path, by shape tag.
_EMIT_TAGS = {BinOp: "bin", UnOp: "un", Move: "mov", Load: "load",
              Store: "store", Call: "call"}


class LoweredExtension:
    """Every entry point of one generating extension, walked once.

    ``entries`` maps ``(context key, start)`` to its ``(shape, holes)``;
    ``functions`` holds the entry points built so far.
    """

    __slots__ = ("region_id", "entries", "functions", "divisions_used")

    def __init__(self, region_id: int, entries: dict,
                 divisions_used: int) -> None:
        self.region_id = region_id
        self.entries = entries
        self.functions: dict = {}
        #: Most divisions any one block label was compiled under.
        self.divisions_used = divisions_used

    def entry_point(self, key, start: int):
        """The function that specializes one context from ``start``:
        ``fn(batch, task)``."""
        try:
            return self.functions[key, start]
        except KeyError:
            pass
        try:
            shape, holes = self.entries[key, start]
        except KeyError:
            raise SpecializationError(
                f"region {self.region_id}: no compiled context {key!r}"
            ) from None
        function = types.FunctionType(_template(shape), _TEMPLATE_GLOBALS,
                                      "context", holes)
        self.functions[key, start] = function
        return function


def lower_extension(genext: GeneratingExtension) -> LoweredExtension:
    """Walk every entry point of ``genext`` into its shape and holes."""
    entries: dict = {}
    for key, block in genext.blocks.items():
        counted = ((block.label, block.division)
                   if block.label in genext.loops else None)
        starts = {0}
        starts.update(index + 1 for index, action
                      in enumerate(block.actions)
                      if isinstance(action, PromoteAction))
        if key == genext.entry_key:
            starts.add(genext.entry_start)
        for start in sorted(starts):
            entries[key, start] = _walk(genext, block, start, counted)
    per_label: dict = {}
    for label, division in genext.blocks:
        per_label.setdefault(label, set()).add(division)
    divisions_used = max((len(divs) for divs in per_label.values()),
                         default=1)
    return LoweredExtension(genext.region.region_id, entries,
                            divisions_used)


# ----------------------------------------------------------------------
# The walk: an entry point's shape and holes
# ----------------------------------------------------------------------
#
# Every part appends its holes in the order ``_render`` declares them;
# the comment at each part's renderer lists that order.

def _walk(genext: GeneratingExtension, block, start: int,
          counted) -> tuple[tuple, tuple]:
    parts: list = []
    holes: list = []
    if counted is not None:
        holes.append(counted)
    #: Registers an earlier emit of this entry point may have given a
    #: zero/copy note.
    noted: set = set()
    emitter = False
    actions = block.actions
    terminator = None
    for index in range(start, len(actions)):
        action = actions[index]
        if isinstance(action, EvalAction):
            _walk_eval(action.instr, parts, holes)
        elif isinstance(action, EmitAction):
            _walk_emit(action, parts, holes, noted)
            emitter = True
        elif isinstance(action, ResidualAction):
            parts.append(("resid",))
            holes.append(action.names)
            emitter = True
        elif isinstance(action, PromoteAction):
            if action.emit is not None:
                _walk_emit(action.emit, parts, holes, noted)
                emitter = True
            terminator = ("suspend",)
            holes += [index + 1, action.point]
            break
        else:
            _fail(parts, holes, (),
                  f"unknown action {type(action).__name__}")
    if terminator is None:
        terminator, needs = _walk_terminator(genext, block, holes)
        emitter = emitter or needs
    parts.append(terminator)
    head = ("c" if counted is not None else "-") + ("e" if emitter
                                                    else "-")
    return (head, *parts), tuple(holes)


def _fail(parts: list, holes: list, reads: tuple, message: str) -> None:
    """A part that reads the static registers ``reads`` (an unbound one
    fails first) and then raises ``message``."""
    parts.append(("fail", len(reads)))
    holes += reads
    holes.append(message)


def _eval_kind(operand) -> str:
    """Kind of a set-up operand: ``r`` (a static register), ``i`` or
    ``f`` (an int or float immediate), ``x`` (nothing can read it)."""
    if type(operand) is Reg:
        return "r"
    if type(operand) is Imm:
        return "f" if isinstance(operand.value, float) else "i"
    return "x"


def _walk_eval(instr, parts: list, holes: list) -> None:
    cls = type(instr)
    if cls is BinOp:
        if BINOP_FUNCS.get(instr.op) is None:
            return _fail(parts, holes, (),
                         f"{instr.op.value} is not a binary operator")
        operands = (instr.lhs, instr.rhs)
    elif cls is UnOp:
        if UNOP_FUNCS.get(instr.op) is None:
            return _fail(parts, holes, (),
                         f"{instr.op} is not a unary operator")
        operands = (instr.src,)
    elif cls is Move:
        operands = (instr.src,)
    elif cls is Load:
        operands = (instr.addr,)
    elif cls is Call:
        operands = instr.args
    else:
        return _fail(parts, holes, (),
                     f"cannot evaluate {cls.__name__} statically")
    kinds = tuple(_eval_kind(operand) for operand in operands)
    if "x" in kinds:
        bad = kinds.index("x")
        reads = tuple(operand.name for operand in operands[:bad]
                      if type(operand) is Reg)
        return _fail(parts, holes, reads,
                     f"cannot evaluate operand {operands[bad]!r}")
    holes += [operand.name if kind == "r" else operand.value
              for kind, operand in zip(kinds, operands)]
    if cls is BinOp:
        holes += [instr.dest, BINOP_FUNCS[instr.op], instr.op.value]
    elif cls is UnOp:
        holes += [instr.dest, UNOP_FUNCS[instr.op], "alu"]
    elif cls is Call:
        holes += [instr.callee, instr.dest]
    else:
        holes.append(instr.dest)
    parts.append(("set", _EMIT_TAGS[cls], kinds,
                  cls is Call and instr.dest is not None))


def _walk_emit(action: EmitAction, parts: list, holes: list,
               noted: set) -> None:
    instr, plan = action.instr, action.plan
    # Holes are read in the order the action lists them, as before: the
    # first unbound one is the one reported.
    names = tuple(action.holes)
    tag = _EMIT_TAGS.get(type(instr))
    kinds = []
    for operand in instr.operands() if tag is not None else ():
        if type(operand) is Reg:
            name = operand.name
            if name in action.holes:
                kinds.append(f"h{names.index(name)}")
            else:
                kinds.append("n" if name in noted else "r")
        elif type(operand) is Imm:
            kinds.append("i" if fits_immediate(operand.value) else "I")
        else:
            tag = None
    if plan is None:
        flags = "-"
    else:
        flags = "".join(flag for flag, on in (
            ("z", plan.zcp_candidate), ("s", plan.sr_candidate),
            ("R", plan.remote), ("m", plan.removable)) if on)
    kinds = tuple(kinds)
    if tag == "bin" and plan is not None:
        # A register this emit defines may carry a note unless both
        # operands are registers without one; two constant operands
        # fold through the emitter.
        if not all(kind == "r" for kind in kinds):
            noted.add(instr.dest)
        if not any(kind in ("r", "n") for kind in kinds):
            tag = None
    holes += names
    holes += [instr, plan]
    if tag is None:
        parts.append(("emit", "gen", (), flags, len(names)))
        holes.append(instr.defs())
        return
    for kind, operand in zip(kinds, instr.operands()):
        if kind in ("r", "n"):
            holes += [operand, operand.name]
        elif kind in ("i", "I"):
            holes.append(operand)
    if tag in ("bin", "un"):
        holes += [instr.dest, instr.op]
    elif tag == "mov":
        holes.append(instr.dest)
    elif tag == "load":
        holes += [instr.dest, instr.static]
    elif tag == "call":
        holes += [instr.dest, instr.callee, instr.static]
    if tag == "bin" and "z" in flags:
        holes.append(_ZCP_BY_OP.get(instr.op, {}))
    holes.append(plan.local_uses if plan is not None else 0)
    parts.append(("emit", tag, kinds, flags, len(names),
                  tag == "call" and instr.dest is None))


def _walk_terminator(genext: GeneratingExtension, block,
                     holes: list) -> tuple[tuple, bool]:
    """The terminator part, and whether it needs the block emitter."""
    term = block.terminator
    if isinstance(term, TermJump):
        goto, needs = _walk_goto(genext, block, term.target, holes)
        return ("goto", goto), needs
    if isinstance(term, TermStatic):
        instr = term.instr
        kind = _eval_kind(instr.cond)
        if kind == "x":
            holes.append(f"cannot evaluate operand {instr.cond!r}")
            return ("fail", 0), False
        holes.append(instr.cond.name if kind == "r" else instr.cond.value)
        on_true, true_needs = _walk_goto(genext, block, instr.if_true,
                                         holes)
        on_false, false_needs = _walk_goto(genext, block, instr.if_false,
                                           holes)
        return ("sbr", kind, on_true, on_false), true_needs or false_needs
    if isinstance(term, TermDynamic):
        instr = term.action.instr
        names = tuple(term.action.holes)
        holes += names
        holes.append(instr.cond)
        arm_true = _walk_arm(genext, block, instr.if_true, holes)
        arm_false = _walk_arm(genext, block, instr.if_false, holes)
        return ("dbr", len(names), arm_true, arm_false), True
    if isinstance(term, TermReturn):
        names = tuple(term.action.holes)
        holes += names
        value = term.action.instr.value
        if value is not None:
            holes.append(value)
        return ("ret", len(names), value is not None), value is not None
    holes.append(f"unknown terminator {type(term).__name__}")
    return ("fail", 0), False


def _exit_live(genext: GeneratingExtension, exit_label: str) -> tuple:
    """Names live in the host after an exit edge, sorted: a static one
    is residualized before control leaves (an exit edge normally carries
    none, but a variable can be demoted *on* the edge)."""
    return tuple(sorted(genext.region.live_in.get(exit_label, ())))


def _walk_goto(genext, block, target: str, holes: list
               ) -> tuple[tuple, bool]:
    """An unconditional transfer to a template label."""
    kind, payload = block.succ_info[target]
    if kind == "exit":
        live = _exit_live(genext, target)
        if live:
            holes.append(live)
        holes.append(payload)
        return ("exit", bool(live)), bool(live)
    return _walk_transfer(genext, *payload, holes)


def _walk_arm(genext, block, target: str, holes: list) -> tuple:
    """The emitted label of a dynamic branch arm (exit thunk or
    context)."""
    kind, payload = block.succ_info[target]
    if kind != "exit":
        return _walk_transfer(genext, *payload, holes)[0]
    live = _exit_live(genext, target)
    if live:
        holes.append(live)
    holes += [payload, f"exit{payload}"]
    return ("thunk", bool(live))


def _walk_transfer(genext, label: str, division, holes: list
                   ) -> tuple[tuple, bool]:
    """Memoized lookup or creation of a successor context.

    Statics live in the successor but not among its key variables are
    residualized first: their values are emitted as constant moves
    before control transfers.  Each edge walks a transfer of its own, so
    the contexts it mints keep the edge's own division object: an equal
    division from another edge may repr in another order.
    """
    try:
        succ_key = genext.resolve_context(label, division)
    except SpecializationError as error:
        holes.append(error.message)
        return ("fail",), False
    succ_label, succ_division = succ_key
    key_vars = genext.blocks[succ_key].key_vars
    live = genext.region.live_in.get(succ_label, frozenset())
    residual = tuple(sorted(live - set(key_vars)))
    if residual:
        holes.append(residual)
    holes += key_vars
    holes += [succ_key, succ_label, succ_division]
    return (("ctx", bool(residual), len(key_vars),
             succ_label in genext.loops), bool(residual))


# ----------------------------------------------------------------------
# Templates
# ----------------------------------------------------------------------

def _unbound(name: str):
    raise SpecializationError(
        f"static variable {name!r} has no value at specialize time "
        "(BTA/specializer mismatch)"
    )


def _absent(missing: KeyError, succ_key):
    raise SpecializationError(
        f"static variable {missing} required by context {succ_key!r} is "
        "absent from the store"
    )


#: The globals of every template.
_TEMPLATE_GLOBALS = {
    "__builtins__": builtins,
    "SpecializationError": SpecializationError,
    "_unbound": _unbound,
    "_absent": _absent,
    "BB": BasicBlock,
    "BI": BufferedInstr,
    "TASK": Task,
    "JUMP": Jump,
    "EXIT": ExitRegion,
    "RET": Return,
    "BRANCH": Branch,
    "IMM": Imm,
    "REG": Reg,
    "MOVE": Move,
    "BIN": BinOp,
    "UN": UnOp,
    "LOAD": Load,
    "STORE": Store,
    "CALL": Call,
    "FITS": fits_immediate,
    "MATP": MAT_PREFIX,
    "NOUSE": NO_USE,
    "TF": check_template_fault,
}

#: Prologue lines binding the run's values a template reads, by local.
_PROLOGUE = {
    "E": "E = b.emitter",
    "EC": "EC = b.eval_cost",
    "EM": "EM = b.emit_cost",
    "HP": "HP = b.hole_cost",
    "ZC": "ZC = b.zcp_check",
    "SC": "SC = b.sr_check",
    "Z": "Z = b.zcp",
    "SR": "SR = b.sr",
    "OC": "OC = b.op_costs",
    "MI": "MI, MF = b.move_costs",
    "LD": "LD = b.load_cost",
    "MEM": "MEM = b.memory",
    "CA": "CA = b.check_annotations",
    "RT": "RT = b.runtime",
    "C": "C = b.code",
    "CX": "CX = b.contexts",
    "BL": "BL = b.blocks",
    "WL": "WL = b.worklist",
    "SBF": "SBF = b.branch_fold",
    "BP": "BP = b.branch_patch",
}


class _Source:
    """Lines of one template under construction, its hole parameters,
    and the prologue locals its lines use."""

    def __init__(self, emitter: bool) -> None:
        #: Does the context use the block emitter?
        self.emitter = emitter
        self.params: list[str] = []
        self.lines: list[str] = []
        self.uses: set[str] = set()
        self.depth = 1

    def hole(self) -> str:
        self.params.append(f"h{len(self.params)}")
        return self.params[-1]

    def add(self, *lines: str) -> None:
        pad = "    " * self.depth
        self.lines += [pad + line for line in lines]

    def need(self, *names: str) -> None:
        self.uses.update(names)

    def reads(self, targets: list[tuple[str, str]]) -> None:
        """Bind each local to the static store's value of the register
        named by its hole; an unbound register fails the batch."""
        if not targets:
            return
        self.add("try:")
        self.depth += 1
        self.add(*(f"{local} = S[{name}]" for local, name in targets))
        self.depth -= 1
        self.add("except KeyError as missing:",
                 "    _unbound(missing.args[0])")


def _render(shape: tuple) -> str:
    """The source of ``shape``'s template: ``def context(b, task,
    <holes>)``.  Nothing derived from the extension appears in it."""
    head = shape[0]
    src = _Source(head[1] == "e")
    body = src.lines
    if head[0] == "c":
        key = src.hole()
        src.add("LC = ST.loop_context_counts",
                f"LC[{key}] = LC.get({key}, 0) + 1")
    for part in shape[1:-1]:
        _PARTS[part[0]](src, part)
    _render_terminator(src, shape[-1])
    prologue = ["S = task.store", "ST = b.stats",
                "b.dc += b.block_cost", "ST.contexts_specialized += 1"]
    if src.emitter:
        src.uses.discard("E")
        prologue += ["E = b.emitter", "E.reset()", "I = E.items",
                     "P = E.producers", "N = E.notes", "F = E.faults"]
    prologue += [_PROLOGUE[name] for name in sorted(src.uses)]
    lines = [f"def context(b, task, {', '.join(src.params)}):"
             if src.params else "def context(b, task):"]
    lines += ["    " + line for line in prologue]
    lines += body
    return "\n".join(lines) + "\n"


def _template(shape: tuple) -> types.CodeType:
    """The code object of ``shape``'s template, compiled on first use."""
    code = _TEMPLATES.get(shape)
    if code is not None:
        return code
    with _TEMPLATE_LOCK:
        code = _TEMPLATES.get(shape)
        if code is None:
            module = compile(_render(shape), "<generating extension>",
                             "exec")
            code = next(const for const in module.co_consts
                        if isinstance(const, types.CodeType))
            if len(_TEMPLATES) >= _TEMPLATE_CAP:
                del _TEMPLATES[next(iter(_TEMPLATES))]
            _TEMPLATES[shape] = code
        return code


# ----------------------------------------------------------------------
# Parts
# ----------------------------------------------------------------------

def _render_fail(src: _Source, part: tuple) -> None:
    # holes: the registers read first, the message
    reads = [("_", src.hole()) for _ in range(part[1])]
    src.reads(reads)
    src.add(f"raise SpecializationError({src.hole()})")


def _render_set(src: _Source, part: tuple) -> None:
    # holes: each operand's register name or value; then bin: dest,
    # operator function, cost name; un: the same; call: callee, dest;
    # mov and load: dest
    _, tag, kinds, has_dest = part
    operands = [src.hole() for _ in kinds]
    reads = []
    values = []
    for position, (kind, hole) in enumerate(zip(kinds, operands)):
        if kind == "r":
            reads.append((f"x{position}", hole))
            values.append(f"x{position}")
        else:
            values.append(hole)
    src.need("EC")
    src.add("b.dc += EC")
    src.reads(reads)
    floats = [f"isinstance({value}, float)"
              for kind, value in zip(kinds, values) if kind == "r"]
    if "f" in kinds:
        is_float = "True"
    else:
        is_float = " or ".join(floats) or "False"
    if tag in ("bin", "un"):
        dest, apply, cost = src.hole(), src.hole(), src.hole()
        src.need("OC")
        src.add(f"c = OC[{cost}]",
                f"b.dc += c[1] if {is_float} else c[0]",
                f"S[{dest}] = {apply}({', '.join(values)})",
                "ST.static_instrs_folded += 1")
    elif tag == "mov":
        dest = src.hole()
        src.need("MI")
        src.add(f"b.dc += MF if {is_float} else MI",
                f"S[{dest}] = {values[0]}",
                "ST.static_instrs_folded += 1")
    elif tag == "load":
        dest = src.hole()
        src.need("LD", "MEM", "CA")
        src.add("b.dc += LD",
                f"S[{dest}] = MEM.load({values[0]})",
                "ST.static_loads_folded += 1",
                "if CA:",
                f"    MEM.watch(int({values[0]}))")
    else:  # call
        callee, dest = src.hole(), src.hole()
        src.need("RT")
        call = (f"RT.compile_time_call(b.machine, {callee}, "
                f"[{', '.join(values)}], b.charge)")
        src.add(f"S[{dest}] = {call}" if has_dest else call,
                "ST.static_calls_folded += 1")


def _render_resid(src: _Source, part: tuple) -> None:
    # holes: the names made dynamic
    names = src.hole()
    src.add(f"for n in {names}:",
            "    if n in S:",
            "        E.emit_residual(n, S.pop(n))")


def _render_emit(src: _Source, part: tuple) -> None:
    # holes: the hole names; the template instruction and its plan; per
    # operand a register and its name, an immediate, or nothing (a
    # hole); then bin and un: dest, operator; mov: dest; load: dest,
    # static; call: dest, callee, static; a bin with a zero/copy plan:
    # the operator's rules; last the planned local uses.  A "gen" emit
    # has the hole names, instruction and plan, then the names it
    # defines.
    _, tag, kinds, flags, count = part[:5]
    names = [src.hole() for _ in range(count)]
    instr, plan = src.hole(), src.hole()
    values = [(f"v{j}", name) for j, name in enumerate(names)]
    src.reads(values)
    generic = (f"E.emit_template({instr}, "
               f"{{{', '.join(f'{n}: {v}' for v, n in values)}}}, {plan})")
    if tag == "gen":
        defs = src.hole()
        src.add(generic,
                f"for n in {defs}:",
                "    S.pop(n, None)")
        return
    operands = []
    for kind in kinds:
        if kind in ("r", "n"):
            operands.append((kind, src.hole(), src.hole()))
        elif kind in ("i", "I"):
            operands.append((kind, src.hole(), None))
        else:
            operands.append((kind, f"v{kind[1:]}", None))
    dest = op = static = callee = rules = None
    if tag in ("bin", "un"):
        dest, op = src.hole(), src.hole()
    elif tag == "mov":
        dest = src.hole()
    elif tag == "load":
        dest, static = src.hole(), src.hole()
    elif tag == "call":
        dest, callee, static = src.hole(), src.hole(), src.hole()
        if part[5]:
            dest = None
    if tag == "bin" and "z" in flags:
        rules = src.hole()
    uses = src.hole()
    noted = [name for kind, _, name in operands if kind == "n"]
    if noted:
        # A note rewrites the operand: the emitter substitutes it.
        tests = " or ".join(f"{name} in N" for name in noted)
        src.add(f"if N and ({tests}):", f"    {generic}", "else:")
        src.depth += 1
    src.add("if F is not None:", "    TF(F)")
    src.need("EM", "HP")
    src.add(f"b.dc += EM + HP * {count}")
    imm = [position for position, (kind, _, _) in enumerate(operands)
           if kind[0] in "iIh"]
    candidate = (tag == "bin" and len(imm) == 1
                 and ("z" in flags or "s" in flags))
    if candidate:
        position = imm[0]
        kind, hole, _ = operands[position]
        reg = operands[1 - position][1]
        value = hole if kind[0] == "h" else f"{hole}.value"
        src.add(f"iv = {value}", "d = False")
        if "z" in flags:
            left_ok = "" if position == 1 else " and z[1]"
            src.need("Z", "ZC")
            src.add("if Z:",
                    "    b.dc += ZC",
                    f"    z = {rules}.get(iv)",
                    f"    if z is not None{left_ok}:",
                    "        d = True",
                    f"        E.apply_zcp({dest}, {reg}, iv, z[0], {plan})")
        if "s" in flags:
            src.need("SR", "SC")
            src.add("if not d and SR:" if "z" in flags else "if SR:",
                    "    b.dc += SC",
                    f"    d = E.reduce({dest}, {op}, {reg}, iv, "
                    f"{position == 1}, {plan})")
        src.add("if not d:")
        src.depth += 1
    _render_final(src, tag, flags, operands, instr, plan, dest, op,
                  static, callee, uses)
    if candidate:
        src.depth -= 1
    if noted:
        src.depth -= 1
    if dest is not None:
        src.add(f"S.pop({dest}, None)")


def _render_final(src: _Source, tag: str, flags: str, operands: list,
                  instr: str, plan: str, dest, op, static, callee,
                  uses: str) -> None:
    """Fit immediates (materializing what does not fit) and append the
    instruction with its dead-assignment bookkeeping."""
    killable = "m" in flags and "R" not in flags
    exprs = []
    records = []
    changed = False
    for position, (kind, hole, name) in enumerate(operands):
        local = f"o{position}"
        if kind in ("r", "n"):
            exprs.append(hole)
            records.append(f"({name}, P.get({name}))")
        elif tag == "mov":
            # A constant move is the materialization.
            if kind[0] == "h":
                exprs.append(f"IMM({hole})")
                changed = True
            else:
                exprs.append(hole)
            records.append("NOUSE")
        elif kind == "i":
            exprs.append(hole)
            records.append("NOUSE")
        elif kind == "I":
            _render_materialize(src, local, hole, position)
            exprs.append(local)
            records.append(f"u{position}")
            changed = True
        else:  # a hole's value
            src.add(f"if FITS({hole}):",
                    f"    {local} = IMM({hole})",
                    f"    u{position} = NOUSE",
                    "else:")
            src.depth += 1
            _render_materialize(src, local, f"IMM({hole})", position)
            src.depth -= 1
            exprs.append(local)
            records.append(f"u{position}")
            changed = True
    if not changed:
        built = instr
    elif tag in ("bin", "un"):
        built = f"{tag.upper()}({dest}, {op}, {', '.join(exprs)})"
    elif tag == "mov":
        built = f"MOVE({dest}, {exprs[0]})"
    elif tag == "load":
        built = f"LOAD({dest}, {exprs[0]}, {static})"
    elif tag == "store":
        built = f"STORE({exprs[0]}, {exprs[1]})"
    else:
        args = "".join(f"{expr}, " for expr in exprs)
        built = f"CALL({dest}, {callee}, ({args}), {static})"
    if flags == "-":
        item = "BI(X, 0, True, False, False, False, ())"
    else:
        recorded = (f"({''.join(f'{r}, ' for r in records)})"
                    if killable else "()")
        item = (f"BI(X, {uses}, {'R' in flags}, {'m' in flags}, "
                f"False, False, {recorded})")
    src.add(f"X = {built}", "x = len(I)", f"I.append({item})")
    if dest is not None:
        src.add("if N:", f"    E.kill_notes_for({dest})",
                f"P[{dest}] = x")


def _render_materialize(src: _Source, local: str, imm: str,
                        position: int) -> None:
    """Materialize the immediate ``imm`` into a fresh temporary, bound to
    ``local``; ``u<position>`` records its producer."""
    src.need("EM")
    src.add("m = E.mat_counter + 1",
            "E.mat_counter = m",
            "t = f'{MATP}{m}'",
            "b.dc += EM",
            "x = len(I)",
            f"I.append(BI(MOVE(t, {imm}), {MAT_PLAN.local_uses}, "
            f"{MAT_PLAN.remote}, {MAT_PLAN.removable}, False, False, ()))",
            "if N:",
            "    E.kill_notes_for(t)",
            "P[t] = x",
            f"{local} = REG(t)",
            f"u{position} = (t, x)")


_PARTS = {
    "fail": _render_fail,
    "set": _render_set,
    "resid": _render_resid,
    "emit": _render_emit,
}


# ----------------------------------------------------------------------
# Terminators, transfers and the block
# ----------------------------------------------------------------------

def _render_terminator(src: _Source, part: tuple) -> None:
    tag = part[0]
    if tag == "suspend":
        # holes: the resume index, the promotion point
        resume, point = src.hole(), src.hole()
        _render_block(src, f"b.suspend(task.block_key, {resume}, {point}, "
                           "S, task.frames)")
    elif tag == "fail":
        _render_fail(src, part)
    elif tag == "goto":
        _render_goto(src, part[1])
    elif tag == "sbr":
        # holes: the condition's register name or value, then each
        # arm's
        _, kind, on_true, on_false = part
        cond = src.hole()
        if kind == "r":
            src.reads([("c", cond)])
            cond = "c"
        src.need("SBF")
        src.add("ST.static_branches_folded += 1", "b.dc += SBF",
                f"if {cond}:")
        src.depth += 1
        _render_goto(src, on_true)
        src.depth -= 1
        src.add("else:")
        src.depth += 1
        _render_goto(src, on_false)
        src.depth -= 1
    elif tag == "dbr":
        # holes: the hole names, the condition operand, then each arm's
        _, count, arm_true, arm_false = part
        names = [src.hole() for _ in range(count)]
        values = [(f"v{j}", name) for j, name in enumerate(names)]
        cond = src.hole()
        src.reads(values)
        src.add(f"o = E.prepare_terminator_operand({cond}, "
                f"{{{', '.join(f'{n}: {v}' for v, n in values)}}})")
        _render_arm(src, arm_true, "t1")
        _render_arm(src, arm_false, "t2")
        src.need("EM", "BP")
        src.add("b.dc += EM + 2 * BP")
        _render_block(src, "BRANCH(o, t1, t2)")
    else:  # ret
        # holes: the hole names, then the value operand if any
        _, count, has_value = part
        names = [src.hole() for _ in range(count)]
        values = [(f"v{j}", name) for j, name in enumerate(names)]
        src.reads(values)
        src.need("EM")
        src.add("b.dc += EM")
        if has_value:
            value = src.hole()
            src.add(f"X = RET(E.prepare_terminator_operand({value}, "
                    f"{{{', '.join(f'{n}: {v}' for v, n in values)}}}))")
        else:
            src.add("X = RET(None)")
        _render_block(src, "X")


def _render_goto(src: _Source, part: tuple) -> None:
    """An unconditional transfer and the block it ends."""
    src.need("EM")
    src.add("b.dc += EM")
    if part[0] == "exit":
        # holes: the live names if any, the exit index
        if part[1]:
            _render_residualize(src, src.hole(), pop=False)
        _render_block(src, f"EXIT({src.hole()})")
    elif part[0] == "fail":
        src.add(f"raise SpecializationError({src.hole()})")
    else:
        _render_transfer(src, part, "t")
        _render_block(src, None, jump="t")


def _render_arm(src: _Source, part: tuple, target: str) -> None:
    """Bind ``target`` to a dynamic branch arm's emitted label."""
    if part[0] == "thunk":
        # holes: the live names if any, the exit index, the label hint
        if part[1]:
            _render_residualize(src, src.hole(), pop=False)
        index, hint = src.hole(), src.hole()
        src.need("C", "BL", "EM")
        src.add(f"{target} = C.exit_blocks.get({index})",
                f"if {target} is None:",
                "    n = C.label_counter + 1",
                "    C.label_counter = n",
                f"    {target} = f'{{{hint}}}${{n}}'",
                f"    BL[{target}] = BB({target}, [EXIT({index})])",
                f"    C.exit_blocks[{index}] = {target}",
                "    b.dc += EM")
    elif part[0] == "fail":
        src.add(f"raise SpecializationError({src.hole()})")
    else:
        _render_transfer(src, part, target)


def _render_residualize(src: _Source, names: str, pop: bool) -> None:
    take = "S.pop(n)" if pop else "S[n]"
    src.add(f"for n in {names}:",
            "    if n in S:",
            f"        E.emit_residual(n, {take})")


def _render_transfer(src: _Source, part: tuple, target: str) -> None:
    # holes: the residual names if any, each key variable, the successor
    # key, label and division
    _, residual, count, header = part
    if residual:
        _render_residualize(src, src.hole(), pop=False)
    keys = [src.hole() for _ in range(count)]
    succ_key, label, division = src.hole(), src.hole(), src.hole()
    locals_ = [f"k{j}" for j in range(count)]
    if keys:
        src.add("try:")
        src.add(*(f"    {local} = S[{key}]"
                  for local, key in zip(locals_, keys)))
        src.add("except KeyError as missing:",
                f"    _absent(missing, {succ_key})")
    values = "".join(f"{local}, " for local in locals_)
    store = ", ".join(f"{key}: {local}" for key, local in zip(keys, locals_))
    src.need("C", "CX", "WL")
    src.add(f"ci = ({label}, {division}, ({values}))",
            f"{target} = CX.get(ci)",
            f"if {target} is None:",
            "    n = C.label_counter + 1",
            "    C.label_counter = n",
            f"    {target} = f'{{{label}}}${{n}}'",
            f"    CX[ci] = {target}")
    if header:
        src.add("    FR = task.frames",
                f"    ST.record_loop_edge({label}, FR.get({label}), "
                f"{target})",
                "    FR = dict(FR)",
                f"    FR[{label}] = {target}",
                f"    WL.append(TASK({target}, {succ_key}, 0, "
                f"{{{store}}}, FR))",
                "else:",
                f"    ST.record_loop_edge({label}, task.frames.get("
                f"{label}), {target})")
    else:
        src.add(f"    WL.append(TASK({target}, {succ_key}, 0, "
                f"{{{store}}}, task.frames))")


def _render_block(src: _Source, term, jump: str | None = None) -> None:
    """Install the context's block, ending in ``term``; a context that
    ends in a jump to ``jump`` and emitted nothing records the label of
    its successor instead, for jump threading."""
    src.need("BL")
    if src.emitter:
        src.add("B = [item.instr for item in I if not item.dead]")
        if jump is not None:
            src.add("if B:",
                    f"    B.append(JUMP({jump}))",
                    "    BL[task.label] = BB(task.label, B)",
                    "else:",
                    f"    BL[task.label] = {jump}")
        else:
            src.add(f"B.append({term})",
                    "BL[task.label] = BB(task.label, B)")
    elif jump is not None:
        src.add(f"BL[task.label] = {jump}")
    else:
        src.add(f"BL[task.label] = BB(task.label, [{term}])")
