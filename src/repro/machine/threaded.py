"""Direct-threaded template backend for the abstract machine.

The reference interpreter in :mod:`repro.machine.interp` re-decodes every
instruction on every execution: a type-dispatch chain, operand ``_value``
calls, cost-model lookups, and accounting updates per instruction.  This
module instead *translates* each basic block once — host function blocks
and runtime-emitted region code alike — into one Python function,
``block(E) -> outcome``, where ``E`` is the register file and the outcome
is the ``(kind, payload)`` tuple the reference ``_exec_block`` returns.
All of the decoding is folded in at translation time:

* cost-model lookups happen during translation, via the same shared term
  helpers the reference uses (:func:`repro.machine.costs.flat_term` and
  friends), so every charge is the bit-identical float;
* the type-independent charge terms of a straight-line segment are summed
  at translation time into one constant, committed in a single addition at
  the segment boundary; only the float-operand *extras* remain run-time
  conditional, accumulated in occurrence order exactly as the reference
  accumulates them.

The result is byte-identical :class:`~repro.machine.interp.ExecutionStats`
(cycles, instructions, dc_cycles, dispatch_cycles, scope_cycles) and
outputs, several times faster.

Block templates
---------------

DyC compiles each template once, ahead of time; specializing only copies
it and patches its holes with run-time constants (§2).  Blocks are
translated the same way.  A block's *shape* is the tuple of its
instructions' kinds, operators and operand kinds, with each segment's
instruction count and which of its float extras depend on run-time
types.  The shape keys a process-wide, bounded cache of code objects,
each compiled once from source that the shape alone determines.
Everything else is a *hole*, handed to the function as a default
argument: register names, immediates, the pre-summed segment charges and
float extras, successor outcomes, and the machine's stats, memory and
bound call and region entries.  A block of a known shape therefore costs
one ``types.FunctionType`` call to translate, and no text derived from
the IR ever reaches generated source: a register is only ever a dict key.

DyC keeps a template's intermediate values in machine registers (§1-2);
a template keeps them in Python locals.  Every part that writes a
register also binds its value to a local, and a later read of that
register in the same block, with no call part in between, reads the
local instead of the register dict: a *forwarded* operand, whose kind in
the shape is the string naming the writer's local (``"v3"``), never an
int or a bool.  Operands of operators, moves, loads and stores, branch
conditions, call arguments and returned values all forward.  A read
before the block's first write of a register still reads the dict, so an
undefined register traps as in the reference.

Each operator runs as one Python operator.  Those with a trap condition
(``&``, ``|``, ``^``, ``<<``, ``>>``, ``/``, ``%``) take that path only
behind a guard, ``type(a) is int and type(b) is int``, plus ``b >= 0``
for a shift and ``a >= 0 and b > 0`` for C division and remainder; when
the guard fails they call the checked wrapper, which traps or computes as
``repro.ir.eval`` does (Brunthaler's speculative staging, PAPERS.md).
A float operand of ``&``, ``|``, ``^``, ``<<`` or ``>>`` traps before
the segment commits, so the commit tests no float for those parts.

Semantics the templates keep, so the stats stay byte-identical:

* register reads and operator traps happen in instruction order, before
  the segment commit; a read of an undefined register traps with the
  reference's message;
* float extras are summed in occurrence order and committed as
  ``const + X``;
* a ``Branch`` reads its condition before the commit, a ``Return`` commits
  before it reads its value;
* a call commits its segment first and builds the callee's frame from
  the caller's registers; an arity mismatch reads the arguments, then
  raises; intrinsics and names nothing defines resolve by name only when
  the call is reached;
* an ``EnterRegion`` binds its dispatch at its first dispatch, never at
  translation;
* every commit (and tick, below) reads ``machine.step_limit``;
* comparisons write the ints ``1`` and ``0``;
* an operator on immediates alone folds at translation, unless it traps.

A load of an in-bounds int address indexes the memory's word list
inline, and a store to one writes it inline while the memory watches no
address (``Memory._watch`` is None; annotation checking may start
watching mid-run, so the test is made at every store).  Every other
address goes through ``Memory.load`` or ``Memory.store``, so each
``MemoryFault`` and each logged store is the reference's.  Inlining
stores pays now that operands forward: replaying one Table 5 sweep's 47
``run_workload`` calls in one process, with and without the inline
store, interleaved per call (runs of 9, 9 and 15 repetitions), the sum
of per-call minimum times read 0.969-0.979 with over without, and the
sum of medians 0.939-0.963.

Uncounted backend
-----------------

On the ``threaded_fast`` backend the walk ends each segment in a ``tick``
part instead of a commit.  A tick adds the segment's instruction count
to ``stats.instructions`` and tests the step limit, exactly as a commit
ends, but charges no cycles, so it tests no float extras either.  An
uncounted run therefore counts the same instructions as a counted one
and stops at the step limit on the same instruction; its cycle totals
hold only what is charged outside blocks (call overhead, intrinsics,
dispatch and dynamic compilation).  No tick shape equals a commit
shape, so ``threaded`` and ``threaded_fast`` share the template cache
but no template.

Translation caching and invalidation
------------------------------------

Translations are cached per :class:`~repro.ir.function.Function` object and
keyed on its ``version`` counter (plus the I-cache penalty and schedule
scale in effect).  Host functions are fixed after static compile, so each
one's host loop is bound once per backend and holds its translation,
checking only the version per call: a host function's penalty and scale
are fixed for the machine, so they are computed only when a translation
is built.  A call to a module function is bound when its block is
translated, to the machine's entry for the callee
(``Machine.bind_call``): the arity is checked then, and the call builds
the callee's register frame straight from the caller's registers.
Runtime-emitted region code
is *patched in place* by lazy promotions (the specializer threads jumps and
adds continuation blocks into a buffer that is already executing); the
specializer bumps ``Function.version`` after every batch, and the region
driver below re-checks the version at every block boundary, so patched
code is retranslated before the next block runs.

One deliberate subtlety: the reference computes the region's I-cache
penalty once per region entry, from the footprint at entry, and keeps
using it even after a mid-call promotion grows the code.  The driver here
does the same — retranslation after a version bump reuses the entry-time
penalty — so the two backends stay cycle-identical; it keeps that penalty
per ``(code, footprint)`` so an entry into unchanged code computes
neither it nor a translation lookup.

A block that ends in ``EnterRegion`` dispatches itself, through the
machine's entry for the instruction (``Machine.bind_entry``), so the host
loop only ever sees jumps and returns.
"""

from __future__ import annotations

import builtins
import collections
import itertools
import math
import operator
import threading
import types

from repro.errors import MachineError, TrapError
from repro.ir.eval import _c_div, _c_mod
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    EnterRegion,
    ExitRegion,
    Imm,
    Jump,
    Load,
    MakeDynamic,
    MakeStatic,
    Move,
    Op,
    Promote,
    Reg,
    Return,
    Store,
    UnOp,
)
from repro.machine.costs import binop_terms, flat_term, move_terms
from repro.machine.interp import COUNTED_BACKENDS

# ----------------------------------------------------------------------
# Per-operator evaluators
# ----------------------------------------------------------------------
# Translation folds operators on immediates with these, and generated
# code calls the ones with trap conditions; the wrappers reuse the same
# helpers as repro.ir.eval so the semantics (C99 truncating division,
# trap conditions) cannot drift; a unit test cross-checks every operator
# against eval_binop.


def _div(lhs, rhs):
    if rhs == 0:
        raise TrapError("division by zero")
    if isinstance(lhs, int) and isinstance(rhs, int):
        return _c_div(lhs, rhs)
    return lhs / rhs


def _mod(lhs, rhs):
    if rhs == 0:
        raise TrapError("modulo by zero")
    if isinstance(lhs, int) and isinstance(rhs, int):
        return _c_mod(lhs, rhs)
    return math.fmod(lhs, rhs)


def _int_only(op: Op, fn):
    def wrapped(lhs, rhs, _op=op, _fn=fn):
        if isinstance(lhs, float) or isinstance(rhs, float):
            raise TrapError(f"{_op} requires integer operands, got "
                            f"{lhs!r} and {rhs!r}")
        return _fn(lhs, rhs)

    return wrapped


def _shift(op: Op, fn):
    def wrapped(lhs, rhs, _op=op, _fn=fn):
        if isinstance(lhs, float) or isinstance(rhs, float):
            raise TrapError(f"{_op} requires integer operands, got "
                            f"{lhs!r} and {rhs!r}")
        if rhs < 0:
            raise TrapError("negative shift count")
        return _fn(lhs, rhs)

    return wrapped


BINOP_FUNCS = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.DIV: _div,
    Op.MOD: _mod,
    Op.AND: _int_only(Op.AND, operator.and_),
    Op.OR: _int_only(Op.OR, operator.or_),
    Op.XOR: _int_only(Op.XOR, operator.xor),
    Op.SHL: _shift(Op.SHL, operator.lshift),
    Op.SHR: _shift(Op.SHR, operator.rshift),
    Op.EQ: lambda lhs, rhs: int(lhs == rhs),
    Op.NE: lambda lhs, rhs: int(lhs != rhs),
    Op.LT: lambda lhs, rhs: int(lhs < rhs),
    Op.LE: lambda lhs, rhs: int(lhs <= rhs),
    Op.GT: lambda lhs, rhs: int(lhs > rhs),
    Op.GE: lambda lhs, rhs: int(lhs >= rhs),
}

UNOP_FUNCS = {
    Op.NEG: operator.neg,
    Op.NOT: lambda src: int(not src),
}

# The evaluators by operator name, which the translation walk looks up
# (an Op member hashes in Python; its value is a str).
_BINOPS_BY_NAME = {op.value: fn for op, fn in BINOP_FUNCS.items()}
_UNOPS_BY_NAME = {op.value: fn for op, fn in UNOP_FUNCS.items()}

#: The names of the operators that trap on a float operand.  A segment
#: that commits never read a float through one, so none of them has a
#: float extra to test at the commit.
_INT_ONLY_NAMES = frozenset(op.value for op in
                            (Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR))

# ----------------------------------------------------------------------
# Operator expressions
# ----------------------------------------------------------------------
# The source a block template emits for an operator.  ``{a}`` and
# ``{b}`` are names (locals or holes), so an expression may repeat them.
# Every operator is inline: a comparison picks the int 1 or 0 itself,
# and an operator with a trap condition (C99 division, int-only bitwise
# ops, shift counts) runs as one Python operator behind a guard,
# ``type(x) is int`` on both operands (a bool fails it) plus a sign test
# where Python's operator differs from C's.  When the guard fails the
# expression calls the checked wrapper above, so semantics and trap
# messages cannot drift between the two backends.


def _int_guarded(expr: str, helper: str, guard: str = "") -> str:
    return (f"({expr} if type({{a}}) is int and type({{b}}) is int"
            f"{guard} else {helper}({{a}}, {{b}}))")


_INLINE_BINOPS = {
    Op.ADD: "({a} + {b})",
    Op.SUB: "({a} - {b})",
    Op.MUL: "({a} * {b})",
    Op.DIV: _int_guarded("{a} // {b}", "_div", " and {a} >= 0 and {b} > 0"),
    Op.MOD: _int_guarded("{a} % {b}", "_mod", " and {a} >= 0 and {b} > 0"),
    Op.AND: _int_guarded("{a} & {b}", "_op_and"),
    Op.OR: _int_guarded("{a} | {b}", "_op_or"),
    Op.XOR: _int_guarded("{a} ^ {b}", "_op_xor"),
    Op.SHL: _int_guarded("{a} << {b}", "_op_shl", " and {b} >= 0"),
    Op.SHR: _int_guarded("{a} >> {b}", "_op_shr", " and {b} >= 0"),
    Op.EQ: "(1 if {a} == {b} else 0)",
    Op.NE: "(1 if {a} != {b} else 0)",
    Op.LT: "(1 if {a} < {b} else 0)",
    Op.LE: "(1 if {a} <= {b} else 0)",
    Op.GT: "(1 if {a} > {b} else 0)",
    Op.GE: "(1 if {a} >= {b} else 0)",
}

_INLINE_UNOPS = {
    Op.NEG: "(-{a})",
    Op.NOT: "(0 if {a} else 1)",
}

_HELPER_GLOBALS = {
    "_div": _div,
    "_mod": _mod,
    "_op_and": BINOP_FUNCS[Op.AND],
    "_op_or": BINOP_FUNCS[Op.OR],
    "_op_xor": BINOP_FUNCS[Op.XOR],
    "_op_shl": BINOP_FUNCS[Op.SHL],
    "_op_shr": BINOP_FUNCS[Op.SHR],
}


def _binop_source(op: Op, a: str, b: str) -> str:
    return _INLINE_BINOPS[op].format(a=a, b=b)


# ----------------------------------------------------------------------
# Block templates
# ----------------------------------------------------------------------
#
# A shape is the flat tuple ``(needs, tag, field..., tag, field...)``:
# one part per instruction that executes, plus one per segment commit,
# each a tag followed by a fixed number of fields (``_FIELDS``).  Flat,
# it is hashed and compared without nested tuples.  ``needs`` says which
# machine values the block uses.  The translation walk
# (``ThreadedBackend._translate``) appends each part's hole values in the
# order ``_render`` declares them.  The parts, with their holes (a
# bracketed hole only for an operand kind that has one):
#
#   bin op lk rk        dest, [lhs], [rhs]  v = lhs op rhs; E[dest] = v
#   un op sk            dest, [src]         v = op src; E[dest] = v
#   mov sk              dest, [src]         v = src; E[dest] = v
#   const               dest, value         a folded Move, BinOp or UnOp
#   load ak             dest, [addr]        v = memory[addr]; E[dest] = v
#   read                register            v = E[register] (a condition)
#   store ak vk         [addr], [value]     memory[addr] = value
#   call kinds dest     entry, (param, [arg]) per argument, [dest]
#   ncall kinds dest    name, [arg] per argument, [dest]
#   commit n conds      the charges (see _commit)
#   tick n              none: an uncounted commit, the step test alone
#   out                 the outcome
#   branch local        both outcomes; ``local`` holds the condition
#   ret rk              [register]
#   enter               the EnterRegion, the cell its dispatch binds in
#   raise error n       n registers read first, the message
#
# Operand kinds: "r" a register read from ``E``, "i" an immediate, "f" a
# float immediate (whose extra is charged on every execution), each with
# its hole; or a *forwarded* register, which an earlier part of the block
# wrote with no call part in between, named by that part's local
# (``"v3"``) and read from it, with no hole.  A kind is always a string:
# an int or a bool in the same field would merge two shapes, since
# ``True == 1``.  ``kinds`` is a tuple of kinds.  A part's locals are
# named by the position of its tag in the shape (``a3``, ``b3``,
# ``v3``), which is how a commit's float tests, a branch and a forwarded
# operand find them.

#: The number of fields after each tag.
_FIELDS = {"bin": 3, "un": 2, "mov": 1, "const": 0, "load": 1, "read": 0,
           "store": 2, "call": 2, "ncall": 2, "commit": 2, "tick": 1,
           "out": 0, "branch": 1, "ret": 1, "enter": 0, "raise": 2}

#: Bits of ``needs``.
_LOADS, _STORES, _CALLS = 1, 2, 4

#: The machine holes, per ``needs``, in the order the templates declare
#: them: stats, machine, the memory's words, its load, the memory and
#: its store, the by-name call.
_MACHINE_NAMES = tuple(
    ("ST", "M")
    + (("W",) if needs & (_LOADS | _STORES) else ())
    + (("LOAD",) if needs & _LOADS else ())
    + (("MEM", "STORE") if needs & _STORES else ())
    + (("CALL",) if needs & _CALLS else ())
    for needs in range(8)
)

#: Bound on the process-wide template cache, in shapes.  The ALL_ON
#: pass and one Table 5 sweep over every workload compile about 200;
#: past the bound the oldest shape is evicted (it recompiles if it is met
#: again).
_TEMPLATE_CAP = 1024

#: shape -> the code object of its template.  Read without the lock;
#: written under it.
_TEMPLATES: dict[tuple, types.CodeType] = {}
_TEMPLATE_LOCK = threading.Lock()


def _undefined(missing: KeyError):
    raise TrapError(
        f"use of undefined variable {missing.args[0]!r}"
    ) from None


def _over(machine):
    raise MachineError(
        f"step limit {machine.step_limit} exceeded (infinite loop?)"
    )


#: The globals of every template.
_TEMPLATE_GLOBALS = {
    "__builtins__": builtins,
    **_HELPER_GLOBALS,
    "TrapError": TrapError,
    "MachineError": MachineError,
    "_undefined": _undefined,
    "_over": _over,
}


def _operand(operand):
    """``(kind, hole)`` of an operand: ``"r"`` and a register's name,
    ``"i"`` or ``"f"`` and an immediate's value, or ``(None, None)`` for
    an operand nothing can evaluate."""
    kind = type(operand)
    if kind is Reg:
        return "r", operand.name
    if kind is Imm:
        value = operand.value
        return ("f" if type(value) is float else "i"), value
    return None, None


def _use(kind: str, value, written: dict, holes: list) -> str:
    """The shape kind of an operand that ``_operand`` decoded: the local
    of the part that wrote the register earlier in the block, if one did
    (``written`` maps a register to it), else ``kind``, whose hole
    ``value`` is appended."""
    if kind == "r":
        local = written.get(value)
        if local is not None:
            return local
    holes.append(value)
    return kind


def _fail(parts: list, holes: list, error: str, reads, message: str):
    """Append a part that reads the register operands among ``reads``, in
    order (an undefined one traps first), then raises ``error``."""
    regs = [read.name for read in reads if type(read) is Reg]
    parts += ("raise", error, len(regs))
    holes += regs
    holes.append(message)


def _commit(parts: list, holes: list, const: float, count: int,
            extras: list) -> None:
    """Append a segment's commit: ``count`` instructions, whose base terms
    sum to ``const`` and whose float extras are ``extras``, ``(part index,
    extra)`` in occurrence order (index None for an extra every execution
    pays).

    The reference commits ``acc + X``, ``X`` being the applicable extras
    added to ``0.0`` in order.  Leading unconditional extras fold into
    ``X``'s start; with nothing after them the charge is one constant,
    with one conditional extra after them it is one of two constants,
    and otherwise ``X`` is summed when the block runs, in the same order.
    """
    lead = 0.0
    k = 0
    while k < len(extras) and extras[k][0] is None:
        lead += extras[k][1]
        k += 1
    if k == len(extras):
        parts += ("commit", count, ())
        holes.append(const + lead)
    elif k == len(extras) - 1:
        index, extra = extras[k]
        parts += ("commit", count, (index,))
        holes.append(const + (lead + extra))
        holes.append(const + lead)
    else:
        rest = extras[k:]
        parts += ("commit", count, tuple([index for index, _ in rest]))
        holes.append(lead)
        holes += [extra for _, extra in rest]
        holes.append(const)


def _tick(parts: list, holes: list, const: float, count: int,
          extras: list) -> None:
    """Append an uncounted segment's commit: it counts the ``count``
    instructions and tests the step limit, and charges nothing."""
    parts += ("tick", count)


def _float_names(shape: tuple, index: int) -> tuple:
    """The locals holding the operands that the part at ``index`` read
    at run time, whose float type adds the part's extra."""
    tag = shape[index]
    if tag == "mov":   # its own local holds the value it moved
        return (f"v{index}",)
    if tag == "bin":
        operands = (("a", shape[index + 2]), ("b", shape[index + 3]))
    else:  # "un"
        operands = (("a", shape[index + 2]),)
    # A register read from E is in the part's own local, a forwarded one
    # in its writer's (which two operands may share).
    return tuple(dict.fromkeys(f"{local}{index}" if kind == "r" else kind
                               for local, kind in operands
                               if kind != "i" and kind != "f"))


def _float_test(shape: tuple, index: int) -> str:
    """Source true when the part at ``index`` read a float operand."""
    return " or ".join(f"type({name}) is float"
                       for name in _float_names(shape, index))


def _render(shape: tuple) -> str:
    """The source of ``shape``'s template: ``def block(E, <holes>)``.

    Lines that read registers are grouped in ``try`` blocks whose
    handler turns a missing key into the reference's trap; calls, region
    dispatches and commits stay outside them, so a ``KeyError`` from
    anywhere else is never mistaken for an undefined register.
    """
    params: list[str] = []

    def hole() -> str:
        params.append(f"h{len(params)}")
        return params[-1]

    body: list[tuple[bool, str]] = []   # (reads registers, line)

    def operand(kind: str, local: str | None = None) -> str:
        """The expression of an operand of ``kind``, declaring its hole;
        a register read from ``E`` is first bound to ``local``, if one is
        given."""
        if kind == "r":
            read = f"E[{hole()}]"
            if local is None:
                return read
            body.append((True, f"{local} = {read}"))
            return local
        if kind == "i" or kind == "f":
            return hole()
        return kind   # forwarded: the writer's local

    i = 1
    while i < len(shape):
        tag = shape[i]
        part = shape[i:i + 1 + _FIELDS[tag]]
        if tag == "bin":
            _, op, lk, rk = part
            dest = hole()
            lhs = operand(lk, f"a{i}")
            rhs = operand(rk, f"b{i}")
            body.append((True, f"v{i} = {_binop_source(Op(op), lhs, rhs)}"))
            body.append((True, f"E[{dest}] = v{i}"))
        elif tag == "un":
            dest = hole()
            src = operand(part[2], f"a{i}")
            expr = _INLINE_UNOPS[Op(part[1])].format(a=src)
            body += [(True, f"v{i} = {expr}"), (True, f"E[{dest}] = v{i}")]
        elif tag == "mov":
            dest = hole()
            src = operand(part[1], f"v{i}")
            if src != f"v{i}":
                body.append((True, f"v{i} = {src}"))
            body.append((True, f"E[{dest}] = v{i}"))
        elif tag == "const":
            dest, value = hole(), hole()
            body += [(True, f"v{i} = {value}"), (True, f"E[{dest}] = {value}")]
        elif tag == "load":
            dest = hole()
            addr = operand(part[1], f"a{i}")
            body += [
                (True, f"v{i} = W[{addr}] if type({addr}) is int and "
                       f"0 < {addr} < len(W) else LOAD({addr})"),
                (True, f"E[{dest}] = v{i}"),
            ]
        elif tag == "read":
            body.append((True, f"v{i} = E[{hole()}]"))
        elif tag == "store":
            addr = operand(part[1], f"a{i}")
            value = operand(part[2], f"b{i}")
            # Inline only while the memory logs no store (annotation
            # checking may start watching mid-run).
            body += [
                (True, f"if type({addr}) is int and 0 < {addr} < len(W) "
                       "and MEM._watch is None:"),
                (True, f"    W[{addr}] = {value}"),
                (True, "else:"),
                (True, f"    STORE({addr}, {value})"),
            ]
        elif tag == "call" or tag == "ncall":
            _, kinds, has_dest = part
            target = hole()
            args = []
            for kind in kinds:
                key = f"{hole()}: " if tag == "call" else ""
                args.append(key + operand(kind))
            if tag == "call":
                body.append((True, f"f{i} = {{{', '.join(args)}}}"))
                call = f"{target}(f{i})"
            else:
                body.append((True, f"f{i} = [{', '.join(args)}]"))
                call = f"CALL({target}, f{i})"
            body.append((False, f"E[{hole()}] = {call}" if has_dest else call))
        elif tag == "commit" or tag == "tick":
            # A tick charges nothing; both end in the step test.
            if tag == "commit":
                conds = part[2]
                if not conds:
                    charge = hole()
                elif len(conds) == 1:
                    taken, untaken = hole(), hole()
                    charge = (f"{taken} if {_float_test(shape, conds[0])} "
                              f"else {untaken}")
                else:
                    # A local that several extras test is type-tested
                    # once, into ``F<local>``; the extras are still
                    # added to X in occurrence order.
                    names = {index: _float_names(shape, index)
                             for index in conds if index is not None}
                    uses = collections.Counter(
                        name for group in names.values() for name in group)
                    tests = {name: f"F{name}" if n > 1
                             else f"type({name}) is float"
                             for name, n in uses.items()}
                    body += [(False, f"F{name} = type({name}) is float")
                             for name, n in uses.items() if n > 1]
                    body.append((False, f"X = {hole()}"))
                    for index in conds:
                        extra = hole()
                        if index is None:
                            body.append((False, f"X += {extra}"))
                        else:
                            test = " or ".join(tests[name]
                                               for name in names[index])
                            body += [(False, f"if {test}:"),
                                     (False, f"    X += {extra}")]
                    charge = f"{hole()} + X"
                body.append((False, f"ST.cycles += {charge}"))
            body += [
                (False, f"t = ST.instructions + {part[1]}"),
                (False, "ST.instructions = t"),
                (False, "if t > M.step_limit:"),
                (False, "    _over(M)"),
            ]
        elif tag == "out":
            body.append((False, f"return {hole()}"))
        elif tag == "branch":
            taken, untaken = hole(), hole()
            body.append((False,
                         f"return {taken} if {part[1]} else {untaken}"))
        elif tag == "ret":
            body.append((part[1] == "r",
                         f"return ('return', {operand(part[1])})"))
        elif tag == "enter":
            instr, held = hole(), hole()
            body += [
                (False, f"d = {held}[0]"),
                (False, "if d is None:"),
                (False, f"    d = {held}[0] = M.bind_entry({instr})"),
                (False, "return d(E)"),
            ]
        else:  # "raise"
            _, error, reads = part
            body += [(True, f"E[{hole()}]") for _ in range(reads)]
            body.append((False, f"raise {error}({hole()})"))
        i += len(part)
    params += _MACHINE_NAMES[shape[0]]
    lines = [f"def block(E, {', '.join(params)}):"]
    for reads, group in itertools.groupby(body, key=lambda item: item[0]):
        group = ["    " + line for _, line in group]
        if reads:
            lines += ["    try:", *("    " + line for line in group),
                      "    except KeyError as missing:",
                      "        _undefined(missing)"]
        else:
            lines += group
    return "\n".join(lines) + "\n"


def _template(shape: tuple) -> types.CodeType:
    """The code object of ``shape``'s template, compiled on first use."""
    with _TEMPLATE_LOCK:
        code = _TEMPLATES.get(shape)
        if code is None:
            module = compile(_render(shape), "<threaded block>", "exec")
            code = next(const for const in module.co_consts
                        if isinstance(const, types.CodeType))
            if len(_TEMPLATES) >= _TEMPLATE_CAP:
                del _TEMPLATES[next(iter(_TEMPLATES))]
            _TEMPLATES[shape] = code
        return code


class _Terms:
    """The charge terms of one penalty and scale, each computed once by
    the shared helpers: the flat terms of the fixed-cost instructions and
    of materializing an int or a float immediate, a register move's
    (base, extra), and in ``ops`` an operator's (base, extra) by name,
    added by :meth:`op` on first use."""

    def __init__(self, costs, penalty: float, scale: float) -> None:
        self.costs = costs
        self.penalty = penalty
        self.scale = scale
        self.flat = tuple(
            flat_term(cost, scale, penalty)
            for cost in (costs.jump, costs.branch, costs.return_cost,
                         costs.load, costs.store,
                         costs.materialize_cost(False),
                         costs.materialize_cost(True))
        )
        self.move = move_terms(costs, scale, penalty)
        self.ops: dict = {}

    def op(self, name: str):
        """``name``'s (base, extra), ``"alu"`` for a unary operator;
        None for a name that is no binary operator."""
        terms = None
        if name in _BINOPS_BY_NAME or name == "alu":
            terms = binop_terms(self.costs, name, self.scale, self.penalty)
        self.ops[name] = terms
        return terms


class _Translation:
    __slots__ = ("function", "version", "penalty", "scale", "runners")

    def __init__(self, function: Function, penalty: float, scale: float,
                 runners: dict):
        self.function = function
        self.version = function.version
        self.penalty = penalty
        self.scale = scale
        self.runners = runners


class ThreadedBackend:
    """Per-machine translator + drivers for the threaded backend."""

    def __init__(self, machine) -> None:
        self.machine = machine
        #: id(function) -> _Translation.  Entries hold a strong reference
        #: to their Function, so a cached id can never be recycled by a
        #: different object.
        self._cache: dict[int, _Translation] = {}
        #: id(host function) -> (function, its bound host loop).
        self._hosts: dict[int, tuple] = {}
        #: id(region code) -> [code, footprint, penalty, translation]:
        #: what an entry needs, kept per code version (same
        #: strong-reference guarantee).
        self._regions: dict[int, list] = {}
        #: The machine's memory when ``_machine_holes`` was built, and
        #: the templates' machine holes per ``needs``.
        self._memory = None
        self._machine_holes: list[tuple] = []
        #: (penalty, scale) -> the charge terms a translation uses.
        self._terms: dict[tuple, _Terms] = {}
        #: What a segment ends in: a counted commit, or an uncounted
        #: tick on ``threaded_fast``.
        self._commit = (_commit if machine.backend in COUNTED_BACKENDS
                        else _tick)

    # -- cache ----------------------------------------------------------

    def translation(self, fn: Function, penalty: float,
                    scale: float) -> _Translation:
        entry = self._cache.get(id(fn))
        if (entry is not None and entry.function is fn
                and entry.version == fn.version
                and entry.penalty == penalty
                and entry.scale == scale):
            return entry
        entry = self._translate(fn, penalty, scale)
        self._cache[id(fn)] = entry
        return entry

    # -- drivers --------------------------------------------------------

    def host_loop(self, function: Function):
        """The host loop of ``function``, bound once per backend:
        ``run(frame) -> result``.

        It holds the function's translation and checks only
        ``Function.version`` per call; the I-cache penalty is computed
        only when a translation is built.
        """
        bound = self._hosts.get(id(function))
        if bound is not None and bound[0] is function:
            return bound[1]
        machine = self.machine
        held: list = [None]

        def run(env, _held=held, _fn=function, _m=machine):
            trans = _held[0]
            if trans is None or trans.version != _fn.version:
                penalty = _m.icache.per_instruction_penalty(
                    _fn.instruction_count()
                )
                scale = _m.costs.static_schedule_factor
                trans = _held[0] = self.translation(_fn, penalty, scale)
            runners = trans.runners
            label = _fn.entry
            while True:
                # An EnterRegion block dispatches from its finish and
                # returns the region's ("jump", exit) or ("return", v).
                kind, payload = runners[label](env)
                if kind == "jump":
                    label = payload
                elif kind == "return":
                    return payload
                else:  # pragma: no cover - defensive
                    raise MachineError(
                        f"unexpected block outcome {kind!r}"
                    )

        self._hosts[id(function)] = (function, run)
        return run

    def exec_region_code(self, code: Function, env: dict,
                         footprint: int) -> tuple[str, object]:
        """Threaded equivalent of ``Machine._exec_region_interp``.

        The penalty is fixed at entry (from ``footprint``), matching the
        reference; it is kept per ``(code, footprint)`` and the
        translation per ``Function.version``, so an entry into code that
        has not changed computes neither.  The translation is
        revalidated at every block boundary because promotions patch the
        code buffer mid-execution.
        """
        machine = self.machine
        bound = self._regions.get(id(code))
        if bound is None or bound[0] is not code or bound[1] != footprint:
            penalty = machine.icache.per_instruction_penalty(footprint)
            bound = [code, footprint, penalty, None]
            self._regions[id(code)] = bound
        penalty = bound[2]
        trans = bound[3]
        runners = trans.runners if trans is not None else None
        version = trans.version if trans is not None else None
        label = code.entry
        while True:
            if code.version != version:
                trans = bound[3] = self.translation(code, penalty, 1.0)
                runners = trans.runners
                version = trans.version
            kind, payload = runners[label](env)
            if kind == "jump":
                label = payload
            elif kind in ("exit", "return"):
                return (kind, payload)
            elif kind == "promote":
                label = machine.runtime.promote(machine, payload, env,
                                                code)
            else:  # pragma: no cover - defensive
                raise MachineError(
                    f"unexpected outcome {kind!r} in region code"
                )


    # -- translation ----------------------------------------------------

    def _translate(self, fn: Function, penalty: float,
                   scale: float) -> _Translation:
        machine = self.machine
        memory = machine.memory
        if self._memory is not memory:
            # The machine holes, per ``needs``; rebuilt only if a harness
            # swaps the machine's memory between runs.
            values = {"ST": machine.stats, "M": machine,
                      "W": memory._words, "LOAD": memory.load,
                      "MEM": memory, "STORE": memory.store,
                      "CALL": machine.call}
            self._machine_holes = [tuple(values[name] for name in names)
                                   for names in _MACHINE_NAMES]
            self._memory = memory
        terms = self._terms.get((penalty, scale))
        if terms is None:
            terms = self._terms[(penalty, scale)] = _Terms(
                machine.costs, penalty, scale)
        jump, branch, ret, load, store, int_const, float_const = terms.flat
        move_base, move_extra = terms.move
        ops = terms.ops
        machine_holes = self._machine_holes
        templates = _TEMPLATES
        new_function = types.FunctionType
        template_globals = _TEMPLATE_GLOBALS
        use = _use
        int_only = _INT_ONLY_NAMES
        commit = self._commit
        runners = {}
        # Each block is walked into its shape and holes, then built from
        # the shape's template.
        for label, block in fn.blocks.items():
            parts: list = [0]      # the shape; needs goes first
            holes: list = []
            needs = 0
            # The open segment: base terms, instruction count, float
            # extras.
            const = 0.0
            count = 0
            extras: list = []
            # Each register a part of the block wrote since the last
            # call part -> that part's local, which a later read of the
            # register uses instead of ``E``.
            written: dict = {}
            # The part that ends the block after its last commit, and
            # its holes; None when the block raises before any commit.
            end = None
            for instr in block.instrs:
                cls = type(instr)
                if cls is BinOp:
                    name = instr.op._value_
                    lhs = instr.lhs
                    rhs = instr.rhs
                    lk, lv = _operand(lhs)
                    if lk is None:
                        _fail(parts, holes, "TrapError", (),
                              f"cannot evaluate operand {lhs!r}")
                        break
                    rk, rv = _operand(rhs)
                    if rk is None:
                        _fail(parts, holes, "TrapError", (lhs,),
                              f"cannot evaluate operand {rhs!r}")
                        break
                    try:
                        charge = ops[name]
                    except KeyError:
                        charge = terms.op(name)
                    if charge is None:
                        _fail(parts, holes, "TrapError", (lhs, rhs),
                              f"{name} is not a binary operator")
                        break
                    const += charge[0]
                    count += 1
                    dest = instr.dest
                    at = len(parts)
                    if lk == "r" or rk == "r":
                        # A float operand of an int-only operator traps
                        # before the commit: it has no extra to test.
                        if name not in int_only:
                            extras.append((None if lk == "f" or rk == "f"
                                           else at, charge[1]))
                        holes.append(dest)
                        parts += ("bin", name, use(lk, lv, written, holes),
                                  use(rk, rv, written, holes))
                        written[dest] = f"v{at}"
                        continue
                    try:
                        value = _BINOPS_BY_NAME[name](lv, rv)
                    except TrapError as trap:
                        # Raised when reached, as the reference raises it.
                        _fail(parts, holes, "TrapError", (), str(trap))
                        break
                    if lk == "f" or rk == "f":
                        extras.append((None, charge[1]))
                    parts.append("const")
                    holes += (dest, value)
                    written[dest] = f"v{at}"
                elif cls is Branch:
                    cond = instr.cond
                    if type(cond) is Reg:
                        cv = cond.name
                        const += branch
                        count += 1
                        # The condition is read before the commit, as the
                        # reference reads it, unless a part wrote it.
                        local = written.get(cv)
                        if local is None:
                            local = f"v{len(parts)}"
                            parts.append("read")
                            holes.append(cv)
                        end = "branch", local
                        end_holes = (("jump", instr.if_true),
                                     ("jump", instr.if_false))
                        break
                    ck, cv = _operand(cond)
                    if ck is None:
                        _fail(parts, holes, "TrapError", (),
                              f"cannot evaluate operand {cond!r}")
                        break
                    const += branch
                    count += 1
                    end = ("out",)
                    end_holes = (("jump", instr.if_true if cv
                                  else instr.if_false),)
                    break
                elif cls is Jump:
                    const += jump
                    count += 1
                    end = ("out",)
                    end_holes = (("jump", instr.target),)
                    break
                elif cls is ExitRegion:
                    const += jump
                    count += 1
                    end = ("out",)
                    end_holes = (("exit", instr.index),)
                    break
                elif cls is Return:
                    # The reference commits first, then reads the value.
                    const += ret
                    count += 1
                    value = instr.value
                    if value is None:
                        end = ("out",)
                        end_holes = (("return", None),)
                    elif type(value) is Reg:
                        end_holes = []
                        end = ("ret", use("r", value.name, written,
                                          end_holes))
                    elif type(value) is Imm:
                        end = ("out",)
                        end_holes = (("return", value.value),)
                    else:
                        end = ("raise", "TrapError", 0)
                        end_holes = (
                            f"cannot evaluate operand {value!r}",)
                    break
                elif cls is Move:
                    src = instr.src
                    count += 1
                    dest = instr.dest
                    at = len(parts)
                    if type(src) is Reg:
                        const += move_base
                        extras.append((at, move_extra))
                        holes.append(dest)
                        parts += ("mov", use("r", src.name, written, holes))
                        written[dest] = f"v{at}"
                        continue
                    sk, sv = _operand(src)
                    if sk is None:
                        _fail(parts, holes, "TrapError", (),
                              f"cannot evaluate operand {src!r}")
                        break
                    const += float_const if sk == "f" else int_const
                    parts.append("const")
                    holes += (dest, sv)
                    written[dest] = f"v{at}"
                elif cls is Load:
                    ak, av = _operand(instr.addr)
                    if ak is None:
                        _fail(parts, holes, "TrapError", (),
                              f"cannot evaluate operand {instr.addr!r}")
                        break
                    const += load
                    count += 1
                    needs |= _LOADS
                    dest = instr.dest
                    at = len(parts)
                    holes.append(dest)
                    parts += ("load", use(ak, av, written, holes))
                    written[dest] = f"v{at}"
                elif cls is Store:
                    ak, av = _operand(instr.addr)
                    if ak is None:
                        _fail(parts, holes, "TrapError", (),
                              f"cannot evaluate operand {instr.addr!r}")
                        break
                    vk, vv = _operand(instr.value)
                    if vk is None:
                        _fail(parts, holes, "TrapError", (instr.addr,),
                              f"cannot evaluate operand {instr.value!r}")
                        break
                    const += store
                    count += 1
                    needs |= _STORES
                    parts += ("store", use(ak, av, written, holes),
                              use(vk, vv, written, holes))
                elif cls is Call:
                    # A call ends the segment: the reference commits before
                    # it reads the arguments.
                    count += 1
                    commit(parts, holes, const, count, extras)
                    const = 0.0
                    count = 0
                    extras = []
                    call_needs = self._call(instr, parts, holes, written)
                    if call_needs is None:
                        break
                    needs |= call_needs
                    written = {}
                elif cls is UnOp:
                    name = instr.op._value_
                    sk, sv = _operand(instr.src)
                    if sk is None:
                        _fail(parts, holes, "TrapError", (),
                              f"cannot evaluate operand {instr.src!r}")
                        break
                    unop = _UNOPS_BY_NAME.get(name)
                    if unop is None:
                        _fail(parts, holes, "TrapError", (instr.src,),
                              f"{name} is not a unary operator")
                        break
                    charge = ops.get("alu") or terms.op("alu")
                    const += charge[0]
                    count += 1
                    dest = instr.dest
                    at = len(parts)
                    if sk == "r":
                        extras.append((at, charge[1]))
                        holes.append(dest)
                        parts += ("un", name, use(sk, sv, written, holes))
                    else:
                        if sk == "f":
                            extras.append((None, charge[1]))
                        parts.append("const")
                        holes += (dest, unop(sv))
                    written[dest] = f"v{at}"
                elif cls is MakeStatic or cls is MakeDynamic:
                    pass   # annotations execute for free in every backend
                elif cls is EnterRegion:
                    count += 1
                    end = ("enter",)
                    end_holes = (instr, [None])
                    break
                elif cls is Promote:
                    count += 1
                    end = ("out",)
                    end_holes = (("promote", instr),)
                    break
                else:
                    _fail(parts, holes, "MachineError", (),
                          f"cannot execute {cls.__name__}")
                    break
            else:
                # Fell off the end: charge the straight-line part, then fail
                # exactly as the reference does.
                end = ("raise", "MachineError", 0)
                end_holes = (f"block {block.label!r} fell through without a "
                             "terminator",)
            if end is not None:
                commit(parts, holes, const, count, extras)
                parts += end
                holes += end_holes
            parts[0] = needs
            shape = tuple(parts)
            try:
                code = templates[shape]
            except KeyError:
                code = _template(shape)
            runners[label] = new_function(
                code, template_globals, None,
                (*holes, *machine_holes[needs]))
        return _Translation(fn, penalty, scale, runners)

    def _call(self, instr: Call, parts: list, holes: list,
              written: dict):
        """Append a call's part, after its segment's commit, and return
        the ``needs`` bits it adds; None when the call raises instead (an
        argument nothing can evaluate, or a module function of another
        arity).  An argument that a part of the segment wrote is read
        from the part's local (``written``)."""
        args = []
        for arg in instr.args:
            kind, value = _operand(arg)
            if kind is None:
                _fail(parts, holes, "TrapError", instr.args[:len(args)],
                      f"cannot evaluate operand {arg!r}")
                return None
            args.append((kind, value))
        callee = instr.callee
        dest = instr.dest
        # A module function (which shadows an intrinsic of the same name)
        # is bound now; any other name resolves when the call executes,
        # so an undefined callee raises only if it is reached.
        function = self.machine.module.functions.get(callee)
        if function is None:
            holes.append(callee)
            kinds = tuple([_use(kind, value, written, holes)
                           for kind, value in args])
            parts += ("ncall", kinds, dest is not None)
            needs = _CALLS
        elif len(function.params) != len(args):
            _fail(parts, holes, "MachineError", instr.args,
                  f"{callee}() takes {len(function.params)} args, "
                  f"got {len(args)}")
            return None
        else:
            holes.append(self.machine.bind_call(function))
            kinds = []
            for param, (kind, value) in zip(function.params, args):
                holes.append(param)
                kinds.append(_use(kind, value, written, holes))
            parts += ("call", tuple(kinds), dest is not None)
            needs = 0
        if dest is not None:
            holes.append(dest)
        return needs
