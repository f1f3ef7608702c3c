"""IR instruction set.

Instructions are small immutable dataclasses.  Operands are either
:class:`Reg` (a named virtual register / variable), :class:`Imm` (an
immediate constant), or — only inside dynamic-compilation templates —
:class:`Hole` (a placeholder for a value that becomes known at dynamic
compile time, per DyC's template/set-up split).

The instruction set is deliberately small and C-flavoured:

======================  =====================================================
``Move d, s``           copy (register or immediate source)
``UnOp d, op, s``       unary arithmetic/logic
``BinOp d, op, a, b``   binary arithmetic/logic/comparison
``Load d, [a]``         load from flat memory; ``static=True`` marks DyC's
                        ``@`` annotation (load from invariant data)
``Store [a], v``        store to flat memory
``Call d, f(args)``     call; ``static=True`` marks a ``pure``-annotated call
``Jump L``              unconditional terminator
``Branch c, Lt, Lf``    conditional terminator
``Return v``            function return terminator
``MakeStatic``          DyC annotation: begin specializing on variables
``MakeDynamic``         DyC annotation: stop specializing on variables
``Promote``             terminator in *specialized* code only: internal
                        dynamic-to-static promotion point (lazy dispatch)
``EnterRegion``         terminator in *dynamically compiled host* code only:
                        dispatch into a dynamic region's code cache
======================  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Op(enum.Enum):
    """Operators for ``UnOp`` and ``BinOp``.

    Comparison operators yield the integers 0 or 1, as in C.  Arithmetic is
    polymorphic over ints and floats; ``DIV``/``MOD`` follow C semantics
    (truncation toward zero) when both operands are integers.  Which
    operators each instruction takes, and what each computes, is defined
    once, by the evaluator tables of :mod:`repro.ir.eval`.
    """

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    NEG = "neg"
    NOT = "not"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Commutative binary operators (used by CSE).
COMMUTATIVE_OPS = frozenset({
    Op.ADD, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.EQ, Op.NE,
})


@dataclass(frozen=True)
class Reg:
    """A named virtual register (a source variable or compiler temporary)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """An immediate constant operand (int or float)."""

    value: int | float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Hole:
    """A template placeholder filled at dynamic compile time.

    ``name`` identifies the static variable whose run-time-constant value
    fills the hole.  Holes never appear in executable code; the runtime
    specializer replaces each with an :class:`Imm` (or a register when the
    value cannot be encoded as an immediate).
    """

    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


Operand = Reg | Imm | Hole


def operand_regs(operand: Operand) -> tuple[str, ...]:
    """Names of registers read by ``operand`` (empty for Imm/Hole)."""
    if isinstance(operand, Reg):
        return (operand.name,)
    return ()


class Instr:
    """Base class for IR instructions.

    Subclasses provide ``uses()`` (register names read) and ``defs()``
    (register names written) so that dataflow analyses can treat all
    instructions uniformly.
    """

    def uses(self) -> tuple[str, ...]:
        return ()

    def defs(self) -> tuple[str, ...]:
        return ()

    def operands(self) -> tuple[Operand, ...]:
        return ()

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, TERMINATORS)

    def successors(self) -> tuple[str, ...]:
        """Labels of successor blocks (terminators only)."""
        return ()


@dataclass(frozen=True)
class Move(Instr):
    """``dest = src`` — register-to-register copy or constant materialize."""

    dest: str
    src: Operand

    def uses(self) -> tuple[str, ...]:
        return operand_regs(self.src)

    def defs(self) -> tuple[str, ...]:
        return (self.dest,)

    def operands(self) -> tuple[Operand, ...]:
        return (self.src,)


@dataclass(frozen=True)
class UnOp(Instr):
    """``dest = op src``."""

    dest: str
    op: Op
    src: Operand

    def uses(self) -> tuple[str, ...]:
        return operand_regs(self.src)

    def defs(self) -> tuple[str, ...]:
        return (self.dest,)

    def operands(self) -> tuple[Operand, ...]:
        return (self.src,)


@dataclass(frozen=True)
class BinOp(Instr):
    """``dest = lhs op rhs``."""

    dest: str
    op: Op
    lhs: Operand
    rhs: Operand

    def uses(self) -> tuple[str, ...]:
        return operand_regs(self.lhs) + operand_regs(self.rhs)

    def defs(self) -> tuple[str, ...]:
        return (self.dest,)

    def operands(self) -> tuple[Operand, ...]:
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class Load(Instr):
    """``dest = memory[addr]``.

    ``static=True`` corresponds to DyC's ``@`` annotation: the programmer
    asserts the loaded location is invariant, so when ``addr`` is a run-time
    constant the load may be performed once at dynamic compile time.
    """

    dest: str
    addr: Operand
    static: bool = False

    def uses(self) -> tuple[str, ...]:
        return operand_regs(self.addr)

    def defs(self) -> tuple[str, ...]:
        return (self.dest,)

    def operands(self) -> tuple[Operand, ...]:
        return (self.addr,)


@dataclass(frozen=True)
class Store(Instr):
    """``memory[addr] = value``."""

    addr: Operand
    value: Operand

    def uses(self) -> tuple[str, ...]:
        return operand_regs(self.addr) + operand_regs(self.value)

    def operands(self) -> tuple[Operand, ...]:
        return (self.addr, self.value)


@dataclass(frozen=True)
class Call(Instr):
    """``dest = callee(args...)``; ``dest`` may be ``None`` for void calls.

    ``static=True`` corresponds to DyC's ``pure``-function annotation: the
    programmer asserts the callee is side-effect free, so a call with all
    run-time-constant arguments may be evaluated once at dynamic compile
    time (memoized through dynamic compilation, per §2.2.6).
    """

    dest: str | None
    callee: str
    args: tuple[Operand, ...]
    static: bool = False

    def uses(self) -> tuple[str, ...]:
        names: list[str] = []
        for arg in self.args:
            names.extend(operand_regs(arg))
        return tuple(names)

    def defs(self) -> tuple[str, ...]:
        return (self.dest,) if self.dest is not None else ()

    def operands(self) -> tuple[Operand, ...]:
        return self.args


@dataclass(frozen=True)
class Jump(Instr):
    """Unconditional jump to ``target``."""

    target: str

    def successors(self) -> tuple[str, ...]:
        return (self.target,)


@dataclass(frozen=True)
class Branch(Instr):
    """Conditional branch: nonzero ``cond`` goes to ``if_true``."""

    cond: Operand
    if_true: str
    if_false: str

    def uses(self) -> tuple[str, ...]:
        return operand_regs(self.cond)

    def operands(self) -> tuple[Operand, ...]:
        return (self.cond,)

    def successors(self) -> tuple[str, ...]:
        return (self.if_true, self.if_false)


@dataclass(frozen=True)
class Return(Instr):
    """Return from the current function, optionally with a value."""

    value: Operand | None = None

    def uses(self) -> tuple[str, ...]:
        if self.value is None:
            return ()
        return operand_regs(self.value)

    def operands(self) -> tuple[Operand, ...]:
        return (self.value,) if self.value is not None else ()


@dataclass(frozen=True)
class MakeStatic(Instr):
    """DyC annotation: start specializing downstream code on ``names``.

    ``policy`` selects the dispatch/caching policy for promotions of these
    variables (see :mod:`repro.bta.annotations`).  The annotation is a
    no-op when executed by the plain interpreter (the statically compiled
    configuration ignores annotations, per §3.3 of the paper).
    """

    names: tuple[str, ...]
    policy: str = "cache_all"

    # Note: annotations deliberately report no uses.  A variable listed in
    # ``make_static`` before its first assignment (the paper's Figure 2
    # annotates the loop indices crow/ccol this way) is not live at the
    # annotation; the BTA keys the region-entry promotion on the annotated
    # variables that *are* live there.


@dataclass(frozen=True)
class MakeDynamic(Instr):
    """DyC annotation: stop specializing on ``names`` downstream."""

    names: tuple[str, ...]


@dataclass(frozen=True)
class Promote(Instr):
    """Terminator in specialized code: internal dynamic-to-static promotion.

    Executing it dispatches on the current values of ``keys`` through the
    promotion point's code cache, lazily specializing the continuation the
    first time each key tuple is seen (multi-stage specialization, §2.2.2).
    """

    region_id: int
    point_id: int
    keys: tuple[str, ...]
    policy: str = "cache_all"
    #: Unique id of this *emitted instance* (distinct specializations of
    #: the same promotion point get distinct ids); the runtime uses it to
    #: find the pending continuation and its per-instance code cache.
    emission_id: int = -1

    def uses(self) -> tuple[str, ...]:
        return self.keys


@dataclass(frozen=True)
class EnterRegion(Instr):
    """Terminator in host code: dispatch into a dynamic region.

    ``keys`` are the variables promoted at region entry; their current
    values select (or create) a specialized version in the region's code
    cache.  ``exits`` lists the host-function labels at which the region
    may resume, so the host CFG remains well formed.
    """

    region_id: int
    keys: tuple[str, ...]
    exits: tuple[str, ...] = field(default=())
    policy: str = "cache_all"

    def uses(self) -> tuple[str, ...]:
        return self.keys

    def successors(self) -> tuple[str, ...]:
        return self.exits


@dataclass(frozen=True)
class ExitRegion(Instr):
    """Terminator in *specialized* code only: leave the dynamic region.

    ``index`` selects which host-function exit label (of the owning
    ``EnterRegion``'s ``exits``) execution resumes at.
    """

    index: int


#: Instruction classes that terminate a basic block.
TERMINATORS = (Jump, Branch, Return, Promote, EnterRegion, ExitRegion)
