"""Global constant propagation and folding.

A forward dataflow over a flat constant lattice (unknown ⊑ const ⊑ many),
solved by :func:`repro.analysis.framework.solve`, followed by a
rewriting sweep that substitutes known constants into operands, folds
fully constant expressions, and turns constant branches into jumps.
"""

from __future__ import annotations

import math

from repro.analysis.framework import DataflowProblem, solve
from repro.errors import TrapError
from repro.ir.eval import eval_binop, eval_unop
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Imm,
    Instr,
    Jump,
    Load,
    Move,
    Operand,
    Reg,
    UnOp,
)

# Lattice: a variable maps to a concrete value when known-constant.
# Absence from the map means "not a constant" (bottom).  The special
# _UNDEF marker means "no information yet" (top) and only appears while
# merging.
_UNDEF = object()

ConstMap = dict[str, object]


def _same(a, b) -> bool:
    """True when constants ``a`` and ``b`` are interchangeable: same type
    and value, with ``0.0`` and ``-0.0`` apart (``1 == 1.0`` and
    ``0.0 == -0.0`` in Python, but they compute different results)."""
    if type(a) is not type(b) or a != b:
        return False
    return not isinstance(a, float) \
        or math.copysign(1.0, a) == math.copysign(1.0, b)


def _merge(a: ConstMap, b: ConstMap) -> ConstMap:
    return {
        name: value for name, value in a.items()
        if name in b and _same(value, b[name])
    }


def _transfer(block, consts: ConstMap) -> ConstMap:
    consts = dict(consts)
    for instr in block.instrs:
        _apply_instr(instr, consts)
    return consts


def _apply_instr(instr: Instr, consts: ConstMap) -> None:
    if isinstance(instr, Move):
        value = _operand_value(instr.src, consts)
        _set(consts, instr.dest, value)
    elif isinstance(instr, UnOp):
        src = _operand_value(instr.src, consts)
        if src is not _UNDEF:
            try:
                _set(consts, instr.dest, eval_unop(instr.op, src))
                return
            except TrapError:
                pass
        _set(consts, instr.dest, _UNDEF)
    elif isinstance(instr, BinOp):
        lhs = _operand_value(instr.lhs, consts)
        rhs = _operand_value(instr.rhs, consts)
        if lhs is not _UNDEF and rhs is not _UNDEF:
            try:
                _set(consts, instr.dest, eval_binop(instr.op, lhs, rhs))
                return
            except TrapError:
                pass
        _set(consts, instr.dest, _UNDEF)
    else:
        for name in instr.defs():
            _set(consts, name, _UNDEF)


def _set(consts: ConstMap, name: str, value) -> None:
    if value is _UNDEF:
        consts.pop(name, None)
    else:
        consts[name] = value


def _operand_value(operand: Operand, consts: ConstMap):
    if isinstance(operand, Imm):
        return operand.value
    if isinstance(operand, Reg) and operand.name in consts:
        return consts[operand.name]
    return _UNDEF


def _subst(operand: Operand, consts: ConstMap) -> Operand:
    if isinstance(operand, Reg) and operand.name in consts:
        return Imm(consts[operand.name])
    return operand


class _Constants(DataflowProblem[ConstMap]):
    def boundary(self, function: Function) -> ConstMap:
        return {}

    def initial(self, function: Function, label: str) -> ConstMap:
        return {}

    def join(self, a: ConstMap, b: ConstMap) -> ConstMap:
        return _merge(a, b)

    def transfer(self, function: Function, label: str,
                 consts: ConstMap) -> ConstMap:
        return _transfer(function.blocks[label], consts)

    def equal(self, a: ConstMap, b: ConstMap) -> bool:
        # Two NaN constants for a name count as unchanged: each visit
        # folds a new NaN object, and ``nan != nan`` would re-queue a
        # loop whose entry block is pinned to the boundary forever.
        return a == b or (a.keys() == b.keys() and all(
            value == b[name] or (value != value and b[name] != b[name])
            for name, value in a.items()))


def constant_propagation(function: Function) -> bool:
    """Propagate and fold constants; returns True if anything changed."""
    entry_consts = solve(function, _Constants()).before

    # --- rewrite using the computed entry states ---
    rewrote = False
    for label, entry in entry_consts.items():
        block = function.blocks[label]
        consts = dict(entry)
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            replacement = _rewrite(instr, consts)
            if replacement is not instr:
                rewrote = True
            _apply_instr(replacement, consts)
            new_instrs.append(replacement)
        block.instrs = new_instrs
    if rewrote:
        function.remove_unreachable_blocks()
    return rewrote


def _rewrite(instr: Instr, consts: ConstMap) -> Instr:
    if isinstance(instr, Move):
        src = _subst(instr.src, consts)
        return instr if src is instr.src else Move(instr.dest, src)
    if isinstance(instr, UnOp):
        src = _subst(instr.src, consts)
        if isinstance(src, Imm):
            try:
                return Move(instr.dest, Imm(eval_unop(instr.op, src.value)))
            except TrapError:
                pass
        return instr if src is instr.src else UnOp(instr.dest, instr.op, src)
    if isinstance(instr, BinOp):
        lhs = _subst(instr.lhs, consts)
        rhs = _subst(instr.rhs, consts)
        if isinstance(lhs, Imm) and isinstance(rhs, Imm):
            try:
                value = eval_binop(instr.op, lhs.value, rhs.value)
                return Move(instr.dest, Imm(value))
            except TrapError:
                pass
        if lhs is instr.lhs and rhs is instr.rhs:
            return instr
        return BinOp(instr.dest, instr.op, lhs, rhs)
    if isinstance(instr, Load):
        addr = _subst(instr.addr, consts)
        if addr is instr.addr:
            return instr
        return Load(instr.dest, addr, static=instr.static)
    if isinstance(instr, Branch):
        cond = _subst(instr.cond, consts)
        if isinstance(cond, Imm):
            target = instr.if_true if cond.value else instr.if_false
            return Jump(target)
        if cond is instr.cond:
            return instr
        return Branch(cond, instr.if_true, instr.if_false)
    if isinstance(instr, Call):
        args = tuple(_subst(a, consts) for a in instr.args)
        if args == instr.args:
            return instr
        return Call(instr.dest, instr.callee, args, static=instr.static)
    # Store and other instructions: substitute operands where possible.
    from repro.ir.instructions import Return, Store

    if isinstance(instr, Return) and instr.value is not None:
        value = _subst(instr.value, consts)
        if value is instr.value:
            return instr
        return Return(value)
    if isinstance(instr, Store):
        addr = _subst(instr.addr, consts)
        value = _subst(instr.value, consts)
        if addr is instr.addr and value is instr.value:
            return instr
        return Store(addr, value)
    return instr
