"""Global copy propagation.

A forward dataflow of available copies (``dest`` currently equals ``src``)
with intersection at joins, solved by
:func:`repro.analysis.framework.solve`, followed by a sweep that rewrites
uses of copy destinations to their sources.  Leaves the now-possibly-dead
copies for dead-code elimination to sweep up.
"""

from __future__ import annotations

from repro.analysis.framework import DataflowProblem, solve
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Instr,
    Load,
    Move,
    Operand,
    Reg,
    Return,
    Store,
    UnOp,
)

CopyMap = dict[str, str]  # dest -> src, meaning dest == src here


def _kill(copies: CopyMap, name: str) -> None:
    copies.pop(name, None)
    for dest in [d for d, s in copies.items() if s == name]:
        del copies[dest]


def _transfer(block, copies: CopyMap) -> CopyMap:
    copies = dict(copies)
    for instr in block.instrs:
        _apply(instr, copies)
    return copies


def _apply(instr: Instr, copies: CopyMap) -> None:
    if isinstance(instr, Move) and isinstance(instr.src, Reg):
        if instr.src.name != instr.dest:
            _kill(copies, instr.dest)
            copies[instr.dest] = instr.src.name
        return
    for name in instr.defs():
        _kill(copies, name)


def _merge(a: CopyMap, b: CopyMap) -> CopyMap:
    return {dest: src for dest, src in a.items() if b.get(dest) == src}


def _subst(operand: Operand, copies: CopyMap) -> Operand:
    if isinstance(operand, Reg):
        # Chase copy chains (a=b, c=a => uses of c become b).
        name = operand.name
        seen = set()
        while name in copies and name not in seen:
            seen.add(name)
            name = copies[name]
        if name != operand.name:
            return Reg(name)
    return operand


class _Copies(DataflowProblem[CopyMap]):
    def boundary(self, function: Function) -> CopyMap:
        return {}

    def initial(self, function: Function, label: str) -> CopyMap:
        return {}

    def join(self, a: CopyMap, b: CopyMap) -> CopyMap:
        return _merge(a, b)

    def transfer(self, function: Function, label: str,
                 copies: CopyMap) -> CopyMap:
        return _transfer(function.blocks[label], copies)


def copy_propagation(function: Function) -> bool:
    """Rewrite uses of copies to their sources; True if changed."""
    rewrote = False
    for label, entry in solve(function, _Copies()).before.items():
        block = function.blocks[label]
        copies = dict(entry)
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            replacement = _rewrite_uses(instr, copies)
            if replacement is not instr:
                rewrote = True
            _apply(replacement, copies)
            new_instrs.append(replacement)
        block.instrs = new_instrs
    return rewrote


def _rewrite_uses(instr: Instr, copies: CopyMap) -> Instr:
    if isinstance(instr, Move):
        src = _subst(instr.src, copies)
        if isinstance(src, Reg) and src.name == instr.dest:
            return instr  # would become self-copy; let DCE handle original
        return instr if src is instr.src else Move(instr.dest, src)
    if isinstance(instr, UnOp):
        src = _subst(instr.src, copies)
        return instr if src is instr.src else UnOp(instr.dest, instr.op, src)
    if isinstance(instr, BinOp):
        lhs = _subst(instr.lhs, copies)
        rhs = _subst(instr.rhs, copies)
        if lhs is instr.lhs and rhs is instr.rhs:
            return instr
        return BinOp(instr.dest, instr.op, lhs, rhs)
    if isinstance(instr, Load):
        addr = _subst(instr.addr, copies)
        if addr is instr.addr:
            return instr
        return Load(instr.dest, addr, static=instr.static)
    if isinstance(instr, Store):
        addr = _subst(instr.addr, copies)
        value = _subst(instr.value, copies)
        if addr is instr.addr and value is instr.value:
            return instr
        return Store(addr, value)
    if isinstance(instr, Call):
        args = tuple(_subst(a, copies) for a in instr.args)
        if args == instr.args:
            return instr
        return Call(instr.dest, instr.callee, args, static=instr.static)
    if isinstance(instr, Branch):
        cond = _subst(instr.cond, copies)
        if cond is instr.cond:
            return instr
        return Branch(cond, instr.if_true, instr.if_false)
    if isinstance(instr, Return) and instr.value is not None:
        value = _subst(instr.value, copies)
        if value is instr.value:
            return instr
        return Return(value)
    return instr
