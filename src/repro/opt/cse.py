"""Local (per-block) common-subexpression elimination.

Within a block, a repeated pure expression over unchanged operands is
replaced with a copy of the earlier result.  Loads participate until a
store or call (which may alias them) kills the load table.  The global
pipeline iterates CSE with copy propagation and DCE, which catches most of
what a full global value-numbering pass would.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import (
    COMMUTATIVE_OPS,
    BinOp,
    Call,
    Instr,
    Load,
    Move,
    Reg,
    Store,
    UnOp,
)


def expression_of(instr: Instr):
    """A hashable key identifying the pure expression ``instr`` computes,
    or ``None`` for instructions that are not CSE candidates.

    Commutative binary operands are canonically ordered, so ``a + b``
    and ``b + a`` share a key.  ``@``-annotated (static) loads are
    excluded: they are specialization directives, not plain memory
    reads, and must not be merged with dynamic loads of the same
    address.
    """
    if isinstance(instr, BinOp):
        lhs, rhs = instr.lhs, instr.rhs
        if instr.op in COMMUTATIVE_OPS:
            lhs, rhs = sorted((lhs, rhs), key=repr)
        return ("bin", instr.op, lhs, rhs)
    if isinstance(instr, UnOp):
        return ("un", instr.op, instr.src)
    if isinstance(instr, Load) and not instr.static:
        return ("load", instr.addr)
    return None


def key_uses_name(key, name: str) -> bool:
    """True when the expression key reads register ``name``."""
    return any(
        isinstance(part, Reg) and part.name == name for part in key
    )


def local_cse(function: Function) -> bool:
    """Eliminate repeated expressions within each block; True if changed."""
    changed = False
    for block in function.blocks.values():
        available: dict[object, str] = {}
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            key = expression_of(instr)
            if key is not None and key in available:
                new_instrs.append(Move(instr.dest, Reg(available[key])))
                changed = True
                _kill_defs(available, instr.defs())
                continue
            if isinstance(instr, (Store, Call)):
                # Stores and calls may change memory: kill available loads.
                available = {
                    k: v for k, v in available.items() if k[0] != "load"
                }
            _kill_defs(available, instr.defs())
            if key is not None:
                available[key] = instr.dest
            new_instrs.append(instr)
        block.instrs = new_instrs
    return changed


def _kill_defs(available: dict, defs) -> None:
    for name in defs:
        for key in [
            k for k, v in available.items()
            if v == name or key_uses_name(k, name)
        ]:
            del available[key]
