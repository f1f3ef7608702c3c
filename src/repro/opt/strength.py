"""Static strength reduction of constant-operand operations.

A conventional optimizing compiler (the paper's Multiflow baseline) folds
multiplies, divides, and moduli by compile-time-constant powers of two
into shifts and masks.  Applying the same transformation to the static
baseline keeps the comparison against dynamically compiled code fair —
DyC's *dynamic* strength reduction (§2.2.7) is only interesting for
operands that become constant at run time.

The IR carries no operand types, so the pass assumes two things of the
register operand, as most compilers' fast paths do for integers:

* it is an integer: a float ``x * 2^k`` would become ``x << k`` and a
  float ``x / 2^k`` would become ``x >> k``, and both trap where the
  original computes a float;
* a divided or reduced one is non-negative: C's truncating division
  differs from an arithmetic shift, and its modulus from a mask, for
  negatives.

The workloads' index arithmetic satisfies both.

Two-term temporaries are named ``%sr1``, ``%sr2``, ... afresh in every
call, skipping names the function already uses, so the optimized IR is
a function of its input alone.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.ir.eval import is_power_of_two, log2_exact
from repro.ir.function import Function
from repro.ir.instructions import BinOp, Imm, Instr, Move, Op, Reg


def two_term_decomposition(value: int) -> tuple[int, str, int] | None:
    """Decompose ``value`` as ``2^a + 2^b`` or ``2^a - 2^b``.

    Returns ``(a, op, b)`` with op "add"/"sub", or None.  Covers the
    small multipliers addressing arithmetic produces (3, 5, 6, 7, 9, 10,
    12, 14, 15, 20, 24, ...), which Alpha compilers emit as scaled
    adds/shift pairs instead of an 8-cycle multiply.
    """
    if not isinstance(value, int) or value < 3:
        return None
    for a in range(1, value.bit_length() + 1):
        high = 1 << a
        rest = value - high
        if rest > 0 and rest & (rest - 1) == 0:
            return (a, "add", log2_exact(rest))
        rest = high - value
        if rest > 0 and rest & (rest - 1) == 0:
            return (a, "sub", log2_exact(rest))
    return None


def _fresh_temps(function: Function) -> Iterator[str]:
    """``%sr1``, ``%sr2``, ... skipping every name ``function`` already
    uses (the pass runs to a fixpoint, so a later call must not reuse
    an earlier call's temporaries); the names are read at the first
    ``next``."""
    taken = set(function.params)
    for block in function.blocks.values():
        for instr in block.instrs:
            taken.update(instr.defs())
            taken.update(instr.uses())
    number = 0
    while True:
        number += 1
        temp = f"%sr{number}"
        if temp not in taken and f"{temp}.b" not in taken:
            yield temp


def _reduce_mul_two_term(instr: BinOp, lhs: Reg, value: int,
                         temps: Iterator[str]) -> list[Instr] | None:
    decomposition = two_term_decomposition(value)
    if decomposition is None:
        return None
    a, op, b = decomposition
    temp = next(temps)
    first = BinOp(temp, Op.SHL, lhs, Imm(a))
    second_rhs = lhs if b == 0 else Reg(f"{temp}.b")
    parts: list[Instr] = [first]
    if b != 0:
        parts.append(BinOp(f"{temp}.b", Op.SHL, lhs, Imm(b)))
        second_rhs = Reg(f"{temp}.b")
    parts.append(BinOp(
        instr.dest, Op.ADD if op == "add" else Op.SUB,
        Reg(temp), second_rhs,
    ))
    return parts


def _reduce(instr: Instr, temps: Iterator[str]) -> Instr | list[Instr]:
    if not isinstance(instr, BinOp):
        return instr
    lhs, rhs = instr.lhs, instr.rhs
    if instr.op is Op.MUL:
        if isinstance(lhs, Imm) and isinstance(rhs, Reg):
            lhs, rhs = rhs, lhs
        if isinstance(rhs, Imm) and isinstance(lhs, Reg):
            if rhs.value == 1:
                return Move(instr.dest, lhs)
            if is_power_of_two(rhs.value):
                return BinOp(instr.dest, Op.SHL, lhs,
                             Imm(log2_exact(rhs.value)))
            if isinstance(rhs.value, int) and 0 < rhs.value <= 255:
                parts = _reduce_mul_two_term(instr, lhs, rhs.value,
                                             temps)
                if parts is not None:
                    return parts
    elif instr.op is Op.DIV:
        if isinstance(rhs, Imm) and isinstance(lhs, Reg):
            if rhs.value == 1:
                return Move(instr.dest, lhs)
            if is_power_of_two(rhs.value):
                return BinOp(instr.dest, Op.SHR, lhs,
                             Imm(log2_exact(rhs.value)))
    elif instr.op is Op.MOD:
        if isinstance(rhs, Imm) and isinstance(lhs, Reg):
            if is_power_of_two(rhs.value):
                return BinOp(instr.dest, Op.AND, lhs,
                             Imm(rhs.value - 1))
    return instr


def strength_reduction(function: Function) -> bool:
    """Reduce constant mul/div/mod to shifts/masks/adds; True if
    changed."""
    changed = False
    temps = _fresh_temps(function)
    for block in function.blocks.values():
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            replacement = _reduce(instr, temps)
            if replacement is instr:
                new_instrs.append(instr)
            elif isinstance(replacement, list):
                new_instrs.extend(replacement)
                changed = True
            else:
                new_instrs.append(replacement)
                changed = True
        block.instrs = new_instrs
    return changed
