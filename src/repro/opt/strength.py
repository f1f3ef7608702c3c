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

The workloads' index arithmetic satisfies both.  The rule itself,
:func:`reduction`, is the one the run-time completion stage
(:mod:`repro.runtime.emit`) applies to run-time constants.  It takes
int constants only: the pass leaves an operation by a float constant
alone, since even ``x * 1.0`` as a copy of ``x`` would drop the
promotion of an int ``x`` to float.

Two-term temporaries are named ``%sr1``, ``%sr2``, ... afresh in every
call, skipping names the function already uses, so the optimized IR is
a function of its input alone.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.ir.eval import IMMEDIATE_LIMIT, is_power_of_two, log2_exact
from repro.ir.function import Function
from repro.ir.instructions import BinOp, Imm, Instr, Move, Op, Reg


def two_term_decomposition(value: int) -> tuple[int, str, int] | None:
    """Decompose ``value`` as ``2^a + 2^b`` or ``2^a - 2^b``.

    Returns ``(a, op, b)`` with op "add"/"sub", or None.  Covers the
    small multipliers addressing arithmetic produces (3, 5, 6, 7, 9, 10,
    12, 14, 15, 20, 24, ...), which Alpha compilers emit as scaled
    adds/shift pairs instead of an 8-cycle multiply.
    """
    if value < 3:
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


def _reduce_mul(value: int, imm_is_rhs: bool) -> tuple | None:
    if value == 1:
        return ("copy",)
    if is_power_of_two(value):
        return ("shl", log2_exact(value))
    decomposition = (two_term_decomposition(value)
                     if value <= IMMEDIATE_LIMIT else None)
    return None if decomposition is None else ("two_term", *decomposition)


def _reduce_div(value: int, imm_is_rhs: bool) -> tuple | None:
    if imm_is_rhs and value == 1:
        return ("copy",)
    if imm_is_rhs and is_power_of_two(value):
        return ("shr", log2_exact(value))
    return None


def _reduce_mod(value: int, imm_is_rhs: bool) -> tuple | None:
    if imm_is_rhs and is_power_of_two(value):
        return ("and", value - 1)
    return None


_RULES = {Op.MUL: _reduce_mul, Op.DIV: _reduce_div, Op.MOD: _reduce_mod}

#: The operators :func:`reduction` may rewrite.
REDUCIBLE_OPS = frozenset(_RULES)


def reduction(op: Op, value: int, imm_is_rhs: bool) -> tuple | None:
    """The rewrite of ``x op value`` (``value op x`` when not
    ``imm_is_rhs``) for a register ``x`` and an int constant ``value``,
    or None.

    One of ``("copy",)`` (``x`` itself), ``("shl", k)``, ``("shr", k)``
    or ``("and", mask)`` (``x`` shifted or masked by the constant), or
    ``("two_term", a, "add"|"sub", b)`` (``(x << a) ± (x << b)``).  The
    static pass and the run-time completion stage
    (:mod:`repro.runtime.emit`) both rewrite by this rule.
    """
    rule = _RULES.get(op)
    return None if rule is None else rule(value, imm_is_rhs)


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


def _reduce(instr: Instr, temps: Iterator[str]) -> list[Instr] | None:
    """The instructions that replace ``instr``, or None to keep it."""
    if not isinstance(instr, BinOp):
        return None
    lhs, rhs = instr.lhs, instr.rhs
    if isinstance(rhs, Imm) and isinstance(lhs, Reg):
        reg, value, imm_is_rhs = lhs, rhs.value, True
    elif isinstance(lhs, Imm) and isinstance(rhs, Reg):
        reg, value, imm_is_rhs = rhs, lhs.value, False
    else:
        return None
    rule = (reduction(instr.op, value, imm_is_rhs)
            if isinstance(value, int) else None)
    if rule is None:
        return None
    kind, dest = rule[0], instr.dest
    if kind == "copy":
        return [Move(dest, reg)]
    if kind != "two_term":
        return [BinOp(dest, Op(kind), reg, Imm(rule[1]))]
    _, a, op, b = rule
    temp = next(temps)
    parts: list[Instr] = [BinOp(temp, Op.SHL, reg, Imm(a))]
    second = reg
    if b != 0:
        parts.append(BinOp(f"{temp}.b", Op.SHL, reg, Imm(b)))
        second = Reg(f"{temp}.b")
    parts.append(BinOp(dest, Op(op), Reg(temp), second))
    return parts


def strength_reduction(function: Function) -> bool:
    """Reduce constant mul/div/mod to shifts/masks/adds; True if
    changed."""
    changed = False
    temps = _fresh_temps(function)
    for block in function.blocks.values():
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            replacement = _reduce(instr, temps)
            if replacement is None:
                new_instrs.append(instr)
            else:
                new_instrs += replacement
                changed = True
        block.instrs = new_instrs
    return changed
