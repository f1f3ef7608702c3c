"""Operator semantics shared by every evaluator in the system.

The static optimizer's constant folder, the generating extensions'
set-up computations, the run-time specializer's completion stage, the
reference interpreter and the threaded translator must all agree
exactly on arithmetic, so the semantics live here, next to the IR, as
one evaluator per operator (:data:`BINOP_FUNCS`, :data:`UNOP_FUNCS`)
that every one of them calls.

Semantics are C-flavoured:

* mixed int/float arithmetic promotes to float;
* integer division and modulus truncate toward zero (C99);
* shifts and bitwise operators require integer operands;
* comparisons yield the ints 0 or 1;
* ``NOT`` is logical not (C ``!``), yielding 0 or 1.

Division by zero raises :class:`TrapError`, mirroring a hardware trap.
"""

from __future__ import annotations

import math
import operator

from repro.errors import TrapError
from repro.ir.instructions import Op

Number = int | float


def _c_div(lhs: int, rhs: int) -> int:
    """C99 integer division: truncation toward zero."""
    quotient = abs(lhs) // abs(rhs)
    if (lhs < 0) != (rhs < 0):
        quotient = -quotient
    return quotient


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
        # C99 remainder: its sign follows the dividend.
        return lhs - _c_div(lhs, rhs) * rhs
    return math.fmod(lhs, rhs)


def _int_only(op: Op, fn, shift: bool = False):
    """``fn`` behind C's checks: int operands, and a non-negative count
    for a ``shift``."""
    def wrapped(lhs, rhs, _op=op, _fn=fn, _shift=shift):
        if isinstance(lhs, float) or isinstance(rhs, float):
            raise TrapError(f"{_op} requires integer operands, got "
                            f"{lhs!r} and {rhs!r}")
        if _shift and rhs < 0:
            raise TrapError("negative shift count")
        return _fn(lhs, rhs)

    return wrapped


#: Each binary operator's evaluator, ``(lhs, rhs) -> value``: the one
#: definition of what a ``BinOp`` computes, and of which operators exist.
BINOP_FUNCS = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.DIV: _div,
    Op.MOD: _mod,
    Op.AND: _int_only(Op.AND, operator.and_),
    Op.OR: _int_only(Op.OR, operator.or_),
    Op.XOR: _int_only(Op.XOR, operator.xor),
    Op.SHL: _int_only(Op.SHL, operator.lshift, shift=True),
    Op.SHR: _int_only(Op.SHR, operator.rshift, shift=True),
    Op.EQ: lambda lhs, rhs: int(lhs == rhs),
    Op.NE: lambda lhs, rhs: int(lhs != rhs),
    Op.LT: lambda lhs, rhs: int(lhs < rhs),
    Op.LE: lambda lhs, rhs: int(lhs <= rhs),
    Op.GT: lambda lhs, rhs: int(lhs > rhs),
    Op.GE: lambda lhs, rhs: int(lhs >= rhs),
}

#: Each unary operator's evaluator, ``src -> value``.
UNOP_FUNCS = {
    Op.NEG: operator.neg,
    Op.NOT: lambda src: int(not src),
}


def eval_binop(op: Op, lhs: Number, rhs: Number) -> Number:
    """Evaluate ``lhs op rhs`` with C-flavoured semantics."""
    try:
        func = BINOP_FUNCS[op]
    except KeyError:
        raise TrapError(f"{op} is not a binary operator") from None
    return func(lhs, rhs)


def eval_unop(op: Op, src: Number) -> Number:
    """Evaluate ``op src``."""
    try:
        func = UNOP_FUNCS[op]
    except KeyError:
        raise TrapError(f"{op} is not a unary operator") from None
    return func(src)


def is_power_of_two(value: Number) -> bool:
    """True for positive integer powers of two (strength-reduction test)."""
    return isinstance(value, int) and value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Exponent of an exact power of two."""
    return value.bit_length() - 1


#: Largest magnitude an integer may have and still be encoded in an Alpha
#: operate-format literal field (8-bit zero-extended literal).  Used by the
#: strength-reduction/immediate-fitting stage (§2.2.7: "attempt to fit
#: integer static operands into instruction immediate fields").
IMMEDIATE_LIMIT = 255


def fits_immediate(value: Number) -> bool:
    """True when a static operand fits an instruction immediate field."""
    return isinstance(value, int) and 0 <= value <= IMMEDIATE_LIMIT
