"""Static planning for staged dynamic optimizations (§2.2.7).

Dynamic zero/copy propagation and dead-assignment elimination are staged:
this module is the *planning* stage, run at static compile time; the
*completion* stage lives in :mod:`repro.runtime.emit` and runs during
dynamic compilation using only the plans computed here plus a small note
table — no run-time IR analysis.

For each dynamic (to-be-emitted) instruction the planner records:

* whether it is a ZCP candidate — a binary operation one of whose operands
  will be a run-time constant, such that special values (0, 1) let the
  instruction be replaced by a move or clear and then eliminated;
* whether it is a strength-reduction candidate (multiply/divide/modulus
  by a run-time-constant integer);
* how many *local* downstream uses its result has among emitted
  instructions in the same template block, and whether the result may
  have uses beyond the block (``remote``) — the information
  dead-assignment elimination needs to know when an emitted instruction's
  result has become unreferenced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bta.facts import ContextFacts, InstrClass
from repro.ir.instructions import (
    BinOp,
    Instr,
    Load,
    Move,
    Op,
    Reg,
    UnOp,
)
from repro.opt.strength import REDUCIBLE_OPS

#: Value-dependent zero/copy propagation, checked at dynamic compile time
#: by :mod:`repro.runtime.emit`: ``(operator, constant)`` -> ``(kind,
#: the constant may be the left operand)``.  The kind says what the
#: operation becomes: ``"copy"`` (the register operand), ``"zero"``
#: (``constant * 0``, which keeps the constant's int/float flavour) or
#: ``"clear"`` (the int 0).  A constant matches a key by ``==``, so
#: ``1.0`` matches ``1``.  Beyond the paper's multiply/add examples, the
#: same staging covers the bitwise identities (x|0, x^0, x&0, shifts by
#: 0).
ZCP_RULES = {
    (Op.MUL, 0): ("zero", True),
    (Op.MUL, 1): ("copy", True),
    (Op.ADD, 0): ("copy", True),
    (Op.SUB, 0): ("copy", False),
    (Op.DIV, 1): ("copy", False),
    (Op.OR, 0): ("copy", True),
    (Op.XOR, 0): ("copy", True),
    (Op.AND, 0): ("clear", True),
    (Op.SHL, 0): ("copy", False),
    (Op.SHR, 0): ("copy", False),
}

#: Operations eligible for value-dependent ZCP.
ZCP_OPS = frozenset(op for op, _ in ZCP_RULES)

#: Operations eligible for dynamic strength reduction: those the shared
#: rule (:func:`repro.opt.strength.reduction`) rewrites.
SR_OPS = REDUCIBLE_OPS

#: Classes of emitted instructions (everything else is folded away).
EMITTED_CLASSES = frozenset({
    InstrClass.DYNAMIC,
    InstrClass.DYNAMIC_BRANCH,
    InstrClass.PROMOTION,
})


@dataclass(frozen=True)
class InstrPlan:
    """Per-instruction plan consumed by the dynamic-compile completion
    stage."""

    #: May this instruction be optimized by zero/copy propagation once the
    #: static operand's value is known?
    zcp_candidate: bool
    #: May this instruction be strength-reduced?
    sr_candidate: bool
    #: Number of uses of the result by emitted instructions later in the
    #: same template block (including the terminator).
    local_uses: int
    #: True when the result may be used beyond this template block (live
    #: out), in which case dead-assignment elimination must keep it.
    remote: bool
    #: Is the instruction removable when its result becomes unreferenced?
    removable: bool


def _static_operand_count(instr: BinOp, static: frozenset[str]) -> int:
    count = 0
    for operand in (instr.lhs, instr.rhs):
        if not isinstance(operand, Reg) or operand.name in static:
            count += 1
    return count


def plan_instruction(
    instr: Instr,
    index: int,
    facts: ContextFacts,
    block_instrs: list[Instr],
    live_out: frozenset[str],
) -> InstrPlan:
    """Build the plan for one dynamic instruction of one context."""
    static = facts.static_before[index]
    zcp = False
    sr = False
    if isinstance(instr, BinOp):
        static_operands = _static_operand_count(instr, static)
        # A candidate has at most one static operand now — but an operand
        # that is dynamic here may still turn out to be a run-time
        # constant through an upstream ZCP note (the planner marks all
        # *potential* optimizations; the value check happens at dynamic
        # compile time, §2.2.7).
        if static_operands <= 1:
            zcp = instr.op in ZCP_OPS
            sr = instr.op in SR_OPS and static_operands == 1

    dests = instr.defs()
    if not dests:
        return InstrPlan(zcp, sr, 0, False, False)
    dest = dests[0]

    local_uses = 0
    redefined = False
    remote = False
    # Promotion points split the block across separate emission batches
    # (the continuation is specialized lazily, with a fresh note table);
    # a use beyond a promotion point is therefore *not* local to this
    # instruction's emitter and must pin the definition.
    promotion_indices = sorted(
        p for p in facts.promotions if p > index
    )

    def crosses_promotion(later_index: int) -> bool:
        return any(p < later_index for p in promotion_indices)

    for later_index in range(index + 1, len(block_instrs)):
        later = block_instrs[later_index]
        if facts.classes[later_index] in EMITTED_CLASSES \
                and dest in later.uses():
            if crosses_promotion(later_index):
                remote = True
            else:
                local_uses += later.uses().count(dest)
        if dest in later.defs():
            redefined = True
            break
    remote = remote or ((not redefined) and dest in live_out)

    # Pure value-producing instructions can be deleted if unreferenced;
    # calls and stores cannot.
    removable = isinstance(instr, (Move, UnOp, BinOp, Load))
    return InstrPlan(zcp, sr, local_uses, remote, removable)
