"""Unit tests for the emission/completion stage (ZCP, DAE, SR,
immediate fitting) in isolation from the specializer."""

import pytest

from repro.config import ALL_ON, OptConfig
from repro.dyc.plans import InstrPlan
from repro.ir import (
    BinOp,
    FunctionBuilder,
    Imm,
    Jump,
    Load,
    Move,
    Op,
    Reg,
    Store,
)
from repro.ir.eval import eval_binop
from repro.opt import strength_reduction
from repro.runtime.emit import BlockEmitter
from repro.runtime.overhead import DEFAULT_OVERHEAD
from repro.runtime.stats import RegionStats


def make_emitter(config: OptConfig = ALL_ON):
    stats = RegionStats(region_id=0, function_name="t")
    charges = []
    emitter = BlockEmitter(config, DEFAULT_OVERHEAD, stats,
                           charges.append)
    return emitter, stats, charges


def plan(zcp=True, sr=True, uses=1, remote=False, removable=True):
    return InstrPlan(zcp_candidate=zcp, sr_candidate=sr,
                     local_uses=uses, remote=remote, removable=removable)


def emitted(emitter):
    return emitter.flush(Jump("next"))[:-1]


class TestHoleFilling:
    def test_hole_becomes_immediate(self):
        emitter, _, _ = make_emitter()
        instr = BinOp("d", Op.ADD, Reg("x"), Reg("k"))
        emitter.emit_template(instr, {"k": 7}, plan())
        [out] = emitted(emitter)
        assert out == BinOp("d", Op.ADD, Reg("x"), Imm(7))

    def test_large_int_materialized(self):
        emitter, _, _ = make_emitter()
        instr = BinOp("d", Op.ADD, Reg("x"), Reg("k"))
        emitter.emit_template(instr, {"k": 100_000}, plan())
        instrs = emitted(emitter)
        assert len(instrs) == 2
        assert instrs[0] == Move(instrs[0].dest, Imm(100_000))
        assert instrs[1].rhs == Reg(instrs[0].dest)

    def test_float_materialized(self):
        emitter, _, _ = make_emitter()
        instr = BinOp("d", Op.ADD, Reg("x"), Reg("k"))
        emitter.emit_template(instr, {"k": 2.5}, plan())
        instrs = emitted(emitter)
        assert len(instrs) == 2

    def test_small_int_fits_inline(self):
        emitter, _, _ = make_emitter()
        emitter.emit_template(
            Store(Reg("p"), Reg("k")), {"k": 200}, None
        )
        [out] = emitted(emitter)
        assert out == Store(Reg("p"), Imm(200))


class TestZeroCopyPropagation:
    def test_mul_by_one_is_copy(self):
        emitter, stats, _ = make_emitter()
        emitter.emit_template(
            BinOp("w", Op.MUL, Reg("x"), Reg("k")), {"k": 1.0}, plan()
        )
        # Eliminated entirely; downstream use of w resolves to x.
        emitter.emit_template(
            BinOp("s", Op.ADD, Reg("s0"), Reg("w")), {}, plan()
        )
        instrs = emitted(emitter)
        assert instrs == [BinOp("s", Op.ADD, Reg("s0"), Reg("x"))]
        assert stats.zcp_copy_hits == 1

    def test_mul_by_zero_cascades_to_dae(self):
        emitter, stats, _ = make_emitter()
        emitter.emit_template(
            Load("x", Reg("p")), {}, plan(uses=1)
        )
        emitter.emit_template(
            BinOp("w", Op.MUL, Reg("x"), Reg("k")), {"k": 0.0}, plan()
        )
        # The multiply disappears AND the now-dead load cascades away.
        assert emitted(emitter) == []
        assert stats.zcp_zero_hits == 1
        assert stats.dae_removed == 1

    def test_add_zero_copy(self):
        emitter, stats, _ = make_emitter()
        emitter.emit_template(
            BinOp("d", Op.ADD, Reg("k"), Reg("x")), {"k": 0}, plan()
        )
        emitter.emit_template(
            Store(Reg("p"), Reg("d")), {}, None
        )
        assert emitted(emitter) == [Store(Reg("p"), Reg("x"))]

    def test_sub_zero_rhs_only(self):
        emitter, _, _ = make_emitter()
        # 0 - x is NOT x; must be emitted.
        emitter.emit_template(
            BinOp("d", Op.SUB, Reg("k"), Reg("x")), {"k": 0}, plan()
        )
        assert len(emitted(emitter)) == 1

    def test_or_zero_copy(self):
        emitter, _, _ = make_emitter()
        emitter.emit_template(
            BinOp("d", Op.OR, Reg("k"), Reg("x")), {"k": 0}, plan()
        )
        emitter.emit_template(Store(Reg("p"), Reg("d")), {}, None)
        assert emitted(emitter) == [Store(Reg("p"), Reg("x"))]

    def test_and_zero_is_const_zero(self):
        emitter, _, _ = make_emitter()
        emitter.emit_template(
            BinOp("d", Op.AND, Reg("x"), Reg("k")), {"k": 0}, plan()
        )
        emitter.emit_template(Store(Reg("p"), Reg("d")), {}, None)
        assert emitted(emitter) == [Store(Reg("p"), Imm(0))]

    def test_remote_result_still_materialized(self):
        emitter, _, _ = make_emitter()
        emitter.emit_template(
            BinOp("w", Op.MUL, Reg("x"), Reg("k")), {"k": 1.0},
            plan(remote=True),
        )
        # w is live beyond the block: the copy must be emitted.
        assert emitted(emitter) == [Move("w", Reg("x"))]

    def test_both_constant_folds(self):
        emitter, _, _ = make_emitter()
        emitter.emit_template(
            BinOp("d", Op.MUL, Reg("a"), Reg("b")), {"a": 6, "b": 7},
            plan(),
        )
        emitter.emit_template(Store(Reg("p"), Reg("d")), {}, None)
        assert emitted(emitter) == [Store(Reg("p"), Imm(42))]

    def test_note_killed_by_redefinition(self):
        emitter, _, _ = make_emitter()
        emitter.emit_template(
            BinOp("d", Op.MUL, Reg("x"), Reg("k")), {"k": 1.0}, plan()
        )
        # d redefined dynamically: the copy note must not survive.
        emitter.emit_template(Load("d", Reg("p")), {}, plan())
        emitter.emit_template(Store(Reg("q"), Reg("d")), {}, None)
        instrs = emitted(emitter)
        assert instrs[-1] == Store(Reg("q"), Reg("d"))

    def test_zcp_disabled_emits_everything(self):
        emitter, stats, _ = make_emitter(
            ALL_ON.without("zero_copy_propagation",
                           "strength_reduction")
        )
        emitter.emit_template(
            BinOp("w", Op.MUL, Reg("x"), Reg("k")), {"k": 1.0}, plan()
        )
        assert len(emitted(emitter)) == 2  # materialize + mul
        assert stats.zcp_copy_hits == 0

    def test_dae_disabled_keeps_move(self):
        emitter, stats, _ = make_emitter(
            ALL_ON.without("dead_assignment_elimination")
        )
        emitter.emit_template(
            BinOp("w", Op.MUL, Reg("x"), Reg("k")), {"k": 1.0}, plan()
        )
        # ZCP still substitutes downstream, but the move is emitted.
        instrs = emitted(emitter)
        assert Move("w", Reg("x")) in instrs
        assert stats.dae_removed == 0

    def test_self_copy_removed_with_dae(self):
        emitter, stats, _ = make_emitter()
        # s = s + 0.0 becomes a self-move: removable even though remote.
        emitter.emit_template(
            BinOp("s", Op.ADD, Reg("s"), Reg("k")), {"k": 0.0},
            plan(remote=True),
        )
        assert emitted(emitter) == []
        assert stats.dae_removed == 1


class TestStrengthReduction:
    def test_mul_power_of_two(self):
        emitter, stats, _ = make_emitter(
            ALL_ON.without("zero_copy_propagation")
        )
        emitter.emit_template(
            BinOp("d", Op.MUL, Reg("x"), Reg("k")), {"k": 8}, plan()
        )
        assert emitted(emitter) == [BinOp("d", Op.SHL, Reg("x"), Imm(3))]
        assert stats.sr_applied == 1

    def test_div_power_of_two(self):
        emitter, _, _ = make_emitter()
        emitter.emit_template(
            BinOp("d", Op.DIV, Reg("x"), Reg("k")), {"k": 16}, plan()
        )
        assert emitted(emitter) == [BinOp("d", Op.SHR, Reg("x"), Imm(4))]

    def test_mod_power_of_two(self):
        emitter, _, _ = make_emitter()
        emitter.emit_template(
            BinOp("d", Op.MOD, Reg("x"), Reg("k")), {"k": 32},
            InstrPlan(False, True, 1, False, True),
        )
        assert emitted(emitter) == [BinOp("d", Op.AND, Reg("x"), Imm(31))]

    def test_two_term_decomposition(self):
        emitter, stats, _ = make_emitter(
            ALL_ON.without("zero_copy_propagation")
        )
        emitter.emit_template(
            BinOp("d", Op.MUL, Reg("x"), Reg("k")), {"k": 12}, plan()
        )
        instrs = emitted(emitter)
        # 12 = 8 + 4: two shifts and an add.
        assert len(instrs) == 3
        assert {i.op for i in instrs} == {Op.SHL, Op.ADD}
        assert stats.sr_applied == 1

    def test_float_reciprocal(self):
        emitter, stats, _ = make_emitter()
        emitter.emit_template(
            BinOp("d", Op.DIV, Reg("x"), Reg("k")), {"k": 4.0}, plan()
        )
        instrs = emitted(emitter)
        # Mul by 0.25: exact reciprocal, materialized.
        assert instrs[-1].op is Op.MUL
        assert stats.sr_applied == 1

    def test_sr_disabled(self):
        emitter, stats, _ = make_emitter(
            ALL_ON.without("strength_reduction",
                           "zero_copy_propagation")
        )
        emitter.emit_template(
            BinOp("d", Op.MUL, Reg("x"), Reg("k")), {"k": 8}, plan()
        )
        [out] = emitted(emitter)
        assert out.op is Op.MUL
        assert stats.sr_applied == 0

    def test_int_mul_by_zero_without_zcp_clears(self):
        emitter, stats, _ = make_emitter(
            ALL_ON.without("zero_copy_propagation")
        )
        emitter.emit_template(
            BinOp("d", Op.MUL, Reg("x"), Reg("k")), {"k": 0}, plan()
        )
        assert emitted(emitter) == [Move("d", Imm(0))]
        assert stats.sr_applied == 1


class TestOneReductionRule:
    """Static strength reduction and the completion stage rewrite by
    one rule (:func:`repro.opt.strength.reduction`): for every int
    constant on either side of ``*``, ``/`` and ``%``, both make the
    same rewrite, and it computes what the operation computes for a
    non-negative register operand."""

    OPS = (Op.MUL, Op.DIV, Op.MOD)

    @staticmethod
    def _operands(value, imm_is_rhs, x):
        return (x, value) if imm_is_rhs else (value, x)

    def _static(self, op, value, imm_is_rhs):
        b = FunctionBuilder("f", ("x",))
        b.binop("d", op, *self._operands(value, imm_is_rhs, "x"))
        b.ret("d")
        f = b.finish()
        if not strength_reduction(f):
            return None
        return f.entry_block.instrs[:-1]

    def _dynamic(self, op, value, imm_is_rhs):
        emitter, stats, _ = make_emitter(
            ALL_ON.without("zero_copy_propagation"))
        instr = BinOp("d", op, *self._operands(Reg("k"), imm_is_rhs,
                                               Reg("x")))
        emitter.emit_template(instr, {"k": value}, plan(sr=True))
        return emitted(emitter) if stats.sr_applied else None

    @staticmethod
    def _renamed(instrs):
        """``instrs`` with every register but ``x`` and ``d`` renamed
        in order of first definition."""
        names = {"x": "x", "d": "d"}
        for instr in instrs:
            names.setdefault(instr.dest, f"t{len(names)}")

        def operand(o):
            return Reg(names[o.name]) if isinstance(o, Reg) else o

        return [Move(names[i.dest], operand(i.src)) if isinstance(i, Move)
                else BinOp(names[i.dest], i.op, operand(i.lhs),
                           operand(i.rhs))
                for i in instrs]

    @staticmethod
    def _evaluate(instrs, x):
        env = {"x": x}

        def read(operand):
            return env[operand.name] if isinstance(operand, Reg) \
                else operand.value

        for instr in instrs:
            env[instr.dest] = (read(instr.src) if isinstance(instr, Move)
                               else eval_binop(instr.op, read(instr.lhs),
                                               read(instr.rhs)))
        return env["d"]

    def test_static_and_dynamic_rewrites_agree(self):
        rewrites = 0
        for op in self.OPS:
            for value in range(-2, 301):
                for imm_is_rhs in (True, False):
                    static = self._static(op, value, imm_is_rhs)
                    dynamic = self._dynamic(op, value, imm_is_rhs)
                    if op is Op.MUL and value == 0:
                        # The one run-time-only int rule: a clear.
                        assert static is None
                        assert dynamic == [Move("d", Imm(0))]
                        continue
                    case = (op, value, imm_is_rhs)
                    assert (static is None) == (dynamic is None), case
                    if static is None:
                        continue
                    rewrites += 1
                    assert self._renamed(static) \
                        == self._renamed(dynamic), case
                    for x in range(65):
                        lhs, rhs = self._operands(value, imm_is_rhs, x)
                        assert self._evaluate(static, x) \
                            == eval_binop(op, lhs, rhs), (case, x)
        assert rewrites > 100


class TestResiduals:
    def test_residual_emitted_once(self):
        emitter, _, _ = make_emitter()
        emitter.emit_residual("t", 5)
        emitter.emit_residual("t", 5)
        assert emitted(emitter) == [Move("t", Imm(5))]

    def test_residual_value_types(self):
        emitter, _, _ = make_emitter()
        emitter.emit_residual("a", 3)
        emitter.emit_residual("b", 2.5)
        instrs = emitted(emitter)
        assert instrs == [Move("a", Imm(3)), Move("b", Imm(2.5))]
