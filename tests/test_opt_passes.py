"""Tests for the traditional optimization passes and the pipeline."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.dyc import compile_static
from repro.errors import TrapError
from repro.frontend import compile_source
from repro.ir import (
    BinOp,
    Branch,
    FunctionBuilder,
    Imm,
    Jump,
    Load,
    Move,
    Op,
    Reg,
    Return,
    verify_function,
)
from repro.machine import Machine
from repro.opt import (
    PassManager,
    constant_propagation,
    copy_propagation,
    dead_code_elimination,
    local_cse,
    optimize_function,
    simplify_cfg,
    strength_reduction,
)
from repro.opt.constprop import _Constants
from tests.helpers import build_countdown, run_function


def _flat_instrs(function):
    return [i for block in function.blocks.values() for i in block.instrs]


class TestConstantPropagation:
    def test_folds_straightline_arithmetic(self):
        b = FunctionBuilder("f", ())
        b.move("a", 3)
        b.move("b", 4)
        b.binop("c", Op.MUL, "a", "b")
        b.ret("c")
        f = b.finish()
        assert constant_propagation(f)
        assert Return(Imm(12)) in _flat_instrs(f)

    def test_folds_branch_to_jump(self):
        b = FunctionBuilder("f", ())
        b.move("c", 1)
        b.branch("c", "t", "e")
        b.label("t")
        b.ret(1)
        b.label("e")
        b.ret(2)
        f = b.finish()
        constant_propagation(f)
        assert "e" not in f.blocks  # unreachable arm removed

    def test_constant_survives_join_when_equal(self):
        b = FunctionBuilder("f", ("x",))
        b.branch("x", "t", "e")
        b.label("t")
        b.move("k", 5)
        b.jump("j")
        b.label("e")
        b.move("k", 5)
        b.jump("j")
        b.label("j")
        b.binop("r", Op.ADD, "k", 1)
        b.ret("r")
        f = b.finish()
        constant_propagation(f)
        assert Return(Imm(6)) in _flat_instrs(f) or \
            Move("r", Imm(6)) in _flat_instrs(f)

    def test_conflicting_join_not_folded(self):
        b = FunctionBuilder("f", ("x",))
        b.branch("x", "t", "e")
        b.label("t")
        b.move("k", 5)
        b.jump("j")
        b.label("e")
        b.move("k", 6)
        b.jump("j")
        b.label("j")
        b.ret("k")
        f = b.finish()
        constant_propagation(f)
        assert Return(Reg("k")) in _flat_instrs(f)

    def test_loop_variant_not_folded(self):
        f = build_countdown()
        constant_propagation(f)
        (result, _) = run_function(f, 5)
        assert result == 15

    def test_does_not_fold_trapping_expression(self):
        b = FunctionBuilder("f", ("x",))
        b.move("z", 0)
        b.binop("d", Op.DIV, "x", "z")  # traps at run time, not compile time
        b.ret("d")
        f = b.finish()
        constant_propagation(f)
        assert any(isinstance(i, BinOp) and i.op is Op.DIV
                   for i in _flat_instrs(f))

    def test_folded_nan_reaches_a_fixpoint(self, monkeypatch):
        """A loop whose entry block is its own target and folds a NaN:
        each visit makes a new NaN object, which must not count as a
        change."""
        b = FunctionBuilder("f", ("n",))
        b.binop("x", Op.MUL, 1e308, 10.0)
        b.binop("y", Op.SUB, "x", "x")
        b.binop("n", Op.SUB, "n", 1)
        b.branch("n", "entry", "done")
        b.label("done")
        b.ret("y")
        f = b.finish()
        visits = []
        transfer = _Constants.transfer

        def spy(self, function, label, consts):
            visits.append(label)
            if len(visits) > 1000:
                raise AssertionError("no fixpoint after 1000 block visits")
            return transfer(self, function, label, consts)

        monkeypatch.setattr(_Constants, "transfer", spy)
        assert constant_propagation(f)
        assert len(visits) <= 3
        assert math.isnan(run_function(f, 2)[0])

    # Arms that assign equal-comparing constants of different types:
    # ``1 == 1.0`` and ``0 == 0.0`` in Python, but int division and
    # ``&`` tell them apart, so the join must not keep either arm's.
    MIXED_JOINS = [
        "func f(c) { var x = 0; if (c) { x = 1; } else { x = 1.0; } "
        "return x / 3; }",
        "func f(c) { var x = 0; if (c) { x = 0.0; } else { x = 0; } "
        "return x & 1; }",
    ]

    @pytest.mark.parametrize("c", [0, 1])
    @pytest.mark.parametrize("source", MIXED_JOINS,
                             ids=["int-float-div", "float-int-and"])
    def test_join_keeps_int_and_float_constants_apart(self, source, c):
        module = compile_source(source)

        def outcome(program):
            try:
                return repr(Machine(program, backend="reference").run("f", c))
            except TrapError as err:
                return f"trap: {err}"

        assert outcome(compile_static(module)) == outcome(module)

    def test_join_keeps_signed_zeros_apart(self):
        b = FunctionBuilder("f", ("x",))
        b.branch("x", "t", "e")
        b.label("t")
        b.move("k", 0.0)
        b.jump("j")
        b.label("e")
        b.move("k", -0.0)
        b.jump("j")
        b.label("j")
        b.ret("k")
        f = b.finish()
        constant_propagation(f)
        assert Return(Reg("k")) in _flat_instrs(f)


class TestCopyPropagation:
    def test_chases_copy_chains(self):
        b = FunctionBuilder("f", ("a",))
        b.move("b", "a")
        b.move("c", "b")
        b.binop("r", Op.ADD, "c", "c")
        b.ret("r")
        f = b.finish()
        assert copy_propagation(f)
        adds = [i for i in _flat_instrs(f) if isinstance(i, BinOp)]
        assert adds[0].lhs == Reg("a") and adds[0].rhs == Reg("a")

    def test_kill_on_source_redefinition(self):
        b = FunctionBuilder("f", ("a",))
        b.move("b", "a")
        b.binop("a", Op.ADD, "a", 1)   # a changes: b != a now
        b.ret("b")
        f = b.finish()
        copy_propagation(f)
        assert Return(Reg("b")) in _flat_instrs(f)

    def test_semantics_preserved(self):
        b = FunctionBuilder("f", ("a",))
        b.move("b", "a")
        b.binop("c", Op.MUL, "b", 3)
        b.ret("c")
        f = b.finish()
        copy_propagation(f)
        result, _ = run_function(f, 7)
        assert result == 21


class TestDCE:
    def test_removes_dead_pure_code(self):
        b = FunctionBuilder("f", ("a",))
        b.binop("dead", Op.MUL, "a", 100)
        b.ret("a")
        f = b.finish()
        assert dead_code_elimination(f)
        assert all(i.defs() != ("dead",) for i in _flat_instrs(f))

    def test_keeps_stores_and_calls(self):
        b = FunctionBuilder("f", ("p",))
        b.store("p", 1)
        b.call("ignored", "cos", [1.0])
        b.ret(0)
        f = b.finish()
        dead_code_elimination(f)
        assert len(_flat_instrs(f)) == 3

    def test_removes_transitively_dead_chain(self):
        b = FunctionBuilder("f", ("a",))
        b.binop("x", Op.ADD, "a", 1)
        b.binop("y", Op.ADD, "x", 1)  # y dead => x dead too
        b.ret("a")
        f = b.finish()
        manager = PassManager(passes=(dead_code_elimination,))
        manager.run(f)
        assert len(_flat_instrs(f)) == 1


class TestLocalCSE:
    def test_reuses_repeated_expression(self):
        b = FunctionBuilder("f", ("a", "b"))
        b.binop("x", Op.ADD, "a", "b")
        b.binop("y", Op.ADD, "a", "b")
        b.binop("r", Op.MUL, "x", "y")
        b.ret("r")
        f = b.finish()
        assert local_cse(f)
        moves = [i for i in _flat_instrs(f) if isinstance(i, Move)]
        assert Move("y", Reg("x")) in moves

    def test_commutative_match(self):
        b = FunctionBuilder("f", ("a", "b"))
        b.binop("x", Op.MUL, "a", "b")
        b.binop("y", Op.MUL, "b", "a")
        b.binop("r", Op.ADD, "x", "y")
        b.ret("r")
        f = b.finish()
        assert local_cse(f)

    def test_redefinition_kills_expression(self):
        b = FunctionBuilder("f", ("a", "b"))
        b.binop("x", Op.ADD, "a", "b")
        b.binop("a", Op.ADD, "a", 1)
        b.binop("y", Op.ADD, "a", "b")  # not the same a+b
        b.binop("r", Op.MUL, "x", "y")
        b.ret("r")
        f = b.finish()
        assert not local_cse(f)

    def test_store_kills_loads(self):
        b = FunctionBuilder("f", ("p",))
        b.load("x", "p")
        b.store("p", 0)
        b.load("y", "p")
        b.binop("r", Op.ADD, "x", "y")
        b.ret("r")
        f = b.finish()
        assert not local_cse(f)
        loads = [i for i in _flat_instrs(f) if isinstance(i, Load)]
        assert len(loads) == 2


class TestSimplifyCFG:
    def test_threads_trivial_blocks(self):
        b = FunctionBuilder("f", ())
        b.jump("mid")
        b.label("mid")
        b.jump("end")
        b.label("end")
        b.ret(1)
        f = b.finish()
        assert simplify_cfg(f)
        assert len(f.blocks) == 1

    def test_merges_straightline_pair(self):
        b = FunctionBuilder("f", ("x",))
        b.binop("y", Op.ADD, "x", 1)
        b.jump("next")
        b.label("next")
        b.binop("z", Op.ADD, "y", 1)
        b.ret("z")
        f = b.finish()
        simplify_cfg(f)
        assert len(f.blocks) == 1
        verify_function(f)

    def test_folds_same_target_branch(self):
        b = FunctionBuilder("f", ("c",))
        b.branch("c", "t", "t")
        b.label("t")
        b.ret(0)
        f = b.finish()
        simplify_cfg(f)
        assert not any(isinstance(i, Branch) for i in _flat_instrs(f))

    def test_does_not_break_loop(self):
        f = build_countdown()
        simplify_cfg(f)
        verify_function(f)
        result, _ = run_function(f, 4)
        assert result == 10


class TestStrengthReduction:
    def _multiplies(self, *factors):
        b = FunctionBuilder("f", ("x",))
        b.move("r", 0)
        for index, factor in enumerate(factors):
            b.binop(f"y{index}", Op.MUL, "x", factor)
            b.binop("r", Op.ADD, "r", f"y{index}")
        b.ret("r")
        return b.finish()

    @staticmethod
    def _temps(function) -> set[str]:
        return {name for instr in _flat_instrs(function)
                for name in instr.defs() if name.startswith("%sr")}

    def test_temporaries_are_numbered_afresh_in_each_call(self):
        for _ in range(2):
            f = self._multiplies(3, 6)    # x*2 + x; x*4 + x*2
            assert strength_reduction(f)
            assert self._temps(f) == {"%sr1", "%sr2", "%sr2.b"}
            assert run_function(f, 7)[0] == 63

    def test_a_later_call_skips_names_the_function_uses(self):
        """The pass runs to a fixpoint: a later round must not reuse
        an earlier round's temporaries."""
        f = self._multiplies(3)
        strength_reduction(f)
        f.entry_block.instrs[-1:-1] = [
            BinOp("z", Op.MUL, Reg("x"), Imm(5)),
            BinOp("r", Op.ADD, Reg("r"), Reg("z")),
        ]
        assert strength_reduction(f)
        verify_function(f)
        assert self._temps(f) == {"%sr1", "%sr2"}
        assert run_function(f, 7)[0] == 56


    @pytest.mark.parametrize("op", ["*", "/"])
    def test_float_one_keeps_the_int_to_float_promotion(self, op):
        """The reduction rule takes int constants only: ``x * 1.0`` and
        ``x / 1.0`` make a float of an int ``x``, so neither is a copy
        of ``x``."""
        module = compile_source(f"func f(x) {{ return x {op} 1.0; }}")
        static = Machine(compile_static(module), backend="reference")
        assert repr(static.run("f", 7)) == "7.0"


class TestPipeline:
    def test_full_pipeline_preserves_loop_semantics(self):
        f = build_countdown()
        optimize_function(f)
        verify_function(f)
        result, _ = run_function(f, 6)
        assert result == 21

    def test_pipeline_reaches_fixpoint_and_shrinks(self):
        b = FunctionBuilder("f", ("n",))
        b.move("a", 2)
        b.move("b", "a")
        b.binop("c", Op.MUL, "b", 3)     # 6
        b.binop("d", Op.ADD, "c", "n")
        b.binop("dead", Op.MUL, "d", "d")
        b.ret("d")
        f = b.finish()
        before = f.instruction_count()
        optimize_function(f)
        assert f.instruction_count() < before
        result, _ = run_function(f, 1)
        assert result == 7

    def test_pass_manager_records_stats(self):
        f = build_countdown()
        manager = PassManager()
        manager.run(f)
        assert isinstance(manager.stats, dict)

    @given(st.integers(min_value=0, max_value=30))
    def test_optimized_countdown_agrees_with_original(self, n):
        original = build_countdown()
        optimized = build_countdown()
        optimize_function(optimized)
        r1, _ = run_function(original, n)
        r2, _ = run_function(optimized, n)
        assert r1 == r2

    def test_optimized_code_is_cheaper(self):
        b = FunctionBuilder("f", ("n",))
        b.move("k", 10)
        b.binop("a", Op.MUL, "k", "k")    # foldable
        b.binop("r", Op.ADD, "a", "n")
        b.ret("r")
        f_slow = b.finish()
        import copy
        f_fast = copy.deepcopy(f_slow)
        optimize_function(f_fast)
        _, slow = run_function(f_slow, 5)
        _, fast = run_function(f_fast, 5)
        assert fast.stats.cycles < slow.stats.cycles
        r1, _ = run_function(f_slow, 5)
        r2, _ = run_function(f_fast, 5)
        assert r1 == r2 == 105
