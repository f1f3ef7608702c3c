"""Unit tests for the IR data structures, builder, printer, and verifier."""

import pytest

from repro.errors import IRError, MemoryFault
from repro.ir import (
    BasicBlock,
    BinOp,
    Branch,
    Call,
    Function,
    FunctionBuilder,
    Imm,
    Jump,
    Load,
    MakeStatic,
    Memory,
    Module,
    Move,
    Op,
    Reg,
    Return,
    Store,
    format_function,
    format_instr,
    verify_function,
)
from tests.helpers import build_countdown, build_diamond


class TestInstructions:
    def test_uses_and_defs_binop(self):
        instr = BinOp("d", Op.ADD, Reg("a"), Imm(3))
        assert instr.uses() == ("a",)
        assert instr.defs() == ("d",)

    def test_uses_and_defs_move_imm(self):
        instr = Move("d", Imm(1.5))
        assert instr.uses() == ()
        assert instr.defs() == ("d",)

    def test_store_has_no_defs(self):
        instr = Store(Reg("p"), Reg("v"))
        assert instr.defs() == ()
        assert set(instr.uses()) == {"p", "v"}

    def test_call_void_has_no_defs(self):
        instr = Call(None, "f", (Reg("x"),))
        assert instr.defs() == ()
        assert instr.uses() == ("x",)

    def test_terminator_successors(self):
        assert Jump("a").successors() == ("a",)
        assert Branch(Reg("c"), "t", "f").successors() == ("t", "f")
        assert Return(None).successors() == ()

    def test_make_static_reports_no_uses(self):
        # Annotations are liveness-transparent: a variable annotated
        # before its first assignment (Figure 2's loop indices) must not
        # appear live at the annotation point.
        instr = MakeStatic(("a", "b"))
        assert instr.uses() == ()
        assert not instr.is_terminator

    def test_instructions_are_hashable_and_comparable(self):
        a = BinOp("d", Op.ADD, Reg("x"), Imm(1))
        b = BinOp("d", Op.ADD, Reg("x"), Imm(1))
        assert a == b
        assert hash(a) == hash(b)


class TestBlocksAndFunctions:
    def test_terminator_accessor(self):
        block = BasicBlock("b", [Move("x", Imm(1)), Jump("b")])
        assert isinstance(block.terminator, Jump)
        assert block.body == [Move("x", Imm(1))]

    def test_empty_block_has_no_terminator(self):
        with pytest.raises(IRError):
            _ = BasicBlock("b").terminator

    def test_duplicate_block_label_rejected(self):
        f = Function("f", ())
        f.new_block("a")
        with pytest.raises(IRError):
            f.new_block("a")

    def test_predecessors(self):
        f = build_diamond()
        preds = f.predecessors()
        assert sorted(preds["join"]) == ["else", "then"]
        assert preds["entry"] == []

    def test_remove_unreachable_blocks(self):
        f = build_diamond()
        orphan = BasicBlock("orphan", [Jump("join")])
        f.add_block(orphan)
        removed = f.remove_unreachable_blocks()
        assert removed == 1
        assert "orphan" not in f.blocks

    def test_instruction_count(self):
        f = build_diamond()
        assert f.instruction_count() == 7


class TestModule:
    def test_main_autodetected(self):
        m = Module()
        m.add_function(Function("main", (), {"e": BasicBlock(
            "e", [Return(None)])}, entry="e"))
        assert m.main == "main"

    def test_duplicate_function_rejected(self):
        m = Module()
        m.add_function(build_diamond())
        with pytest.raises(IRError):
            m.add_function(build_diamond())

    def test_missing_function_lookup(self):
        with pytest.raises(IRError):
            Module().function("nope")


class TestCopies:
    def _module(self) -> Module:
        module = Module()
        module.add_function(build_diamond())
        module.add_function(build_countdown())
        return module

    def test_copy_is_equal_and_shares_only_instructions(self):
        module = self._module()
        copied = module.copy()
        assert copied == module and copied is not module
        assert copied.functions is not module.functions
        for name, function in module.functions.items():
            twin = copied.functions[name]
            assert twin is not function and twin.blocks is not \
                function.blocks
            for label, block in function.blocks.items():
                assert twin.blocks[label] is not block
                assert twin.blocks[label].instrs is not block.instrs
                assert all(a is b for a, b in
                           zip(twin.blocks[label].instrs, block.instrs))

    def test_rewriting_a_copy_leaves_the_original(self):
        module = self._module()
        before = format_function(module.function("diamond"))
        copied = module.copy()
        function = copied.function("diamond")
        function.entry_block.instrs.insert(0, MakeStatic(("x",)))
        function.blocks["join"].instrs[0] = Move("r", Imm(0))
        del function.blocks["else"]
        function.new_block("extra")
        function.bump_version()
        copied.add_function(Function("main", ()))
        original = module.function("diamond")
        assert format_function(original) == before
        assert original.version == 0 and "main" not in module


class TestBuilder:
    def test_builds_valid_loop(self):
        f = build_countdown()
        verify_function(f)
        assert f.entry == "entry"
        assert set(f.blocks) == {"entry", "head", "body", "done"}

    def test_rejects_append_after_terminator(self):
        b = FunctionBuilder("f", ())
        b.ret(0)
        with pytest.raises(IRError):
            b.move("x", 1)

    def test_fresh_names_unique(self):
        b = FunctionBuilder("f", ())
        names = {b.fresh_temp() for _ in range(10)}
        assert len(names) == 10

    def test_finish_rejects_open_block(self):
        b = FunctionBuilder("f", ())
        b.move("x", 1)
        with pytest.raises(IRError):
            b.finish()

    def test_operand_coercion(self):
        b = FunctionBuilder("f", ("a",))
        b.binop("x", Op.ADD, "a", 2)
        b.ret("x")
        f = b.finish()
        instr = f.blocks["entry"].instrs[0]
        assert instr.lhs == Reg("a")
        assert instr.rhs == Imm(2)


class TestVerifier:
    def test_accepts_valid(self):
        verify_function(build_diamond())

    def test_rejects_bad_successor(self):
        b = FunctionBuilder("f", ())
        b.jump("nowhere")
        with pytest.raises(IRError, match="nowhere"):
            verify_function(b.function)

    def test_rejects_mid_block_terminator(self):
        f = Function("f", ())
        f.add_block(BasicBlock("e", [Return(None), Move("x", Imm(1)),
                                     Return(None)]))
        with pytest.raises(IRError, match="not the final"):
            verify_function(f)

    def test_rejects_missing_terminator(self):
        f = Function("f", ())
        f.add_block(BasicBlock("e", [Move("x", Imm(1))]))
        with pytest.raises(IRError, match="terminator"):
            verify_function(f)

    def test_rejects_hole_outside_template(self):
        from repro.ir import Hole
        f = Function("f", ())
        f.add_block(BasicBlock("e", [Move("x", Hole("h")), Return(None)]))
        with pytest.raises(IRError, match="hole"):
            verify_function(f)
        verify_function(f, allow_holes=True)


class TestPrinter:
    def test_format_instr_shapes(self):
        assert format_instr(Move("x", Imm(3))) == "x = 3"
        assert format_instr(BinOp("x", Op.MUL, Reg("a"), Reg("b"))) \
            == "x = a mul b"
        assert "load@" in format_instr(Load("x", Reg("p"), static=True))
        assert "branch" in format_instr(Branch(Reg("c"), "a", "b"))

    def test_format_function_contains_all_labels(self):
        text = format_function(build_diamond())
        for label in ("entry", "then", "else", "join"):
            assert f"{label}:" in text


class TestMemory:
    def test_alloc_and_rw(self):
        mem = Memory()
        base = mem.alloc(4, fill=7)
        assert mem.load(base + 3) == 7
        mem.store(base, 42)
        assert mem.load(base) == 42

    def test_alloc_array_and_read(self):
        mem = Memory()
        base = mem.alloc_array([1, 2, 3])
        assert mem.read_array(base, 3) == [1, 2, 3]

    def test_alloc_matrix_row_major(self):
        mem = Memory()
        base = mem.alloc_matrix([[1, 2], [3, 4]])
        assert mem.read_array(base, 4) == [1, 2, 3, 4]

    def test_ragged_matrix_rejected(self):
        with pytest.raises(MemoryFault):
            Memory().alloc_matrix([[1], [2, 3]])

    def test_null_dereference_faults(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.load(0)
        with pytest.raises(MemoryFault):
            mem.store(0, 1)

    def test_out_of_bounds_faults(self):
        mem = Memory()
        base = mem.alloc(2)
        with pytest.raises(MemoryFault):
            mem.load(base + 2)

    def test_float_address_must_be_integral(self):
        mem = Memory()
        base = mem.alloc(4)
        assert mem.load(float(base)) == 0
        with pytest.raises(MemoryFault):
            mem.load(base + 0.5)

    def test_watch_records_violations(self):
        mem = Memory()
        base = mem.alloc(2)
        mem.watch(base)
        mem.store(base + 1, 9)
        assert mem.watch_violations == []
        mem.store(base, 9)
        assert mem.watch_violations == [base]
