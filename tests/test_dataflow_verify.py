"""Tests for the dataflow IR verifier stack: dominator tree, dominance
frontiers, def-before-use analysis, call resolution, the liveness
``live_before`` cache, the pipeline debug mode, and the
``split_at_annotations`` invariant."""

import pytest

from repro.analysis.defuse import (
    definitely_assigned,
    unreachable_blocks,
    use_before_def,
)
from repro.analysis.dominators import DominatorTree
from repro.analysis.liveness import liveness
from repro.bta.annotations import split_at_annotations
from repro.errors import IRError
from repro.ir import FunctionBuilder, Module, Op
from repro.ir.instructions import MakeStatic, Move
from repro.ir.validate import (
    unresolved_calls,
    verify_dataflow,
    verify_function,
    verify_module,
)
from repro.opt.pipeline import PassManager, optimize_function
from tests.helpers import build_countdown, build_diamond


def build_one_armed() -> "FunctionBuilder":
    """``y`` is assigned on the true arm only — a real def-before-use bug."""
    b = FunctionBuilder("one_armed", ("x",))
    b.branch("x", "then", "join")
    b.label("then")
    b.move("y", 1)
    b.jump("join")
    b.label("join")
    b.binop("r", Op.ADD, "y", "x")
    b.ret("r")
    return b.finish()


def build_with_orphan() -> "FunctionBuilder":
    """A reachable straight line plus an unreachable block with a bug."""
    b = FunctionBuilder("orphaned", ("x",))
    b.binop("r", Op.ADD, "x", 1)
    b.ret("r")
    b.label("orphan")
    b.binop("z", Op.ADD, "ghost", 1)  # 'ghost' is never defined
    b.ret("z")
    return b.finish()


class TestDominatorTree:
    def test_entry_dominates_everything(self):
        tree = DominatorTree.build(build_diamond())
        for label in tree.reachable:
            assert tree.dominates("entry", label)

    def test_self_dominance(self):
        tree = DominatorTree.build(build_diamond())
        assert tree.dominates("join", "join")
        assert not tree.strictly_dominates("join", "join")

    def test_branch_arms_do_not_dominate_join(self):
        tree = DominatorTree.build(build_diamond())
        assert not tree.dominates("then", "join")
        assert not tree.dominates("else", "join")
        assert tree.strictly_dominates("entry", "join")

    def test_loop_header_dominates_body(self):
        tree = DominatorTree.build(build_countdown())
        assert tree.strictly_dominates("head", "body")
        assert tree.strictly_dominates("head", "done")
        assert not tree.dominates("body", "head")

    def test_depth(self):
        tree = DominatorTree.build(build_diamond())
        assert tree.depth("entry") == 0
        assert tree.depth("then") == 1
        assert tree.depth("join") == 1

    def test_reachable_excludes_orphans(self):
        tree = DominatorTree.build(build_with_orphan())
        assert "orphan" not in tree.reachable
        assert not tree.dominates("entry", "orphan")


class TestUseBeforeDef:
    def test_diamond_defs_are_accepted(self):
        # Both arms define y: a pure dominator test cannot prove this,
        # only the definite-assignment meet can.
        assert use_before_def(build_diamond()) == []

    def test_one_armed_def_is_reported(self):
        problems = use_before_def(build_one_armed())
        assert len(problems) == 1
        problem = problems[0]
        assert problem.block == "join"
        assert problem.name == "y"
        assert "not definitely assigned" in problem.describe()

    def test_loop_carried_defs_are_accepted(self):
        assert use_before_def(build_countdown()) == []

    def test_unreachable_blocks_found(self):
        assert unreachable_blocks(build_with_orphan()) == {"orphan"}
        assert unreachable_blocks(build_diamond()) == frozenset()

    def test_definitely_assigned_entry_is_params(self):
        assigned = definitely_assigned(build_diamond())
        assert assigned["entry"] == {"x"}
        assert assigned["join"] == {"x", "y"}


class TestVerifyDataflow:
    def test_clean_functions_pass(self):
        verify_dataflow(build_diamond())
        verify_dataflow(build_countdown())

    def test_one_armed_def_raises(self):
        with pytest.raises(IRError, match="join.*'y'"):
            verify_dataflow(build_one_armed())

    def test_unreachable_bug_is_ignored(self):
        # Unreachable code cannot execute; reporting it is the lint's
        # job (DYC002), not the verifier's.
        verify_dataflow(build_with_orphan())


class TestUnresolvedCalls:
    def _module_calling(self, callee: str) -> Module:
        b = FunctionBuilder("main", ())
        b.call("r", callee, (1,))
        b.ret("r")
        module = Module()
        module.add_function(b.finish())
        return module

    def test_unknown_callee_reported(self):
        module = self._module_calling("helper")
        findings = unresolved_calls(module)
        assert len(findings) == 1
        function, block, _index, callee = findings[0]
        assert (function, block, callee) == ("main", "entry", "helper")

    def test_intrinsics_resolve(self):
        assert unresolved_calls(self._module_calling("sqrt")) == []

    def test_defined_functions_resolve(self):
        module = self._module_calling("helper")
        b = FunctionBuilder("helper", ("a",))
        b.ret("a")
        module.add_function(b.finish())
        assert unresolved_calls(module) == []

    def test_verify_module_rejects_unresolved(self):
        module = self._module_calling("helper")
        with pytest.raises(IRError, match="helper"):
            verify_module(module)
        verify_module(module, check_calls=False)  # opt-out still works


class TestLiveBeforeCache:
    def _naive(self, function, result, label, index):
        block = function.block(label)
        live = set(result.live_out[label])
        for i in range(len(block.instrs) - 1, index - 1, -1):
            instr = block.instrs[i]
            live.difference_update(instr.defs())
            live.update(instr.uses())
        return frozenset(live)

    def test_matches_naive_recomputation_everywhere(self):
        for function in (build_countdown(), build_diamond()):
            result = liveness(function)
            for label, block in function.blocks.items():
                for index in range(len(block.instrs) + 1):
                    assert result.live_before(function, label, index) == \
                        self._naive(function, result, label, index)

    def test_block_exit_index_is_live_out(self):
        function = build_countdown()
        result = liveness(function)
        for label, block in function.blocks.items():
            exit_live = result.live_before(
                function, label, len(block.instrs)
            )
            assert exit_live == result.live_out[label]

    def test_repeated_queries_are_consistent(self):
        function = build_countdown()
        result = liveness(function)
        first = result.live_before(function, "body", 0)
        again = result.live_before(function, "body", 0)
        assert first == again == frozenset({"s", "n"})


def _drop_first_move(function) -> bool:
    """A deliberately broken "pass": deletes the entry block's first
    Move, orphaning every later use of its destination."""
    entry = function.blocks[function.entry]
    for index, instr in enumerate(entry.instrs):
        if isinstance(instr, Move):
            del entry.instrs[index]
            return True
    return False


class TestPipelineDebugMode:
    def test_debug_mode_catches_broken_pass(self):
        manager = PassManager(passes=(_drop_first_move,), verify=True)
        with pytest.raises(IRError, match="_drop_first_move"):
            manager.run(build_countdown())

    def test_error_names_the_function(self):
        manager = PassManager(passes=(_drop_first_move,), verify=True)
        with pytest.raises(IRError, match="countdown"):
            manager.run(build_countdown())

    def test_without_debug_the_bug_slips_through(self):
        # The contrast that motivates the mode: verify=False lets the
        # miscompile escape the pipeline silently.
        manager = PassManager(passes=(_drop_first_move,))
        manager.run(build_countdown())

    def test_standard_pipeline_is_clean_under_debug(self):
        for function in (build_countdown(), build_diamond()):
            optimize_function(function, debug=True)
            verify_function(function)
            verify_dataflow(function)


class TestSplitAtAnnotations:
    def _annotated_mid_block(self):
        b = FunctionBuilder("specialize_me", ("x", "n"))
        b.move("acc", 0)
        b.make_static("x")  # mid-block: index 1
        b.binop("acc", Op.ADD, "acc", "x")
        b.jump("head")
        b.label("head")
        b.binop("c", Op.GT, "n", 0)
        b.branch("c", "body", "done")
        b.label("body")
        b.binop("acc", Op.ADD, "acc", "x")
        b.binop("n", Op.SUB, "n", 1)
        b.jump("head")
        b.label("done")
        b.ret("acc")
        return b.finish()

    def test_split_preserves_dataflow_validity(self):
        function = self._annotated_mid_block()
        split_at_annotations(function)
        verify_function(function)
        verify_dataflow(function)

    def test_annotations_become_block_initial(self):
        function = self._annotated_mid_block()
        split_at_annotations(function)
        for block in function.blocks.values():
            for index, instr in enumerate(block.instrs):
                if isinstance(instr, MakeStatic):
                    assert index == 0
