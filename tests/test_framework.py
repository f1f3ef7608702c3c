"""Tests for the generic dataflow engine and its clients.

Covers the engine itself (directions, boundary pinning, scope) and the
differential equivalence of the framework-ported liveness and
definite-assignment against the legacy reference implementations on
every workload's and example's IR (pre- and post-optimization).
"""

import copy
from pathlib import Path

import pytest

from repro.analysis import (
    SetUnionProblem,
    definitely_assigned,
    liveness,
    solve,
)
from repro.analysis.legacy import (
    legacy_definitely_assigned,
    legacy_liveness,
    verify_framework_analyses,
)
from repro.frontend import compile_source
from repro.ir import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instructions import Jump, Reg, Return
from repro.lint.extract import embedded_sources_from_file
from repro.opt import optimize_function
from repro.workloads import ALL_WORKLOADS
from tests.helpers import build_countdown, build_diamond

EXAMPLES = Path(__file__).parent.parent / "examples"


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------

class TestEngine:
    def test_forward_boundary_is_pinned_to_params(self):
        f = build_countdown()
        assigned = definitely_assigned(f)
        # The loop's back edge re-enters the header, but the entry
        # block's fact stays exactly the parameter set.
        assert assigned[f.entry] == frozenset(f.params)

    def test_backward_boundary_is_empty_at_exits(self):
        f = build_diamond()
        result = liveness(f)
        assert result.live_out["join"] == frozenset()

    def test_results_are_in_program_order(self):
        f = build_diamond()
        result = liveness(f)
        # ``before`` is always the block-entry fact, even for the
        # backward problem: the join block's operands are live on
        # entry while its own result is not.
        assert "y" in result.live_in["join"]
        assert "r" not in result.live_in["join"]

    def test_scope_all_covers_unreachable_blocks(self):
        f = Function(name="orphaned", params=("a",))
        entry = f.new_block("entry")
        entry.instrs.append(Return(Reg("a")))
        orphan = f.new_block("orphan")
        orphan.instrs.append(Return(Reg("ghost")))
        live = liveness(f)
        assert live.live_in["orphan"] == frozenset({"ghost"})
        # The must-analysis is scoped to reachable blocks only.
        assert "orphan" not in definitely_assigned(f)

    def test_loop_facts_flow_around_back_edges(self):
        f = build_countdown()
        result = solve(f, _SeenBlocks())
        # The header is visited before the body; only a second visit,
        # after the back edge delivered the body's fact, records it.
        assert "body" in result.before["head"]
        assert result.before[f.entry] == frozenset()


class _SeenBlocks(SetUnionProblem):
    """Union of the labels of every block on some path to a point."""

    def transfer(self, function, label, value):
        return value | {label}


# ----------------------------------------------------------------------
# Differential: framework ports vs. legacy reference implementations
# ----------------------------------------------------------------------

def _corpus_modules():
    cases = []
    for workload in ALL_WORKLOADS:
        cases.append((workload.name, workload.source))
    for path in sorted(EXAMPLES.glob("*.py")):
        for name, text in embedded_sources_from_file(str(path)):
            cases.append((f"{path.name}::{name}", text))
    return cases


CORPUS = _corpus_modules()


class TestDifferential:
    @pytest.mark.parametrize(
        "name,source", CORPUS, ids=[c[0] for c in CORPUS]
    )
    def test_ports_match_legacy_on_corpus(self, name, source):
        module = compile_source(source)
        for function in module.functions.values():
            verify_framework_analyses(function)

    @pytest.mark.parametrize(
        "name,source", CORPUS[:4], ids=[c[0] for c in CORPUS[:4]]
    )
    def test_ports_match_legacy_after_optimization(self, name, source):
        module = compile_source(source)
        for function in module.functions.values():
            optimized = optimize_function(copy.deepcopy(function))
            verify_framework_analyses(optimized)

    def test_liveness_identical_including_unreachable(self):
        f = Function(name="mixed", params=("p",))
        entry = f.new_block("entry")
        entry.instrs.append(Return(Reg("p")))
        orphan = f.new_block("dead")
        orphan.instrs.append(Jump("entry"))
        result = liveness(f)
        ref_in, ref_out = legacy_liveness(f)
        assert dict(result.live_in) == ref_in
        assert dict(result.live_out) == ref_out

    def test_defassign_identical_on_short_circuit_diamond(self):
        # Both arms assign ``v``; neither dominates the join — the
        # intersection join accepts it, matching the legacy sweep.
        b = FunctionBuilder("sc", ("a",))
        b.branch("a", "then", "else")
        b.label("then")
        b.move("v", 1)
        b.jump("join")
        b.label("else")
        b.move("v", 2)
        b.jump("join")
        b.label("join")
        b.ret("v")
        f = b.finish()
        assert definitely_assigned(f) == legacy_definitely_assigned(f)
        assert "v" in definitely_assigned(f)["join"]


# ----------------------------------------------------------------------
# Debug-mode pass verification hooks the differential check in
# ----------------------------------------------------------------------

class TestDebugVerification:
    def test_optimize_function_debug_runs_framework_check(self):
        source = ALL_WORKLOADS[0].source
        module = compile_source(source)
        for function in module.functions.values():
            optimize_function(function, debug=True)  # must not raise
