"""Unit-level tests for specializer mechanics and emitted-code shape."""

import dataclasses
import pickle

import pytest

from repro.config import ALL_ON
from repro.dyc import compile_annotated, compile_key, compile_static
from repro.dyc import lowering
from repro.dyc.genext import (
    GeneratingExtension,
    build_generating_extension,
)
from repro.errors import MachineError, SpecializationError
from repro.evalharness import runner
from repro.evalharness.runner import reset_invariant_caches, run_workload
from repro.frontend import compile_source
from repro.ir import (
    BasicBlock,
    Branch,
    EnterRegion,
    ExitRegion,
    Function,
    Jump,
    Memory,
    Move,
    Reg,
    Return,
)
from repro.machine import BACKENDS, Machine
from repro.runtime.cache import UncheckedCache
from repro.runtime.specializer import Specializer, SpecializedCode
from repro.workloads import ALL_WORKLOADS, WORKLOADS_BY_NAME


def emitted_code(src, *args, config=ALL_ON, memory=None):
    module = compile_source(src)
    compiled = compile_annotated(module, config)
    machine, runtime = compiled.make_machine(memory=memory)
    result = machine.run(module.main or "f", *args)
    cache = runtime.entry_caches[0]
    code = (cache._value if isinstance(cache, UncheckedCache)
            else next(iter(cache.items()))[1])
    return result, code, runtime


class TestThreadJumps:
    def _code(self, blocks, entry):
        function = Function("r", (), blocks={
            b.label: b for b in blocks
        }, entry=entry)
        return SpecializedCode(region_id=0, function=function)

    def test_trivial_chain_collapsed(self):
        code = self._code([
            BasicBlock("a", [Jump("b")]),
            BasicBlock("b", [Jump("c")]),
            BasicBlock("c", [Move("x", Reg("y")), Return(None)]),
        ], entry="a")
        Specializer._thread_jumps(code, protected={"a"})
        assert set(code.function.blocks) == {"a", "c"}
        assert code.function.blocks["a"].instrs == [Jump("c")]

    def test_protected_blocks_kept(self):
        code = self._code([
            BasicBlock("a", [Jump("b")]),
            BasicBlock("b", [Jump("c")]),
            BasicBlock("c", [Return(None)]),
        ], entry="a")
        Specializer._thread_jumps(code, protected={"a", "b"})
        assert "b" in code.function.blocks

    def test_branch_targets_retargeted(self):
        code = self._code([
            BasicBlock("a", [Branch(Reg("c"), "t1", "t2")]),
            BasicBlock("t1", [Jump("end")]),
            BasicBlock("t2", [Move("x", Reg("y")), Jump("end")]),
            BasicBlock("end", [Return(None)]),
        ], entry="a")
        Specializer._thread_jumps(code, protected={"a"})
        term = code.function.blocks["a"].instrs[-1]
        assert term.if_true == "end"     # threaded through t1
        assert term.if_false == "t2"     # t2 has real content

    def test_jump_absorbs_singleton_exit(self):
        code = self._code([
            BasicBlock("a", [Move("x", Reg("y")), Jump("ex")]),
            BasicBlock("ex", [ExitRegion(0)]),
        ], entry="a")
        Specializer._thread_jumps(code, protected={"a"})
        assert code.function.blocks["a"].instrs[-1] == ExitRegion(0)
        assert "ex" not in code.function.blocks

    def test_context_map_updated(self):
        code = self._code([
            BasicBlock("a", [Jump("b")]),
            BasicBlock("b", [Jump("c")]),
            BasicBlock("c", [Return(None)]),
        ], entry="a")
        code.contexts[("lbl", frozenset(), (1,))] = "b"
        Specializer._thread_jumps(code, protected={"a"})
        assert code.contexts[("lbl", frozenset(), (1,))] == "c"

    def test_cycle_of_jump_only_blocks_keeps_one(self):
        code = self._code([
            BasicBlock("a", [Jump("b")]),
            BasicBlock("b", [Jump("c")]),
            BasicBlock("c", [Jump("b")]),
        ], entry="a")
        code.contexts[("lbl", frozenset(), (1,))] = "c"
        Specializer._thread_jumps(code, protected={"a"})
        assert set(code.function.blocks) == {"a", "b"}
        assert code.function.blocks["a"].instrs == [Jump("b")]
        assert code.function.blocks["b"].instrs == [Jump("b")]
        assert code.contexts[("lbl", frozenset(), (1,))] == "b"


class TestJumpOnlyCycle:
    """A static loop whose contexts all emit nothing and recur: the
    threaded jumps must still form the loop the static program runs."""

    SRC = """
    func spin(n, d) {
        make_static(n, i) : cache_one_unchecked;
        var i = 0;
        while (n > 0) { i = 1 - i; }
        return d;
    }
    """

    @pytest.mark.parametrize(
        "backend", BACKENDS,
        ids=["reference", "threaded", "threaded-fast"])
    def test_loops_to_the_step_limit_like_the_static_program(self,
                                                             backend):
        module = compile_source(self.SRC)
        static = Machine(compile_static(module), step_limit=20000,
                         backend=backend)
        with pytest.raises(MachineError, match="step limit"):
            static.run("spin", 1, 5)
        machine, runtime = compile_annotated(module).make_machine(
            step_limit=20000, backend=backend)
        with pytest.raises(MachineError, match="step limit"):
            machine.run("spin", 1, 5)
        code = runtime.entry_caches[0]._value
        for block in code.function.blocks.values():
            for target in block.instrs[-1].successors():
                assert target in code.function.blocks
        assert any(block.instrs == [Jump(label)]
                   for label, block in code.function.blocks.items())


class TestLoweredOnce:
    """Generating extensions are lowered when the program is compiled,
    and a run reads only the lowered form."""

    def test_lowered_once_per_extension_per_compile(self, monkeypatch):
        lowered = []
        inner = lowering.lower_extension

        def counted(genext):
            lowered.append(genext)
            return inner(genext)

        monkeypatch.setattr(lowering, "lower_extension", counted)
        for workload in ALL_WORKLOADS:
            lowered.clear()
            compiled = compile_annotated(compile_source(workload.source))
            genexts = list(compiled.genexts.values())
            assert [id(g) for g in lowered] == [id(g) for g in genexts]
        reset_invariant_caches()
        for workload in ALL_WORKLOADS:
            lowered.clear()
            cold = run_workload(workload, backend="threaded")
            # The cold run compiled the program once; running it and a
            # warm run of the shared program lower nothing.
            assert len(lowered) == len(cold.region_stats), workload.name
            run_workload(workload, backend="threaded")
            assert len(lowered) == len(cold.region_stats), workload.name

    def test_every_built_extension_is_lowered(self):
        # Not only those compile_annotated keeps: lint builds its own.
        dot = WORKLOADS_BY_NAME["dotproduct"]
        compiled = compile_annotated(compile_source(dot.source))
        for region_id, region in compiled.regions.items():
            genext = build_generating_extension(region)
            assert genext.lowered.entries.keys() == \
                compiled.genexts[region_id].lowered.entries.keys()

    def test_warm_run_reads_only_the_lowered_form(self, monkeypatch):
        romberg = WORKLOADS_BY_NAME["romberg"]
        reset_invariant_caches()
        run_workload(romberg, backend="threaded")  # compiles and caches
        resolved = []
        resolve = GeneratingExtension.resolve_context

        def counted(self, *args):
            resolved.append(args)
            return resolve(self, *args)

        scans = []

        class Watched(dict):
            def __iter__(self):
                scans.append("iter")
                return super().__iter__()

            def __getitem__(self, key):
                scans.append("getitem")
                return super().__getitem__(key)

            def items(self):
                scans.append("items")
                return super().items()

            def values(self):
                scans.append("values")
                return super().values()

            def keys(self):
                scans.append("keys")
                return super().keys()

        monkeypatch.setattr(GeneratingExtension, "resolve_context",
                            counted)
        program = runner._COMPILED_PROGRAMS.get(
            (romberg.source, compile_key(ALL_ON)))
        for genext in program.genexts.values():
            monkeypatch.setattr(genext, "blocks", Watched(genext.blocks))
        result = run_workload(romberg, backend="threaded")
        assert sum(s.contexts_specialized
                   for s in result.region_stats.values()) > 0
        assert resolved == []
        assert scans == []

    def test_unpickled_program_is_lowered_again(self):
        dot = WORKLOADS_BY_NAME["dotproduct"]
        compiled = compile_annotated(compile_source(dot.source))
        copy = pickle.loads(pickle.dumps(compiled))
        for genext in copy.genexts.values():
            assert genext.lowered is not None
            assert genext.lowered is not \
                compiled.genexts[genext.region.region_id].lowered
        results = []
        for program in (compiled, copy):
            memory = Memory()
            args = dot.setup(memory).args
            machine, runtime = program.make_machine(memory=memory)
            for _ in range(3):
                machine.run(dot.entry, *args)
            # Equal, not byte-identical: an unpickled division may repr
            # its elements in another order.
            results.append((machine.stats.dc_cycles,
                            {region_id: dataclasses.asdict(stats)
                             for region_id, stats
                             in runtime.stats.regions.items()}))
        assert results[0] == results[1]


class TestEmittedCodeShape:
    def test_no_makestatic_in_emitted_code(self):
        from repro.ir import MakeDynamic, MakeStatic
        src = """
        func f(x, n) {
            make_static(n, i);
            var s = 0;
            for (i = 0; i < n; i = i + 1) { s = s + x; }
            make_dynamic(n);
            return s + n;
        }
        """
        _, code, _ = emitted_code(src, 2, 4)
        for block in code.function.blocks.values():
            for instr in block.instrs:
                assert not isinstance(instr, (MakeStatic, MakeDynamic))

    def test_emitted_code_verifies_structurally(self):
        from repro.ir import verify_function
        src = """
        func f(v, w, n) {
            make_static(v, n, i);
            var s = 0.0;
            for (i = 0; i < n; i = i + 1) { s = s + v@[i] * w[i]; }
            return s;
        }
        """
        mem = Memory()
        v = mem.alloc_array([1.0, 0.0, 2.0])
        w = mem.alloc_array([4.0, 5.0, 6.0])
        _, code, _ = emitted_code(src, v, w, 3, memory=mem)
        verify_function(code.function)

    def test_footprint_tracks_instruction_count(self):
        src = "func f(x, n) { make_static(n); return x + n * n; }"
        _, code, _ = emitted_code(src, 1, 3)
        assert code.footprint == code.function.instruction_count()

    def test_make_dynamic_residualizes_value(self):
        src = """
        func f(x, n) {
            make_static(n);
            var a = n * 2;
            make_dynamic(n);
            return a + n + x;
        }
        """
        result, code, _ = emitted_code(src, 10, 4)
        assert result == 22
        # n's value (4) must appear as a residual constant move.
        from repro.ir import Imm
        moves = [
            i for b in code.function.blocks.values() for i in b.instrs
            if isinstance(i, Move) and i.src == Imm(4)
        ]
        assert moves, "make_dynamic must materialize the static value"


class TestGuardrails:
    def test_runaway_specialization_detected(self):
        import repro.runtime.specializer as sp
        # An annotated loop whose bound is *dynamic* is demoted (safe);
        # but a static chain that simply never converges is caught by
        # the context limit.
        src = """
        func f(x, n) {
            make_static(n, i);
            var i = 0;
            while (i >= 0) { i = i + 1; }
            return x;
        }
        """
        module = compile_source(src)
        compiled = compile_annotated(module)
        machine, _ = compiled.make_machine()
        old = sp.MAX_CONTEXTS_PER_BATCH
        sp.MAX_CONTEXTS_PER_BATCH = 500
        try:
            with pytest.raises(SpecializationError, match="exceeded"):
                machine.run("f", 1, 3)
        finally:
            sp.MAX_CONTEXTS_PER_BATCH = old

    def test_missing_entry_key_reported(self):
        src = "func f(x, n) { make_static(n); return x + n; }"
        module = compile_source(src)
        compiled = compile_annotated(module)
        machine, runtime = compiled.make_machine()
        # Simulate a corrupted host env (n absent) via direct dispatch.
        instr = EnterRegion(region_id=0, keys=("n",), exits=())
        with pytest.raises(SpecializationError, match="undefined"):
            runtime.enter_region(machine, instr, {"x": 1})

    def test_missing_entry_key_reported_after_dispatch_is_bound(self):
        """The first dispatch through an ``EnterRegion`` binds its
        record; a later dispatch missing a promoted variable raises the
        same error as an unbound one."""
        src = "func f(x, n) { make_static(n); return x + n; }"
        compiled = compile_annotated(compile_source(src))
        machine, runtime = compiled.make_machine()
        assert machine.run("f", 1, 2) == 3
        [instr] = [instr for _, _, instr
                    in compiled.module.functions["f"].instructions()
                    if isinstance(instr, EnterRegion)]
        with pytest.raises(SpecializationError) as raised:
            runtime.enter_region(machine, instr, {"x": 1})
        assert raised.value.message == (
            "region 0: promoted variable 'n' is undefined at region "
            "entry")
        assert raised.value.region_id == 0
        assert str(raised.value) == raised.value.message
        # An equal instruction that is not the bound one shares the
        # region's entry cache.
        twin = EnterRegion(region_id=0, keys=instr.keys,
                           exits=instr.exits, policy=instr.policy)
        assert twin == instr and twin is not instr
        before = runtime.entry_caches[0]
        assert runtime.enter_region(machine, twin, {"x": 5, "n": 2}) \
            == runtime.enter_region(machine, instr, {"x": 5, "n": 2})
        assert list(runtime.entry_caches) == [0]
        assert runtime.entry_caches[0] is before


class TestPromotionMechanics:
    SRC = """
    func f(x, n) {
        make_static(n);
        var a = n + 1;
        n = x * 2;
        var b = n + a;
        n = x + 100;
        var c = n + b;
        return c;
    }
    """

    def test_chained_promotions(self):
        module = compile_source(self.SRC)
        static_machine = Machine(compile_static(module))
        compiled = compile_annotated(module)
        machine, runtime = compiled.make_machine()
        for x in (1, 2, 1, 5):
            assert machine.run("f", x, 3) == static_machine.run(
                "f", x, 3)
        stats = runtime.stats.regions[0]
        assert stats.internal_promotion_points >= 2
        assert stats.internal_promotions_executed >= 8

    def test_promotion_cache_reuse(self):
        module = compile_source(self.SRC)
        compiled = compile_annotated(module)
        machine, runtime = compiled.make_machine()
        machine.run("f", 1, 3)
        generated_after_first = \
            runtime.stats.regions[0].instructions_generated
        machine.run("f", 1, 3)   # all promoted values recur: no growth
        assert (runtime.stats.regions[0].instructions_generated
                == generated_after_first)
