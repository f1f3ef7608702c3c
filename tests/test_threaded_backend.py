"""The direct-threaded backend must be indistinguishable from the
reference interpreter: byte-identical ExecutionStats (cycles,
instructions, dc_cycles, dispatch_cycles, scope accounting) and identical
results for every workload, plus correct translation-cache invalidation
when emitted code is patched."""

import dataclasses

import pytest

from repro.config import ALL_OFF, ALL_ON
from repro.dyc import compile_annotated, compile_static
from repro.errors import MachineError, TrapError
from repro.evalharness.runner import _machine_kwargs
from repro.frontend import compile_source
from repro.ir import (
    BasicBlock,
    Function,
    FunctionBuilder,
    Memory,
    Module,
    Op,
)
from repro.ir.eval import eval_binop, eval_unop
from repro.ir.instructions import ExitRegion, Imm, Move, Return
from repro.machine import ALPHA_21164, BACKENDS, ICacheModel, Machine
from repro.machine.threaded import BINOP_FUNCS, COMPARE_FUNCS, UNOP_FUNCS
from repro.workloads import ALL_WORKLOADS, WORKLOADS_BY_NAME


def _stats_dict(stats):
    return dataclasses.asdict(stats.snapshot())


def _run_under(workload, config, backend):
    """One static + dynamic execution; returns the full observable state."""
    module = compile_source(workload.source)
    static_module = compile_static(module)
    compiled = compile_annotated(module, config)
    tracked = frozenset(workload.region_functions)
    kwargs = _machine_kwargs(workload, ALPHA_21164, backend)

    static_memory = Memory()
    static_input = workload.setup(static_memory)
    static_machine = Machine(static_module, memory=static_memory,
                             tracked=tracked, **kwargs)
    static_result = static_machine.run(workload.entry,
                                       *static_input.args)

    dynamic_memory = Memory()
    dynamic_input = workload.setup(dynamic_memory)
    dynamic_machine, _runtime = compiled.make_machine(
        memory=dynamic_memory, tracked=tracked, **kwargs,
    )
    dynamic_result = dynamic_machine.run(workload.entry,
                                         *dynamic_input.args)
    return {
        "static": _stats_dict(static_machine.stats),
        "dynamic": _stats_dict(dynamic_machine.stats),
        "static_result": static_result,
        "dynamic_result": dynamic_result,
    }


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        "name", [w.name for w in ALL_WORKLOADS]
    )
    def test_all_workloads_byte_identical(self, name):
        """Acceptance: every workload, both runs, full stats equality."""
        workload = WORKLOADS_BY_NAME[name]
        reference = _run_under(workload, ALL_ON, "reference")
        threaded = _run_under(workload, ALL_ON, "threaded")
        assert reference == threaded

    @pytest.mark.parametrize("name,config", [
        ("dinero", ALL_ON.without("strength_reduction")),
        ("dotproduct", ALL_OFF),
        ("pnmconvol",
         ALL_ON.without("zero_copy_propagation",
                        "dead_assignment_elimination")),
        ("chebyshev", ALL_ON.without("complete_loop_unrolling")),
        ("m88ksim", ALL_ON.without("internal_promotions")),
    ])
    def test_sample_ablations_byte_identical(self, name, config):
        workload = WORKLOADS_BY_NAME[name]
        reference = _run_under(workload, config, "reference")
        threaded = _run_under(workload, config, "threaded")
        assert reference == threaded


class TestEvaluatorTables:
    #: (lhs, rhs) samples covering int/float/bool-ish and trap cases.
    SAMPLES = [(7, 3), (-8, 3), (2.5, 4.0), (0, 5), (6, 0), (1.5, 0.0),
               (-7, -2), (3, 1.5)]

    def test_binop_funcs_match_eval_binop(self):
        for op, func in BINOP_FUNCS.items():
            for lhs, rhs in self.SAMPLES:
                try:
                    expected = eval_binop(op, lhs, rhs)
                except TrapError as err:
                    with pytest.raises(TrapError) as caught:
                        func(lhs, rhs)
                    assert str(caught.value) == str(err)
                else:
                    got = func(lhs, rhs)
                    assert got == expected, (op, lhs, rhs)
                    assert type(got) is type(expected), (op, lhs, rhs)

    def test_compare_funcs_match_eval_binop(self):
        """A fused comparison writes ``1`` or ``0`` from its predicate's
        truth; that must be the int ``eval_binop`` returns."""
        assert set(COMPARE_FUNCS) == {Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT,
                                      Op.GE}
        nan = float("nan")
        for op, pred in COMPARE_FUNCS.items():
            for lhs, rhs in self.SAMPLES + [(-0.0, 0.0), (2, 2.0),
                                            (nan, nan), (nan, 1)]:
                expected = eval_binop(op, lhs, rhs)
                assert type(expected) is int
                assert (1 if pred(lhs, rhs) else 0) == expected, \
                    (op, lhs, rhs)
                assert BINOP_FUNCS[op](lhs, rhs) == expected

    def test_unop_funcs_match_eval_unop(self):
        for op, func in UNOP_FUNCS.items():
            for value in (5, -5, 0, 2.25, -0.5):
                expected = eval_unop(op, value)
                got = func(value)
                assert got == expected and type(got) is type(expected)


class TestTranslationCache:
    def _constant_module(self, value):
        b = FunctionBuilder("f", ())
        b.move("x", value)
        b.ret("x")
        mod = Module()
        mod.add_function(b.finish())
        return mod

    def test_translations_are_cached(self):
        mod = self._constant_module(1)
        machine = Machine(mod, backend="threaded")
        assert machine.run("f") == 1
        fn = mod.functions["f"]
        backend = machine._backend
        first = backend.translation(
            fn, 0.0, ALPHA_21164.static_schedule_factor
        )
        assert machine.run("f") == 1
        again = backend.translation(
            fn, 0.0, ALPHA_21164.static_schedule_factor
        )
        assert again is first

    def test_version_bump_invalidates_translation(self):
        """Patching a function's blocks must force retranslation."""
        mod = self._constant_module(1)
        machine = Machine(mod, backend="threaded")
        assert machine.run("f") == 1

        fn = mod.functions["f"]
        label = fn.entry
        fn.blocks[label] = BasicBlock(
            label, [Move("x", Imm(2)), Return(Imm(2))]
        )
        # Without a version bump the stale translation would still run;
        # bump_version is what the specializer calls after patching.
        fn.bump_version()
        assert machine.run("f") == 2

    def test_stats_identical_after_patch(self):
        """The retranslated code charges exactly like the reference."""
        results = {}
        for backend in BACKENDS:
            mod = self._constant_module(1)
            machine = Machine(mod, backend=backend)
            machine.run("f")
            fn = mod.functions["f"]
            fn.blocks[fn.entry] = BasicBlock(
                fn.entry, [Move("x", Imm(2)), Move("y", Imm(3)),
                           Return(Imm(5))]
            )
            fn.bump_version()
            value = machine.run("f")
            results[backend] = (
                value, dataclasses.asdict(machine.stats.snapshot())
            )
        assert results["reference"] == results["threaded"]

    def test_region_entry_pays_its_footprints_penalty(self):
        """Region code is entered with the footprint it has then (a
        promotion grows it between entries, and patches it in place):
        each entry pays that footprint's I-cache penalty, on the
        translation of the code's current version."""
        icache = ICacheModel(capacity_bytes=8)   # two instructions fit
        outcomes = {}
        for backend in BACKENDS:
            code = Function(name="region0", params=())
            code.add_block(BasicBlock("r", [Move("x", Imm(1)),
                                            ExitRegion(0)]))
            machine = Machine(Module(), icache=icache, backend=backend)
            costs = []
            for footprint, patch in ((2, False), (3, False), (3, False),
                                     (3, True), (4, False)):
                if patch:
                    code.blocks["r"] = BasicBlock(
                        "r", [Move("x", Imm(2.5)), ExitRegion(1)])
                    code.bump_version()
                before = machine.stats.cycles
                outcome = machine.exec_region_code(code, {}, footprint)
                costs.append((outcome, machine.stats.cycles - before))
            outcomes[backend] = costs
        reference = outcomes["reference"]
        cost = [cycles for _, cycles in reference]
        assert cost[0] < cost[1] == cost[2] < cost[3] < cost[4]
        assert [outcome for outcome, _ in reference] == \
            [("exit", 0)] * 3 + [("exit", 1)] * 2
        for backend in BACKENDS:
            assert outcomes[backend] == reference, backend

    def test_runtime_patch_retranslates_region_code(self):
        """Internal promotions patch emitted code mid-execution; the
        threaded backend must pick up the new blocks (m88ksim exercises
        lazy promotion continuations)."""
        workload = WORKLOADS_BY_NAME["m88ksim"]
        reference = _run_under(workload, ALL_ON, "reference")
        threaded = _run_under(workload, ALL_ON, "threaded")
        assert reference == threaded
        assert reference["dynamic"]["dispatches"] > 0


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        mod = Module()
        b = FunctionBuilder("f", ())
        b.ret(0)
        mod.add_function(b.finish())
        with pytest.raises(MachineError):
            Machine(mod, backend="jit")

    def test_backends_listing(self):
        assert BACKENDS == ("reference", "threaded", "pycodegen")

    def test_trap_matches_reference(self):
        for backend in BACKENDS:
            b = FunctionBuilder("f", ("n",))
            b.binop("x", Op.DIV, 1, "n")
            b.ret("x")
            mod = Module()
            mod.add_function(b.finish())
            machine = Machine(mod, backend=backend)
            with pytest.raises(TrapError):
                machine.run("f", 0)


def _compare_loop():
    """``f(x, n)``: ``i = 0; while (i < n) i = i + x; return i`` — the
    loop head is a fused compare-and-branch block."""
    b = FunctionBuilder("f", ("x", "n"))
    b.move("i", 0)
    b.jump("head")
    b.label("head")
    b.binop("c", Op.LT, "i", "n")
    b.branch("c", "body", "done")
    b.label("body")
    b.binop("i", Op.ADD, "i", "x")
    b.jump("head")
    b.label("done")
    b.ret("i")
    mod = Module()
    mod.add_function(b.finish())
    return mod


def _block(op, lhs, rhs, cond="c"):
    """``f(x)``: ``c = lhs op rhs; branch cond`` then return 1 or 0."""
    b = FunctionBuilder("f", ("x",))
    b.binop("c", op, lhs, rhs)
    b.branch(cond, "yes", "no")
    b.label("yes")
    b.ret(1)
    b.label("no")
    b.ret(0)
    mod = Module()
    mod.add_function(b.finish())
    return mod


def _outcome(mod, *args, step_limit=500_000_000):
    """A run's result or error, and the stats it left, per backend."""
    outcomes = {}
    for backend in BACKENDS:
        machine = Machine(mod, backend=backend, step_limit=step_limit)
        try:
            result = ("ok", machine.run("f", *args))
        except (MachineError, TrapError) as exc:
            result = (type(exc).__name__, str(exc))
        outcomes[backend] = (result, _stats_dict(machine.stats))
    return outcomes


class TestFusedBlocks:
    """A block that is exactly a BinOp plus a Branch on its destination
    runs as one threaded runner; these pin it to the reference on all
    three backends, trap and step-limit paths included."""

    def _assert_fused(self, mod):
        machine = Machine(mod, backend="threaded")
        fused = [label for label, block in mod.functions["f"].blocks.items()
                 if machine._backend._fused_block(block, 0.0, 1.0)]
        assert fused, "fixture has no fused block"

    def test_float_operand_charges_the_extra(self):
        mod = _compare_loop()
        self._assert_fused(mod)
        ints = _outcome(mod, 2, 9)
        floats = _outcome(mod, 2.0, 9)
        assert ints["reference"][0] == ("ok", 10)
        assert floats["reference"][0] == ("ok", 10.0)
        for backend in BACKENDS:
            assert ints[backend] == ints["reference"], backend
            assert floats[backend] == floats["reference"], backend
        # The float run pays the surcharge on every loop test.
        int_stats, float_stats = ints["threaded"][1], floats["threaded"][1]
        assert float_stats["instructions"] == int_stats["instructions"]
        assert float_stats["cycles"] > int_stats["cycles"]

    @pytest.mark.parametrize("lhs,rhs", [("x", 1), (1, "x"), ("x", "x"),
                                         ("x", 2.5)])
    def test_operand_shapes(self, lhs, rhs):
        mod = _block(Op.LT, lhs, rhs)
        self._assert_fused(mod)
        for x in (0, 1, 3, 0.5, 2.5):
            outcomes = _outcome(mod, x)
            for backend in BACKENDS:
                assert outcomes[backend] == outcomes["reference"], \
                    (backend, x)

    def test_operator_trap_comes_before_the_commit(self):
        mod = _block(Op.AND, "x", 1)
        self._assert_fused(mod)
        outcomes = _outcome(mod, 1.5)
        result, stats = outcomes["reference"]
        assert result[0] == "TrapError" and "integer operands" in result[1]
        assert stats["instructions"] == 0
        for backend in BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend

    def test_undefined_operand_traps(self):
        mod = _block(Op.EQ, "never_set", "x")
        self._assert_fused(mod)
        outcomes = _outcome(mod, 1)
        assert outcomes["reference"][0] == (
            "TrapError", "use of undefined variable 'never_set'")
        for backend in BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend

    def test_branch_on_another_register_is_not_fused(self):
        mod = _block(Op.LT, "x", 1, cond="x")
        machine = Machine(mod, backend="threaded")
        entry = mod.functions["f"].blocks[mod.functions["f"].entry]
        assert machine._backend._fused_block(entry, 0.0, 1.0) is None
        outcomes = _outcome(mod, 0)
        for backend in BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend

    @pytest.mark.parametrize("op", sorted(COMPARE_FUNCS, key=str))
    def test_comparison_writes_an_int(self, op):
        """``c = a op b; branch c`` then ``return c``: the register
        holds the int ``1`` or ``0`` on every backend, never a bool, for
        every operand shape and numeric mix."""
        for a, b in [(1, 2), (2, 2), (1, 2.5), (2.0, 2), (1.5, 2.5),
                     (-0.0, 0.0)]:
            for lhs, rhs, args in [("x", "y", (a, b)), ("x", b, (a,)),
                                   (a, "x", (b,))]:
                fb = FunctionBuilder("f", ("x", "y")[:len(args)])
                fb.binop("c", op, lhs, rhs)
                fb.branch("c", "yes", "no")
                fb.label("yes")
                fb.ret("c")
                fb.label("no")
                fb.ret("c")
                mod = Module()
                mod.add_function(fb.finish())
                self._assert_fused(mod)
                outcomes = _outcome(mod, *args)
                expected = eval_binop(op, a, b)
                assert outcomes["reference"][0] == ("ok", expected)
                for backend in BACKENDS:
                    assert outcomes[backend] == outcomes["reference"], \
                        (backend, op, lhs, rhs)
                    assert type(outcomes[backend][0][1]) is int, \
                        (backend, op, lhs, rhs)

    @pytest.mark.parametrize("limit", [3, 7])
    def test_step_limit_reached_in_a_fused_block(self, limit):
        # Commits: entry 2 steps, then head 4, body 6, head 8, ...: both
        # limits are first exceeded by a loop-head commit.
        outcomes = _outcome(_compare_loop(), 1, 100, step_limit=limit)
        result, stats = outcomes["reference"]
        assert result[0] == "MachineError" and "step limit" in result[1]
        assert stats["instructions"] == limit + 1
        for backend in BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend
