"""The direct-threaded backend must be indistinguishable from the
reference interpreter: byte-identical ExecutionStats (cycles,
instructions, dc_cycles, dispatch_cycles, scope accounting) and identical
results for every workload, plus correct translation-cache invalidation
when emitted code is patched.  Uncounted (``threaded_fast``), it must
give the same results and instruction counts, with no block cycle
charges."""

import dataclasses
import re

import pytest

from repro.config import ALL_OFF, ALL_ON, OptConfig
from repro.dyc import compile_annotated, compile_static
from repro.errors import MachineError, TrapError
from repro.evalharness.memo import Memoizer
from repro.evalharness.runner import (
    _machine_kwargs,
    resolve_backend,
    run_workload,
)
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
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    ExitRegion,
    Hole,
    Imm,
    Jump,
    Load,
    Move,
    Reg,
    Return,
    Store,
    UnOp,
)
from repro.machine import (
    ALPHA_21164,
    BACKENDS,
    COUNTED_BACKENDS,
    ICacheModel,
    Machine,
)
from repro.machine import threaded
from repro.machine.threaded import BINOP_FUNCS, UNOP_FUNCS
from repro.workloads import ALL_WORKLOADS, WORKLOADS_BY_NAME

#: The comparison operators, which write the int 1 or 0.
COMPARISONS = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE)


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
    #: (lhs, rhs) samples covering int/float/bool-ish and trap cases,
    #: signed zeros, an int/float tie and NaN, and both sides of every
    #: int fast path's guard: a bool, each sign of either operand, an
    #: int past 64 bits and a negative shift count.
    SAMPLES = [(7, 3), (-8, 3), (2.5, 4.0), (0, 5), (6, 0), (1.5, 0.0),
               (-7, -2), (3, 1.5), (-0.0, 0.0), (2, 2.0),
               (float("nan"), float("nan")), (float("nan"), 1),
               (True, 1), (-7, 2), (7, -2), (2**70, 3), (5, -1)]

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
                    assert repr(got) == repr(expected), (op, lhs, rhs)
                    assert type(got) is type(expected), (op, lhs, rhs)

    def test_operator_expressions_match_eval_binop(self):
        """The source a block template emits for an operator evaluates
        as ``eval_binop`` and ``eval_unop`` do: the same value and type
        (a comparison writes the int ``1`` or ``0``) or the same trap,
        with its operands spelled as names, as the templates spell
        them."""
        nan = float("nan")
        assert set(threaded._INLINE_BINOPS) == set(BINOP_FUNCS)
        for op in threaded._INLINE_BINOPS:
            code = compile(threaded._binop_source(op, "a", "b"), "<op>",
                           "eval")
            for lhs, rhs in self.SAMPLES:
                scope = {**threaded._HELPER_GLOBALS, "a": lhs, "b": rhs}
                try:
                    expected = eval_binop(op, lhs, rhs)
                except TrapError as err:
                    with pytest.raises(TrapError) as caught:
                        eval(code, scope)
                    assert str(caught.value) == str(err)
                    continue
                got = eval(code, scope)
                assert type(got) is type(expected), (op, lhs, rhs)
                assert repr(got) == repr(expected), (op, lhs, rhs)
        for op, source in threaded._INLINE_UNOPS.items():
            for value in (5, -5, 0, 2.25, -0.5, -0.0, nan):
                got = eval(source.format(a="a"), {"a": value})
                expected = eval_unop(op, value)
                assert type(got) is type(expected), (op, value)
                assert repr(got) == repr(expected), (op, value)

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
        for backend in COUNTED_BACKENDS:
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
        for backend in COUNTED_BACKENDS:
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
        for backend in COUNTED_BACKENDS:
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
        assert BACKENDS == ("reference", "threaded", "threaded_fast")

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


def _outcome(mod, *args, step_limit=500_000_000, memory=None):
    """A run's result or error, and the stats it left, per backend; each
    run gets a fresh memory from the factory ``memory``, if one is
    given."""
    outcomes = {}
    for backend in COUNTED_BACKENDS:
        machine = Machine(mod, backend=backend, step_limit=step_limit,
                          memory=memory() if memory else None)
        try:
            result = ("ok", machine.run("f", *args))
        except (MachineError, TrapError) as exc:
            result = (type(exc).__name__, str(exc))
        outcomes[backend] = (result, _stats_dict(machine.stats))
    return outcomes


@pytest.fixture
def fresh_templates(monkeypatch):
    """A template cache of the test's own, so every shape the test looks
    up is one it compiled (the process-wide cache evicts its oldest)."""
    monkeypatch.setattr(threaded, "_TEMPLATES", {})


def _shape_of(runner):
    """The shape whose template ``runner`` was built from."""
    shapes = [shape for shape, code in threaded._TEMPLATES.items()
              if code is runner.__code__]
    assert len(shapes) == 1, "runner is not a template function"
    return shapes[0]


def _runners(mod, name="f", backend="threaded"):
    """The threaded block functions of ``mod``'s function ``name``."""
    machine = Machine(mod, backend=backend)
    return machine._backend.translation(mod.functions[name], 0.0,
                                        1.0).runners


def _tags(shape):
    """The part tags of ``shape``, in order."""
    i = 1
    while i < len(shape):
        yield shape[i]
        i += 1 + threaded._FIELDS[shape[i]]


@pytest.mark.usefixtures("fresh_templates")
class TestFusedBlocks:
    """A block that is exactly a BinOp plus a Branch on its destination
    runs as one threaded block function, whose branch tests the value
    the BinOp computed; these pin it to the reference on both counted
    backends, trap and step-limit paths included."""

    def _assert_fused(self, mod):
        blocks = mod.functions["f"].blocks
        runners = _runners(mod)
        fused = [label for label, block in blocks.items()
                 if len(block.instrs) == 2
                 and isinstance(block.instrs[0], BinOp)
                 and isinstance(block.instrs[1], Branch)
                 and block.instrs[1].cond == Reg(block.instrs[0].dest)]
        assert fused, "fixture has no fused block"
        for label in fused:
            shape = _shape_of(runners[label])
            assert "bin" in shape and "branch" in shape
            assert "read" not in shape     # no second register read

    def test_float_operand_charges_the_extra(self):
        mod = _compare_loop()
        self._assert_fused(mod)
        ints = _outcome(mod, 2, 9)
        floats = _outcome(mod, 2.0, 9)
        assert ints["reference"][0] == ("ok", 10)
        assert floats["reference"][0] == ("ok", 10.0)
        for backend in COUNTED_BACKENDS:
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
            for backend in COUNTED_BACKENDS:
                assert outcomes[backend] == outcomes["reference"], \
                    (backend, x)

    def test_operator_trap_comes_before_the_commit(self):
        mod = _block(Op.AND, "x", 1)
        self._assert_fused(mod)
        outcomes = _outcome(mod, 1.5)
        result, stats = outcomes["reference"]
        assert result[0] == "TrapError" and "integer operands" in result[1]
        assert stats["instructions"] == 0
        for backend in COUNTED_BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend

    def test_undefined_operand_traps(self):
        mod = _block(Op.EQ, "never_set", "x")
        self._assert_fused(mod)
        outcomes = _outcome(mod, 1)
        assert outcomes["reference"][0] == (
            "TrapError", "use of undefined variable 'never_set'")
        for backend in COUNTED_BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend

    def test_branch_on_another_register_is_not_fused(self):
        mod = _block(Op.LT, "x", 1, cond="x")
        entry = mod.functions["f"].entry
        assert "read" in _shape_of(_runners(mod)[entry])
        outcomes = _outcome(mod, 0)
        for backend in COUNTED_BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend

    @pytest.mark.parametrize("op", sorted(COMPARISONS, key=str))
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
                for backend in COUNTED_BACKENDS:
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
        for backend in COUNTED_BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend


def _function(*blocks, params=("x",), extra=()):
    """A module of ``f(params)`` with ``blocks`` (label, instructions) in
    order, plus the functions in ``extra``."""
    fn = Function(name="f", params=params)
    for label, instrs in blocks:
        fn.add_block(BasicBlock(label, list(instrs)))
    mod = Module()
    mod.add_function(fn)
    for other in extra:
        mod.add_function(other)
    return mod


def _g(arity):
    b = FunctionBuilder("g", tuple(f"p{i}" for i in range(arity)))
    b.ret(arity)
    return b.finish()


#: Blocks whose translation must raise, trap or resolve late exactly as
#: the reference does: (id, module, argument tuples to run it with).
ERROR_SHAPES = [
    ("div_by_zero_imm", _function(("e", [
        Move("a", Imm(2.5)),
        BinOp("x", Op.DIV, Imm(1), Imm(0)),
        Return(Reg("x"))])), [(0,)]),
    ("int_only_trap_imm", _function(("e", [
        BinOp("x", Op.AND, Imm(1.5), Imm(1)), Return(Reg("x"))])), [(0,)]),
    ("folded_float_imm", _function(("e", [
        BinOp("x", Op.MUL, Imm(1.5), Imm(2)), Return(Reg("x"))])), [(0,)]),
    ("hole_rhs_after_reg", _function(("e", [
        Move("a", Reg("x")),
        BinOp("y", Op.ADD, Reg("u"), Hole("k")), Return(Reg("y"))])),
     [(0,)]),
    ("hole_lhs", _function(("e", [
        BinOp("y", Op.ADD, Hole("k"), Reg("u")), Return(Reg("y"))])),
     [(0,)]),
    ("hole_move", _function(("e", [
        Move("y", Hole("k")), Return(Reg("y"))])), [(0,)]),
    ("hole_branch", _function(("e", [
        Move("y", Imm(1)), Branch(Hole("k"), "e", "e")])), [(0,)]),
    ("hole_return", _function(("e", [
        Move("y", Imm(1)), Return(Hole("k"))])), [(0,)]),
    ("hole_call_arg", _function(("e", [
        Call("r", "g", (Reg("x"), Hole("k"))), Return(Reg("r"))]),
        extra=(_g(2),)), [(0,)]),
    ("not_a_binary_operator", _function(("e", [
        BinOp("y", Op.NEG, Reg("x"), Imm(1)), Return(Reg("y"))])),
     [(0,)]),
    ("not_a_unary_operator", _function(("e", [
        UnOp("y", Op.ADD, Reg("x")), Return(Reg("y"))])), [(0,)]),
    ("no_terminator", _function(
        ("e", [Move("y", Reg("x")), Move("z", Imm(2))])), [(0,), (0.5,)]),
    ("wrong_arity_call", _function(("e", [
        Move("a", Reg("x")),
        Call("r", "g", (Reg("x"), Reg("u"))), Return(Reg("r"))]),
        extra=(_g(1),)), [(0,)]),
    ("undefined_callee_untaken", _function(
        ("e", [Branch(Reg("x"), "missing", "fine")]),
        ("missing", [Call("r", "no_such_fn", ()), Return(Reg("r"))]),
        ("fine", [Return(Imm(7))])), [(0,), (1,)]),
    ("intrinsic_call", _function(("e", [
        BinOp("a", Op.SUB, Reg("x"), Imm(3)),
        Call("r", "fabs", (Reg("a"),)),
        Call(None, "print_val", (Reg("r"),)),
        BinOp("s", Op.ADD, Reg("r"), Reg("x")), Return(Reg("s"))])),
     [(1,), (1.5,)]),
    ("unop_on_immediates", _function(("e", [
        UnOp("a", Op.NEG, Imm(3)), UnOp("b", Op.NOT, Imm(0.0)),
        UnOp("c", Op.NEG, Reg("x")),
        BinOp("s", Op.ADD, Reg("a"), Reg("b")),
        BinOp("s", Op.ADD, Reg("s"), Reg("c")), Return(Reg("s"))])),
     [(2,), (2.5,)]),
]


class TestTemplateErrorShapes:
    """Every shape, error shapes included, comes from one emitter; each
    of these must leave the reference's result or error and its
    ``ExecutionStats`` on both counted backends."""

    @pytest.mark.parametrize("mod,argsets",
                             [case[1:] for case in ERROR_SHAPES],
                             ids=[case[0] for case in ERROR_SHAPES])
    def test_matches_reference(self, mod, argsets):
        for args in argsets:
            outcomes = _outcome(mod, *args)
            for backend in COUNTED_BACKENDS:
                assert outcomes[backend] == outcomes["reference"], \
                    (backend, args)


def _translated_blocks(names):
    """(shape, block function) for every block that running the
    workloads ``names`` translates on threaded, host and region code."""
    found = []
    translate = threaded.ThreadedBackend._translate

    def recording(self, fn, penalty, scale):
        trans = translate(self, fn, penalty, scale)
        found.extend(trans.runners.values())
        return trans

    threaded.ThreadedBackend._translate = recording
    try:
        for name in names:
            _run_under(WORKLOADS_BY_NAME[name], ALL_ON, "threaded")
    finally:
        threaded.ThreadedBackend._translate = translate
    return [(_shape_of(runner), runner) for runner in found]


def _hole_kind(value):
    """What a hole holds, coarsely: the walk must put the same kind of
    value at each position of one shape."""
    if type(value) is tuple:
        return "outcome"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


@pytest.mark.usefixtures("fresh_templates")
class TestTemplates:
    def test_blocks_of_one_shape_share_a_code_object(self):
        mod = _function(
            ("e", [BinOp("a", Op.ADD, Reg("x"), Imm(1)), Jump("n")]),
            ("n", [BinOp("b", Op.ADD, Reg("a"), Imm(40)), Jump("r")]),
            ("r", [Return(Reg("b"))]))
        runners = _runners(mod)
        assert runners["e"].__code__ is runners["n"].__code__
        assert runners["e"].__defaults__ != runners["n"].__defaults__
        outcomes = _outcome(mod, 1)
        assert outcomes["reference"][0] == ("ok", 42)
        for backend in COUNTED_BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend

    def test_shapes_fix_their_holes(self):
        """The shape alone determines the source, so blocks of one shape
        emit identical source; the walk must also put the same kind of
        value in each hole of a shape (a register name, a number, an
        outcome...), for host and specialized region code alike."""
        layouts = {}
        for shape, runner in _translated_blocks(
                [w.name for w in ALL_WORKLOADS]):
            code = threaded._TEMPLATES[shape]
            assert runner.__code__ is code
            assert code.co_argcount == 1 + len(runner.__defaults__)
            layout = tuple(_hole_kind(h) for h in runner.__defaults__)
            assert layouts.setdefault(shape, layout) == layout, shape
        assert len(layouts) > 20

    def test_holes_stay_out_of_the_source(self):
        """Register names never reach generated source: a register named
        like a string literal's end runs like any other."""
        odd = ("a'\n", 'b"]', "c\\", "E[0]")
        mod = _function(
            ("e", [Move(odd[0], Reg("x")),
                   BinOp(odd[1], Op.MUL, Reg(odd[0]), Imm(3)),
                   BinOp(odd[2], Op.LT, Reg(odd[1]), Imm(10)),
                   Branch(Reg(odd[2]), "small", "big")]),
            ("small", [Move(odd[3], Reg(odd[1])), Return(Reg(odd[3]))]),
            ("big", [Return(Reg(odd[0]))]))
        _runners(mod)
        assert len(threaded._TEMPLATES) == 3
        for name in odd:
            for shape in threaded._TEMPLATES:
                assert name not in threaded._render(shape)
        for x in (1, 5, 2.5):
            outcomes = _outcome(mod, x)
            assert outcomes["reference"][0][0] == "ok"
            for backend in COUNTED_BACKENDS:
                assert outcomes[backend] == outcomes["reference"], backend

    def test_template_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(threaded, "_TEMPLATES", {})
        monkeypatch.setattr(threaded, "_TEMPLATE_CAP", 3)
        for n in range(1, 8):
            # n Moves then a Return: a new shape each time.
            mod = _function(("e", [Move(f"r{i}", Imm(i)) for i in range(n)]
                             + [Return(Reg(f"r{n - 1}"))]))
            machine = Machine(mod, backend="threaded")
            assert machine.run("f", 0) == n - 1
            assert len(threaded._TEMPLATES) <= 3
        assert isinstance(threaded._TEMPLATE_CAP, int)

    #: The template of ``a = x; b = a; c = a + b; return c``: a commit
    #: with three run-time float extras over two distinct locals.
    FLOAT_TESTS = """\
def block(E, h0, h1, h2, h3, h4, h5, h6, h7, h8, ST, M):
    try:
        v1 = E[h1]
        E[h0] = v1
        v3 = v1
        E[h2] = v3
        v5 = (v1 + v3)
        E[h3] = v5
    except KeyError as missing:
        _undefined(missing)
    Fv1 = type(v1) is float
    Fv3 = type(v3) is float
    X = h4
    if Fv1:
        X += h5
    if Fv3:
        X += h6
    if Fv1 or Fv3:
        X += h7
    ST.cycles += h8 + X
    t = ST.instructions + 4
    ST.instructions = t
    if t > M.step_limit:
        _over(M)
    return ('return', v5)
"""

    def test_a_commit_type_tests_each_local_once(self):
        """The shape ``mov r; mov v1; bin add v1 v3; commit; ret`` tests
        ``v1`` and ``v3`` once each, before its extras are added to
        ``X`` in occurrence order; the stats stay the reference's."""
        mod = _function(("e", [Move("a", Reg("x")), Move("b", Reg("a")),
                               BinOp("c", Op.ADD, Reg("a"), Reg("b")),
                               Return(Reg("c"))]))
        shape = _shape_of(_runners(mod)["e"])
        assert shape == (0, "mov", "r", "mov", "v1", "bin", "add", "v1",
                         "v3", "commit", 4, (1, 3, 5), "ret", "v5")
        assert threaded._render(shape) == self.FLOAT_TESTS
        for x in (3, 2.5, True):
            outcomes = _outcome(mod, x)
            assert outcomes["reference"][0][0] == "ok"
            for backend in COUNTED_BACKENDS:
                assert outcomes[backend] == outcomes["reference"], backend


@pytest.mark.usefixtures("fresh_templates")
class TestUncountedMode:
    def test_modes_translate_to_disjoint_shapes(self):
        """An uncounted translation ends every segment in a ``tick`` and
        a counted one in a ``commit``, so no shape of one mode is a
        shape of the other; a counted run made after an uncounted run
        in the same process still leaves the reference's stats, and an
        uncounted run the reference's result and instruction count."""
        mod = _function(
            ("e", [Move("a", Reg("x")),
                   BinOp("b", Op.MUL, Reg("a"), Imm(2.5)),
                   Call("r", "g", (Reg("b"),)),
                   BinOp("c", Op.LT, Reg("r"), Reg("a")),
                   Branch(Reg("c"), "yes", "no")]),
            ("yes", [Return(Reg("b"))]),
            ("no", [BinOp("d", Op.ADD, Reg("a"), Reg("b")),
                    Return(Reg("d"))]),
            extra=[_g(1)])
        backends = ("threaded", "threaded_fast")
        shapes = {backend: {_shape_of(runner) for runner
                            in _runners(mod, backend=backend).values()}
                  for backend in backends}
        tags = {backend: {tag for shape in found for tag in _tags(shape)}
                for backend, found in shapes.items()}
        assert "commit" in tags["threaded"] \
            and "tick" not in tags["threaded"]
        assert "tick" in tags["threaded_fast"] \
            and "commit" not in tags["threaded_fast"]
        assert not shapes["threaded"] & shapes["threaded_fast"]
        workload = WORKLOADS_BY_NAME["romberg"]
        _run_under(workload, ALL_ON, "threaded_fast")
        assert _run_under(workload, ALL_ON, "threaded") \
            == _run_under(workload, ALL_ON, "reference")
        for backend in backends:
            for x in (3, 0.5):
                machine = Machine(mod, backend=backend)
                outcome = machine.run("f", x), machine.stats.snapshot()
                reference = Machine(mod)
                expected = reference.run("f", x), reference.stats
                if backend == "threaded_fast":
                    outcome = outcome[0], outcome[1].instructions
                    expected = expected[0], expected[1].instructions
                assert outcome == expected, (backend, x)


class TestFastMode:
    @pytest.mark.parametrize("name", [w.name for w in ALL_WORKLOADS])
    def test_results_match_counted(self, name):
        """``threaded_fast`` drops the block cycle charges, never
        semantics or the instruction count: the verified static and
        dynamic results equal the counted run's, and so do both
        machines' ``stats.instructions``."""
        workload = WORKLOADS_BY_NAME[name]
        counted = _run_under(workload, ALL_ON, "threaded")
        fast = _run_under(workload, ALL_ON, "threaded_fast")
        for key in ("static_result", "dynamic_result"):
            assert fast[key] == counted[key], key
        for run in ("static", "dynamic"):
            assert fast[run]["instructions"] \
                == counted[run]["instructions"], run
            assert fast[run]["cycles"] < counted[run]["cycles"], run
        result = run_workload(workload, backend="threaded_fast")
        assert result.outputs_match
        assert result.return_values \
            == run_workload(workload).return_values

    def test_fast_mode_bypasses_memo(self, tmp_path):
        """Uncounted stats must never be served from (or stored to) the
        shared content-hash cache the counted runs key."""
        memo = Memoizer(str(tmp_path))
        workload = WORKLOADS_BY_NAME["dotproduct"]
        run_workload(workload, backend="threaded_fast", memo=memo)
        assert list(tmp_path.iterdir()) == []
        counted = run_workload(workload, backend="threaded", memo=memo)
        assert list(tmp_path.iterdir()) != []
        assert counted.dynamic_total_cycles > 0


class TestResolution:
    def test_backends_accepted(self):
        for backend in BACKENDS:
            assert resolve_backend(backend) == backend
        for backend in ("jit", "pycodegen"):
            with pytest.raises(ValueError):
                resolve_backend(backend)

    def test_backend_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "threaded"
        monkeypatch.setenv("REPRO_BACKEND", "threaded_fast")
        assert resolve_backend(None) == "threaded_fast"
        assert resolve_backend("reference") == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "warp")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            resolve_backend(None)


def _reads(runner):
    """The registers ``runner``'s template reads from ``E``, in order."""
    source = threaded._render(_shape_of(runner))
    holes = runner.__defaults__
    return [holes[int(n)] for n in re.findall(r"E\[h(\d+)\](?! =)", source)]


def _words():
    """A memory of three words after the null word: 1 holds 5, 2 holds
    6.5 and 3 holds 3."""
    return Memory.from_words([0, 5, 6.5, 3])


#: Instructions that write ``t`` from ``x`` (a number) and ``p`` (an
#: address of ``_words``), one per part that writes a register, with the
#: registers each reads from ``E``.
WRITERS = {
    "const": ([Move("t", Imm(3))], []),
    "load": ([Load("t", Reg("p"))], ["p"]),
    "mov": ([Move("t", Reg("x"))], ["x"]),
    "un": ([UnOp("t", Op.NEG, Reg("x"))], ["x"]),
    "bin": ([BinOp("t", Op.MUL, Reg("x"), Imm(2))], ["x"]),
}


@pytest.mark.usefixtures("fresh_templates")
class TestForwarding:
    """A register that an earlier part of the same block wrote, with no
    call part in between, is read from that part's local, never from
    ``E``; the stats stay the reference's on both counted backends."""

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_written_register_is_not_read_back(self, writer):
        instrs, writer_reads = WRITERS[writer]
        mod = _function(
            ("e", [*instrs,
                   BinOp("u", Op.ADD, Reg("t"), Reg("x")),
                   UnOp("n", Op.NEG, Reg("t")),
                   Move("m", Reg("n")),
                   Store(Reg("p"), Reg("m")),
                   Move("q", Reg("p")),
                   Load("l", Reg("q")),
                   BinOp("c", Op.LT, Reg("u"), Reg("l")),
                   Branch(Reg("c"), "yes", "no")]),
            ("yes", [BinOp("s", Op.SUB, Reg("t"), Reg("u")),
                     Return(Reg("s"))]),
            ("no", [Return(Reg("t"))]),
            params=("x", "p"))
        runners = _runners(mod)
        # Only the parameters are read from E: the operands of the add,
        # the neg, the first move, the store's value, the load's address,
        # the compare and the branch condition are all forwarded.
        assert _reads(runners["e"]) == writer_reads + ["x", "p", "p"]
        assert "read" not in _shape_of(runners["e"])
        # Another block reads them from E; its return is forwarded.
        assert _reads(runners["yes"]) == ["t", "u"]
        assert _reads(runners["no"]) == ["t"]
        for x in (1, -4, 2.5):
            for p in (1, 2):
                outcomes = _outcome(mod, x, p, memory=_words)
                assert outcomes["reference"][0][0] == "ok"
                for backend in COUNTED_BACKENDS:
                    assert outcomes[backend] == outcomes["reference"], \
                        (backend, x, p)

    def test_return_and_call_arguments_forward(self):
        mod = _function(
            ("e", [BinOp("t", Op.ADD, Reg("x"), Imm(1)),
                   Call("r", "g", (Reg("t"), Reg("x"))),
                   BinOp("s", Op.ADD, Reg("r"), Imm(1)),
                   Return(Reg("s"))]),
            extra=(_g(2),))
        assert _reads(_runners(mod)["e"]) == ["x", "x", "r"]
        outcomes = _outcome(mod, 4)
        assert outcomes["reference"][0] == ("ok", 3)
        for backend in COUNTED_BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend

    def test_later_write_forwards(self):
        mod = _function(("e", [
            Move("t", Reg("x")),
            BinOp("t", Op.ADD, Reg("t"), Imm(1)),
            BinOp("y", Op.MUL, Reg("t"), Reg("t")),
            Return(Reg("y"))]))
        runner = _runners(mod)["e"]
        shape = _shape_of(runner)
        mov, first, second = (shape.index("mov"), shape.index("bin"),
                              shape.index("bin", shape.index("bin") + 1))
        assert shape[first + 2] == f"v{mov}"
        assert shape[second + 2:second + 4] == (f"v{first}",) * 2
        assert _reads(runner) == ["x"]
        for x in (2, 2.5):
            outcomes = _outcome(mod, x)
            assert outcomes["reference"][0] == ("ok", (x + 1) * (x + 1))
            for backend in COUNTED_BACKENDS:
                assert outcomes[backend] == outcomes["reference"], backend

    def test_nothing_forwards_across_a_call(self):
        mod = _function(
            ("e", [BinOp("t", Op.ADD, Reg("x"), Imm(1)),
                   Call("r", "g", ()),
                   BinOp("s", Op.ADD, Reg("t"), Reg("r")),
                   Branch(Reg("t"), "yes", "no")]),
            ("yes", [Return(Reg("s"))]),
            ("no", [Return(Imm(0))]),
            extra=(_g(0),))
        runner = _runners(mod)["e"]
        # The branch reads ``t`` again, from E: the only part since the
        # call wrote ``s``.
        assert _reads(runner) == ["x", "t", "r", "t"]
        assert "read" in _shape_of(runner)
        for x in (-1, 1, 1.5):
            outcomes = _outcome(mod, x)
            for backend in COUNTED_BACKENDS:
                assert outcomes[backend] == outcomes["reference"], backend

    def test_read_before_first_write_traps(self):
        mod = _function(("e", [
            Move("a", Reg("x")),
            BinOp("y", Op.ADD, Reg("t"), Imm(1)),
            Move("t", Imm(2)),
            Return(Reg("t"))]))
        assert _reads(_runners(mod)["e"]) == ["x", "t"]
        outcomes = _outcome(mod, 1)
        assert outcomes["reference"][0] == (
            "TrapError", "use of undefined variable 't'")
        for backend in COUNTED_BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend

    def test_bitwise_parts_have_no_float_test(self):
        """A float operand of an int-only operator traps before the
        commit, so the commit tests no float for its part; an add's
        part keeps its test."""
        ops = (Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR)
        mod = _function(("e", [
            *(BinOp(f"t{k}", op, Reg("x"), Imm(1))
              for k, op in enumerate(ops)),
            BinOp("s", Op.ADD, Reg("t4"), Reg("x")),
            Return(Reg("s"))]))
        source = threaded._render(_shape_of(_runners(mod)["e"]))
        assert source.count("is float") == 2   # the add's two operands
        for x, result in ((6, ("ok", 9)), (True, ("ok", 1)),
                          (2.5, ("TrapError",
                                 "and requires integer operands, got "
                                 "2.5 and 1"))):
            outcomes = _outcome(mod, x)
            assert outcomes["reference"][0] == result
            for backend in COUNTED_BACKENDS:
                assert outcomes[backend] == outcomes["reference"], backend


class _CountingMemory(Memory):
    """A memory that records each address ``store`` is called with."""

    def __init__(self, words=()):
        super().__init__()
        self._words = list(words)
        self.stored = []

    def store(self, addr, value):
        self.stored.append(addr)
        super().store(addr, value)


@pytest.mark.usefixtures("fresh_templates")
class TestInlineStores:
    """A store to an in-bounds int address of a memory that watches no
    address writes the word list inline; every other store calls
    ``Memory.store``, so it logs and faults as the reference does."""

    @pytest.mark.parametrize("addr,inline,result", [
        (1, True, ("ok", 8)),
        (3, True, ("ok", 5)),
        (2.0, False, ("ok", 5)),
        (True, False, ("ok", 8)),
        (5.0, False, ("MemoryFault", "address 5 out of bounds (size 4)")),
        (2.5, False, ("MemoryFault", "non-integer address 2.5")),
        (0, False, ("MemoryFault", "null/negative address 0")),
        (-1, False, ("MemoryFault", "null/negative address -1")),
        (4, False, ("MemoryFault", "address 4 out of bounds (size 4)"))])
    def test_store_address(self, addr, inline, result):
        mod = _function(("e", [
            Store(Reg("p"), Reg("x")),
            Load("y", Imm(1)),
            Return(Reg("y"))]), params=("x", "p"))
        outcomes = _outcome(mod, 8, addr,
                            memory=lambda: Memory.from_words([0, 5, 6, 7]))
        assert outcomes["reference"][0] == result
        for backend in COUNTED_BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend
        memory = _CountingMemory([0, 5, 6, 7])
        machine = Machine(mod, backend="threaded", memory=memory)
        try:
            machine.run("f", 8, addr)
        except MachineError as fault:
            assert (type(fault).__name__, str(fault)) == result
        assert memory.stored == ([] if inline else [addr])

    def test_watched_store_is_logged(self):
        """Annotation checking starts watching an address mid-run, after
        ``mutate``'s store was translated and had run inline."""
        src = """
        func f(p, x) {
            make_static(p);
            var w = p@[0];
            return w * x;
        }
        func mutate(p, v) {
            p[0] = v;
            return 0;
        }
        func main(p, x) {
            mutate(p, 7);
            var a = f(p, x);
            mutate(p, 99);
            var b = f(p, x);
            return a + b;
        }
        """
        compiled = compile_annotated(compile_source(src),
                                     OptConfig(check_annotations=True))
        outcomes = {}
        for backend in COUNTED_BACKENDS:
            memory = Memory()
            p = memory.alloc_array([1])
            machine, _ = compiled.make_machine(memory=memory,
                                               backend=backend)
            result = machine.run("main", p, 2)
            outcomes[backend] = (result, memory.watch_violations,
                                 _stats_dict(machine.stats))
        assert outcomes["reference"][1] == [p]
        for backend in COUNTED_BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend
