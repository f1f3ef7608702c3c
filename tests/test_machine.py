"""Tests for the abstract machine: execution, cycle accounting, I-cache."""

import collections
import dataclasses
import sys
import threading

import pytest

from repro.config import ALL_ON
from repro.dyc import compile_annotated
from repro.dyc.compiler import CompiledProgram
from repro.errors import (
    CacheError,
    MachineError,
    SpecializationError,
    TrapError,
)
from repro.evalharness.runner import run_workload
from repro.frontend import compile_source
from repro.ir import (
    BasicBlock,
    Function,
    FunctionBuilder,
    Imm,
    Load,
    Memory,
    Module,
    Move,
    Op,
    Reg,
    Return,
    Store,
)
from repro.machine import ALPHA_21164, BACKENDS, ICacheModel, Machine
from repro.machine import interp
from repro.machine.costs import CostModel
from repro.runtime.runtime import DycRuntime
from repro.runtime.specializer import Specializer
from repro.runtime.stats import RuntimeStats
from repro.workloads import WORKLOADS_BY_NAME
from tests.helpers import build_countdown, build_diamond, run_function


class TestExecution:
    def test_countdown(self):
        result, _ = run_function(build_countdown(), 10)
        assert result == 55

    def test_diamond_both_arms(self):
        f = build_diamond()
        assert run_function(f, 0)[0] == 2
        assert run_function(f, 3)[0] == 4

    def test_memory_roundtrip(self):
        b = FunctionBuilder("f", ("p",))
        b.store("p", 41)
        b.load("x", "p")
        b.binop("x", Op.ADD, "x", 1)
        b.ret("x")
        mem = Memory()
        base = mem.alloc(1)
        result, _ = run_function(b.finish(), base, memory=mem)
        assert result == 42
        assert mem.load(base) == 41

    def test_function_calls(self):
        mod = Module()
        b = FunctionBuilder("square", ("x",))
        b.binop("r", Op.MUL, "x", "x")
        b.ret("r")
        mod.add_function(b.finish())
        b = FunctionBuilder("main", ("n",))
        b.call("s", "square", ["n"])
        b.binop("r", Op.ADD, "s", 1)
        b.ret("r")
        mod.add_function(b.finish())
        machine = Machine(mod)
        assert machine.run("main", 6) == 37

    def test_intrinsic_call(self):
        b = FunctionBuilder("f", ())
        b.call("c", "cos", [0.0])
        b.ret("c")
        result, _ = run_function(b.finish())
        assert result == 1.0

    def test_print_val_collects_output(self):
        b = FunctionBuilder("f", ())
        b.call(None, "print_val", [7])
        b.call(None, "print_val", [8])
        b.ret(0)
        _, machine = run_function(b.finish())
        assert machine.output == [7, 8]

    def test_unknown_function_raises(self):
        b = FunctionBuilder("f", ())
        b.call("x", "no_such_fn", [])
        b.ret(0)
        with pytest.raises(MachineError, match="no_such_fn"):
            run_function(b.finish())

    def test_undefined_variable_traps(self):
        b = FunctionBuilder("f", ())
        b.ret("never_defined")
        with pytest.raises(TrapError, match="never_defined"):
            run_function(b.finish())

    def test_wrong_arity_raises(self):
        f = build_diamond()
        mod = Module()
        mod.add_function(f)
        with pytest.raises(MachineError, match="takes 1"):
            Machine(mod).run("diamond", 1, 2)

    def test_step_limit_catches_infinite_loop(self):
        b = FunctionBuilder("f", ())
        b.jump("spin")
        b.label("spin")
        b.jump("spin")
        mod = Module()
        mod.add_function(b.finish())
        machine = Machine(mod, step_limit=1000)
        with pytest.raises(MachineError, match="step limit"):
            machine.run("f")

    def test_recursion_depth_guard(self):
        b = FunctionBuilder("f", ("n",))
        b.call("r", "f", ["n"])
        b.ret("r")
        mod = Module()
        mod.add_function(b.finish())
        with pytest.raises(MachineError, match="depth"):
            Machine(mod).run("f", 1)


class TestCycleAccounting:
    def test_cycles_scale_with_iterations(self):
        f = build_countdown()
        _, m10 = run_function(f, 10)
        _, m20 = run_function(f, 20)
        delta10 = m10.stats.cycles
        delta20 = m20.stats.cycles
        assert delta20 > delta10
        # Per-iteration cost is constant: doubling n roughly doubles cycles.
        assert delta20 / delta10 == pytest.approx(2.0, rel=0.2)

    def test_float_ops_cost_more_than_int(self):
        def build(value):
            b = FunctionBuilder("f", ())
            b.move("a", value)
            b.binop("r", Op.MUL, "a", "a")
            b.ret("r")
            return b.finish()

        _, m_int = run_function(build(3))
        _, m_float = run_function(build(3.0))
        # Integer multiply is slower than FP multiply on this model, but
        # FP moves cost as much as FP multiplies (the §2.2.7 property).
        model = ALPHA_21164
        assert model.move_fp == model.fp_mul

    def test_instruction_count(self):
        b = FunctionBuilder("f", ())
        b.move("a", 1)
        b.binop("b", Op.ADD, "a", 1)
        b.ret("b")
        _, machine = run_function(b.finish())
        assert machine.stats.instructions == 3

    def test_annotations_execute_for_free(self):
        b1 = FunctionBuilder("f", ("x",))
        b1.make_static("x")
        b1.ret("x")
        b2 = FunctionBuilder("f", ("x",))
        b2.ret("x")
        _, with_ann = run_function(b1.finish(), 1)
        _, without = run_function(b2.finish(), 1)
        assert with_ann.stats.cycles == without.stats.cycles

    def test_tracked_scope_attribution(self):
        mod = Module()
        inner = FunctionBuilder("inner", ("n",))
        inner.binop("r", Op.MUL, "n", "n")
        inner.ret("r")
        mod.add_function(inner.finish())
        outer = FunctionBuilder("main", ())
        outer.call("a", "inner", [3])
        outer.binop("b", Op.ADD, "a", 1)
        outer.ret("b")
        mod.add_function(outer.finish())
        machine = Machine(mod, tracked={"inner"})
        machine.run("main")
        assert 0 < machine.stats.scope_cycles["inner"] < machine.stats.cycles
        assert machine.stats.scope_entries["inner"] == 1

    def test_cost_model_overrides(self):
        model = ALPHA_21164.with_overrides(int_mul=100)
        b = FunctionBuilder("f", ("x",))
        b.binop("r", Op.MUL, "x", "x")
        b.ret("r")
        mod = Module()
        mod.add_function(b.finish())
        expensive = Machine(mod, cost_model=model)
        expensive.run("f", 3)
        cheap = Machine(mod)
        cheap.run("f", 3)
        assert expensive.stats.cycles > cheap.stats.cycles


class TestICacheModel:
    def test_no_penalty_under_capacity(self):
        model = ICacheModel()
        assert model.per_instruction_penalty(100) == 0.0
        assert model.per_instruction_penalty(
            model.capacity_instructions) == 0.0

    def test_graded_penalty_above_capacity(self):
        model = ICacheModel()
        cap = model.capacity_instructions
        small = model.per_instruction_penalty(int(cap * 1.2))
        large = model.per_instruction_penalty(int(cap * 2.0))
        assert 0 < small < large
        assert large == model.per_instruction_penalty(cap * 10)  # saturates

    def test_capacity_matches_21164(self):
        model = ICacheModel()
        assert model.capacity_bytes == 8 * 1024
        assert model.capacity_instructions == 2048
        assert model.instructions_per_line == 8

    def test_penalty_slows_execution(self):
        # Same code, two machines: one with a tiny I-cache.
        f = build_countdown()
        mod = Module()
        mod.add_function(f)
        normal = Machine(mod)
        normal.run("countdown", 50)
        tiny = Machine(mod, icache=ICacheModel(capacity_bytes=16))
        tiny.run("countdown", 50)
        assert tiny.stats.cycles > normal.stats.cycles


class TestCostModel:
    def test_fp_move_costs_fp_mul(self):
        # The paper's motivating 21164 property (§2.2.7).
        assert ALPHA_21164.move_fp == ALPHA_21164.fp_mul

    def test_strength_reduction_is_profitable(self):
        # Shifts must beat integer multiplies for SR to matter.
        assert ALPHA_21164.int_alu < ALPHA_21164.int_mul
        assert ALPHA_21164.int_alu < ALPHA_21164.int_div

    def test_binop_cost_classification(self):
        m = CostModel()
        assert m.binop_cost("mul", False) == m.int_mul
        assert m.binop_cost("mul", True) == m.fp_mul
        assert m.binop_cost("div", False) == m.int_div
        assert m.binop_cost("add", False) == m.int_alu
        assert m.binop_cost("add", True) == m.fp_alu

    def test_intrinsic_cost_default(self):
        m = CostModel()
        assert m.intrinsic_cost("cos") == 80
        assert m.intrinsic_cost("unknown_thing") == m.intrinsic_default


class _LimitLog:
    """A profiler that records the recursion limit at every call, and
    can hold the first call until released."""

    def __init__(self, hold: threading.Event | None = None) -> None:
        self.limits: list = []
        self.entered = threading.Event()
        self.hold = hold

    def enter(self, name, args, cycles):
        self.limits.append(sys.getrecursionlimit())
        self.entered.set()
        if self.hold is not None:
            assert self.hold.wait(timeout=30)
            self.hold = None

    def leave(self, name, cycles):
        pass


class TestRecursionGuard:
    """The process recursion limit is raised while a machine runs and
    restored after, so nothing else in the process sees it changed."""

    @pytest.fixture(autouse=True)
    def low_limit(self):
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1500)
        try:
            yield
        finally:
            sys.setrecursionlimit(before)

    def test_limit_raised_only_while_a_machine_runs(self):
        for backend in BACKENDS:
            machine = Machine(_count_to(), backend=backend)
            assert sys.getrecursionlimit() == 1500
            machine.profiler = _LimitLog()
            assert machine.run("f", 3) == 3
            assert sys.getrecursionlimit() == 1500, backend
            assert min(machine.profiler.limits) \
                >= interp._RECURSION_HEADROOM, backend

    def test_limit_restored_after_concurrent_runs(self):
        """One thread's run finishes while another's is still inside a
        call: the limit stays raised until the last run is out."""
        release = threading.Event()
        held = Machine(_count_to(), backend="threaded")
        held.profiler = _LimitLog(hold=release)
        results: list = []
        worker = threading.Thread(
            target=lambda: results.append(held.run("f", 2)))
        worker.start()
        try:
            assert held.profiler.entered.wait(timeout=30)
            other = Machine(_count_to(), backend="reference")
            other.profiler = _LimitLog()
            assert other.run("f", 2) == 2
            assert sys.getrecursionlimit() >= interp._RECURSION_HEADROOM
        finally:
            release.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert results == [2]
        assert sys.getrecursionlimit() == 1500
        assert min(held.profiler.limits + other.profiler.limits) \
            >= interp._RECURSION_HEADROOM


#: Addresses at and past the edges of the templates' inline memory
#: access: null, negative, one past the end, an integral float, a
#: fractional float and a bool.
_EDGE_ADDRESSES = (0, -1, "end", 2.0, 2.5, True)


def _memory_access(access: str, addr, imm: bool) -> Module:
    """``f(p, v)``: load the word at ``p`` and return it, or store ``v``
    there and return 0; with ``imm``, the address is the immediate
    ``addr`` instead of ``p``."""
    operand = Imm(addr) if imm else Reg("p")
    instrs = ([Load("x", operand), Return(Reg("x"))] if access == "load"
              else [Store(operand, Reg("v")), Return(Imm(0))])
    fn = Function(name="f", params=("p", "v"))
    fn.add_block(BasicBlock("entry", instrs))
    mod = Module()
    mod.add_function(fn)
    return mod


class TestMemoryFastPath:
    """Threaded blocks load an in-bounds int address from the memory's
    word list and send every other address through ``Memory.load``;
    loads and stores on every backend must give the reference's value or
    ``MemoryFault`` and leave the same stats and words."""

    @pytest.mark.parametrize("imm", [False, True], ids=["reg", "imm"])
    @pytest.mark.parametrize("access", ["load", "store"])
    def test_edge_addresses_match_reference(self, access, imm):
        for addr in _EDGE_ADDRESSES + (1, 3):
            outcomes = {}
            for backend in BACKENDS:
                memory = Memory()
                memory.alloc_array([10, 20.5, 30])   # words 1-3
                if addr == "end":
                    addr = len(memory)
                machine = Machine(_memory_access(access, addr, imm),
                                  memory=memory, backend=backend)
                try:
                    result = ("ok", machine.run("f", addr, 99))
                except MachineError as exc:
                    result = (type(exc).__name__, str(exc))
                outcomes[backend] = (result, machine.stats.snapshot(),
                                     memory.words())
            result = outcomes["reference"][0]
            if addr in (1, 3, 2.0, True):
                assert result[0] == "ok", (access, addr)
            else:
                assert result[0] == "MemoryFault", (access, addr)
            for backend in BACKENDS:
                assert outcomes[backend] == outcomes["reference"], \
                    (backend, access, addr, imm)

    def test_watched_store_is_logged(self):
        """A store to a watched address is logged on every backend, also
        when the watch begins after the block was translated."""
        for backend in BACKENDS:
            memory = Memory()
            base = memory.alloc_array([1, 2, 3])
            machine = Machine(_memory_access("store", None, False),
                              memory=memory, backend=backend)
            machine.run("f", base + 1, 5)
            memory.watch(base + 1)
            machine.run("f", base + 1, 7)
            machine.run("f", base, 8)
            assert memory.watch_violations == [base + 1], backend
            assert memory.read_array(base, 3) == [8, 7, 3], backend


class TestScopeAccounting:
    def _recursive_module(self):
        mod = Module()
        b = FunctionBuilder("fib", ("n",))
        b.binop("c", Op.LT, "n", 2)
        b.branch("c", "base", "rec")
        b.label("base")
        b.ret("n")
        b.label("rec")
        b.binop("a", Op.SUB, "n", 1)
        b.call("x", "fib", ["a"])
        b.binop("b", Op.SUB, "n", 2)
        b.call("y", "fib", ["b"])
        b.binop("r", Op.ADD, "x", "y")
        b.ret("r")
        mod.add_function(b.finish())
        return mod

    def test_recursive_tracked_scope_counts_once(self):
        """Scope cycles for a recursive function are attributed via an
        outermost-entry snapshot: the total equals the machine's whole
        cycle count spent inside the call, not a double count."""
        mod = self._recursive_module()
        machine = Machine(mod, tracked=frozenset({"fib"}))
        assert machine.run("fib", 10) == 55
        scope = machine.stats.scope_cycles["fib"]
        assert scope == pytest.approx(machine.stats.cycles)
        # Entries count every call (177 for fib(10)); only the cycle
        # attribution is snapshotted at the outermost entry.
        assert machine.stats.scope_entries["fib"] == 177

    def test_tracked_scope_matches_across_backends(self):
        totals = {}
        for backend in ("reference", "threaded"):
            mod = self._recursive_module()
            machine = Machine(mod, tracked=frozenset({"fib"}),
                              backend=backend)
            machine.run("fib", 12)
            totals[backend] = (
                machine.stats.cycles,
                machine.stats.scope_cycles["fib"],
                machine.stats.scope_entries["fib"],
            )
        assert totals["reference"] == totals["threaded"]


def _count_to(name: str = "f"):
    """``f(n) = n == 0 ? 0 : f(n - 1) + 1``: n + 1 frames deep."""
    b = FunctionBuilder(name, ("n",))
    b.binop("z", Op.EQ, "n", 0)
    b.branch("z", "base", "rec")
    b.label("base")
    b.ret(0)
    b.label("rec")
    b.binop("m", Op.SUB, "n", 1)
    b.call("r", name, ["m"])
    b.binop("r", Op.ADD, "r", 1)
    b.ret("r")
    mod = Module()
    mod.add_function(b.finish())
    return mod


class _CallLog:
    """A profiler that records every enter and leave it is shown."""

    def __init__(self) -> None:
        self.events: list = []

    def enter(self, name, args, cycles):
        self.events.append(("enter", name, tuple(args), cycles))

    def leave(self, name, cycles):
        self.events.append(("leave", name, cycles))


@pytest.mark.parametrize("backend", BACKENDS)
class TestCallBinding:
    """Host calls to module functions are bound when a block is
    translated; these pin what that binding must not change."""

    def test_depth_refusal_holds_no_frame(self, backend):
        machine = Machine(_count_to(), backend=backend)
        assert machine._max_call_depth == 200
        with pytest.raises(MachineError, match="call depth exceeded"):
            machine.run("f", 500)
        assert machine._call_depth == 0
        assert machine.run("f", 199) == 199   # 200 frames: the limit
        with pytest.raises(MachineError, match="call depth exceeded"):
            machine.run("f", 200)
        assert machine._call_depth == 0

    def test_undefined_callee_raises_only_when_reached(self, backend):
        b = FunctionBuilder("f", ("x",))
        b.branch("x", "missing", "fine")
        b.label("missing")
        b.call("r", "no_such_fn", [])
        b.ret("r")
        b.label("fine")
        b.ret(7)
        mod = Module()
        mod.add_function(b.finish())
        machine = Machine(mod, backend=backend)
        assert machine.run("f", 0) == 7
        with pytest.raises(MachineError,
                           match="call to unknown function 'no_such_fn'"):
            machine.run("f", 1)

    def test_module_function_shadows_intrinsic(self, backend):
        mod = Module()
        b = FunctionBuilder("cos", ("x",))
        b.binop("r", Op.ADD, "x", 41)
        b.ret("r")
        mod.add_function(b.finish())
        b = FunctionBuilder("main", ())
        b.call("c", "cos", [1])
        b.call("s", "sin", [0.0])
        b.binop("r", Op.ADD, "c", "s")
        b.ret("r")
        mod.add_function(b.finish())
        machine = Machine(mod, backend=backend)
        assert machine.run("main") == 42.0
        reference = Machine(mod)
        reference.run("main")
        assert machine.stats == reference.stats

    def test_wrong_arity_call_reads_args_then_raises(self, backend):
        """The arity is checked when the call site is bound; the call
        still reads its argument registers first (an undefined one
        traps), then raises ``takes N args`` with no ``call_overhead``
        charged and no frame held."""
        costs = dataclasses.replace(ALPHA_21164, call_overhead=10_000)
        mod = Module()
        b = FunctionBuilder("g", ("x",))
        b.ret("x")
        mod.add_function(b.finish())
        b = FunctionBuilder("f", ("a", "defined"))
        b.branch("defined", "both", "one")
        b.label("both")
        b.move("u", 2)
        b.call("r", "g", ["a", "u"])
        b.ret("r")
        b.label("one")
        b.call("r", "g", ["a", "u"])
        b.ret("r")
        mod.add_function(b.finish())
        outcomes = {}
        for name in ("reference", backend):
            machine = Machine(mod, cost_model=costs, backend=name)
            seen = []
            for defined, error, match in (
                    (0, TrapError, "undefined variable 'u'"),
                    (1, MachineError, r"g\(\) takes 1 args, got 2")):
                with pytest.raises(error, match=match):
                    machine.run("f", 5, defined)
                assert machine._call_depth == 0
                seen.append(machine.stats.snapshot())
            # Only the two calls of f itself paid the call overhead.
            assert 20_000 <= machine.stats.cycles < 30_000
            outcomes[name] = seen
        assert outcomes[backend] == outcomes["reference"]

    def test_profiler_sees_every_call(self, backend):
        logs = {}
        for name in ("reference", backend):
            machine = Machine(_count_to(), backend=name)
            machine.profiler = _CallLog()
            assert machine.run("f", 5) == 5
            logs[name] = machine.profiler.events
        assert len(logs[backend]) == 12   # f(5) .. f(0), in and out
        assert logs[backend] == logs["reference"]

    def test_patched_host_function_pays_its_new_penalty(self, backend):
        """A host function patched between two calls on one machine is
        retranslated under its new I-cache penalty; the reference
        interpreter computes the penalty on every call."""
        # Two instructions fit; the patched body's three overflow.
        icache = ICacheModel(capacity_bytes=8)
        deltas = {}
        for name in ("reference", backend):
            b = FunctionBuilder("f", ())
            b.move("x", 1)
            b.ret("x")
            mod = Module()
            mod.add_function(b.finish())
            machine = Machine(mod, icache=icache, backend=name)
            before = machine.stats.cycles
            assert machine.run("f") == 1
            first = machine.stats.cycles - before
            fn = mod.functions["f"]
            fn.blocks[fn.entry] = BasicBlock(
                fn.entry, [Move("x", Imm(2)), Move("y", Imm(3)),
                           Return(Reg("x"))])
            fn.bump_version()
            before = machine.stats.cycles
            assert machine.run("f") == 2
            deltas[name] = (first, machine.stats.cycles - before)
        assert icache.per_instruction_penalty(3) > 0.0
        assert deltas[backend][0] != deltas[backend][1]
        assert deltas[backend] == deltas["reference"]


class TestComputedOnce:
    @pytest.mark.parametrize("backend", ["threaded", "pycodegen"])
    def test_host_penalty_sized_once_per_machine(self, monkeypatch,
                                                 backend):
        """A canonical binary run enters ``bsearch`` 1,500 times; the
        host loop sizes each host function once per machine, and the
        specializer sizes its code buffer three times per batch."""
        binary = WORKLOADS_BY_NAME["binary"]
        run_workload(binary, backend=backend)   # warm the static side
        sized: collections.Counter = collections.Counter()
        machines: list = []
        batches: list = []
        count_instructions = Function.instruction_count
        init = Machine.__init__
        run_batch = Specializer._run_batch

        def counting(self):
            sized[id(self)] += 1
            return count_instructions(self)

        def built(self, module, *args, **kwargs):
            machines.append(module)
            init(self, module, *args, **kwargs)

        def batch(self, *args, **kwargs):
            batches.append(args)
            return run_batch(self, *args, **kwargs)

        monkeypatch.setattr(Function, "instruction_count", counting)
        monkeypatch.setattr(Machine, "__init__", built)
        monkeypatch.setattr(Specializer, "_run_batch", batch)
        result = run_workload(binary, backend=backend)
        assert result.region_entries["bsearch"] == 1500
        hosts = {id(fn) for module in machines
                 for fn in module.functions.values()}
        assert machines and batches
        for key, calls in sized.items():
            if key in hosts:
                assert calls <= len(machines)
        assert sum(calls for key, calls in sized.items()
                   if key not in hosts) <= 3 * len(batches)

    def test_codegen_binds_module_callees(self, monkeypatch):
        """Generated code calls a module function through the machine's
        entry for it, as threaded call sites do: a counted binary run
        made 1,500 by-name ``Machine.call("bsearch", ...)`` before.
        Intrinsics and the harness's entry still go by name."""
        binary = WORKLOADS_BY_NAME["binary"]
        run_workload(binary, backend="pycodegen")   # warm the static side
        by_name: collections.Counter = collections.Counter()
        call = Machine.call

        def counting(self, name, args):
            by_name[name] += 1
            return call(self, name, args)

        monkeypatch.setattr(Machine, "call", counting)
        result = run_workload(binary, backend="pycodegen")
        assert result.region_entries["bsearch"] == 1500
        assert by_name == {"main": 1, "print_val": 1}

    def test_region_stats_bound_once_per_region_and_pending(
            self, monkeypatch):
        """A mipsi run dispatches 54 promotions through one pending
        continuation; each reads the region's stats from its
        ``PendingPromotion`` (58 ``for_region`` calls before)."""
        mipsi = WORKLOADS_BY_NAME["mipsi"]
        run_workload(mipsi)   # warm the static side
        lookups: list = []
        runtimes: list = []
        for_region = RuntimeStats.for_region
        make_machine = CompiledProgram.make_machine

        def counting(self, *args, **kwargs):
            lookups.append(args)
            return for_region(self, *args, **kwargs)

        def made(self, *args, **kwargs):
            machine, runtime = make_machine(self, *args, **kwargs)
            runtimes.append(runtime)
            return machine, runtime

        monkeypatch.setattr(RuntimeStats, "for_region", counting)
        monkeypatch.setattr(CompiledProgram, "make_machine", made)
        run_workload(mipsi)
        runtime, = runtimes
        regions = runtime.stats.regions.values()
        assert sum(r.internal_promotions_executed for r in regions) == 54
        assert len(lookups) <= len(regions) + len(runtime.pendings)

    def test_codegen_region_penalty_sized_once_per_code(self, monkeypatch):
        """pycodegen keeps what a region entry needs per code version,
        as the threaded region loop does: a counted binary run sized
        its one region code's I-cache penalty on each of its 1,500
        entries (1,502 calls in all before)."""
        binary = WORKLOADS_BY_NAME["binary"]
        run_workload(binary, backend="pycodegen")   # warm the static side
        sized: collections.Counter = collections.Counter()
        made: list = []
        per_instruction_penalty = ICacheModel.per_instruction_penalty
        make_machine = CompiledProgram.make_machine

        def counting(self, footprint):
            sized[footprint] += 1
            return per_instruction_penalty(self, footprint)

        def making(self, *args, **kwargs):
            machine, runtime = make_machine(self, *args, **kwargs)
            made.append((machine, runtime))
            return machine, runtime

        monkeypatch.setattr(ICacheModel, "per_instruction_penalty",
                            counting)
        monkeypatch.setattr(CompiledProgram, "make_machine", making)
        result = run_workload(binary, backend="pycodegen")
        assert result.region_entries["bsearch"] == 1500
        (machine, runtime), = made
        codes = [cache._value for cache in runtime.entry_caches.values()]
        assert len(codes) == 1
        assert sum(sized.values()) \
            <= len(machine.module.functions) + len(codes)


#: ``f(x, n, flag)``: an unchecked region keyed on ``k``, which only
#: ``flag`` defines.
_KEYED = """
func f(x, n, flag) {
    if (flag) { k = n; }
    make_static(k) : cache_one_unchecked;
    return x * k;
}
"""

#: ``f(x, n, flag)``: an unchecked region entered only when ``flag``.
_BRANCHED = """
func f(x, n, flag) {
    if (flag) {
        make_static(n) : cache_one_unchecked;
        x = x * n;
    }
    return x + 1;
}
"""


@pytest.fixture
def entered(monkeypatch):
    """Calls of ``DycRuntime.enter_region``, per backend."""
    counts: collections.Counter = collections.Counter()
    enter_region = DycRuntime.enter_region

    def counting(self, machine, instr, env):
        counts[machine.backend] += 1
        return enter_region(self, machine, instr, env)

    monkeypatch.setattr(DycRuntime, "enter_region", counting)
    return counts


def _dispatches(source, calls, config=ALL_ON):
    """Per backend, each call's result or error and what it left: the
    machine's stats, every region's stats and each entry cache's
    lookup count."""
    compiled = compile_annotated(compile_source(source), config)
    outcomes = {}
    for backend in BACKENDS:
        machine, runtime = compiled.make_machine(backend=backend)
        seen = []
        for args in calls:
            try:
                result = ("ok", machine.run("f", *args))
            except (SpecializationError, CacheError) as exc:
                result = (type(exc).__name__, str(exc))
            seen.append((
                result,
                machine.stats.snapshot(),
                {region_id: dataclasses.asdict(stats)
                 for region_id, stats in runtime.stats.regions.items()},
                {region_id: cache.total_lookups
                 for region_id, cache in runtime.entry_caches.items()},
            ))
        outcomes[backend] = seen
    return outcomes


class TestBoundRegionDispatch:
    """The threaded and codegen backends dispatch through the entry
    ``DycRuntime.bind_entry`` binds at an ``EnterRegion``'s first
    dispatch; a filled unchecked slot skips ``enter_region``.  These pin
    what that binding must not change, against the reference, which
    calls ``enter_region`` on every dispatch."""

    def test_unchecked_hits_skip_enter_region(self, entered, monkeypatch):
        binary = WORKLOADS_BY_NAME["binary"]
        lookups = {}
        bound: collections.Counter = collections.Counter()
        make_machine = CompiledProgram.make_machine
        bind_entry = DycRuntime.bind_entry

        def making(self, *args, **kwargs):
            machine, runtime = make_machine(self, *args, **kwargs)
            lookups[machine.backend] = runtime.entry_caches
            return machine, runtime

        def binding(self, machine, instr):
            bound[machine.backend] += 1
            return bind_entry(self, machine, instr)

        monkeypatch.setattr(CompiledProgram, "make_machine", making)
        monkeypatch.setattr(DycRuntime, "bind_entry", binding)
        results = {backend: run_workload(binary, backend=backend)
                   for backend in BACKENDS}
        assert entered == {"reference": 1500, "threaded": 1,
                           "pycodegen": 1}
        assert bound == {"threaded": 1, "pycodegen": 1}
        for backend in BACKENDS:
            assert results[backend].region_entries["bsearch"] == 1500
            assert results[backend] == results["reference"], backend
            caches = lookups[backend]
            assert [c.total_lookups for c in caches.values()] == [1500]

    def test_undefined_key_on_a_hit_raises_like_reference(self, entered):
        outcomes = _dispatches(_KEYED, [(2, 3, 1), (2, 3, 0)])
        assert outcomes["reference"][0][0] == ("ok", 6)
        assert outcomes["reference"][1][0] == (
            "SpecializationError",
            "region 0: promoted variable 'k' is undefined at region "
            "entry")
        for backend in BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend
        assert entered == {"reference": 2, "threaded": 1, "pycodegen": 1}

    def test_strict_checking_raises_on_a_changed_key(self, entered):
        config = dataclasses.replace(ALL_ON, check_annotations=True)
        outcomes = _dispatches(_KEYED, [(2, 3, 1), (5, 3, 1), (2, 4, 1)],
                               config)
        assert [seen[0][0] for seen in outcomes["reference"]] \
            == ["ok", "ok", "CacheError"]
        for backend in BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend
        # A strict slot compares keys, so every dispatch takes
        # enter_region.
        assert entered == {backend: 3 for backend in BACKENDS}

    def test_unreached_entry_creates_no_region_state(self):
        outcomes = _dispatches(_BRANCHED, [(2, 3, 0), (2, 3, 1), (2, 3, 1)])
        result, _, regions, caches = outcomes["reference"][0]
        assert result == ("ok", 3) and regions == {} and caches == {}
        assert [seen[0] for seen in outcomes["reference"][1:]] \
            == [("ok", 7), ("ok", 7)]
        for backend in BACKENDS:
            assert outcomes[backend] == outcomes["reference"], backend


class TestStepLimit:
    #: A call in a loop inside an unchecked region, run twice: the
    #: second run dispatches through the bound hit path.
    SOURCE = """
    func g(a) { return a + 1; }
    func f(x, n, flag) {
        make_static(n) : cache_one_unchecked;
        var i = 0;
        while (i < x) { i = g(i); }
        return i * n + flag;
    }
    """

    def test_fires_at_the_same_instruction_on_every_backend(self):
        compiled = compile_annotated(compile_source(self.SOURCE), ALL_ON)
        machine, _ = compiled.make_machine()
        assert machine.run("f", 3, 2, 1) == machine.run("f", 3, 2, 1) == 7
        total = machine.stats.instructions
        for limit in range(total + 1):
            outcomes = {}
            for backend in BACKENDS:
                machine, _ = compiled.make_machine(step_limit=limit,
                                                   backend=backend)
                seen = []
                for _ in range(2):
                    try:
                        seen.append(("ok", machine.run("f", 3, 2, 1)))
                    except MachineError as exc:
                        seen.append(("MachineError", str(exc)))
                outcomes[backend] = (seen, machine.stats.snapshot())
            seen, stats = outcomes["reference"]
            if limit < total:
                assert seen[1][0] == "MachineError", limit
                assert "step limit" in seen[1][1]
            else:
                assert seen == [("ok", 7), ("ok", 7)]
            for backend in BACKENDS:
                assert outcomes[backend] == outcomes["reference"], \
                    (backend, limit)
