"""Lowered generating extensions against the action interpreter.

``compile_annotated`` lowers every entry point of every generating
extension to closures (``repro.dyc.lowering``), and the specializer runs
those.  :class:`~tests.specializer_oracle.InterpretingSpecializer` keeps
the action interpreter they replaced.  Each test runs the same work
under both and requires the same observable state: every specialized
block's label and instructions, each code version's contexts, exit
thunks and protected labels, every ``RegionStats`` field (with the
``loop_context_counts`` repr), the machine's dc cycles and the fault
registry's hit and fire counts.  CI's ``fault-injection`` legs re-run
the file with their ``REPRO_FAULTS`` armed.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from repro.config import ALL_ON, OptConfig, TABLE5_ABLATIONS
from repro.dyc import compile_annotated
from repro.dyc.compiler import CompiledProgram
from repro.errors import ReproError
from repro.evalharness.runner import reset_invariant_caches, run_workload
from repro.frontend import compile_source
from repro.runtime import runtime as runtime_module
from repro.runtime.specializer import Specializer
from repro.workloads import ALL_WORKLOADS, WORKLOADS_BY_NAME
from tests.helpers import run_fingerprints
from tests.specializer_oracle import InterpretingSpecializer
from tests.test_compile_cache import RUNTIME_FAULT_POINTS
from tests.test_property_equivalence import (
    _fresh_memory,
    programs,
    small_ints,
)

#: Keeps the runaway mipsi cells cheap when a CI leg arms a fault point
#: that fires inside a run (which turns the up-front runaway check off);
#: no other run comes near it.
BUDGET = 1000

CONFIGS = {
    "all_on": ALL_ON,
    **{f"without_{name}": ALL_ON.without(name)
       for name in TABLE5_ABLATIONS},
}


@pytest.fixture(autouse=True)
def _cold_caches():
    reset_invariant_caches()
    yield
    reset_invariant_caches()


def _code_state(code) -> tuple:
    fn = code.function
    return (
        fn.entry,
        [(label, repr(block.instrs)) for label, block in fn.blocks.items()],
        repr(list(code.contexts.items())),
        sorted(code.exit_blocks.items()),
        sorted(code.protected_labels),
        sorted(code.dynamic_labels.items()),
        code.label_counter,
        code.footprint,
    )


def observe(specializer, work) -> tuple:
    """Run ``work()`` with ``specializer`` serving every runtime it
    builds; return the outcome and everything the runs left behind."""
    codes: dict = {}
    runs: list = []
    make_machine = CompiledProgram.make_machine
    run_batch = Specializer._run_batch

    def made(self, *args, **kwargs):
        machine, runtime = make_machine(self, *args, **kwargs)
        runs.append((machine, runtime))
        return machine, runtime

    def batch(self, code, *args, **kwargs):
        codes.setdefault(id(code), code)
        return run_batch(self, code, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime_module, "Specializer", specializer)
        patch.setattr(CompiledProgram, "make_machine", made)
        patch.setattr(Specializer, "_run_batch", batch)
        try:
            outcome = work()
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc))
    for _, runtime in runs:
        for pending in runtime.pendings.values():
            codes.setdefault(id(pending.code), pending.code)
    return (
        outcome,
        [_code_state(code) for code in codes.values()],
        [(machine.stats.dc_cycles,
          {region_id: (repr(dataclasses.asdict(stats)),
                       repr(stats.loop_context_counts))
           for region_id, stats in runtime.stats.regions.items()},
          runtime.faults.summary())
         for machine, runtime in runs],
    )


def _workload_run(workload, config, backend="threaded"):
    def work():
        return run_fingerprints(run_workload(workload, config,
                                             backend=backend))
    return work


def assert_same(work, name) -> tuple:
    """Both specializers on ``work``."""
    lowered, oracle = (observe(side, work)
                       for side in (Specializer, InterpretingSpecializer))
    assert lowered == oracle, name
    return lowered


def _run_all(config, backend="threaded") -> list:
    outcomes = []
    for workload in ALL_WORKLOADS:
        lowered = assert_same(_workload_run(workload, config, backend),
                              workload.name)
        outcomes.append(lowered[0])
    return outcomes


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_table5_configs(self, name):
        config = dataclasses.replace(CONFIGS[name],
                                     specialize_budget=BUDGET)
        _run_all(config)

    @pytest.mark.parametrize("point", RUNTIME_FAULT_POINTS)
    def test_fault_points_under_degrade(self, point):
        config = OptConfig(faults=f"{point}:every=2", degrade=True,
                           specialize_budget=BUDGET)
        _run_all(config, "threaded")

    def test_budget_truncation(self):
        config = OptConfig(static_loads=False, degrade=True,
                           specialize_budget=500)
        outcome, codes, runs = assert_same(
            _workload_run(WORKLOADS_BY_NAME["mipsi"], config), "mipsi")
        assert any(code[5] for code in codes), "no dynamic copies built"


class TestGeneratedPrograms:
    @settings(max_examples=60, deadline=None)
    @given(programs(), small_ints, small_ints, small_ints, small_ints)
    def test_generated_programs(self, source, s1, s2, d1, d2):
        compiled = compile_annotated(compile_source(source), ALL_ON)

        def work():
            memory, arr, sarr = _fresh_memory()
            machine, _ = compiled.make_machine(memory=memory,
                                               step_limit=500_000)
            return [machine.run("f", s1, s2, d1, d2, arr, sarr)
                    for _ in range(2)]

        lowered = observe(Specializer, work)
        oracle = observe(InterpretingSpecializer, work)
        assert lowered == oracle

    def test_contexts_keep_the_division_of_the_edge_taken(self):
        # Found by the leg above: two edges reach ``endif13`` with equal
        # divisions held in distinct frozensets.  A context id must hold
        # the division of the edge that minted it, as the interpreter's
        # does, because equal frozensets may repr their elements in
        # different orders (under PYTHONHASHSEED=1 these two did).
        source = """
        func f(s1, s2, d1, d2, arr, sarr) {
            make_static(s1, s2, li1, li2, sarr);
            var li1 = 0;
            var li2 = 0;
            for (li2 = 0; li2 < 0; li2 = li2 + 1) { s1 = 0; }
            if (s1 > 0) { s1 = 0; } else { d1 = 0; }
            if (s1 > 0) { arr[0] = 0; }
            else { for (li1 = 0; li1 < 0; li1 = li1 + 1) { arr[0] = 0; } }
            return s1 + s2 + d1 + d2 + arr[d2 & 7];
        }
        """
        compiled = compile_annotated(compile_source(source), ALL_ON)
        run_batch = Specializer._run_batch
        divisions = {}
        for side in (Specializer, InterpretingSpecializer):
            codes = []

            def batch(self, code, *args, **kwargs):
                codes.append(code)
                return run_batch(self, code, *args, **kwargs)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(runtime_module, "Specializer", side)
                patch.setattr(Specializer, "_run_batch", batch)
                memory, arr, sarr = _fresh_memory()
                machine, _ = compiled.make_machine(memory=memory)
                machine.run("f", 0, 0, 0, 0, arr, sarr)
            divisions[side] = [id(context_id[1]) for code in codes
                               for context_id in code.contexts]
        assert divisions[Specializer] == \
            divisions[InterpretingSpecializer]
