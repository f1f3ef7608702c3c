"""Gate: the runaway-unrolling prediction agrees with the specializer.

When a generating extension is built it records the loop-header contexts
whose specialization provably never converges
(``GeneratingExtension.runaway``), and the specializer fails such a
context before processing it.  A false positive would star a Table 5
cell that can be specialized, so every flagged case here also runs once
at the real context budget with the record emptied (a monkeypatch test
seam), and must still exhaust that budget.
"""

import hashlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

import repro.dyc.genext as genext_module
from repro.config import ALL_ON, OptConfig
from repro.dyc import compile_annotated, compile_static
from repro.errors import SpecializationBudgetError
from repro.evalharness.runner import run_workload
from repro.evalharness.tables import TABLE5_ABLATIONS, applicable_ablations
from repro.frontend import compile_source
from repro.ir import Memory, format_function
from repro.machine import Machine
from repro.runtime.specializer import MAX_CONTEXTS_PER_BATCH
from repro.workloads import ALL_WORKLOADS, WORKLOADS_BY_NAME

EXAMPLE_PATH = (Path(__file__).parent.parent / "examples"
                / "interpreter_specialization.py")


def _load_example():
    spec = importlib.util.spec_from_file_location("interpreter_example",
                                                  EXAMPLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXAMPLE = _load_example()


def _flagged(source: str, config: OptConfig) -> bool:
    compiled = compile_annotated(compile_source(source), config)
    return any(genext.runaway for genext in compiled.genexts.values())


def _outcome(run) -> str:
    try:
        run()
    except SpecializationBudgetError as exc:
        assert "exceeded" in str(exc)
        assert exc.region_id is not None
        return "budget"
    return "finished"


def _run_example(config: OptConfig):
    """The example's interpreter on its program, specialized under
    ``config``; returns the interpreted result."""
    compiled = compile_annotated(compile_source(EXAMPLE.SOURCE), config)
    machine, _ = compiled.make_machine(memory=Memory())
    prog = machine.memory.alloc_array(EXAMPLE.PROGRAM)
    return machine.run("interp", prog, 50)


def _example_interpreted() -> int:
    memory = Memory()
    prog = memory.alloc_array(EXAMPLE.PROGRAM)
    machine = Machine(compile_static(compile_source(EXAMPLE.SOURCE)),
                      memory=memory)
    return machine.run("interp", prog, 50)


@pytest.fixture(scope="module")
def baseline():
    """``ALL_ON`` runs of every workload (Table 5's baseline)."""
    return {w.name: run_workload(w, ALL_ON) for w in ALL_WORKLOADS}


def _table5_cells(baseline) -> list[tuple[str, str]]:
    cells = []
    for workload in ALL_WORKLOADS:
        needed = {
            ablation
            for function in workload.region_functions
            for ablation in applicable_ablations(baseline[workload.name],
                                                 function)
        }
        cells += [(workload.name, ablation)
                  for ablation in TABLE5_ABLATIONS if ablation in needed]
    return cells


class TestPredictionMatchesRuntime:
    def test_all_on_is_never_flagged(self, baseline):
        for workload in ALL_WORKLOADS:
            assert not _flagged(workload.source, ALL_ON), workload.name
            assert baseline[workload.name].outputs_match, workload.name

    def test_table5_cells_and_starred_fallbacks(self, baseline):
        cells = _table5_cells(baseline)
        assert len(cells) == 45
        flagged = set()
        for name, ablation in cells:
            workload = WORKLOADS_BY_NAME[name]
            config = ALL_ON.without(ablation)
            predicted = _flagged(workload.source, config)
            outcome = _outcome(lambda: run_workload(workload, config))
            assert outcome == ("budget" if predicted else "finished"), \
                (name, ablation)
            if predicted:
                flagged.add((name, ablation))
        assert flagged == {("mipsi", "static_calls"),
                           ("mipsi", "static_loads")}
        for name, ablation in sorted(flagged):
            workload = WORKLOADS_BY_NAME[name]
            starred = ALL_ON.without(ablation, "complete_loop_unrolling")
            assert not _flagged(workload.source, starred)
            assert run_workload(workload, starred).outputs_match

    def test_example_under_each_ablation(self):
        expected = _example_interpreted()
        flagged = set()
        for ablation in (None,) + TABLE5_ABLATIONS:
            config = ALL_ON if ablation is None else ALL_ON.without(ablation)
            predicted = _flagged(EXAMPLE.SOURCE, config)
            if predicted:
                flagged.add(ablation)
                assert _outcome(lambda: _run_example(config)) == "budget"
            else:
                assert _run_example(config) == expected, ablation
        assert flagged == {"static_loads"}


#: Every case the rule flags, with a thunk that runs it once.
FLAGGED_RUNS = {
    "mipsi-static_calls": lambda: run_workload(
        WORKLOADS_BY_NAME["mipsi"], ALL_ON.without("static_calls")),
    "mipsi-static_loads": lambda: run_workload(
        WORKLOADS_BY_NAME["mipsi"], ALL_ON.without("static_loads")),
    "example-static_loads": lambda: _run_example(
        ALL_ON.without("static_loads")),
}


class TestFlaggedCasesReallyDiverge:
    @pytest.mark.parametrize("case", sorted(FLAGGED_RUNS))
    def test_exhausts_the_real_budget_without_the_record(self, case,
                                                         monkeypatch):
        monkeypatch.setattr(genext_module, "find_runaway_loops",
                            lambda genext: {})
        with pytest.raises(SpecializationBudgetError) as exc:
            FLAGGED_RUNS[case]()
        # The backstop's own error, not the prediction's.
        message = str(exc.value)
        assert f"exceeded {MAX_CONTEXTS_PER_BATCH} contexts" in message
        assert "would have" not in message

    def test_prediction_names_the_variable_and_the_loop(self):
        with pytest.raises(SpecializationBudgetError) as exc:
            FLAGGED_RUNS["mipsi-static_loads"]()
        message = str(exc.value)
        assert f"would have exceeded {MAX_CONTEXTS_PER_BATCH}" in message
        assert "'pc'" in message and "'while_head1'" in message
        assert exc.value.region_id == 0


# ----------------------------------------------------------------------
# Near misses: loops the rule must leave alone
# ----------------------------------------------------------------------

#: Each program specializes to completion; the digest of its emitted
#: code and counters was pinned from the specializer before the
#: prediction existed, so the prediction provably changes nothing here.
NEAR_MISSES = {
    # pc wraps around: only four header contexts exist.
    "wrapping_counter": ("""
func run(prog, acc) {
    make_static(pc, running);
    var pc = 0;
    var running = 1;
    while (running) {
        var op = prog[pc];
        pc = (pc + 1) & 3;
        if (op == 0) { running = 0; }
        else { acc = acc + op; }
    }
    return acc;
}
""",
        "6c1cb3ef41e2b8d94908718528973a4bdf7cded30692f3284e3a0c188c21c1c2"),
    # The exit test reads the growing variable, so it folds.
    "static_exit_test": ("""
func run(prog, acc) {
    make_static(pc);
    var pc = 0;
    while (pc < 4) {
        var op = prog[pc];
        pc = pc + 1;
        if (op == 0) { acc = acc + 1; }
        else { acc = acc * 2; }
    }
    return acc;
}
""",
        "f692824d11e34a4dcfb434ce473f178c8f664f77223da742f4f7740fe9d9c9be"),
    # A promotion on every path around the loop: each trip is
    # specialized lazily, as execution reaches it.
    "promotion_every_trip": ("""
func run(prog, acc) {
    make_static(pc, running, scale);
    var pc = 0;
    var running = 1;
    var scale = 1;
    while (running) {
        var op = prog[pc];
        pc = pc + 1;
        scale = prog[5];
        if (op == 0) { running = 0; }
        else { acc = acc + op * scale; }
    }
    return acc;
}
""",
        "a6a29a55543dfaf2c539669956fe442fb4befb850958699a0ce10195d5092bfe"),
    # A static load indexed by the growing variable decides the exit.
    "static_load_by_counter": ("""
func run(prog, acc) {
    make_static(prog, pc, running);
    var pc = 0;
    var running = 1;
    while (running) {
        var op = prog@[pc];
        pc = pc + 1;
        if (op == 0) { running = 0; }
        else { if (acc > op) { acc = acc - op; } else { acc = acc + op; } }
    }
    return acc;
}
""",
        "c3f86e3479ea8a51649e723fbfe2f6a4c6f0cc9d382165b03438e3262dbdcffe"),
}

#: The interpreted input: three opcodes, a halt, then a scale word.
NEAR_MISS_PROGRAM = [3, 1, 4, 0, 9, 2]


def _near_miss_digest(source: str) -> tuple[int, str]:
    """Specialize and run ``source`` twice; returns the result and a
    digest of every emitted code version and region counter."""
    compiled = compile_annotated(compile_source(source), ALL_ON)
    machine, runtime = compiled.make_machine(memory=Memory())
    prog = machine.memory.alloc_array(NEAR_MISS_PROGRAM)
    result = machine.run("run", prog, 7)
    assert machine.run("run", prog, 7) == result
    hasher = hashlib.sha256(repr((result, machine.stats.cycles))
                            .encode("utf-8"))
    for region_id, stats in sorted(runtime.stats.regions.items()):
        counters = tuple(
            (f.name, getattr(stats, f.name)) for f in fields(stats)
            if not isinstance(getattr(stats, f.name), dict)
        )
        hasher.update(repr((region_id, counters)).encode("utf-8"))
    for region_id, cache in sorted(runtime.entry_caches.items()):
        for key, code in cache.items():
            hasher.update(repr((region_id, key)).encode("utf-8"))
            hasher.update(format_function(code.function).encode("utf-8"))
    return result, hasher.hexdigest()


class TestNearMisses:
    @pytest.mark.parametrize("name", sorted(NEAR_MISSES))
    def test_not_flagged_and_byte_identical(self, name):
        source, pinned = NEAR_MISSES[name]
        assert not _flagged(source, ALL_ON)
        _, digest = _near_miss_digest(source)
        assert digest == pinned

    def test_degrade_mode_still_truncates_at_the_budget(self):
        config = OptConfig(static_loads=False, degrade=True,
                           specialize_budget=500)
        assert _flagged(WORKLOADS_BY_NAME["mipsi"].source, config)
        result = run_workload(WORKLOADS_BY_NAME["mipsi"], config)
        assert result.outputs_match
        stats = list(result.region_stats.values())
        assert len(stats) == 1
        # Pinned from the specializer before the prediction existed.
        assert stats[0].budget_truncations == 6
        assert stats[0].contexts_specialized == 503
        assert stats[0].dc_cycles == 49916.2
