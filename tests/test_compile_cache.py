"""The compiled-program cache of ``run_workload``.

``compile_annotated`` reads only the part of an ``OptConfig`` that
``compile_key`` names, so ``run_workload`` compiles each canonical
program once per key and every run shares the result under its own
configuration; the compile's front half, traditional optimization,
reads no configuration and is computed once per program.  These tests
pin that the key covers every field the compile reads and the front
half none, that runs and compiles never write the shared program or
front half and match compiles and runs made afresh (``module=``), how
the cache keys, bounds and copies, and how often a Table 5 sweep
optimizes.  The ``shared`` tests also pin that runs never write the
shared prepared inputs, and run with each CI fault leg's
``REPRO_FAULTS`` armed.
"""

import collections
import dataclasses
import os
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.config import ALL_OFF, ALL_ON, OptConfig, TABLE5_ABLATIONS
from repro.dyc import (
    compile_annotated,
    compile_key,
    compile_static,
    prepare_module,
)
from repro.dyc import compiler
from repro.dyc.compiler import BTA_FIELDS, LINT_GATE_FIELDS
from repro.errors import LintError, SpecializationError
from repro.evalharness import runner, tables
from repro.evalharness.runner import (
    COMPILED_PROGRAM_CAPACITY,
    INVARIANT_CACHE_CAPACITY,
    reset_invariant_caches,
    run_workload,
)
from repro.faults import FAULT_POINTS
from repro.frontend import compile_source
from repro.ir import Op
from repro.lint.extract import embedded_sources_from_file
from repro.workloads import ALL_WORKLOADS, WORKLOADS_BY_NAME
from tests.helpers import run_fingerprints

ROOT = Path(__file__).parent.parent
DOT = WORKLOADS_BY_NAME["dotproduct"]
MIPSI = WORKLOADS_BY_NAME["mipsi"]

#: (backend, codegen mode) columns of ``BENCH_interp.json``.
COLUMNS = [("reference", "counted"), ("threaded", "counted"),
           ("pycodegen", "counted"), ("pycodegen", "fast")]

#: The fault points that can fire inside ``run_workload``; the serve
#: and worker points fire around it.
RUNTIME_FAULT_POINTS = (
    "specializer.entry", "specializer.continuation", "specializer.budget",
    "emit.template", "cache.corrupt", "cache.evict", "pycodegen.compile",
    "threaded.translate",
)


@pytest.fixture(autouse=True)
def _cold_caches():
    reset_invariant_caches()
    yield
    reset_invariant_caches()


def _key(workload, config) -> tuple:
    return (workload.source, compile_key(config))


# ----------------------------------------------------------------------
# The projection covers every read
# ----------------------------------------------------------------------

_FIELDS = frozenset(f.name for f in dataclasses.fields(OptConfig))


class _RecordingConfig(OptConfig):
    """An ``OptConfig`` that records the name of every field read."""

    def __getattribute__(self, name):
        if name in _FIELDS:
            reads = object.__getattribute__(self, "__dict__").get("reads")
            if reads is not None:
                reads.add(name)
        return object.__getattribute__(self, name)


def _recording(config: OptConfig) -> _RecordingConfig:
    recorder = _RecordingConfig(**dataclasses.asdict(config))
    object.__setattr__(recorder, "reads", set())
    return recorder


def _any_config_recorder(reads: set):
    """An ``OptConfig.__getattribute__`` that records, in ``reads``,
    the name of every field read of any configuration."""

    def getattribute(self, name):
        if name in _FIELDS:
            reads.add(name)
        return object.__getattribute__(self, name)

    return getattribute


class _RecordingEnviron(dict):
    """``os.environ`` stand-in that records every variable looked up."""

    def __init__(self, data) -> None:
        super().__init__(data)
        self.reads: set[str] = set()

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)


def _programs() -> list[tuple[str, str]]:
    """``(name, source)`` of the workloads and the ``examples/``
    programs."""
    programs = [(w.name, w.source) for w in ALL_WORKLOADS]
    for path in sorted((ROOT / "examples").glob("*.py")):
        programs += [(f"{path.name}:{name}", source) for name, source
                     in embedded_sources_from_file(str(path))]
    return programs


class TestProjection:
    @pytest.mark.parametrize("lint", [False, True], ids=["plain", "lint"])
    def test_compile_reads_only_the_key(self, monkeypatch, lint):
        environ = _RecordingEnviron(os.environ)
        monkeypatch.setattr(os, "environ", environ)
        programs = _programs()
        assert len(programs) > len(ALL_WORKLOADS)
        modules = {name: compile_source(source)
                   for name, source in programs}
        # The front half reads no configuration at all.
        front_reads: set[str] = set()
        with monkeypatch.context() as patch:
            patch.setattr(OptConfig, "__getattribute__",
                          _any_config_recorder(front_reads))
            prepared = {name: prepare_module(module)
                        for name, module in modules.items()}
        assert front_reads == set()
        assert environ.reads == set()
        read: set[str] = set()
        for base in (ALL_ON, ALL_OFF):
            # A source budget makes the lint gate's DYC210 estimate run.
            config = dataclasses.replace(base, lint=lint,
                                         codegen_source_budget=10**9)
            allowed = {name for name, _ in compile_key(config)}
            for name, _ in programs:
                recorder = _recording(config)
                try:
                    compile_annotated(prepared[name], recorder)
                except LintError:
                    pass
                reads = set(recorder.reads)  # before any repr reads more
                assert reads <= allowed, (name, sorted(reads - allowed))
                read |= reads
        # Every keyed field is read somewhere: the key holds no dead
        # field that would split entries for nothing.
        expected = set(BTA_FIELDS) | {"lint"}
        if lint:
            expected |= set(LINT_GATE_FIELDS)
        assert read == expected
        assert environ.reads == set()


class TestDeterminism:
    def test_compiles_are_functions_of_their_input(self):
        """Strength reduction once named its temporaries from a
        process-wide counter, so a second compile of m88ksim, mipsi,
        query or viewperf differed from the first."""
        for name, source in _programs():
            static = [pickle.dumps(compile_static(compile_source(source)))
                      for _ in range(2)]
            assert static[0] == static[1], name
            annotated = [_program_ir(compile_annotated(
                compile_source(source), ALL_ON)) for _ in range(2)]
            assert annotated[0] == annotated[1], name


# ----------------------------------------------------------------------
# Runs never write the shared program
# ----------------------------------------------------------------------

#: Context budget of the shared runs.  Without a fault armed the two
#: runaway mipsi cells fail before specializing; with one armed (CI's
#: fault legs) the ladder truncates them at the budget, which this
#: keeps far below the 200,000-context default.  No other shared run
#: comes near it, and it is not part of the compile key.
SHARED_BUDGET = 1000

#: Configurations whose runs share one compiled program; each is checked
#: on :data:`SHARED_WORKLOADS` and every column.
SHARED_CONFIGS = {
    name: dataclasses.replace(config, specialize_budget=SHARED_BUDGET)
    for name, config in {
        "all_on": ALL_ON,
        **{f"without_{name}": ALL_ON.without(name)
           for name in TABLE5_ABLATIONS},
        **{f"fault_{point}": dataclasses.replace(
            ALL_ON, faults=f"{point}:every=2")
           for point in RUNTIME_FAULT_POINTS},
        "check_annotations": dataclasses.replace(ALL_ON,
                                                 check_annotations=True),
        "lint": dataclasses.replace(ALL_ON, lint=True),
    }.items()
}

#: A straight unrolled loop, and an interpreter with ``pure`` calls,
#: internal promotions and runaway-flagged cells.  The other workloads'
#: ``ALL_ON`` programs are pinned by ``test_invariant_cache``.
SHARED_WORKLOADS = ("dotproduct", "mipsi")


def _outcome(workload, config, **kwargs):
    try:
        return run_fingerprints(run_workload(workload, config, **kwargs))
    except SpecializationError as exc:
        return (type(exc).__name__, str(exc))


def _image(prepared) -> bytes:
    """The prepared inputs' memory image and arguments, pickled (the
    checksum function is a closure, which pickle cannot hold)."""
    return pickle.dumps((prepared.words, prepared.args))


def _check_shared(workload, config) -> None:
    """Compile ``workload`` into the cache, run it on every column, and
    require each run to match a ``module=`` run and to leave the cached
    program, its front half and the prepared inputs byte-identical."""
    runner.compiled_program(
        workload.source, runner._parsed_module(workload.source), config)
    shared = runner._COMPILED_PROGRAMS.get(_key(workload, config))
    before = pickle.dumps(shared)
    front = runner._PREPARED_MODULES.get(workload.source)
    front_before = pickle.dumps(front)
    prepared = runner.prepared_input(workload)
    image = _image(prepared)
    for backend, mode in COLUMNS:
        fresh = _outcome(workload, config, backend=backend,
                         codegen_mode=mode,
                         module=compile_source(workload.source))
        assert _outcome(workload, config, backend=backend,
                        codegen_mode=mode) == fresh, \
            (workload.name, backend, mode)
    assert pickle.dumps(shared) == before, workload.name
    assert runner._COMPILED_PROGRAMS.get(_key(workload, config)) is shared
    assert pickle.dumps(front) == front_before, workload.name
    assert runner._PREPARED_MODULES.get(workload.source) is front
    assert _image(prepared) == image, workload.name
    assert runner.prepared_input(workload) is prepared


def _program_ir(program) -> bytes:
    """A compiled program's module, regions and generating extensions,
    pickled together (so instructions they share pickle once)."""
    return pickle.dumps((program.module, program.regions,
                         program.genexts))


#: ``ALL_ON`` and the nine Table 5 ablations, one per distinct
#: :func:`compile_key`.
KEYED_SWEEP_CONFIGS = list({
    compile_key(config): config
    for config in [ALL_ON] + [ALL_ON.without(name)
                              for name in TABLE5_ABLATIONS]
}.values())


def _sweep(workload, backend, mode) -> None:
    """A Table 5 sweep's runs of ``workload`` on one column: ``ALL_ON``
    and each applicable ablation, with the starred fallback (complete
    loop unrolling off too) after a run that cannot be specialized.
    Each run has the shared budget: see :data:`SHARED_BUDGET`."""
    def run(config):
        return run_workload(workload, dataclasses.replace(
            config, specialize_budget=SHARED_BUDGET),
            backend=backend, codegen_mode=mode)

    base = run(ALL_ON)
    needed = {name for function in workload.region_functions
              for name in tables.applicable_ablations(base, function)}
    for name in sorted(needed):
        try:
            run(ALL_ON.without(name))
        except SpecializationError:
            run(ALL_ON.without(name, "complete_loop_unrolling"))


class TestShared:
    def test_runtime_fault_points_are_fault_points(self):
        assert set(RUNTIME_FAULT_POINTS) <= set(FAULT_POINTS)

    @pytest.mark.parametrize("name", sorted(SHARED_CONFIGS))
    def test_shared_program_unchanged_by_runs(self, name):
        for workload in SHARED_WORKLOADS:
            _check_shared(WORKLOADS_BY_NAME[workload],
                          SHARED_CONFIGS[name])

    def test_shared_program_unchanged_by_degraded_runs(self):
        """The budget-truncation ladder copies template blocks into
        specialized code; the runaway mipsi cell walks it."""
        _check_shared(MIPSI, OptConfig(static_loads=False, degrade=True,
                                       specialize_budget=500))

    def test_shared_front_half_matches_a_fresh_compile(self):
        assert len(KEYED_SWEEP_CONFIGS) == 1 + len(BTA_FIELDS)
        for workload in ALL_WORKLOADS:
            parsed = runner._parsed_module(workload.source)
            for config in KEYED_SWEEP_CONFIGS:
                cached = runner.compiled_program(workload.source, parsed,
                                                 config)
                fresh = compile_annotated(compile_source(workload.source),
                                          config)
                assert _program_ir(cached) == _program_ir(fresh), \
                    (workload.name, compile_key(config))

    @pytest.mark.parametrize("backend,mode", COLUMNS,
                             ids=[f"{b}-{m}" for b, m in COLUMNS])
    def test_shared_front_half_unchanged_by_a_sweep(self, backend, mode):
        """A BTA block split or host rewrite that reached the front half
        would change it; every compile and run of a sweep leaves it
        byte-identical."""
        fronts = {}
        for workload in ALL_WORKLOADS:
            front = runner.prepared_module(
                workload.source, runner._parsed_module(workload.source))
            fronts[workload.name] = (front, pickle.dumps(front))
        for workload in ALL_WORKLOADS:
            _sweep(workload, backend, mode)
        for workload in ALL_WORKLOADS:
            front, before = fronts[workload.name]
            assert runner._PREPARED_MODULES.get(workload.source) is front
            assert pickle.dumps(front) == before, workload.name


# ----------------------------------------------------------------------
# How often a sweep optimizes
# ----------------------------------------------------------------------

class TestFrontHalf:
    def test_a_sweep_after_the_all_on_pass_optimizes_nothing(
            self, monkeypatch, compiles):
        optimized: list[str] = []
        optimize = compiler.optimize_function

        def counted_optimize(function, *args, **kwargs):
            optimized.append(function.name)
            return optimize(function, *args, **kwargs)

        built = collections.Counter()
        prepare = runner.prepare_module

        def counted_prepare(module):
            built[id(module)] += 1
            return prepare(module)

        monkeypatch.setattr(compiler, "optimize_function", counted_optimize)
        monkeypatch.setattr(runner, "prepare_module", counted_prepare)
        baseline = tables.run_all(ALL_ON, jobs=1, memo=None,
                                  backend="threaded")
        assert optimized and len(compiles) == len(ALL_WORKLOADS)
        optimized.clear()
        compiles.clear()
        tables.build_table5(baseline, jobs=1, memo=None,
                            backend="threaded")
        # 22 cells ablate a BTA switch and two starred cells fall back;
        # at eight entries each ALL_ON program is evicted and compiled
        # again: 22 + 2 + 10.
        assert len(compiles) == 34
        assert optimized == []
        # One front half per program, built at the first compile.
        assert len(built) == len(ALL_WORKLOADS)
        assert set(built.values()) == {1}

    def test_bounded_and_reset(self):
        cache = runner._PREPARED_MODULES
        assert cache.capacity == INVARIANT_CACHE_CAPACITY
        run_workload(DOT, backend="threaded")
        assert DOT.source in cache
        reset_invariant_caches()
        assert len(cache) == 0

    def test_a_compile_shares_instructions_not_structure(self):
        module = runner._parsed_module(DOT.source)
        front = runner.prepared_module(DOT.source, module)
        program = runner.compiled_program(DOT.source, module, ALL_ON)
        assert front.source is module
        assert program.module is not front.optimized
        shared = 0
        for name, function in front.optimized.functions.items():
            copied = program.module.functions[name]
            assert copied is not function
            for label, block in copied.blocks.items():
                original = function.blocks.get(label)
                assert original is not block
                if original is not None:
                    assert original.instrs is not block.instrs
                    ids = {id(instr) for instr in original.instrs}
                    shared += sum(id(instr) in ids
                                  for instr in block.instrs)
        assert shared > 0

    def test_instructions_hold_only_immutable_values(self):
        """What makes sharing instructions between copies safe."""
        def immutable(value) -> bool:
            if isinstance(value, tuple):
                return all(immutable(item) for item in value)
            if dataclasses.is_dataclass(value):
                return value.__dataclass_params__.frozen and all(
                    immutable(getattr(value, item.name))
                    for item in dataclasses.fields(value))
            return isinstance(value, (str, int, float, bool, type(None),
                                      Op))

        for name, source in _programs():
            program = compile_annotated(compile_source(source))
            functions = list(program.module.functions.values()) + [
                region.template for region in program.regions.values()]
            for function in functions:
                for _, _, instr in function.instructions():
                    assert immutable(instr), (name, instr)


# ----------------------------------------------------------------------
# Keys, bound, concurrency and copies
# ----------------------------------------------------------------------

@pytest.fixture
def compiles(monkeypatch):
    """The configuration of every compile the runner makes."""
    configs = []
    inner = runner.compile_annotated

    def counted(module, config=ALL_ON):
        configs.append(config)
        return inner(module, config)

    monkeypatch.setattr(runner, "compile_annotated", counted)
    return configs


class TestKeys:
    def test_only_compile_relevant_settings_miss(self, compiles):
        def compiled(config) -> int:
            count = len(compiles)
            run_workload(DOT, config, backend="threaded")
            return len(compiles) - count

        assert compiled(ALL_ON) == 1
        every_run_setting = OptConfig(
            unchecked_dispatching=False, zero_copy_propagation=False,
            dead_assignment_elimination=False, strength_reduction=False,
            check_annotations=True, faults="specializer.entry:once",
            degrade=True, cache_capacity=4, specialize_budget=1000,
            quarantine_after=9, codegen_mode="fast",
            codegen_source_budget=100)
        for config in (ALL_ON.without("zero_copy_propagation"),
                       ALL_ON.without("unchecked_dispatching"),
                       every_run_setting):
            assert compiled(config) == 0, config
        assert compiled(ALL_ON.without("static_loads")) == 1
        linted = dataclasses.replace(ALL_ON, lint=True)
        assert compiled(linted) == 1
        assert compiled(dataclasses.replace(linted,
                                            specialize_budget=1000)) == 1
        assert compiled(dataclasses.replace(linted, quarantine_after=9)) \
            == 0
        assert len(runner._COMPILED_PROGRAMS) == 4

    def test_each_run_carries_its_own_config(self):
        module = runner._parsed_module(DOT.source)
        plain = runner.compiled_program(DOT.source, module, ALL_ON)
        reduced = ALL_ON.without("strength_reduction")
        other = runner.compiled_program(DOT.source, module, reduced)
        assert plain.config == ALL_ON and other.config == reduced
        assert other.module is plain.module
        assert other.regions is plain.regions
        assert other.genexts is plain.genexts

    def test_explicit_module_runs_bypass_the_cache(self, compiles):
        run_workload(DOT, backend="threaded",
                     module=compile_source(DOT.source))
        assert len(compiles) == 1
        assert len(runner._COMPILED_PROGRAMS) == 0
        assert len(runner._PREPARED_MODULES) == 0

    def test_a_compile_that_raises_stores_nothing(self):
        source = (ROOT / "tests" / "lint_fixtures"
                  / "use_before_def.minic").read_text()
        linted = dataclasses.replace(ALL_ON, lint=True)
        with pytest.raises(LintError):
            runner.compiled_program(source, compile_source(source), linted)
        assert len(runner._COMPILED_PROGRAMS) == 0

    def test_capacity_evicts_least_recently_used(self, monkeypatch):
        cache = runner._COMPILED_PROGRAMS
        assert cache.capacity == COMPILED_PROGRAM_CAPACITY == 8
        monkeypatch.setattr(cache, "capacity", 2)
        configs = {name: ALL_ON.without(name) for name in
                   ("static_loads", "static_calls", "polyvariant_division")}
        run_workload(DOT, configs["static_loads"], backend="threaded")
        run_workload(DOT, configs["static_calls"], backend="threaded")
        run_workload(DOT, configs["static_loads"], backend="threaded")
        run_workload(DOT, configs["polyvariant_division"],
                     backend="threaded")
        assert len(cache) == 2
        assert _key(DOT, configs["static_loads"]) in cache
        assert _key(DOT, configs["polyvariant_division"]) in cache
        assert _key(DOT, configs["static_calls"]) not in cache

    def test_concurrent_misses_leave_one_entry(self, monkeypatch):
        threads_n = 6  # more threads than cores
        barrier = threading.Barrier(threads_n, timeout=60)
        inner = runner.compile_annotated

        def meeting(module, config):
            barrier.wait()  # every thread missed before any stored
            return inner(module, config)

        monkeypatch.setattr(runner, "compile_annotated", meeting)
        fingerprints: list = []
        errors: list = []

        def run() -> None:
            try:
                fingerprints.append(run_fingerprints(
                    run_workload(DOT, backend="threaded")))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(f"{type(exc).__name__}: {exc}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run)
                       for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(fingerprints) == threads_n
        assert len(set(fingerprints)) == 1
        assert len(runner._COMPILED_PROGRAMS) == 1
        assert len(runner._PREPARED_MODULES) == 1

    def test_region_functions_are_private_lists(self):
        first = run_workload(DOT, backend="threaded")
        shared = runner._COMPILED_PROGRAMS.get(_key(DOT, ALL_ON))
        expected = {name: list(ids)
                    for name, ids in shared.region_functions.items()}
        assert first.region_functions == expected
        for ids in first.region_functions.values():
            ids.append(99)
        assert shared.region_functions == expected
        assert run_workload(DOT, backend="threaded").region_functions \
            == expected
