"""The compiled-program cache of ``run_workload``.

``compile_annotated`` reads only the part of an ``OptConfig`` that
``compile_key`` names, so ``run_workload`` compiles each canonical
program once per key and every run shares the result under its own
configuration.  These tests pin that the key covers every field the
compile reads, that runs never write the shared program and match runs
that compile afresh (``module=``), and how the cache keys, bounds and
copies.  The ``shared`` tests also pin that runs never write the shared
prepared inputs, and run with each CI fault leg's ``REPRO_FAULTS``
armed.
"""

import dataclasses
import os
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.config import ALL_OFF, ALL_ON, OptConfig, TABLE5_ABLATIONS
from repro.dyc import compile_annotated, compile_key
from repro.dyc.compiler import BTA_FIELDS, LINT_GATE_FIELDS
from repro.errors import LintError, SpecializationError
from repro.evalharness import runner
from repro.evalharness.runner import (
    COMPILED_PROGRAM_CAPACITY,
    reset_invariant_caches,
    run_workload,
)
from repro.faults import FAULT_POINTS
from repro.frontend import compile_source
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
        read: set[str] = set()
        for base in (ALL_ON, ALL_OFF):
            # A source budget makes the lint gate's DYC210 estimate run.
            config = dataclasses.replace(base, lint=lint,
                                         codegen_source_budget=10**9)
            allowed = {name for name, _ in compile_key(config)}
            for name, source in programs:
                recorder = _recording(config)
                try:
                    compile_annotated(compile_source(source), recorder)
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
    program and prepared inputs byte-identical."""
    runner.compiled_program(
        workload.source, runner._parsed_module(workload.source), config)
    shared = runner._COMPILED_PROGRAMS.get(_key(workload, config))
    before = pickle.dumps(shared)
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
    assert _image(prepared) == image, workload.name
    assert runner.prepared_input(workload) is prepared


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
