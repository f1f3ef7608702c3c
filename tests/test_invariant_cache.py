"""The in-process invariant caches of ``run_workload``.

The parsed module, the static baseline, the prepared inputs and the
workload prefix of the memo key do not depend on the optimization
configuration, so ``run_workload`` computes each once per content key.
These tests pin what the caches must not change: byte-identical runs
whether the cache is cold, warm or bypassed, with the shared parsed
module and compiled program unchanged; verification on every call; a
key that holds exactly what the baseline depends on; the memo-key hex;
one entry under concurrent misses; the LRU bound; one ``setup`` per
workload, with a private memory per run; and warm-start legs that stay
cold.
"""

import dataclasses
import hashlib
import os
import pickle
import sys
import threading

import pytest

from repro.config import ALL_ON
from repro.errors import MachineError
from repro.evalharness import runner
from repro.evalharness.memo import (
    _SCHEMA,
    _fingerprint_inputs,
    backend_env_fingerprint,
    memo_key,
)
from repro.evalharness.runner import (
    INVARIANT_CACHE_CAPACITY,
    VerificationError,
    reset_invariant_caches,
    run_workload,
    static_baseline_key,
)
from repro.evalharness.warmstart import (
    load_warmstart,
    run_fingerprints,
    run_warmstart,
)
from repro.faults import resolve_degrade, resolve_fault_spec
from repro.frontend import compile_source
from repro.ir import Memory
from repro.machine import ALPHA_21164, Machine
from repro.machine.pycodegen import reset_source_limit_cache
from repro.runtime import persist
from repro.runtime.overhead import DEFAULT_OVERHEAD
from repro.workloads import ALL_WORKLOADS, WORKLOADS_BY_NAME, WorkloadInput

DOT = WORKLOADS_BY_NAME["dotproduct"]
BINARY = WORKLOADS_BY_NAME["binary"]

#: (backend, codegen mode) columns of ``BENCH_interp.json``.
COLUMNS = [("reference", "counted"), ("threaded", "counted"),
           ("pycodegen", "counted"), ("pycodegen", "fast")]

COMMITTED_WARMSTART = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_warmstart.json")


@pytest.fixture(autouse=True)
def _cold_caches(monkeypatch):
    monkeypatch.delenv("REPRO_PYCODEGEN_SOURCE_LIMIT", raising=False)
    reset_invariant_caches()
    reset_source_limit_cache()
    yield
    reset_invariant_caches()
    reset_source_limit_cache()


@pytest.fixture
def static_runs(monkeypatch):
    """Every static (runtime-less) machine that runs during the test."""
    machines = []
    inner = Machine.run

    def run(self, *args, **kwargs):
        if self.runtime is None:
            machines.append(self)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", run)
    return machines


def _ir(module) -> bytes:
    return pickle.dumps(module)


class TestEquivalence:
    @pytest.mark.parametrize("backend,mode", COLUMNS,
                             ids=[f"{b}-{m}" for b, m in COLUMNS])
    def test_cold_warm_and_explicit_module_runs_agree(self, backend,
                                                      mode):
        for workload in ALL_WORKLOADS:
            shared = runner._parsed_module(workload.source)
            before = _ir(shared)
            program = runner.compiled_program(workload.source, shared,
                                              ALL_ON)
            program_before = _ir(program)
            cold = run_workload(workload, backend=backend,
                                codegen_mode=mode)
            warm = run_workload(workload, backend=backend,
                                codegen_mode=mode)
            explicit = run_workload(
                workload, backend=backend, codegen_mode=mode,
                module=compile_source(workload.source))
            assert run_fingerprints(cold) == run_fingerprints(warm) \
                == run_fingerprints(explicit), workload.name
            assert _ir(shared) == before, workload.name
            assert runner._parsed_module(workload.source) is shared
            # Runs share the compiled program's module and extensions
            # and never write them.
            assert _ir(program) == program_before, workload.name

    def test_lint_gate_leaves_the_shared_module_unchanged(self):
        config = dataclasses.replace(ALL_ON, lint=True)
        for workload in ALL_WORKLOADS:
            shared = runner._parsed_module(workload.source)
            before = _ir(shared)
            linted = run_workload(workload, config, backend="threaded")
            plain = run_workload(workload, config, backend="threaded",
                                 module=compile_source(workload.source))
            assert run_fingerprints(linted) == run_fingerprints(plain)
            assert _ir(shared) == before, workload.name

    def test_result_dicts_are_private_copies(self):
        first = run_workload(DOT, backend="threaded")
        first.static_region_cycles.clear()
        second = run_workload(DOT, backend="threaded")
        assert second.static_region_cycles
        assert run_fingerprints(second) == run_fingerprints(
            run_workload(DOT, backend="threaded", module=compile_source(
                DOT.source)))


class TestVerificationOnHit:
    def _no_checksum(self):
        def setup(memory):
            return WorkloadInput(args=DOT.setup(memory).args)
        return dataclasses.replace(DOT, name="dotproduct-result-only",
                                   setup=setup)

    @pytest.mark.parametrize("compare", ["checksum", "return value"])
    def test_divergent_dynamic_run_raises(self, monkeypatch, static_runs,
                                          compare):
        workload = DOT if compare == "checksum" else self._no_checksum()
        run_workload(workload, backend="threaded")
        assert len(static_runs) == 1
        inner = Machine.run

        def diverging(self, *args, **kwargs):
            value = inner(self, *args, **kwargs)
            if self.runtime is None:
                return value
            self.output.append(-1)
            return ("diverged", value)

        monkeypatch.setattr(Machine, "run", diverging)
        with pytest.raises(VerificationError):
            run_workload(workload, backend="threaded")
        assert len(static_runs) == 1  # the static side was a cache hit

    def test_failed_static_run_leaves_no_entry(self, monkeypatch):
        key = static_baseline_key(DOT, ALPHA_21164, "threaded", "counted")
        inner = Machine.run

        def failing(self, *args, **kwargs):
            if self.runtime is None:
                raise MachineError("injected static-run failure")
            return inner(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", failing)
        with pytest.raises(MachineError):
            run_workload(DOT, backend="threaded")
        assert key not in runner._STATIC_BASELINES
        monkeypatch.setattr(Machine, "run", inner)
        run_workload(DOT, backend="threaded")
        assert key in runner._STATIC_BASELINES


def _memo_key_recipe(workload, config, cost_model, overhead,
                     verify=True) -> str:
    """``memo_key`` as written before its workload prefix was cached."""
    hasher = hashlib.sha256()

    def feed(part):
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")

    feed(_SCHEMA)
    feed(workload.name)
    feed(workload.source)
    feed(workload.entry)
    feed(tuple(workload.region_functions))
    feed(workload.icache_capacity_bytes)
    feed(_fingerprint_inputs(workload))
    feed(sorted(dataclasses.asdict(config).items()))
    feed(("resolved_faults", resolve_fault_spec(config)))
    feed(("resolved_degrade", resolve_degrade(config)))
    feed(("resolved_env", backend_env_fingerprint()))
    feed(("persist", (persist.PERSIST_SCHEMA,
                      persist.active_store() is not None)))
    feed(sorted(dataclasses.asdict(cost_model).items()))
    feed(sorted(dataclasses.asdict(overhead).items()))
    feed(verify)
    return hasher.hexdigest()


class TestKeys:
    def test_misses_when_a_baseline_input_changes(self, monkeypatch,
                                                  static_runs):
        def static_ran(workload=DOT, backend="threaded", **kwargs):
            count = len(static_runs)
            result = run_workload(workload, backend=backend, **kwargs)
            return len(static_runs) - count, result

        assert static_ran()[0] == 1
        assert static_ran()[0] == 0
        assert static_ran(
            cost_model=ALPHA_21164.with_overrides(int_mul=9))[0] == 1
        assert static_ran(dataclasses.replace(
            DOT, icache_capacity_bytes=1024))[0] == 1
        assert static_ran(backend="reference")[0] == 1
        ran, clean = static_ran(backend="pycodegen")
        assert ran == 1 and clean.degraded_compilations == 0
        assert static_ran(backend="pycodegen",
                          codegen_mode="fast")[0] == 1
        # The source limit is resolved once per process: a new value
        # takes effect (and changes the key) only after the reset hook.
        monkeypatch.setenv("REPRO_PYCODEGEN_SOURCE_LIMIT", "10")
        assert static_ran(backend="pycodegen")[0] == 0
        reset_source_limit_cache()
        ran, refused = static_ran(backend="pycodegen")
        assert ran == 1 and refused.degraded_compilations > 0

    def test_hits_when_only_run_settings_change(self, static_runs):
        faulted = dataclasses.replace(
            ALL_ON, faults="pycodegen.compile;specializer.entry:once")
        cold = run_fingerprints(
            run_workload(DOT, faulted, backend="pycodegen"))
        reset_invariant_caches()
        run_workload(DOT, backend="pycodegen")
        count = len(static_runs)
        run_workload(DOT, ALL_ON.without("strength_reduction"),
                     backend="pycodegen")
        run_workload(DOT, overhead=dataclasses.replace(
            DEFAULT_OVERHEAD, emit_instruction=20.0), backend="pycodegen")
        run_workload(DOT, verify=False, backend="pycodegen")
        warm = run_fingerprints(
            run_workload(DOT, faulted, backend="pycodegen"))
        assert len(static_runs) == count
        assert warm == cold

    def test_memo_key_hex_is_unchanged(self):
        for workload in ALL_WORKLOADS:
            for config, verify in ((ALL_ON, True),
                                   (ALL_ON.without("static_loads"), False)):
                expected = _memo_key_recipe(workload, config, ALPHA_21164,
                                            DEFAULT_OVERHEAD, verify)
                for _ in range(2):  # cold, then warm prefix
                    assert memo_key(workload, config, ALPHA_21164,
                                    DEFAULT_OVERHEAD, verify) == expected

    def test_concurrent_misses_leave_one_entry(self):
        threads_n = 6  # more threads than cores
        barrier = threading.Barrier(threads_n)
        fingerprints: list = []
        errors: list = []

        def run() -> None:
            try:
                barrier.wait(timeout=60)
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
        assert len(runner._STATIC_BASELINES) == 1
        assert fingerprints[0] == run_fingerprints(run_workload(
            DOT, backend="threaded", module=compile_source(DOT.source)))

    def test_capacity_evicts_least_recently_used(self, monkeypatch):
        cache = runner._STATIC_BASELINES
        assert cache.capacity == INVARIANT_CACHE_CAPACITY
        monkeypatch.setattr(cache, "capacity", 2)
        keys = {backend: static_baseline_key(DOT, ALPHA_21164, backend,
                                             "counted")
                for backend in ("threaded", "reference", "pycodegen")}
        run_workload(DOT, backend="threaded")
        run_workload(DOT, backend="reference")
        run_workload(DOT, backend="threaded")  # now the most recent
        run_workload(DOT, backend="pycodegen")
        assert len(cache) == 2
        assert keys["threaded"] in cache
        assert keys["pycodegen"] in cache
        assert keys["reference"] not in cache


def _counting_setup(workload):
    """``workload`` under another name, with ``setup`` calls counted."""
    calls: list = []

    def setup(memory):
        calls.append(memory)
        return workload.setup(memory)

    return dataclasses.replace(workload, name=f"{workload.name}-counted",
                               setup=setup), calls


def _fresh_image(workload) -> tuple:
    memory = Memory()
    inputs = workload.setup(memory)
    return memory.words(), tuple(inputs.args)


class TestPreparedInputs:
    def test_setup_runs_once_for_canonical_runs(self, static_runs):
        workload, calls = _counting_setup(DOT)
        first = run_fingerprints(run_workload(workload, backend="threaded"))
        # The shared image, and the static baseline's own inputs: the
        # baseline is the oracle runs are verified against.
        assert len(calls) == 2
        for config in (ALL_ON, ALL_ON.without("strength_reduction"),
                       ALL_ON.without("static_loads")):
            run_workload(workload, config, backend="threaded")
        assert len(calls) == 2
        run_workload(workload, backend="reference")
        assert len(static_runs) == 2   # one baseline per backend
        assert len(calls) == 3
        # A module= run bypasses every invariant cache: its static and
        # dynamic runs each build their own inputs.
        explicit = run_workload(workload, backend="threaded",
                                module=compile_source(DOT.source))
        assert len(calls) == 5
        assert run_fingerprints(explicit) == first
        reset_invariant_caches()
        run_workload(workload, backend="threaded")
        assert len(calls) == 7

    @pytest.mark.parametrize("name", ["mipsi", "dinero"])
    def test_runs_that_write_memory_get_private_copies(self, name):
        """mipsi sorts its data in place and dinero fills its tag
        arrays; every run starts from the image ``setup`` builds."""
        workload = WORKLOADS_BY_NAME[name]
        for backend, mode in COLUMNS:
            runs = [run_fingerprints(run_workload(
                workload, backend=backend, codegen_mode=mode))
                for _ in range(2)]
            explicit = run_fingerprints(run_workload(
                workload, backend=backend, codegen_mode=mode,
                module=compile_source(workload.source)))
            assert runs[0] == runs[1] == explicit, (name, backend, mode)
        prepared = runner.prepared_input(workload)
        assert (prepared.words, prepared.args) == _fresh_image(workload)

    def test_each_run_owns_its_memory_and_args(self):
        prepared = runner.prepared_input(WORKLOADS_BY_NAME["mipsi"])
        memory, inputs = prepared.fresh()
        memory.store(1, -7)
        inputs.args.append(0)
        again, fresh_inputs = prepared.fresh()
        assert again.words() == prepared.words != memory.words()
        assert tuple(fresh_inputs.args) == prepared.args
        assert fresh_inputs.checksum is prepared.checksum

    def test_fingerprint_matches_a_fresh_setup(self):
        """The memo key fingerprints the shared image; it must read as
        ``setup`` on a fresh memory does."""
        for workload in ALL_WORKLOADS:
            memory = Memory()
            inputs = workload.setup(memory)
            assert _fingerprint_inputs(workload) == repr((
                tuple(inputs.args), inputs.checksum is not None,
                memory.words())), workload.name

    def test_bounded_and_reset(self):
        cache = runner._PREPARED_INPUTS
        assert cache.capacity == INVARIANT_CACHE_CAPACITY
        run_workload(DOT, backend="threaded")
        assert DOT in cache
        reset_invariant_caches()
        assert len(cache) == 0


class TestObservedSideEffects:
    def test_warm_start_legs_stay_cold(self):
        """Two reports from one process agree with the committed one:
        every leg's static run consults the store, however warm the
        in-process caches are."""
        committed = load_warmstart(COMMITTED_WARMSTART)
        fields = ("snapshot_records", "warm_hits", "replayed_entries",
                  "replayed_continuations", "stats_checksum",
                  "results_checksum")
        for _ in range(2):
            report = run_warmstart(backend=committed["backend"])
            assert report["ok"]
            for name, row in report["workloads"].items():
                pinned = committed["workloads"][name]
                assert {f: row[f] for f in fields} == \
                    {f: pinned[f] for f in fields}, name
