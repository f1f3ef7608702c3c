"""The in-process invariant caches of ``run_workload``.

The parsed module, the static baseline, the prepared inputs and the
workload prefix of the memo key do not depend on the optimization
configuration, so ``run_workload`` computes each once per content key.
These tests pin what the caches must not change: byte-identical runs
whether the cache is cold, warm or bypassed, with the shared parsed
module and compiled program unchanged; verification on every call; a
key that holds exactly what the baseline depends on; the memo-key hex;
one entry under concurrent misses; the LRU bound; one ``setup`` per
workload, with a private memory per run; and the pinned fingerprints of
every ``ALL_ON`` run, cold, warm and through the memoizer.
"""

import dataclasses
import hashlib
import pickle
import sys
import threading

import pytest

from repro import settings
from repro.config import ALL_ON
from repro.errors import MachineError
from repro.evalharness import runner
from repro.evalharness.memo import (
    _SCHEMA,
    Memoizer,
    _fingerprint_inputs,
    memo_key,
)
from repro.evalharness.runner import (
    INVARIANT_CACHE_CAPACITY,
    VerificationError,
    reset_invariant_caches,
    run_workload,
    static_baseline_key,
)
from repro.frontend import compile_source
from repro.ir import Memory
from repro.machine import ALPHA_21164, BACKENDS, Machine
from repro.runtime.overhead import DEFAULT_OVERHEAD
from repro.workloads import ALL_WORKLOADS, WORKLOADS_BY_NAME, WorkloadInput
from tests.helpers import BACKEND_IDS, run_fingerprints

DOT = WORKLOADS_BY_NAME["dotproduct"]
BINARY = WORKLOADS_BY_NAME["binary"]

#: ``run_fingerprints`` of every workload's ``ALL_ON`` run on the
#: threaded backend, (stats SHA-256, results SHA-256), as the deleted
#: ``BENCH_warmstart.json`` recorded them.
PINNED_ALL_ON = {
    "dinero": (
        "6cb9133fa521bdffa4543d933cc03c7e1278975590c34ccc52841d44a7ee3de6",
        "194ef20cf9f32cc725c2461978047656fa3dfff45ee982b4f43d85840a4ff21c"),
    "m88ksim": (
        "60b2d495aaab01f3beb0ff5e60e7afda234364f89f6c92d69657ad561bb1dc10",
        "204449fde8c227ac928ee4ac2b60d449737183e220e7ab44308e3b011cf26feb"),
    "mipsi": (
        "9c6752b06c5800d56ac48e4920cb7346e6682dd7dc343b349498dc5d9ca5dbd1",
        "6d998a2c2f9357b9280341af8149885111c615a99134d352ffc41f3a5c8be1f1"),
    "pnmconvol": (
        "61178fb3c15231b17deaf71acb36cd6f63a41932d6cfb643a7676ea4eb407730",
        "6d34cbcf128ef715233e858c4d2df6c1c9bf349a7ca60f1b87d56d5f372b8490"),
    "viewperf": (
        "53098fcb4a477e8465d3bb331447bbbf1775b5dc6ec136722513bea2f48d7621",
        "6d34cbcf128ef715233e858c4d2df6c1c9bf349a7ca60f1b87d56d5f372b8490"),
    "binary": (
        "0f793724771b7fa2d9816a878368e17a38b1e240f780fb1a1fa663db96d43697",
        "943fb83f09bd469001ac20f1c345ee8e317ab6086f88766580bfb3d8a76f251f"),
    "chebyshev": (
        "b6d4ad7db2401f8d25b8dae09d38768734d3a703a19da040bfa9e4f275101c1b",
        "6d34cbcf128ef715233e858c4d2df6c1c9bf349a7ca60f1b87d56d5f372b8490"),
    "dotproduct": (
        "2d39dd995b8a455c911e0fe7fa7e213d12a5039e8527dc9e3857d968d092bce8",
        "6d34cbcf128ef715233e858c4d2df6c1c9bf349a7ca60f1b87d56d5f372b8490"),
    "query": (
        "3a81c202070b6107a32734e7d81ef90296a581090be6c050de0a5e580b9c4e3b",
        "8793598bde365ca7ace4e4b6e8f7024dafff7284ad1399dc4ebc1fd94ec7c678"),
    "romberg": (
        "2c7675e8a59634661675d9ad48bedc734cc2ab660e2983efb3279a08bbd9c156",
        "6d34cbcf128ef715233e858c4d2df6c1c9bf349a7ca60f1b87d56d5f372b8490"),
}


@pytest.fixture(autouse=True)
def _cold_caches():
    reset_invariant_caches()
    yield
    reset_invariant_caches()


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
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_cold_warm_and_explicit_module_runs_agree(self, backend):
        for workload in ALL_WORKLOADS:
            shared = runner._parsed_module(workload.source)
            before = _ir(shared)
            program = runner.compiled_program(workload.source, shared,
                                              ALL_ON)
            program_before = _ir(program)
            cold = run_workload(workload, backend=backend)
            warm = run_workload(workload, backend=backend)
            explicit = run_workload(
                workload, backend=backend,
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
        key = static_baseline_key(DOT, ALPHA_21164, "threaded")
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
    feed(("settings", settings.keyed()))
    feed(sorted(dataclasses.asdict(cost_model).items()))
    feed(sorted(dataclasses.asdict(overhead).items()))
    feed(verify)
    return hasher.hexdigest()


class TestKeys:
    def test_misses_when_a_baseline_input_changes(self, static_runs):
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
        # An uncounted run charges no block cycles: its own baseline.
        assert static_ran(backend="threaded_fast")[0] == 1
        assert static_ran(backend="threaded_fast")[0] == 0

    def test_hits_when_only_run_settings_change(self, static_runs):
        faulted = dataclasses.replace(ALL_ON,
                                      faults="specializer.entry:once")
        cold = run_fingerprints(
            run_workload(DOT, faulted, backend="threaded"))
        reset_invariant_caches()
        run_workload(DOT, backend="threaded")
        count = len(static_runs)
        run_workload(DOT, ALL_ON.without("strength_reduction"),
                     backend="threaded")
        run_workload(DOT, overhead=dataclasses.replace(
            DEFAULT_OVERHEAD, emit_instruction=20.0), backend="threaded")
        run_workload(DOT, verify=False, backend="threaded")
        warm = run_fingerprints(
            run_workload(DOT, faulted, backend="threaded"))
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
        keys = {backend: static_baseline_key(DOT, ALPHA_21164, backend)
                for backend in BACKENDS}
        run_workload(DOT, backend="threaded")
        run_workload(DOT, backend="reference")
        run_workload(DOT, backend="threaded")  # now the most recent
        run_workload(DOT, backend="threaded_fast")
        assert len(cache) == 2
        assert keys["threaded"] in cache
        assert keys["threaded_fast"] in cache
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
        for backend in BACKENDS:
            runs = [run_fingerprints(run_workload(workload, backend=backend))
                    for _ in range(2)]
            explicit = run_fingerprints(run_workload(
                workload, backend=backend,
                module=compile_source(workload.source)))
            assert runs[0] == runs[1] == explicit, (name, backend)
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


class TestPinnedFingerprints:
    def test_all_on_runs_match_the_pins(self, tmp_path):
        """Cold and warm in-process caches, and a memoizer's store and
        replay, all give the pinned fingerprints."""
        assert sorted(PINNED_ALL_ON) == sorted(
            w.name for w in ALL_WORKLOADS)
        memo = Memoizer(str(tmp_path))
        for workload in ALL_WORKLOADS:
            pinned = PINNED_ALL_ON[workload.name]
            for _ in range(2):
                assert run_fingerprints(run_workload(
                    workload, backend="threaded")) == pinned, \
                    workload.name
                assert run_fingerprints(run_workload(
                    workload, backend="threaded", memo=memo)) == pinned, \
                    workload.name
        assert memo.stats()["hits"] == len(ALL_WORKLOADS)
