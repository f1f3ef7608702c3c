"""Fault injection and the graceful-degradation ladder.

Covers the registry's trigger modes, spec parsing, every ladder rung at
the runtime level (retry → fallback → quarantine, budget truncation,
cache corruption recovery), which armed points reach a run, the memo
cache's fault keying, and the supervised harness pool (worker crash /
error / hang recovery, terminal :class:`HarnessError` reporting).
"""

import dataclasses
import os

import pytest

from repro.config import ALL_ON
from repro.dyc import compile_annotated
from repro.errors import (
    FaultConfigError,
    HarnessError,
    SpecializationBudgetError,
    SpecializationError,
)
from repro.evalharness.memo import memo_key
from repro.evalharness.parallel import run_configs
from repro.evalharness.runner import run_workload
from repro.faults import (
    FAULT_POINTS,
    RUN_POINTS,
    FaultRegistry,
    combine_specs,
    parse_spec,
    resolve_degrade,
    resolve_fault_spec,
)
from repro.frontend import compile_source
from repro.machine import ALPHA_21164
from repro.runtime.overhead import DEFAULT_OVERHEAD
from repro.workloads import CHEBYSHEV, DOTPRODUCT, MIPSI
from tests.helpers import run_fingerprints


#: ``run_fingerprints`` (stats, results) of two degraded dotproduct
#: runs: one that only ever runs the unspecialized fallback, and one
#: truncated at a two-context budget.  Both rungs copy the region
#: template (``runtime/fallback.py``), so a change to the copies, their
#: exit thunks or their dc charges moves these.
DEGRADED_FINGERPRINTS = {
    "fallback": (
        "9555c21326ee5683ff932e80259f62362534824061fa24e186cd33ad419209d6",
        "6d34cbcf128ef715233e858c4d2df6c1c9bf349a7ca60f1b87d56d5f372b8490"),
    "budget": (
        "8c7b66e452ab7d7d7adb1aab7bafae49b8565734ff1dff7e92526d3d9a8afc83",
        "6d34cbcf128ef715233e858c4d2df6c1c9bf349a7ca60f1b87d56d5f372b8490"),
}


def _config(base=ALL_ON, **overrides):
    return dataclasses.replace(base, **overrides)


def _only_stats(result):
    [stats] = result.region_stats.values()
    return stats


# ----------------------------------------------------------------------
# Registry: parsing and trigger modes
# ----------------------------------------------------------------------

class TestParseSpec:
    def test_empty_and_none(self):
        assert parse_spec(None) == {}
        assert parse_spec("") == {}

    def test_modes(self):
        specs = parse_spec(
            "specializer.entry;emit.template:once;cache.corrupt:at=3;"
            "cache.evict:every=2;worker.error:p=0.25,seed=9;"
            "worker.hang:once,secs=2"
        )
        assert specs["specializer.entry"].mode == "always"
        assert specs["emit.template"].mode == "once"
        assert specs["cache.corrupt"].mode == "at"
        assert specs["cache.corrupt"].n == 3
        assert specs["cache.evict"].mode == "every"
        assert specs["worker.error"].p == 0.25
        assert specs["worker.error"].seed == 9
        assert specs["worker.hang"].secs == 2.0

    def test_later_entry_overrides(self):
        specs = parse_spec("cache.corrupt:once;cache.corrupt:at=5")
        assert specs["cache.corrupt"].mode == "at"
        assert specs["cache.corrupt"].n == 5

    def test_unknown_point_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown fault point"):
            parse_spec("cache.corupt:once")

    def test_unknown_param_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown parameter"):
            parse_spec("cache.corrupt:whenever=3")

    def test_invalid_counts_rejected(self):
        with pytest.raises(FaultConfigError, match="N >= 1"):
            parse_spec("cache.corrupt:at=0")
        with pytest.raises(FaultConfigError, match=r"\[0, 1\]"):
            parse_spec("worker.error:p=1.5")

    def test_combine_specs_drops_empty(self):
        assert combine_specs("a", None, "", "b") == "a;b"


class TestRegistryTriggers:
    def test_always_once_at_every(self):
        reg = FaultRegistry.from_spec(
            "specializer.entry;emit.template:once;"
            "cache.corrupt:at=3;cache.evict:every=2"
        )
        assert [reg.should_fire("specializer.entry")
                for _ in range(3)] == [True, True, True]
        assert [reg.should_fire("emit.template")
                for _ in range(3)] == [True, False, False]
        assert [reg.should_fire("cache.corrupt")
                for _ in range(4)] == [False, False, True, False]
        assert [reg.should_fire("cache.evict")
                for _ in range(4)] == [False, True, False, True]

    def test_unarmed_point_never_fires(self):
        reg = FaultRegistry.from_spec("cache.corrupt:once")
        assert not reg.enabled("cache.evict")
        assert not reg.should_fire("cache.evict")
        assert reg.should_fire("cache.corrupt")

    def test_probabilistic_mode_is_deterministic(self):
        draws = []
        for _ in range(2):
            reg = FaultRegistry.from_spec("worker.error:p=0.5,seed=42")
            draws.append([reg.should_fire("worker.error")
                          for _ in range(64)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])
        other = FaultRegistry.from_spec("worker.error:p=0.5,seed=43")
        assert [other.should_fire("worker.error")
                for _ in range(64)] != draws[0]

    def test_summary_counts_hits_and_fires(self):
        reg = FaultRegistry.from_spec("cache.corrupt:every=2")
        for _ in range(5):
            reg.should_fire("cache.corrupt")
        assert reg.summary() == {"cache.corrupt": (5, 2)}

    def test_param_with_default(self):
        reg = FaultRegistry.from_spec("worker.hang:secs=3")
        assert reg.param("worker.hang", "secs", 30.0) == 3.0
        assert reg.param("worker.crash", "secs", 30.0) == 30.0


class TestResolution:
    def test_env_spec_combines_with_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache.evict:once")
        cfg = _config(faults="cache.corrupt:once")
        assert resolve_fault_spec(cfg) == \
            "cache.corrupt:once;cache.evict:once"

    def test_degrade_auto_on_with_faults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        assert not resolve_degrade(ALL_ON)
        assert resolve_degrade(_config(faults="cache.corrupt:once"))
        assert resolve_degrade(_config(degrade=True))
        monkeypatch.setenv("REPRO_DEGRADE", "1")
        assert resolve_degrade(ALL_ON)
        # Explicit off wins over armed faults.
        monkeypatch.setenv("REPRO_DEGRADE", "0")
        assert not resolve_degrade(_config(faults="cache.corrupt:once"))

    def test_only_run_points_turn_the_ladder_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        for point in FAULT_POINTS:
            assert resolve_degrade(_config(faults=point)) \
                == (point in RUN_POINTS), point


class TestFaultsOutsideARun:
    """A point that fires outside ``run_workload`` (in the serve daemon
    or a pool worker) leaves a run alone: the ladder stays off and the
    runaway prediction stays on, so mipsi without static loads fails
    up front instead of running the 200,000-context budget."""

    @pytest.mark.parametrize("spec", ["worker.error:always",
                                      "serve.admit:every=40"])
    def test_runaway_mipsi_cell_still_fails_up_front(self, monkeypatch,
                                                     spec):
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        monkeypatch.setenv("REPRO_FAULTS", spec)
        with pytest.raises(SpecializationBudgetError,
                           match="would have exceeded"):
            run_workload(MIPSI, ALL_ON.without("static_loads"))


# ----------------------------------------------------------------------
# The degradation ladder, end to end
# ----------------------------------------------------------------------

LADDER_SPECS = [
    "specializer.entry:once",
    "specializer.continuation:once",
    "emit.template:once",
    "specializer.budget:once",
]


class TestDegradationLadder:
    @pytest.mark.parametrize("spec", LADDER_SPECS)
    @pytest.mark.parametrize("workload", [DOTPRODUCT, CHEBYSHEV],
                             ids=lambda w: w.name)
    def test_single_fault_completes_with_correct_output(
            self, workload, spec):
        result = run_workload(workload, _config(faults=spec),
                              backend="reference")
        assert result.outputs_match

    def test_transient_fault_recovers_by_respecializing(self):
        result = run_workload(
            DOTPRODUCT, _config(faults="specializer.entry:once"),
            backend="reference",
        )
        stats = _only_stats(result)
        assert stats.specialization_failures == 1
        assert stats.respecializations == 1
        assert stats.fallback_executions == 0
        assert result.degraded

    def test_persistent_fault_quarantines_context(self):
        result = run_workload(
            DOTPRODUCT,
            _config(faults="specializer.entry:always",
                    quarantine_after=3),
            backend="reference",
        )
        stats = _only_stats(result)
        assert result.outputs_match
        # Every dispatch degrades to the unspecialized template; after 3
        # consecutive failed (retry included) attempts the context is
        # quarantined and later dispatches skip straight to the fallback.
        assert stats.fallback_executions == stats.dispatches == 60
        assert stats.quarantined_contexts == 1
        assert stats.quarantine_skips == 57
        assert stats.specialization_failures == 6  # 3 × (try + retry)

    def test_no_degradation_with_ladder_forced_off(self, monkeypatch):
        # REPRO_DEGRADE=0 overrides the faults-armed auto-enable: the
        # injected failure must then abort the run, structured fields
        # attached.
        monkeypatch.setenv("REPRO_DEGRADE", "0")
        with pytest.raises(SpecializationError,
                           match="injected fault") as exc:
            run_workload(DOTPRODUCT,
                         _config(faults="specializer.entry:always"),
                         backend="reference")
        assert exc.value.fault_point == "specializer.entry"
        assert exc.value.region_id is not None

    def test_budget_truncation_residualizes(self):
        result = run_workload(
            DOTPRODUCT, _config(specialize_budget=2, degrade=True),
            backend="reference",
        )
        stats = _only_stats(result)
        assert result.outputs_match
        assert stats.budget_truncations >= 1
        assert result.degraded

    @pytest.mark.parametrize("backend", ["reference", "threaded"])
    @pytest.mark.parametrize("rung,overrides", [
        ("fallback", {"faults": "specializer.entry:always"}),
        ("budget", {"specialize_budget": 2, "degrade": True}),
    ], ids=["fallback", "budget"])
    def test_degraded_run_keeps_its_fingerprint(self, rung, overrides,
                                                backend):
        result = run_workload(DOTPRODUCT, _config(**overrides),
                              backend=backend)
        assert run_fingerprints(result) == DEGRADED_FINGERPRINTS[rung]

    def test_budget_fault_collapses_batch(self):
        result = run_workload(
            DOTPRODUCT, _config(faults="specializer.budget:once"),
            backend="reference",
        )
        stats = _only_stats(result)
        assert result.outputs_match
        assert stats.budget_truncations >= 1

    def test_budget_error_without_degrade_is_structured(self):
        with pytest.raises(SpecializationBudgetError,
                           match="exceeded") as exc:
            run_workload(MIPSI, ALL_ON.without("static_loads"),
                         backend="reference")
        assert exc.value.region_id is not None
        assert "region_id" in exc.value.fields()

    def test_promotion_fault_residualizes_continuation(self):
        result = run_workload(
            MIPSI, _config(faults="specializer.continuation:always"),
            backend="reference",
        )
        stats_all = list(result.region_stats.values())
        assert result.outputs_match
        assert sum(s.residualized_continuations for s in stats_all) >= 1

    def test_failed_continuation_leaves_no_stale_contexts(self):
        # Every second template emission fails, so the promotion
        # continuation's first batch dies part-way and its retry runs in
        # the same code version.  The retry used to link to a context
        # the failed batch had minted but never built, and the run died
        # on a jump to a missing block.
        source = """
        func f(s, d) {
            make_static(s, i);
            var i = 0;
            for (i = 0; i < 1; i = i + 1) { s = d; }
            return s + d;
        }
        """
        compiled = compile_annotated(
            compile_source(source), _config(faults="emit.template:every=2"))
        machine, runtime = compiled.make_machine()
        assert [machine.run("f", 3, 4) for _ in range(2)] == [8, 8]
        [stats] = runtime.stats.regions.values()
        assert stats.specialization_failures >= 1
        assert stats.respecializations >= 1

    def test_clean_run_unaffected_by_ladder_plumbing(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        result = run_workload(DOTPRODUCT, ALL_ON, backend="reference")
        assert not result.degraded
        stats = _only_stats(result)
        assert stats.specialization_failures == 0
        assert stats.fallback_executions == 0
        assert stats.cache_evictions == 0


class TestCacheFaultsAtRuntime:
    def test_corrupt_entry_triggers_respecialization(self):
        # cache.corrupt needs a checked cache-all policy; dotproduct
        # re-reads its entry cache on each of its 60 dispatches.
        result = run_workload(
            DOTPRODUCT,
            _config(ALL_ON.without("unchecked_dispatching"),
                    faults="cache.corrupt:once"),
            backend="reference",
        )
        stats = _only_stats(result)
        assert result.outputs_match
        assert stats.cache_corruptions == 1
        assert result.degraded

    def test_eviction_fault_is_harmless_on_single_context(self):
        # Every workload here mints exactly one entry specialization, so
        # an insert-time eviction fault finds an empty cache and is a
        # no-op — the run must simply stay correct.  Real evictions are
        # exercised synthetically in test_runtime_cache.py.
        result = run_workload(
            DOTPRODUCT,
            _config(ALL_ON.without("unchecked_dispatching"),
                    faults="cache.evict:always"),
            backend="reference",
        )
        assert result.outputs_match
        assert _only_stats(result).cache_evictions == 0

    def test_bounded_cache_config_keeps_run_correct(self):
        result = run_workload(
            DOTPRODUCT,
            _config(ALL_ON.without("unchecked_dispatching"),
                    cache_capacity=1),
            backend="reference",
        )
        assert result.outputs_match

    def test_unchecked_policy_ignores_cache_faults(self):
        # ALL_ON uses cache-one-unchecked everywhere: no checksum/evict
        # machinery applies, and the run must stay clean.
        result = run_workload(
            DOTPRODUCT, _config(faults="cache.corrupt:always"),
            backend="reference",
        )
        stats = _only_stats(result)
        assert result.outputs_match
        assert stats.cache_corruptions == 0
        assert stats.cache_evictions == 0


class TestThreadedDegradation:
    @pytest.mark.parametrize("spec", LADDER_SPECS)
    def test_ladder_on_threaded_backend(self, spec):
        result = run_workload(DOTPRODUCT, _config(faults=spec),
                              backend="threaded")
        assert result.outputs_match


# ----------------------------------------------------------------------
# Memo keying
# ----------------------------------------------------------------------

class TestMemoFaultKeying:
    def _key(self, config):
        return memo_key(DOTPRODUCT, config, ALPHA_21164, DEFAULT_OVERHEAD)

    def test_fault_spec_changes_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        clean = self._key(ALL_ON)
        assert self._key(_config(faults="cache.corrupt:once")) != clean
        assert self._key(_config(degrade=True)) != clean
        assert self._key(ALL_ON) == clean

    def test_env_faults_change_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        clean = self._key(ALL_ON)
        monkeypatch.setenv("REPRO_FAULTS", "specializer.entry:once")
        assert self._key(ALL_ON) != clean
        monkeypatch.delenv("REPRO_FAULTS")
        monkeypatch.setenv("REPRO_DEGRADE", "1")
        assert self._key(ALL_ON) != clean

    def test_memoized_error_round_trips_structure(self, tmp_path):
        from repro.evalharness.memo import Memoizer
        memo = Memoizer(str(tmp_path))
        err = SpecializationBudgetError(
            "region 0: specialization exceeded 7 contexts",
            region_id=0,
        )
        memo.put_error("k", err)
        with pytest.raises(SpecializationBudgetError,
                           match="exceeded") as exc:
            memo.get("k")
        assert exc.value.region_id == 0
        assert str(exc.value) == str(err)


# ----------------------------------------------------------------------
# Supervised harness pool
# ----------------------------------------------------------------------

POOL_TASKS = [(DOTPRODUCT.name, ALL_ON), (CHEBYSHEV.name, ALL_ON)]


class TestPoolSupervision:
    def test_worker_crash_recovers_on_retry(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.crash:always")
        results = run_configs(POOL_TASKS, jobs=2)
        assert [r.workload.name for r in results] == \
            [DOTPRODUCT.name, CHEBYSHEV.name]
        assert all(r.outputs_match for r in results)

    def test_worker_error_recovers_on_retry(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.error:always")
        results = run_configs(POOL_TASKS, jobs=2)
        assert all(r.outputs_match for r in results)

    def test_worker_hang_abandoned_then_recovers(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.hang:always,secs=5")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1")
        results = run_configs(POOL_TASKS, jobs=2)
        assert all(r.outputs_match for r in results)

    def test_serial_path_ignores_worker_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.crash:always")
        results = run_configs(POOL_TASKS, jobs=1)
        assert all(r.outputs_match for r in results)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_terminal_failure_reported_after_sweep(self, monkeypatch,
                                                   jobs):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        tasks = [(DOTPRODUCT.name, ALL_ON),
                 (MIPSI.name, ALL_ON.without("static_loads"))]
        with pytest.raises(HarnessError) as exc:
            run_configs(tasks, jobs=jobs)
        message = str(exc.value)
        assert "task 1" in message
        assert "SpecializationBudgetError" in message
        assert len(exc.value.failures) == 1
        assert exc.value.failures[0].index == 1
