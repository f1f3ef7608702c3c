"""Run one workload under one optimization configuration.

Each run executes the dynamically compiled workload on a fresh memory and
verifies its output against the static baseline — the same program
compiled with its annotations ignored (§3.3) — before reporting any
numbers.  The baseline does not depend on the configuration, so its
plain values (return value, output checksum, cycle totals, degradation
counters) are kept in a bounded in-process cache keyed by content, as is
the parsed module; the static == dynamic check still runs on every call.
The annotated compile depends only on the configuration's
:func:`~repro.dyc.compile_key`, so runs that agree on it share one
compiled program, each under its own configuration; its
configuration-invariant front half, traditional optimization, is
computed once per program.  A workload's
prepared inputs are built once per process too; every run gets a
private copy of the memory image.
Per-region timings use the machine's tracked-scope accounting (inclusive
cycles in the dynamically compiled functions of Table 1), divided by the
invocation count, mirroring the paper's measurement methodology (§3.3).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.config import ALL_ON, OptConfig
from repro.dyc import (
    CompiledProgram,
    PreparedModule,
    compile_annotated,
    compile_key,
    compile_static,
    prepare_module,
)
from repro.errors import ReproError, SpecializationError
from repro.evalharness.memo import (
    INVARIANT_CACHE_CAPACITY,
    reset_prefix_cache,
    workload_prefix,
)
from repro.evalharness.metrics import RegionMetrics
from repro.frontend import compile_source
from repro.ir import Memory, Module
from repro.machine import ALPHA_21164, ICacheModel, Machine
from repro.machine.costs import CostModel
from repro.machine.pycodegen import resolve_source_limit
from repro.runtime.overhead import DEFAULT_OVERHEAD, OverheadModel
from repro.runtime.stats import RegionStats
from repro.workloads.base import Workload, WorkloadInput


class VerificationError(ReproError):
    """Static and dynamic runs produced different output."""


@dataclass
class RunResult:
    """Everything measured about one (workload, config) pair."""

    workload: Workload
    config: OptConfig
    # Whole-program cycle totals.
    static_total_cycles: float
    dynamic_total_cycles: float     # execution only (incl. dispatch)
    dc_cycles: float                # dynamic-compilation overhead
    # Inclusive cycles in the dynamically compiled functions.
    static_region_cycles: dict[str, float]
    dynamic_region_cycles: dict[str, float]
    region_entries: dict[str, int]
    # Per-region runtime statistics (keyed by region id).
    region_stats: dict[int, RegionStats]
    #: function name -> region ids
    region_functions: dict[str, list[int]]
    outputs_match: bool = True
    return_values: tuple = ()
    #: Backend-ladder degradations over both machines (static+dynamic):
    #: threaded translations that fell back to the reference
    #: interpreter, and codegen compilations that fell back to the
    #: threaded backend or the reference interpreter.
    degraded_translations: int = 0
    degraded_compilations: int = 0

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when any region walked down the degradation ladder
        (failed specializations, fallback executions, quarantines,
        budget truncations, or cache corruption recoveries) or any
        backend walked down the backend ladder (refused translations
        or compilations)."""
        if self.degraded_translations or self.degraded_compilations:
            return True
        return any(stats.degraded for stats in self.region_stats.values())

    @property
    def whole_program_speedup(self) -> float:
        """Including dynamic compilation overhead (Table 4)."""
        denominator = self.dynamic_total_cycles + self.dc_cycles
        if denominator == 0:
            return float("inf")
        return self.static_total_cycles / denominator

    @property
    def region_fraction_of_static(self) -> float:
        """Percent of static execution spent in dynamic regions
        (Table 4's "% of total static execution")."""
        if self.static_total_cycles == 0:
            return 0.0
        return (sum(self.static_region_cycles.values())
                / self.static_total_cycles)

    def region_metrics(self) -> list[RegionMetrics]:
        """Per-dynamic-region metrics for Table 3."""
        out: list[RegionMetrics] = []
        for name in self.workload.region_functions:
            invocations = max(1, self.region_entries.get(name, 0))
            static_cycles = self.static_region_cycles.get(name, 0.0)
            dynamic_cycles = self.dynamic_region_cycles.get(name, 0.0)
            region_ids = self.region_functions.get(name, [])
            dc = sum(
                self.region_stats[r].dc_cycles for r in region_ids
                if r in self.region_stats
            )
            generated = sum(
                self.region_stats[r].instructions_generated
                for r in region_ids if r in self.region_stats
            )
            label = (self.workload.name if
                     len(self.workload.region_functions) == 1
                     else f"{self.workload.name}: {name}")
            out.append(RegionMetrics(
                name=self.workload.name,
                region_label=label,
                static_cycles_per_invocation=static_cycles / invocations,
                dynamic_cycles_per_invocation=(
                    dynamic_cycles / invocations
                ),
                dc_overhead_cycles=dc,
                instructions_generated=generated,
                invocations=invocations,
                breakeven_unit=self.workload.breakeven_unit,
                units_per_invocation=self.workload.units_per_invocation,
            ))
        return out

    def stats_for_function(self, name: str) -> list[RegionStats]:
        return [
            self.region_stats[r]
            for r in self.region_functions.get(name, [])
            if r in self.region_stats
        ]


def _machine_kwargs(workload: Workload, cost_model: CostModel,
                    backend: str, codegen_mode: str = "counted"):
    icache = None
    if workload.icache_capacity_bytes is not None:
        icache = ICacheModel(
            capacity_bytes=workload.icache_capacity_bytes
        )
    return dict(cost_model=cost_model, icache=icache, backend=backend,
                codegen_mode=codegen_mode)


def resolve_backend(backend: str | None) -> str:
    """Resolve an execution backend choice.

    ``None`` falls back to the ``REPRO_BACKEND`` environment variable,
    then to the fast threaded backend (all backends produce
    byte-identical stats — pycodegen in counted mode — so the harness
    defaults to a fast one).
    """
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND") or "threaded"
    if backend not in ("reference", "threaded", "pycodegen"):
        raise ValueError(f"unknown backend {backend!r}")
    return backend


def resolve_codegen_mode(mode: str | None) -> str:
    """Resolve the pycodegen mode choice.

    ``None``/empty falls back to the ``REPRO_CODEGEN_MODE`` environment
    variable, then to ``counted`` (stats byte-identical to the
    reference interpreter; ``fast`` drops all cycle accounting).
    """
    if not mode:
        mode = os.environ.get("REPRO_CODEGEN_MODE") or "counted"
    if mode not in ("counted", "fast"):
        raise ValueError(f"unknown codegen mode {mode!r}")
    return mode


# ----------------------------------------------------------------------
# Config-invariant work, computed once per content key
# ----------------------------------------------------------------------

class _LRUCache:
    """A bounded least-recently-used map, locked for the serve
    executor's threads."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass(frozen=True)
class StaticBaseline:
    """The plain values a run keeps of its static execution."""

    return_value: object
    #: The workload's output checksum (``None`` without a checksum).
    checksum: object
    total_cycles: float
    #: Inclusive cycles per tracked function, as ``(name, cycles)``.
    region_cycles: tuple
    degraded_translations: int
    degraded_compilations: int


_STATIC_BASELINES = _LRUCache(INVARIANT_CACHE_CAPACITY)


@dataclass(frozen=True)
class PreparedInput:
    """What a workload's ``setup`` builds into a fresh memory, kept
    read-only: the memory image, the entry arguments and the checksum
    function."""

    words: tuple
    args: tuple
    checksum: Callable[[Memory, object], object] | None

    def fresh(self) -> tuple[Memory, WorkloadInput]:
        """A private memory and argument list for one run."""
        return (Memory.from_words(self.words),
                WorkloadInput(list(self.args), self.checksum))


_PREPARED_INPUTS = _LRUCache(INVARIANT_CACHE_CAPACITY)


def prepared_input(workload: Workload) -> PreparedInput:
    """``workload``'s prepared inputs, built once per process.

    Every ``setup`` is a pure function of a fresh memory, so one image
    serves every canonical dynamic run.  Runs given a ``module=``, and
    the static baseline, which every run is verified against, call
    ``setup`` themselves.
    """
    prepared = _PREPARED_INPUTS.get(workload)
    if prepared is None:
        memory = Memory()
        inputs = workload.setup(memory)
        prepared = PreparedInput(memory.words(), tuple(inputs.args),
                                 inputs.checksum)
        _PREPARED_INPUTS.put(workload, prepared)
    return prepared


@functools.lru_cache(maxsize=INVARIANT_CACHE_CAPACITY)
def _parsed_module(source: str) -> Module:
    # Shared between runs: compile_static and prepare_module copy their
    # input before changing it.
    return compile_source(source)


_PREPARED_MODULES = _LRUCache(INVARIANT_CACHE_CAPACITY)


def prepared_module(source: str, module: Module) -> PreparedModule:
    """``module`` (parsed from ``source``) through the front half of
    :func:`compile_annotated`, built once per process.

    Traditional optimization reads no configuration, so every compile
    of ``source`` starts from this one optimized module; the back half
    copies it before changing anything.
    """
    prepared = _PREPARED_MODULES.get(source)
    if prepared is None:
        prepared = prepare_module(module)
        _PREPARED_MODULES.put(source, prepared)
    return prepared


def static_baseline_key(workload: Workload, cost_model: CostModel,
                        backend: str, codegen_mode: str) -> tuple:
    """Everything a static baseline depends on.

    The workload prefix of the memo key covers the program text, entry,
    tracked functions, I-cache capacity and prepared inputs.  The
    backend is in the key because an oversize-source refusal (under the
    resolved ``REPRO_PYCODEGEN_SOURCE_LIMIT``) raises the static
    ``degraded_compilations``.  The configuration, overhead model,
    verification flag and faults are not: the static machine has no
    runtime, so no fault point changes what it computes.
    """
    return (workload_prefix(workload).hexdigest(), repr(cost_model),
            backend, codegen_mode, resolve_source_limit())


def static_baseline(workload: Workload, module: Module,
                    cost_model: CostModel, backend: str,
                    codegen_mode: str, key: tuple | None = None
                    ) -> StaticBaseline:
    """Run ``module`` compiled with its annotations ignored (§3.3).

    With a ``key`` the baseline is served from and stored to the
    in-process cache; a run that raises stores nothing.
    """
    if key is not None:
        cached = _STATIC_BASELINES.get(key)
        if cached is not None:
            return cached
    static_module = compile_static(module)
    memory = Memory()
    inputs = workload.setup(memory)
    machine = Machine(
        static_module, memory=memory,
        tracked=frozenset(workload.region_functions),
        **_machine_kwargs(workload, cost_model, backend, codegen_mode),
    )
    return_value = machine.run(workload.entry, *inputs.args)
    baseline = StaticBaseline(
        return_value=return_value,
        checksum=(None if inputs.checksum is None
                  else inputs.checksum(memory, machine)),
        total_cycles=machine.stats.cycles,
        region_cycles=tuple(machine.stats.scope_cycles.items()),
        degraded_translations=machine.stats.degraded_translations,
        degraded_compilations=machine.stats.degraded_compilations,
    )
    if key is not None:
        _STATIC_BASELINES.put(key, baseline)
    return baseline


#: Compiled programs kept by :func:`compiled_program`.  Bounded lower
#: than the other invariant caches because an entry is large: measured
#: with tracemalloc, one retains 33-255 KB beyond the optimized module
#: it shares instructions with.  A Table 5 sweep compiles 34 programs;
#: on a shared 2-vCPU host its ``table_sweep`` peak RSS read 34.6 MB
#: without this cache, 35.4 MB at 8 entries (+2.4%), 36.8 MB at 16
#: (+6.5%) and 40.8 MB at 64 (+18%).  Eight still hold all five
#: kernels the serve traffic runs.
COMPILED_PROGRAM_CAPACITY = 8

_COMPILED_PROGRAMS = _LRUCache(COMPILED_PROGRAM_CAPACITY)


def compiled_program(source: str, module: Module,
                     config: OptConfig) -> CompiledProgram:
    """``module`` (parsed from ``source``) compiled for ``config``.

    The compile is shared by every configuration with the same
    :func:`compile_key`, and starts from the shared
    :func:`prepared_module`; the returned program carries ``config``,
    which the runtime reads, and shares its module, regions and
    generating extensions read-only.  A compile that raises stores
    nothing.
    """
    key = (source, compile_key(config))
    shared = _COMPILED_PROGRAMS.get(key)
    if shared is None:
        shared = compile_annotated(prepared_module(source, module), config)
        _COMPILED_PROGRAMS.put(key, shared)
    return dataclasses.replace(shared, config=config)


def reset_invariant_caches() -> None:
    """Forget every parsed module, static baseline, prepared module,
    compiled program, prepared input and workload key prefix, so the
    next run computes them afresh (tests need cold runs)."""
    _parsed_module.cache_clear()
    _STATIC_BASELINES.clear()
    _PREPARED_MODULES.clear()
    _COMPILED_PROGRAMS.clear()
    _PREPARED_INPUTS.clear()
    reset_prefix_cache()


def run_workload(workload: Workload,
                 config: OptConfig = ALL_ON,
                 cost_model: CostModel = ALPHA_21164,
                 overhead: OverheadModel = DEFAULT_OVERHEAD,
                 module: Module | None = None,
                 verify: bool = True,
                 backend: str | None = None,
                 codegen_mode: str | None = None,
                 memo=None,
                 memo_key: str | None = None) -> RunResult:
    """Execute ``workload`` dynamically, verify it against its static
    baseline, and return metrics.

    The parsed module, the static baseline, the compiled program and
    the prepared inputs come from the in-process invariant caches; a
    caller-supplied ``module`` skips the cache lookups but runs through
    the same :func:`static_baseline`, compiles afresh and calls
    ``setup`` itself.

    With a :class:`~repro.evalharness.memo.Memoizer` in ``memo``, the run
    (or its deterministic :class:`SpecializationError`) is served from and
    stored to the content-hash cache; a damaged entry is recomputed and
    a failed write is skipped.  The backend is deliberately not
    part of the cache key: all backends produce byte-identical stats —
    except pycodegen in fast mode, which drops cycle accounting, so
    fast-mode runs bypass the memo entirely.  A caller that has already
    computed the run's key (``memo.key_for`` over the same arguments)
    passes it as ``memo_key`` so it is not computed twice.
    """
    backend = resolve_backend(backend)
    codegen_mode = resolve_codegen_mode(codegen_mode
                                        or config.codegen_mode)
    if backend == "pycodegen" and codegen_mode == "fast":
        # Fast-mode stats are not the shared byte-identical stats the
        # cache is keyed for; never serve or store them.
        memo = None
    if memo is not None and module is None:
        key = memo_key or memo.key_for(workload, config, cost_model,
                                       overhead, verify)
        cached = memo.get(key)   # raises cached SpecializationError
        if cached is not None:
            return cached
        try:
            result = run_workload(
                workload, config, cost_model, overhead,
                verify=verify, backend=backend,
                codegen_mode=codegen_mode,
            )
        except SpecializationError as err:
            memo.put_error(key, err)
            raise
        memo.put(key, result)
        return result
    canonical_module = module is None
    baseline_key = None
    if canonical_module:
        module = _parsed_module(workload.source)
        baseline_key = static_baseline_key(workload, cost_model, backend,
                                           codegen_mode)
    static = static_baseline(workload, module, cost_model, backend,
                             codegen_mode, baseline_key)

    # --- dynamically compiled run --------------------------------------
    if canonical_module:
        compiled = compiled_program(workload.source, module, config)
    else:
        compiled = compile_annotated(module, config)
    if canonical_module:
        dynamic_memory, dynamic_input = prepared_input(workload).fresh()
    else:
        dynamic_memory = Memory()
        dynamic_input = workload.setup(dynamic_memory)
    dynamic_machine, runtime = compiled.make_machine(
        memory=dynamic_memory,
        tracked=frozenset(workload.region_functions), overhead=overhead,
        **_machine_kwargs(workload, cost_model, backend, codegen_mode),
    )
    dynamic_result = dynamic_machine.run(workload.entry,
                                         *dynamic_input.args)

    # --- verification against the static baseline ----------------------
    outputs_match = True
    if verify:
        if dynamic_input.checksum is not None:
            outputs_match = static.checksum == dynamic_input.checksum(
                dynamic_memory, dynamic_machine)
        else:
            outputs_match = static.return_value == dynamic_result
        if not outputs_match:
            raise VerificationError(
                f"{workload.name}: dynamic run diverged from static run "
                f"under config {config}"
            )

    # Region entries: scope-entry counts of the dynamic run.
    region_entries = {
        name: dynamic_machine.stats.scope_entries.get(name, 0)
        for name in workload.region_functions
    }

    return RunResult(
        workload=workload,
        config=config,
        static_total_cycles=static.total_cycles,
        dynamic_total_cycles=dynamic_machine.stats.cycles,
        dc_cycles=dynamic_machine.stats.dc_cycles,
        static_region_cycles=dict(static.region_cycles),
        dynamic_region_cycles=dict(dynamic_machine.stats.scope_cycles),
        region_entries=region_entries,
        region_stats=dict(runtime.stats.regions),
        region_functions={name: list(ids) for name, ids
                          in compiled.region_functions.items()},
        outputs_match=outputs_match,
        return_values=(static.return_value, dynamic_result),
        degraded_translations=(
            static.degraded_translations
            + dynamic_machine.stats.degraded_translations
        ),
        degraded_compilations=(
            static.degraded_compilations
            + dynamic_machine.stats.degraded_compilations
        ),
    )
