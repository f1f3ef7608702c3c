"""The runtime facade: dispatching into dynamic regions.

:class:`DycRuntime` is attached to a :class:`~repro.machine.Machine`; the
machine calls back into it when host code executes an ``EnterRegion``
terminator (region dispatch: :meth:`DycRuntime.enter_region`, or the
per-machine entry :meth:`DycRuntime.bind_entry` returns) or specialized
code executes a ``Promote`` terminator (internal dynamic-to-static
promotion).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from repro.dyc.genext import GeneratingExtension
from repro.errors import SpecializationError
from repro.faults import resolve_degrade, run_faults
from repro.ir.instructions import EnterRegion
from repro.machine.interp import Machine
from repro.runtime.cache import (
    CodeCache,
    IndexedCache,
    UncheckedCache,
    entry_checksum,
)
from repro.runtime.fallback import build_fallback_function
from repro.runtime.overhead import DEFAULT_OVERHEAD, OverheadModel
from repro.runtime.specializer import (
    PendingPromotion,
    SpecializedCode,
    Specializer,
)
from repro.runtime.stats import RegionStats, RuntimeStats


class _RegionDispatch(NamedTuple):
    """What every dispatch through one ``EnterRegion`` reads, bound at
    its first dispatch: none of it changes during a run."""

    instr: EnterRegion
    genext: GeneratingExtension
    stats: RegionStats
    policy: str
    cache: object
    #: ``OverheadModel.fixed_dispatch_cost(policy)``: None when the
    #: cost depends on each lookup's probe count.
    cost: float | None


def _undefined_key(instr, missing: KeyError) -> SpecializationError:
    region_id = instr.region_id
    return SpecializationError(
        f"region {region_id}: promoted variable {missing} is "
        "undefined at region entry",
        region_id=region_id,
    )


class DycRuntime:
    """Run-time dispatching, specialization, and statistics.

    When the degradation ladder is active (``config.degrade``, the
    ``REPRO_DEGRADE`` environment variable, or an armed fault point that
    fires inside a run, :data:`~repro.faults.RUN_POINTS`) a
    failed specialization no longer aborts execution: the dispatcher
    retries once, then runs the region *unspecialized* from its template,
    and quarantines a (region, context) pair that keeps failing so later
    dispatches skip straight to the fallback (a circuit breaker).
    """

    def __init__(self, compiled, overhead: OverheadModel | None = None):
        self.compiled = compiled
        self.config = compiled.config
        self.overhead = overhead if overhead is not None else \
            DEFAULT_OVERHEAD
        self.stats = RuntimeStats()
        self.faults = run_faults(self.config)
        self.degrade = resolve_degrade(self.config)
        self.quarantine_after = max(1, self.config.quarantine_after)
        self.specializer = Specializer(self)
        self.entry_caches: dict[int, object] = {}
        #: id(EnterRegion) -> its dispatch record.  The instruction lives
        #: in the shared compiled module and the record holds it, so a
        #: cached id cannot be recycled by a different instruction.
        self._dispatch: dict[int, _RegionDispatch] = {}
        self.pendings: dict[int, PendingPromotion] = {}
        self._emission_counter = 0
        self._ct_machine: Machine | None = None
        #: (region_id, entry key) -> consecutive dispatch-time failures.
        self._failures: dict[tuple, int] = {}
        self._quarantined: set[tuple] = set()
        #: region_id -> (fallback Function, its footprint), built lazily.
        self._fallbacks: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Policy / cache helpers
    # ------------------------------------------------------------------

    def effective_policy(self, policy: str) -> str:
        """Coerce policies per the unchecked-dispatching ablation."""
        if policy == "cache_one_unchecked" \
                and not self.config.unchecked_dispatching:
            return "cache_all"
        return policy

    def make_cache(self, policy: str, stats=None):
        if policy == "cache_one_unchecked":
            return UncheckedCache(strict=self.config.check_annotations)
        if policy == "cache_indexed":
            return IndexedCache()
        capacity = max(0, self.config.cache_capacity)
        faults = self.faults if (
            self.faults.enabled("cache.corrupt")
            or self.faults.enabled("cache.evict")
        ) else None
        if capacity == 0 and faults is None:
            return CodeCache()

        def on_evict() -> None:
            if stats is not None:
                stats.cache_evictions += 1

        def on_corrupt() -> None:
            if stats is not None:
                stats.cache_corruptions += 1

        return CodeCache(
            capacity=capacity, checksum=entry_checksum, faults=faults,
            on_evict=on_evict, on_corrupt=on_corrupt,
        )

    def new_emission_id(self) -> int:
        self._emission_counter += 1
        return self._emission_counter

    def register_pending(self, pending: PendingPromotion) -> None:
        self.pendings[pending.emission_id] = pending

    # ------------------------------------------------------------------
    # Machine hooks
    # ------------------------------------------------------------------

    def _bind_dispatch(self, instr) -> _RegionDispatch:
        """Build the dispatch record of ``instr``; the region's entry
        cache is created on the first entry through any instruction."""
        region_id = instr.region_id
        genext = self.compiled.genexts[region_id]
        stats = self.stats.for_region(
            region_id, genext.region.function_name
        )
        policy = self.effective_policy(instr.policy)
        cache = self.entry_caches.get(region_id)
        if cache is None:
            cache = self.make_cache(policy, stats=stats)
            self.entry_caches[region_id] = cache
        record = _RegionDispatch(instr, genext, stats, policy, cache,
                                 self.overhead.fixed_dispatch_cost(policy))
        self._dispatch[id(instr)] = record
        return record

    def bind_entry(self, machine: Machine, instr):
        """``dispatch(env) -> (kind, payload)``: every dispatch through
        ``instr`` on ``machine``, bound at its first dispatch there.

        A filled slot of a non-strict ``cache_one_unchecked`` region is
        DyC's unchecked dispatch, a load and an indirect jump (§4.4.3):
        the bound dispatch checks that the key registers are defined,
        counts the lookup, adds the fixed dispatch charge in
        ``Machine.charge_dispatch``'s order and runs the slot's code,
        with each exit's ``("jump", label)`` built here.  Everything
        else (an empty slot, strict checking, the hash and indexed
        policies, and so quarantine) is :meth:`enter_region`, which
        stays the oracle the bound path is tested against.  The
        binding holds ``machine``, which keeps it per instruction
        (``Machine.bind_entry``); the compile-time machine shares this
        runtime and binds its own.
        """
        record = self._dispatch.get(id(instr))
        if record is None or record.instr is not instr:
            record = self._bind_dispatch(instr)
        _, _, stats, policy, cache, cost = record
        enter_region = self.enter_region
        if policy != "cache_one_unchecked" \
                or type(cache) is not UncheckedCache or cache._strict:
            return functools.partial(enter_region, machine, instr)
        exits = tuple([("jump", label) for label in instr.exits])

        def dispatch(env, _enter=enter_region, _m=machine, _instr=instr,
                     _cache=cache, _keys=instr.keys, _cost=cost,
                     _mstats=machine.stats, _stats=stats,
                     _exec=machine.exec_region_code, _exits=exits):
            if not _cache._filled:
                return _enter(_m, _instr, env)
            for name in _keys:
                if name not in env:
                    raise _undefined_key(_instr, KeyError(name))
            _cache.total_lookups += 1
            _mstats.dispatch_cycles += _cost
            _mstats.dispatches += 1
            _mstats.cycles += _cost
            _stats.dispatches += 1
            _stats.dispatch_cycles += _cost
            _stats.unchecked_dispatches += 1
            code = _cache._value
            kind, payload = _exec(code.function, env, code.footprint)
            if kind == "exit":
                return _exits[payload]
            return ("return", payload)

        return dispatch

    def enter_region(self, machine: Machine, instr, env: dict):
        """Dispatch into a dynamic region; returns ("jump", label) to
        resume host code or ("return", value) for an in-region return."""
        record = self._dispatch.get(id(instr))
        if record is None or record.instr is not instr:
            record = self._bind_dispatch(instr)
        _, genext, stats, policy, cache, cost = record

        try:
            key = tuple([env[k] for k in instr.keys])
        except KeyError as missing:
            raise _undefined_key(instr, missing) from None

        result = cache.lookup(key)
        if cost is None:
            cost = self.overhead.dispatch_cost(policy, result.probes)
        # Machine.charge_dispatch, inline.
        machine_stats = machine.stats
        machine_stats.dispatch_cycles += cost
        machine_stats.dispatches += 1
        machine_stats.cycles += cost
        stats.dispatches += 1
        stats.dispatch_cycles += cost
        if policy == "cache_one_unchecked":
            stats.unchecked_dispatches += 1
        elif policy == "cache_indexed":
            stats.indexed_dispatches += 1
        else:
            stats.hash_probes += result.probes

        if result.hit:
            code: SpecializedCode = result.value
        else:
            region_id = instr.region_id
            entry_env = dict(zip(instr.keys, key))
            quarantine_key = (region_id, key)
            if quarantine_key in self._quarantined:
                # Circuit breaker: this context keeps failing — skip the
                # doomed specialization attempts entirely.
                stats.quarantine_skips += 1
                return self._exec_fallback(machine, instr, genext, env,
                                           stats)
            try:
                code = self.specializer.specialize_entry(
                    genext, machine, entry_env
                )
            except SpecializationError:
                if not self.degrade:
                    raise
                # Rung 2: one fresh attempt (transient faults — and the
                # injected ``once``/``at=N`` modes — clear on retry).
                stats.specialization_failures += 1
                code = self._respecialize_entry(genext, machine,
                                                entry_env, stats)
            if code is None:
                # Rung 3: run the region unspecialized; rung 4 after
                # ``quarantine_after`` consecutive dispatch failures.
                failures = self._failures.get(quarantine_key, 0) + 1
                self._failures[quarantine_key] = failures
                if failures >= self.quarantine_after:
                    self._quarantined.add(quarantine_key)
                    stats.quarantined_contexts += 1
                return self._exec_fallback(machine, instr, genext, env,
                                           stats)
            cache.insert(key, code)
            machine.charge_dc(self.overhead.cache_store)
            stats.dc_cycles += self.overhead.cache_store

        kind, payload = machine.exec_region_code(
            code.function, env, code.footprint
        )
        if kind == "exit":
            return ("jump", instr.exits[payload])
        return ("return", payload)

    def _respecialize_entry(self, genext, machine, entry_env: dict,
                            stats) -> SpecializedCode | None:
        try:
            code = self.specializer.specialize_entry(
                genext, machine, entry_env, attempt=2
            )
        except SpecializationError:
            stats.specialization_failures += 1
            return None
        stats.respecializations += 1
        return code

    def _exec_fallback(self, machine: Machine, instr, genext, env: dict,
                       stats):
        """Bottom rung: execute the region's unspecialized template."""
        region = genext.region
        fallback = self._fallbacks.get(region.region_id)
        if fallback is None:
            fn = build_fallback_function(region)
            fallback = (fn, fn.instruction_count())
            self._fallbacks[region.region_id] = fallback
        stats.fallback_executions += 1
        fn, footprint = fallback
        kind, payload = machine.exec_region_code(fn, env, footprint)
        if kind == "exit":
            return ("jump", instr.exits[payload])
        return ("return", payload)

    def promote(self, machine: Machine, instr, env: dict, code) -> str:
        """Handle an internal promotion in running specialized code."""
        pending = self.pendings.get(instr.emission_id)
        if pending is None:
            raise SpecializationError(
                f"promotion point {instr.point_id} has no pending "
                f"continuation (emission {instr.emission_id})"
            )
        stats = pending.stats
        values = tuple(env[k] for k in instr.keys)
        result = pending.cache.lookup(values)
        cost = pending.dispatch_cost
        if cost is None:
            cost = self.overhead.dispatch_cost(pending.policy,
                                               result.probes)
        machine.charge_dispatch(cost)
        stats.dispatches += 1
        stats.dispatch_cycles += cost
        stats.internal_promotions_executed += 1
        if pending.policy == "cache_one_unchecked":
            stats.unchecked_dispatches += 1
        elif pending.policy == "cache_indexed":
            stats.indexed_dispatches += 1
        else:
            stats.hash_probes += result.probes

        if result.hit:
            return result.value
        try:
            label = self.specializer.specialize_continuation(
                pending, machine, values
            )
        except SpecializationError:
            if not self.degrade:
                raise
            stats.specialization_failures += 1
            label = None
            try:
                label = self.specializer.specialize_continuation(
                    pending, machine, values, attempt=2
                )
                stats.respecializations += 1
            except SpecializationError:
                stats.specialization_failures += 1
            if label is None:
                # A promotion has no "run unspecialized" rung of its own
                # — the region is already executing specialized code — so
                # the continuation is residualized as dynamic code, which
                # is correct for any promoted values.
                label = self.specializer.residualize_continuation(
                    pending, machine, values
                )
        pending.cache.insert(values, label)
        machine.charge_dc(self.overhead.cache_store)
        stats.dc_cycles += self.overhead.cache_store
        return label

    # ------------------------------------------------------------------
    # Compile-time evaluation of static calls
    # ------------------------------------------------------------------

    def compile_time_call(self, machine: Machine, callee: str,
                          args: list, charge):
        """Evaluate a ``pure`` call during dynamic compilation.

        Runs on a separate compile-time machine sharing the module and
        data memory; its cycles are reported through ``charge`` so they
        land in the dynamic-compilation account (the static computations
        are part of DC overhead, §4.2).
        """
        if self._ct_machine is None or \
                self._ct_machine.memory is not machine.memory:
            self._ct_machine = Machine(
                self.compiled.module,
                memory=machine.memory,
                cost_model=machine.costs,
                icache=machine.icache,
                runtime=self,
                backend=machine.backend,
            )
        before = self._ct_machine.stats.cycles
        result = self._ct_machine.call(callee, args)
        charge(self._ct_machine.stats.cycles - before)
        return result
