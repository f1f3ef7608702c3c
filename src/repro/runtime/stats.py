"""Per-region runtime statistics and optimization-usage tracking.

Beyond the cycle accounting the tables need, the runtime records *which*
optimizations actually fired for each region — the data behind Table 2's
applicability matrix (single-way vs multi-way unrolling, static loads,
static calls, ZCP, DAE, strength reduction, internal promotions,
polyvariant division, unchecked dispatching).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RegionStats:
    """Counters for one dynamic region."""

    region_id: int
    function_name: str

    # --- dispatching ---------------------------------------------------
    dispatches: int = 0
    dispatch_cycles: float = 0.0
    unchecked_dispatches: int = 0
    indexed_dispatches: int = 0
    hash_probes: int = 0

    # --- specialization ------------------------------------------------
    specializations: int = 0          # entry-cache misses
    contexts_specialized: int = 0
    instructions_generated: int = 0
    dc_cycles: float = 0.0

    # --- degradation ladder (all zero on a clean run) -------------------
    specialization_failures: int = 0   # failed specialize attempts
    respecializations: int = 0         # rung-2 retries that succeeded
    fallback_executions: int = 0       # unspecialized region executions
    quarantined_contexts: int = 0      # (region, context) circuit-breaks
    quarantine_skips: int = 0          # dispatches short-circuited by one
    budget_truncations: int = 0        # contexts residualized dynamically
    residualized_continuations: int = 0  # promotions degraded dynamically
    cache_evictions: int = 0           # bounded-cache clock evictions
    cache_corruptions: int = 0         # checksum-mismatch hits recovered

    # --- optimization usage (Table 2) -----------------------------------
    static_instrs_folded: int = 0
    static_loads_folded: int = 0
    static_calls_folded: int = 0
    static_branches_folded: int = 0
    zcp_zero_hits: int = 0
    zcp_copy_hits: int = 0
    dae_removed: int = 0
    sr_applied: int = 0
    internal_promotions_executed: int = 0
    internal_promotion_points: int = 0
    divisions_used: int = 1
    #: (header label, division) -> number of distinct specialization
    #: contexts minted.  Keyed per division so polyvariant *division*
    #: (two compiled versions of the same loop) is not mistaken for
    #: polyvariant *specialization* (unrolling).
    loop_context_counts: dict[tuple, int] = field(default_factory=dict)
    #: header -> {source header-context -> set of target header-contexts}.
    #: One iteration reaching several different next iterations, or one
    #: iteration reached from several places (a back edge in the unrolled
    #: graph), is multi-way unrolling (§2.2.4).
    loop_out_edges: dict[str, dict[object, set[str]]] = field(
        default_factory=dict
    )
    loop_in_edges: dict[str, dict[str, set[object]]] = field(
        default_factory=dict
    )

    def record_loop_edge(self, header: str, src, dst: str) -> None:
        """Record a transfer between specialization contexts of a loop
        header (``src`` is None for the initial entry)."""
        self.loop_out_edges.setdefault(header, {}).setdefault(
            src, set()
        ).add(dst)
        self.loop_in_edges.setdefault(header, {}).setdefault(
            dst, set()
        ).add(src)

    # ------------------------------------------------------------------
    # Derived Table 2 facts
    # ------------------------------------------------------------------

    @property
    def multiway_headers(self) -> set[str]:
        """Headers whose unrolled context graph is not a simple chain."""
        result: set[str] = set()
        for header, outs in self.loop_out_edges.items():
            if any(len(dsts) > 1 for dsts in outs.values()):
                result.add(header)
        for header, ins in self.loop_in_edges.items():
            if any(len(srcs) > 1 for srcs in ins.values()):
                result.add(header)
        return result

    @property
    def loop_contexts(self) -> dict[str, int]:
        """Max same-division context count per header label."""
        result: dict[str, int] = {}
        for (header, _division), count in \
                self.loop_context_counts.items():
            result[header] = max(result.get(header, 0), count)
        return result

    @property
    def unrolling(self) -> str | None:
        """None, "SW", or "MW" — complete-loop-unrolling usage."""
        unrolled = [
            header for header, count in self.loop_contexts.items()
            if count > 1
        ]
        if not unrolled:
            return None
        multiway = self.multiway_headers
        if any(h in multiway for h in unrolled):
            return "MW"
        return "SW"

    @property
    def used_static_loads(self) -> bool:
        return self.static_loads_folded > 0

    @property
    def used_static_calls(self) -> bool:
        return self.static_calls_folded > 0

    @property
    def used_zcp(self) -> bool:
        return (self.zcp_zero_hits + self.zcp_copy_hits) > 0

    @property
    def used_dae(self) -> bool:
        return self.dae_removed > 0

    @property
    def used_sr(self) -> bool:
        return self.sr_applied > 0

    @property
    def used_internal_promotions(self) -> bool:
        return self.internal_promotions_executed > 0

    @property
    def used_polyvariant_division(self) -> bool:
        return self.divisions_used > 1

    @property
    def used_unchecked_dispatch(self) -> bool:
        return self.unchecked_dispatches > 0

    @property
    def degraded(self) -> bool:
        """Did this region leave the fully specialized path at any point?

        Plain clock evictions are *not* degradation — a bounded cache
        operating normally re-specializes on capacity misses by design —
        but failures, fallbacks, truncations, and corruption recoveries
        all are.
        """
        return bool(
            self.specialization_failures
            or self.fallback_executions
            or self.quarantined_contexts
            or self.quarantine_skips
            or self.budget_truncations
            or self.residualized_continuations
            or self.cache_corruptions
        )

    @property
    def overhead_per_instruction(self) -> float:
        """Table 3's "DC overhead (cycles/instruction generated)"."""
        if not self.instructions_generated:
            return 0.0
        return self.dc_cycles / self.instructions_generated


@dataclass
class RuntimeStats:
    """All regions' statistics, keyed by region id."""

    regions: dict[int, RegionStats] = field(default_factory=dict)

    def for_region(self, region_id: int,
                   function_name: str = "?") -> RegionStats:
        if region_id not in self.regions:
            self.regions[region_id] = RegionStats(
                region_id=region_id, function_name=function_name
            )
        return self.regions[region_id]

    @property
    def degraded(self) -> bool:
        return any(r.degraded for r in self.regions.values())
