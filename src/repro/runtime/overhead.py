"""Cycle costs of dynamic compilation itself (§4.2's overhead sources).

The paper lists the main contributors to dynamic-compilation overhead:
"cache lookups, memory allocation, handling of dynamic branches, checks
for dynamic zero and copy propagation, dead-assignment elimination, and
strength reduction, operations to ensure instruction-cache coherence,
instruction construction and emission, branch patching, hole patching,
and the static computations."  Every one of those has a knob here; the
specializer charges them as it works, and the total lands in the
machine's ``dc_cycles`` account, from which Table 3's
cycles-per-generated-instruction and break-even points are computed.

Dispatch costs (§4.4.3): an unchecked dispatch is "a load and an indirect
jump … about 10 cycles"; the general hash-table dispatch averages ~90
cycles (rising to ~150 under collisions, as in mipsi), modelled as a base
cost plus a per-probe charge.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OverheadModel:
    """Cycle charges for dynamic-compilation work."""

    # --- dispatching (recurring; charged to execution time) -----------
    dispatch_unchecked: float = 10.0
    dispatch_indexed: float = 14.0     # bounds-masked index + load + cmp
    dispatch_hash_base: float = 60.0
    dispatch_hash_per_probe: float = 15.0

    # --- one-time specialization costs (charged to dc_cycles) ---------
    region_setup: float = 450.0        # invoke the dynamic compiler,
                                       # allocate the code buffer
    block_alloc: float = 25.0          # memory allocation per emitted block
    emit_instruction: float = 14.0     # instruction construction+emission
    hole_patch: float = 4.0            # fill one hole operand
    branch_patch: float = 16.0         # resolve one pending branch target
    eval_overhead: float = 2.0         # driving one set-up action (the
                                       # static computation's own cost is
                                       # charged at machine rates on top)
    zcp_check: float = 6.0             # §2.2.7 special-value check
    dae_update: float = 8.0            # note-table/dead-list maintenance
    sr_check: float = 4.0
    static_branch_fold: float = 2.0
    cache_store: float = 45.0          # install into the code cache
    icache_flush_base: float = 80.0    # instruction-cache coherence
    icache_flush_per_instr: float = 0.4
    promote_setup: float = 160.0       # lazy continuation specialization

    def dispatch_cost(self, policy: str, probes: int = 1) -> float:
        """Cycles for one dispatch under ``policy``."""
        if policy == "cache_one_unchecked":
            return self.dispatch_unchecked
        if policy == "cache_indexed":
            return self.dispatch_indexed
        return self.dispatch_hash_base + self.dispatch_hash_per_probe * probes

    def fixed_dispatch_cost(self, policy: str) -> float | None:
        """The cost of every dispatch under ``policy`` when no probe
        count can change it, or None: the unchecked and indexed caches
        always make one probe, so their cost is bound once per region
        entry or promotion point."""
        if policy in ("cache_one_unchecked", "cache_indexed"):
            return self.dispatch_cost(policy)
        return None


DEFAULT_OVERHEAD = OverheadModel()
