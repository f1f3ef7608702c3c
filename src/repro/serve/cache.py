"""Sharded, multi-tenant result cache for the serve daemon.

Each shard is a locked, bounded :class:`~repro.runtime.cache.CodeCache`
— the same open-addressing table, clock/second-chance eviction, and
per-entry integrity stamps the runtime's ``cache_all`` dispatch policy
uses, reused here one level up the stack for whole *run results*.  Keys
are ``(tenant, run_key)`` pairs where ``run_key`` is the eval harness's
content-hash :func:`~repro.evalharness.memo.memo_key`, so two tenants
submitting the identical (workload, config) pair still get isolated
entries (and isolated eviction pressure), while one tenant re-running
the same request is a guaranteed hit.

Shard choice is an FNV-1a hash of the key, independent of the
in-shard probe hash, so hot tenants spread across shards instead of
piling onto one lock.

Thread safety: shard ``CodeCache`` objects are built with ``lock=True``
and are touched from both the event loop (lookups) and executor worker
threads (insertions after a run completes).  The hit/miss tallies are
touched **only from the event-loop thread**, so they need no lock.
Each shard gets its *own* :class:`~repro.faults.FaultRegistry` parsed
from the daemon's fault spec, so ``cache.corrupt`` / ``cache.evict``
injection stays deterministic per shard and no registry is shared
across threads.
"""

from __future__ import annotations

from repro.faults import FaultRegistry
from repro.runtime.cache import CodeCache, entry_checksum


def _fnv(text: str) -> int:
    h = 0xcbf29ce484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class ShardedResultCache:
    """``(tenant, run_key) -> response payload`` over N locked shards."""

    def __init__(self, shards: int = 8, capacity_per_shard: int = 256,
                 fault_spec: str | None = None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if capacity_per_shard < 1:
            raise ValueError("capacity_per_shard must be >= 1")
        self._shards: list[CodeCache] = []
        for _ in range(shards):
            faults = FaultRegistry.from_spec(fault_spec) \
                if fault_spec else None
            self._shards.append(CodeCache(
                capacity=capacity_per_shard,
                checksum=entry_checksum,
                faults=faults,
                lock=True,
            ))
        self._hits = [0] * shards
        self._misses = [0] * shards

    # -- keying ----------------------------------------------------------

    def _shard_of(self, tenant: str, run_key: str) -> int:
        return _fnv(f"{tenant}\x00{run_key}") % len(self._shards)

    # -- lookup / insert (event loop + worker threads) -------------------

    def get(self, tenant: str, run_key: str):
        """Lookup a cached payload.

        Event-loop thread only (the hit/miss tallies are unlocked).
        """
        index = self._shard_of(tenant, run_key)
        found = self._shards[index].lookup((tenant, run_key))
        if found.hit:
            self._hits[index] += 1
            return found.value
        self._misses[index] += 1
        return None

    def put(self, tenant: str, run_key: str, payload: dict) -> None:
        """Insert a payload (any thread; the shard lock serializes)."""
        index = self._shard_of(tenant, run_key)
        self._shards[index].insert((tenant, run_key), payload)

    # -- stats -----------------------------------------------------------

    def stats(self) -> dict:
        """Per-shard and aggregate statistics for ``GET /stats``."""
        shards = []
        for index, shard in enumerate(self._shards):
            lookups = self._hits[index] + self._misses[index]
            shards.append({
                "entries": len(shard),
                "capacity": shard.capacity,
                "hits": self._hits[index],
                "misses": self._misses[index],
                "hit_rate": round(self._hits[index] / lookups, 4)
                if lookups else 0.0,
                "evictions": shard.evictions,
                "corrupt_hits": shard.corrupt_hits,
            })
        lookups = [s["hits"] + s["misses"] for s in shards]
        busiest = max(lookups) if lookups else 0
        quietest = min(lookups) if lookups else 0
        return {
            "shards": shards,
            "entries": sum(s["entries"] for s in shards),
            "hits": sum(self._hits),
            "misses": sum(self._misses),
            "evictions": sum(s["evictions"] for s in shards),
            "corrupt_hits": sum(s["corrupt_hits"] for s in shards),
            # 1.0 = every shard saw the same traffic; 0.0 = one shard
            # took everything.
            "shard_balance": round(quietest / busiest, 4)
            if busiest else 1.0,
        }
