"""Tests for the code caches: double hashing and the unchecked slot."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CacheError
from repro.faults import FaultRegistry
from repro.runtime.cache import (
    CodeCache,
    LookupResult,
    UncheckedCache,
    entry_checksum,
)

keys = st.tuples(st.integers(min_value=-10**6, max_value=10**6),
                 st.integers(min_value=0, max_value=255))


class TestCodeCache:
    def test_miss_then_hit(self):
        cache = CodeCache()
        assert not cache.lookup((1, 2)).hit
        cache.insert((1, 2), "code")
        result = cache.lookup((1, 2))
        assert result.hit and result.value == "code"

    def test_distinct_keys_independent(self):
        cache = CodeCache()
        cache.insert((1,), "a")
        cache.insert((2,), "b")
        assert cache.lookup((1,)).value == "a"
        assert cache.lookup((2,)).value == "b"
        assert not cache.lookup((3,)).hit

    def test_overwrite_same_key(self):
        cache = CodeCache()
        cache.insert((5,), "old")
        cache.insert((5,), "new")
        assert cache.lookup((5,)).value == "new"
        assert len(cache) == 1

    def test_growth_preserves_entries(self):
        cache = CodeCache(initial_size=4)
        for k in range(50):
            cache.insert((k,), k * 10)
        for k in range(50):
            result = cache.lookup((k,))
            assert result.hit and result.value == k * 10
        assert len(cache) == 50

    def test_grow_rehashes_collision_clusters(self):
        # Load a small table past any comfortable density, then grow:
        # every entry — including the colliding ones — must rehash to a
        # retrievable slot under the doubled size.
        cache = CodeCache(initial_size=8, max_load_factor=0.95)
        keys = [(k * 7919, 3) for k in range(7)]
        for i, key in enumerate(keys):
            cache.insert(key, i)
        before = dict(cache.items())
        cache._grow()
        assert cache._size == 16
        assert dict(cache.items()) == before
        for i, key in enumerate(keys):
            result = cache.lookup(key)
            assert result.hit and result.value == i

    def test_average_probes_after_growth(self):
        cache = CodeCache(initial_size=4)
        for k in range(100):
            cache.insert((k,), k)
        assert cache._size > 4  # grew several times on the way
        for k in range(100):
            assert cache.lookup((k,)).hit
        assert cache.average_probes == pytest.approx(
            cache.total_probes / cache.total_lookups
        )
        # Post-growth load factor is at most max_load, so the probe
        # average stays near 1 instead of degrading with the insert count.
        assert 1.0 <= cache.average_probes < 3.0

    def test_growth_does_not_pollute_probe_stats(self):
        # _grow re-inserts internally; dispatch statistics must only
        # reflect real lookups, or measured dispatch costs would drift.
        cache = CodeCache(initial_size=4)
        for k in range(50):
            cache.insert((k,), k)
        assert cache.total_lookups == 0
        assert cache.total_probes == 0
        assert cache.average_probes == 0.0

    def test_probe_counting(self):
        cache = CodeCache()
        result = cache.lookup((9,))
        assert result.probes >= 1
        assert cache.total_lookups == 1
        assert cache.total_probes >= 1

    def test_collisions_increase_probes(self):
        # Load a small table heavily: average probes must exceed 1.
        cache = CodeCache(initial_size=16, max_load_factor=0.95)
        for k in range(13):
            cache.insert((k * 7919,), k)
        for k in range(13):
            assert cache.lookup((k * 7919,)).hit
        assert cache.average_probes > 1.0

    def test_float_keys(self):
        cache = CodeCache()
        cache.insert((1.5, 2.5), "fp")
        assert cache.lookup((1.5, 2.5)).hit
        assert not cache.lookup((1.5, 2.0)).hit

    def test_minimum_size_enforced(self):
        with pytest.raises(CacheError):
            CodeCache(initial_size=2)

    def test_items_iteration(self):
        cache = CodeCache()
        data = {(k,): k * 2 for k in range(10)}
        for key, value in data.items():
            cache.insert(key, value)
        assert dict(cache.items()) == data

    def test_deterministic_hash(self):
        # The FNV fold must be PYTHONHASHSEED-independent for numbers.
        from repro.runtime.cache import _hash_key
        assert _hash_key((42, 7)) == _hash_key((42, 7))
        assert _hash_key((42,)) != _hash_key((43,))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(keys, st.integers()), max_size=60))
    def test_model_based_against_dict(self, operations):
        cache = CodeCache(initial_size=8)
        model: dict = {}
        for key, value in operations:
            cache.insert(key, value)
            model[key] = value
        for key, value in model.items():
            result = cache.lookup(key)
            assert result.hit and result.value == value
        assert len(cache) == len(model)


class TestTombstoneCompaction:
    def test_churn_triggers_compaction(self):
        """Sustained insert/evict churn through a bounded cache must
        rehash in place once tombstones dominate, instead of growing
        the table forever."""
        cache = CodeCache(initial_size=64, capacity=8)
        for i in range(3000):
            cache.insert(("churn", i), i)
        assert cache.compactions > 0
        assert cache.evictions == 3000 - 8
        assert len(cache) == 8
        # The table stayed usable and bounded by the live set, not by
        # the total insert history.
        cache.insert((999,), "live")
        assert cache.lookup((999,)).hit
        assert cache._size == 64

    def test_compaction_preserves_live_entries(self):
        cache = CodeCache(initial_size=64, capacity=8)
        rehashes = []
        grow = cache._grow

        def checked_grow():
            before = dict(cache.items())
            grow()
            rehashes.append(before == dict(cache.items()))

        cache._grow = checked_grow
        for i in range(300):
            cache.insert(("churn", i), i)
        assert cache.compactions > 0
        assert rehashes and all(rehashes)
        live = dict(cache.items())
        assert len(live) == 8 and live[("churn", 299)] == 299
        for key, value in live.items():
            result = cache.lookup(key)
            assert result.hit and result.value == value

    def test_clean_cache_never_compacts(self):
        """A cache that never evicts must keep its exact pre-change
        probe accounting: no tombstones, no compaction."""
        cache = CodeCache()
        for i in range(512):
            cache.insert((i,), i)
        for i in range(512):
            assert cache.lookup((i,)).hit
        assert cache.compactions == 0
        assert cache._fill == cache._count


class TestBoundedCache:
    def test_capacity_bounds_live_entries(self):
        cache = CodeCache(capacity=4)
        for k in range(10):
            cache.insert((k,), k)
        assert len(cache) == 4
        assert cache.evictions == 6
        assert cache.lookup((9,)).hit  # the newest insert survives

    def test_reinsert_same_key_does_not_evict(self):
        cache = CodeCache(capacity=2)
        cache.insert((1,), "a")
        cache.insert((2,), "b")
        cache.insert((1,), "a2")  # overwrite, not a new entry
        assert cache.evictions == 0
        assert cache.lookup((1,)).value == "a2"
        assert cache.lookup((2,)).value == "b"

    def test_second_chance_spares_referenced_entry(self):
        cache = CodeCache(capacity=2)
        cache.insert((1,), "a")
        cache.insert((2,), "b")
        # Mark (1,) recently-used and (2,) cold; the clock must give
        # (1,) its second chance and evict (2,).
        cache._ref = [key == (1,) for key in cache._keys]
        cache.insert((3,), "c")
        assert cache.lookup((1,)).hit
        assert not cache.lookup((2,)).hit
        assert cache.lookup((3,)).hit

    def test_tombstones_recycled_not_grown(self):
        # Sustained insert/evict churn must not balloon the table:
        # rehashes drop tombstones and the size stays at its floor.
        cache = CodeCache(initial_size=16, capacity=2)
        for k in range(200):
            cache.insert((k,), k)
        assert len(cache) == 2
        assert cache._size == 16
        assert cache.evictions == 198

    def test_eviction_then_miss_then_reinsert(self):
        cache = CodeCache(capacity=1)
        cache.insert((1,), "a")
        cache.insert((2,), "b")
        assert not cache.lookup((1,)).hit  # evicted
        cache.insert((1,), "a")           # caller re-specialized
        assert cache.lookup((1,)).value == "a"

    def test_on_evict_callback(self):
        calls = []
        cache = CodeCache(capacity=1, on_evict=lambda: calls.append(1))
        cache.insert((1,), "a")
        cache.insert((2,), "b")
        assert calls == [1]


class TestChecksummedCache:
    def test_clean_entries_verify(self):
        cache = CodeCache(checksum=entry_checksum)
        cache.insert((1,), "payload")
        assert cache.lookup((1,)).value == "payload"
        assert cache.corrupt_hits == 0

    def test_injected_corruption_detected_and_recovered(self):
        faults = FaultRegistry.from_spec("cache.corrupt:once")
        calls = []
        cache = CodeCache(checksum=entry_checksum, faults=faults,
                          on_corrupt=lambda: calls.append(1))
        cache.insert((1,), "payload")   # stamp is written corrupted
        result = cache.lookup((1,))
        assert not result.hit
        assert cache.corrupt_hits == 1
        assert calls == [1]
        assert len(cache) == 0          # the bad entry was deleted
        cache.insert((1,), "payload")   # re-specialize: fault was once
        assert cache.lookup((1,)).value == "payload"

    def test_manual_stamp_flip_detected(self):
        cache = CodeCache(checksum=entry_checksum)
        cache.insert((7,), "v")
        index = next(i for i, key in enumerate(cache._keys)
                     if key == (7,))
        cache._stamps[index] ^= 1
        assert not cache.lookup((7,)).hit
        assert cache.corrupt_hits == 1

    def test_corruption_survives_rehash(self):
        # _grow carries stamps verbatim, so a corrupt entry must still
        # be caught after the table rebuilds.
        faults = FaultRegistry.from_spec("cache.corrupt:once")
        cache = CodeCache(initial_size=4, checksum=entry_checksum,
                          faults=faults)
        cache.insert((0,), "bad")       # corrupted stamp
        for k in range(1, 20):
            cache.insert((k,), k)       # forces several rehashes
        assert not cache.lookup((0,)).hit
        assert cache.corrupt_hits == 1
        for k in range(1, 20):
            assert cache.lookup((k,)).hit

    def test_evict_fault_forces_eviction(self):
        faults = FaultRegistry.from_spec("cache.evict:at=2")
        cache = CodeCache(faults=faults)
        cache.insert((1,), "a")
        cache.insert((2,), "b")   # 2nd insert fires: evicts a victim
        assert len(cache) == 1
        assert cache.evictions == 1


class TestUncheckedCache:
    def test_first_lookup_misses(self):
        cache = UncheckedCache()
        assert not cache.lookup((1,)).hit

    def test_returns_slot_without_key_check(self):
        # The documented hazard: any key hits once the slot is filled.
        cache = UncheckedCache()
        cache.insert((1,), "for-1")
        assert cache.lookup((1,)).value == "for-1"
        assert cache.lookup((999,)).value == "for-1"  # stale, no check

    def test_strict_mode_raises_on_key_change(self):
        cache = UncheckedCache(strict=True)
        cache.insert((1,), "v")
        assert cache.lookup((1,)).hit
        with pytest.raises(CacheError, match="unsafe"):
            cache.lookup((2,))

    def test_strict_mode_accepts_same_key(self):
        cache = UncheckedCache(strict=True)
        cache.insert((7, 8), "v")
        for _ in range(3):
            assert cache.lookup((7, 8)).value == "v"

    def test_strict_mode_allows_explicit_refill(self):
        # Only *lookups* with a changed key are the hazard; an explicit
        # insert legitimately repoints the slot.
        cache = UncheckedCache(strict=True)
        cache.insert((1,), "a")
        cache.insert((2,), "b")
        assert cache.lookup((2,)).value == "b"

    def test_single_probe(self):
        cache = UncheckedCache()
        cache.insert((1,), "v")
        assert cache.lookup((1,)).probes == 1

    def test_strict_semantics_unchanged_with_faults_armed(self,
                                                          monkeypatch):
        # The unchecked slot has no checksum/eviction machinery, so
        # armed cache faults must not alter its documented behavior:
        # stale wrong-key hits without strict, a raise with it.
        monkeypatch.setenv("REPRO_FAULTS",
                           "cache.corrupt:always;cache.evict:always")
        loose = UncheckedCache()
        loose.insert((1,), "for-1")
        assert loose.lookup((999,)).value == "for-1"
        strict = UncheckedCache(strict=True)
        strict.insert((1,), "v")
        with pytest.raises(CacheError, match="unsafe"):
            strict.lookup((2,))
