"""Code caches: double hashing (cache-all) and the unchecked single slot.

DyC's default ``cache-all`` policy maintains, at each promotion point, a
cache from the values of the promoted static variables to the code
specialized for those values, "implemented using double hashing" (§2.2.3,
citing CLR).  The ``cache-one-unchecked`` policy replaces the lookup with
a single load — and is *unsafe*: if the annotated values do change, the
stale version is reused without any check, exactly as the paper warns.

Lookups report how many probes they took so the dispatcher can charge a
collision-dependent cost (mipsi's ~150-cycle dispatches come from hash
collisions, §4.4.3).

Robustness extensions (see ``DESIGN.md``, degradation ladder): a
``cache_all`` table can be *bounded* (``capacity=N``), in which case a
full table evicts a clock/second-chance victim instead of growing, and
entries can carry *checksums* — a stamp computed over the value's stable
identity at insert time and re-verified on every hit.  A corrupt (or
injected-corrupt) entry is deleted and reported as a miss, so the
dispatcher transparently re-specializes rather than executing damaged
code.  Deleted slots become tombstones so open-addressing probe chains
stay intact; a clean unbounded cache never creates one, keeping its probe
accounting byte-identical to the original unbounded implementation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import CacheError

_EMPTY = object()
_TOMBSTONE = object()


def _hash_key(key: tuple) -> int:
    """Deterministic hash of a tuple of numbers.

    An FNV-1a-style fold over the elements' bit patterns, independent of
    ``PYTHONHASHSEED`` so experiment results are reproducible.
    """
    h = 0xcbf29ce484222325
    for element in key:
        if isinstance(element, float):
            data = hash(element)  # numeric hash: deterministic in CPython
        else:
            data = element if isinstance(element, int) else hash(element)
        data &= 0xFFFFFFFFFFFFFFFF
        while True:
            h ^= data & 0xFF
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            data >>= 8
            if not data:
                break
    return h


@dataclass
class LookupResult:
    """Outcome of a cache lookup: the value (if hit) and the probe count."""

    hit: bool
    value: object
    probes: int


def entry_checksum(value) -> int:
    """Default entry-checksum function.

    Values exposing ``cache_identity()`` (e.g.
    :class:`~repro.runtime.specializer.SpecializedCode`) are stamped over
    those *stable* identity fields — specialized code is legitimately
    mutated in place by lazy promotions, so a content hash would
    false-positive.  Everything else (promotion caches store plain block
    labels) is stamped over its ``repr``.
    """
    ident = getattr(value, "cache_identity", None)
    if ident is not None:
        return _hash_key(ident())
    return _hash_key((type(value).__name__, repr(value)))


class CodeCache:
    """An open-addressing hash table with double hashing.

    ``capacity`` bounds the number of *live* entries (0 = unbounded);
    a full cache evicts a clock/second-chance victim before inserting.
    ``checksum`` (a ``value -> int`` function) arms per-entry integrity
    stamps; a stamp mismatch on lookup deletes the entry and reports a
    miss.  ``faults`` is an optional
    :class:`~repro.faults.FaultRegistry` consulted at the
    ``cache.corrupt`` / ``cache.evict`` points on insertion.
    ``on_evict`` / ``on_corrupt`` are no-argument callbacks for stats
    accounting.

    Thread safety
    -------------

    By default a ``CodeCache`` is **thread-confined**: the runtime
    builds one per promotion point inside a
    :class:`~repro.runtime.runtime.DycRuntime`, and every runtime (with
    its caches, fault registry, and quarantine table) is owned by
    exactly one run on one thread — that confinement is the invariant
    the eval harness and the serve daemon's per-request runs rely on,
    and it is what keeps probe accounting byte-identical.

    ``lock=True`` arms an internal ``RLock`` around ``lookup`` /
    ``insert`` / ``items`` / ``len`` for caches that *are* shared
    across threads (the serve daemon's sharded result cache).  Each
    operation is then atomic — eviction picks its victim and deletes it
    under the same lock acquisition that inserts the new entry, and a
    corrupt hit is deleted before the lookup returns — so concurrent
    readers can never observe a half-applied eviction or a
    checksum-mismatched value.  The callbacks (``on_evict`` /
    ``on_corrupt`` / ``checksum``) run while the lock is held and must
    not re-enter the cache from another thread.
    """

    def __init__(self, initial_size: int = 16,
                 max_load_factor: float = 0.7,
                 capacity: int = 0,
                 checksum=None,
                 faults=None,
                 on_evict=None,
                 on_corrupt=None,
                 lock: bool = False) -> None:
        if initial_size < 4:
            raise CacheError("cache size must be at least 4")
        if capacity < 0:
            raise CacheError("cache capacity must be >= 0")
        self._size = initial_size
        self._keys: list = [_EMPTY] * initial_size
        self._values: list = [None] * initial_size
        self._count = 0    # live entries
        self._fill = 0     # live entries + tombstones
        self._max_load = max_load_factor
        self._capacity = capacity
        self._checksum = checksum
        self._stamps: list | None = \
            [0] * initial_size if checksum is not None else None
        self._ref: list = [False] * initial_size
        self._hand = 0
        self._faults = faults
        self._on_evict = on_evict
        self._on_corrupt = on_corrupt
        self._lock = threading.RLock() if lock else None
        self.total_probes = 0
        self.total_lookups = 0
        self.evictions = 0
        self.corrupt_hits = 0
        self.compactions = 0

    def __len__(self) -> int:
        guard = self._lock
        if guard is None:
            return self._count
        with guard:
            return self._count

    @property
    def capacity(self) -> int:
        return self._capacity

    def _probe_sequence(self, key: tuple) -> Iterator[int]:
        h = _hash_key(key)
        index = h % self._size
        # Second hash must be odd so it is coprime with the (power-of-two)
        # table size, guaranteeing a full-cycle probe sequence.
        step = ((h >> 32) | 1) % self._size or 1
        for _ in range(self._size):
            yield index
            index = (index + step) % self._size

    def lookup(self, key: tuple) -> LookupResult:
        """Find ``key``; reports the number of probes performed.

        A hit whose integrity stamp no longer matches is deleted and
        reported as a miss — the caller re-specializes and re-inserts.
        """
        guard = self._lock
        if guard is None:
            return self._lookup(key)
        with guard:
            return self._lookup(key)

    def _lookup(self, key: tuple) -> LookupResult:
        probes = 0
        self.total_lookups += 1
        stamps = self._stamps
        for index in self._probe_sequence(key):
            probes += 1
            slot_key = self._keys[index]
            if slot_key is _EMPTY:
                break
            if slot_key is _TOMBSTONE:
                continue
            if slot_key == key:
                if stamps is not None and \
                        stamps[index] != self._checksum(
                            self._values[index]):
                    self._delete(index)
                    self.corrupt_hits += 1
                    if self._on_corrupt is not None:
                        self._on_corrupt()
                    break
                self._ref[index] = True
                self.total_probes += probes
                return LookupResult(True, self._values[index], probes)
        self.total_probes += probes
        return LookupResult(False, None, probes)

    def insert(self, key: tuple, value) -> None:
        guard = self._lock
        if guard is None:
            return self._insert(key, value)
        with guard:
            return self._insert(key, value)

    def _insert(self, key: tuple, value) -> None:
        faults = self._faults
        if faults is not None and faults.should_fire("cache.evict"):
            self._evict_one()
        if self._capacity and self._count >= self._capacity \
                and not self._contains(key):
            self._evict_one()
        if (self._fill + 1) / self._size > self._max_load:
            self._grow()
        stamp = 0
        if self._stamps is not None:
            stamp = self._checksum(value)
            if faults is not None and faults.should_fire("cache.corrupt"):
                stamp ^= 0x5A5A5A5A
        first_tombstone = None
        for index in self._probe_sequence(key):
            slot_key = self._keys[index]
            if slot_key is _TOMBSTONE:
                if first_tombstone is None:
                    first_tombstone = index
                continue
            if slot_key is _EMPTY or slot_key == key:
                if slot_key is _EMPTY:
                    if first_tombstone is not None:
                        index = first_tombstone
                    else:
                        self._fill += 1
                    self._count += 1
                self._set_slot(index, key, value, stamp)
                return
        if first_tombstone is not None:
            self._count += 1
            self._set_slot(first_tombstone, key, value, stamp)
            return
        raise CacheError("cache insertion failed (table full)")

    def _set_slot(self, index: int, key: tuple, value, stamp: int) -> None:
        self._keys[index] = key
        self._values[index] = value
        if self._stamps is not None:
            self._stamps[index] = stamp
        self._ref[index] = True

    def _contains(self, key: tuple) -> bool:
        """Presence check without touching the probe statistics."""
        for index in self._probe_sequence(key):
            slot_key = self._keys[index]
            if slot_key is _EMPTY:
                return False
            if slot_key is not _TOMBSTONE and slot_key == key:
                return True
        return False

    def _delete(self, index: int) -> None:
        self._keys[index] = _TOMBSTONE
        self._values[index] = None
        if self._stamps is not None:
            self._stamps[index] = 0
        self._ref[index] = False
        self._count -= 1
        # Tombstone compaction: heavy eviction/deletion churn would
        # otherwise degrade probe chains permanently (every probe walks
        # the accumulated tombstones).  Rehash in place once tombstones
        # outnumber half the table.  A clean unbounded cache never
        # deletes, so it never compacts and its probe accounting stays
        # byte-identical to the original unbounded implementation.
        if self._fill - self._count > self._size // 2:
            self._grow()
            self.compactions += 1

    def _evict_one(self) -> None:
        """Clock/second-chance: evict the first un-referenced live entry."""
        if self._count == 0:
            return
        size = self._size
        for _ in range(2 * size + 1):
            index = self._hand
            self._hand = (index + 1) % size
            slot_key = self._keys[index]
            if slot_key is _EMPTY or slot_key is _TOMBSTONE:
                continue
            if self._ref[index]:
                self._ref[index] = False
                continue
            self._delete(index)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict()
            return

    def _grow(self) -> None:
        """Rebuild without tombstones, doubling only as far as needed.

        Stamps are carried over verbatim (not recomputed), so an
        injected-corrupt entry stays corrupt across a rehash.
        """
        entries = [
            (self._keys[i], self._values[i],
             self._stamps[i] if self._stamps is not None else 0,
             self._ref[i])
            for i in range(self._size)
            if self._keys[i] is not _EMPTY
            and self._keys[i] is not _TOMBSTONE
        ]
        size = self._size
        while (len(entries) + 1) / size > self._max_load:
            size *= 2
        self._size = size
        self._keys = [_EMPTY] * size
        self._values = [None] * size
        if self._stamps is not None:
            self._stamps = [0] * size
        self._ref = [False] * size
        self._hand = 0
        self._count = 0
        self._fill = 0
        for key, value, stamp, ref in entries:
            self._place(key, value, stamp, ref)

    def _place(self, key: tuple, value, stamp: int, ref: bool) -> None:
        """Raw reinsertion during a rehash (no faults, no eviction)."""
        for index in self._probe_sequence(key):
            if self._keys[index] is _EMPTY:
                self._keys[index] = key
                self._values[index] = value
                if self._stamps is not None:
                    self._stamps[index] = stamp
                self._ref[index] = ref
                self._count += 1
                self._fill += 1
                return
        raise CacheError("cache insertion failed (table full)")

    @property
    def average_probes(self) -> float:
        if not self.total_lookups:
            return 0.0
        return self.total_probes / self.total_lookups

    def items(self):
        guard = self._lock
        if guard is None:
            return self._items()
        with guard:
            # Snapshot under the lock; callers iterate lock-free.
            return iter(list(self._items()))

    def _items(self):
        for key, value in zip(self._keys, self._values):
            if key is not _EMPTY and key is not _TOMBSTONE:
                yield key, value


class IndexedCache:
    """The §3.1 extension: array-indexed dispatch for small-range keys.

    "For such cases, the lookup could be implemented as a simple array
    indexing, in place of DyC's current general-purpose hash-table
    lookup" — the policy that would make byte-at-a-time programs
    (decompressors, grep) profitable to compile dynamically.

    The *last* component of the key tuple indexes a 256-slot array; the
    full key is stored and verified, so unlike ``cache-one-unchecked``
    this policy is safe: a slot collision (same index, different other
    components) is treated as a miss and the slot is refilled.
    """

    RANGE = 256

    def __init__(self) -> None:
        self._keys: list = [_EMPTY] * self.RANGE
        self._values: list = [None] * self.RANGE
        self.total_lookups = 0
        self.refills = 0

    @staticmethod
    def _index(key: tuple) -> int:
        if not key:
            raise CacheError("cache_indexed requires a non-empty key")
        index = key[-1]
        if not isinstance(index, int) or not 0 <= index < IndexedCache.RANGE:
            raise CacheError(
                f"cache_indexed key component {index!r} outside 0.."
                f"{IndexedCache.RANGE - 1}; use cache_all for this "
                "promotion"
            )
        return index

    def lookup(self, key: tuple) -> LookupResult:
        self.total_lookups += 1
        index = self._index(key)
        if self._keys[index] == key:
            return LookupResult(True, self._values[index], 1)
        return LookupResult(False, None, 1)

    def insert(self, key: tuple, value) -> None:
        index = self._index(key)
        if self._keys[index] is not _EMPTY:
            self.refills += 1
        self._keys[index] = key
        self._values[index] = value


class UncheckedCache:
    """The ``cache-one-unchecked`` policy: a single unguarded slot.

    The first dispatch fills the slot; later dispatches return it without
    comparing keys (that is the point — and the hazard).  With
    ``strict=True`` (the annotation-checking debug mode) a key change
    raises instead of silently reusing stale code.

    A region entry's bound dispatch (``DycRuntime.bind_entry``) reads a
    filled, non-strict slot directly, as DyC's load does, and counts the
    lookup in ``total_lookups`` itself.
    """

    def __init__(self, strict: bool = False) -> None:
        self._key: tuple | None = None
        self._value = None
        self._filled = False
        self._strict = strict
        self.total_lookups = 0

    def lookup(self, key: tuple) -> LookupResult:
        self.total_lookups += 1
        if not self._filled:
            return LookupResult(False, None, 1)
        if self._strict and key != self._key:
            raise CacheError(
                "cache-one-unchecked dispatch with changed key "
                f"(cached {self._key!r}, got {key!r}); the annotation "
                "is unsafe for this program"
            )
        return LookupResult(True, self._value, 1)

    def insert(self, key: tuple, value) -> None:
        self._key = key
        self._value = value
        self._filled = True
