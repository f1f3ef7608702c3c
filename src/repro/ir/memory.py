"""Flat, word-addressed data memory for the abstract machine.

Pointers are plain integer addresses, so MiniC pointer arithmetic is
ordinary integer arithmetic on the IR level.  Address 0 is reserved as the
null pointer: allocations start at word 1 and loads/stores of address 0
fault, catching C-style null dereferences.

The memory also supports *write logging* (used by the optional annotation
checker to verify that ``@``-annotated loads really read invariant data).
"""

from __future__ import annotations

from repro.errors import MemoryFault

Word = int | float


class Memory:
    """A growable array of words (Python ints/floats)."""

    def __init__(self) -> None:
        # Slot 0 is the never-valid null word.  The list is only ever
        # grown or written in place, never rebound once a machine holds
        # this memory: threaded blocks index it directly.
        self._words: list[Word] = [0]
        self._watch: set[int] | None = None
        self._watch_hits: list[int] = []

    @classmethod
    def from_words(cls, words) -> "Memory":
        """A memory holding a private copy of ``words``, an image taken
        with :meth:`words` (slot 0 included)."""
        memory = cls()
        memory._words = list(words)
        return memory

    def __len__(self) -> int:
        return len(self._words)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc(self, count: int, fill: Word = 0) -> int:
        """Allocate ``count`` words initialized to ``fill``; return base."""
        if count < 0:
            raise MemoryFault(f"cannot allocate {count} words")
        base = len(self._words)
        self._words.extend([fill] * count)
        return base

    def alloc_array(self, values) -> int:
        """Allocate and initialize consecutive words; return base address."""
        values = list(values)
        base = len(self._words)
        self._words.extend(values)
        return base

    def alloc_matrix(self, rows) -> int:
        """Allocate a row-major 2-D array from an iterable of rows."""
        flat: list[Word] = []
        width: int | None = None
        for row in rows:
            row = list(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise MemoryFault("ragged matrix rows")
            flat.extend(row)
        return self.alloc_array(flat)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def _check(self, addr: Word) -> int:
        if isinstance(addr, float):
            if not addr.is_integer():
                raise MemoryFault(f"non-integer address {addr!r}")
            addr = int(addr)
        if addr <= 0:
            raise MemoryFault(f"null/negative address {addr}")
        if addr >= len(self._words):
            raise MemoryFault(
                f"address {addr} out of bounds (size {len(self._words)})"
            )
        return addr

    def words(self) -> tuple[Word, ...]:
        """Immutable snapshot of the entire memory contents.

        Used by the eval-harness memoizer to fingerprint a workload's
        prepared inputs.
        """
        return tuple(self._words)

    def load(self, addr: Word) -> Word:
        return self._words[self._check(addr)]

    def store(self, addr: Word, value: Word) -> None:
        addr = self._check(addr)
        if self._watch is not None and addr in self._watch:
            self._watch_hits.append(addr)
        self._words[addr] = value

    def read_array(self, base: int, count: int) -> list[Word]:
        """Read ``count`` consecutive words starting at ``base``."""
        if count == 0:
            return []
        self._check(base)
        self._check(base + count - 1)
        return self._words[base:base + count]

    # ------------------------------------------------------------------
    # Invariance watching (annotation checker support)
    # ------------------------------------------------------------------

    def watch(self, addr: int) -> None:
        """Record ``addr`` as asserted-invariant; stores to it are logged."""
        if self._watch is None:
            self._watch = set()
        self._watch.add(self._check(addr))

    @property
    def watch_violations(self) -> list[int]:
        """Addresses asserted invariant that were subsequently stored to."""
        return list(self._watch_hits)
