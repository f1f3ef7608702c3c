"""Dominator tree over :class:`Function` CFGs.

:mod:`repro.analysis.cfg` computes immediate dominators (the
Cooper-Harvey-Kennedy iteration); this module packages them into a
queryable tree.  The dataflow verifier uses ``dominates`` as its fast
path for def-before-use checking (a definition in a strictly dominating
block is executed on every path to the use), and ``reachable`` to find
blocks the entry cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import immediate_dominators
from repro.ir.function import Function


@dataclass
class DominatorTree:
    """The dominator tree of one function's CFG.

    Dominance queries are answered in O(1) using the classic Euler-tour
    interval trick: ``a`` dominates ``b`` iff ``a``'s DFS interval over
    the dominator tree encloses ``b``'s.
    """

    entry: str
    #: Block label -> immediate dominator label (entry -> None).
    #: Unreachable blocks are absent.
    idom: dict[str, str | None]
    #: Block label -> labels it immediately dominates, in insertion order.
    children: dict[str, list[str]] = field(default_factory=dict)
    _enter: dict[str, int] = field(default_factory=dict, repr=False)
    _leave: dict[str, int] = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, function: Function) -> "DominatorTree":
        idom = immediate_dominators(function)
        tree = cls(entry=function.entry, idom=idom)
        tree.children = {label: [] for label in idom}
        for label, parent in idom.items():
            if parent is not None:
                tree.children[parent].append(label)
        tree._number()
        return tree

    def _number(self) -> None:
        """Assign DFS enter/leave intervals over the dominator tree."""
        clock = 0
        stack: list[tuple[str, bool]] = [(self.entry, False)]
        while stack:
            label, done = stack.pop()
            if done:
                self._leave[label] = clock
                clock += 1
                continue
            self._enter[label] = clock
            clock += 1
            stack.append((label, True))
            for child in reversed(self.children.get(label, ())):
                stack.append((child, False))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def reachable(self) -> frozenset[str]:
        """Labels of blocks reachable from the entry."""
        return frozenset(self.idom)

    def dominates(self, a: str, b: str) -> bool:
        """True when every entry-to-``b`` path passes through ``a``.

        A block dominates itself.  Queries involving unreachable blocks
        return False (they have no dominators).
        """
        if a not in self._enter or b not in self._enter:
            return False
        return (self._enter[a] <= self._enter[b]
                and self._leave[b] <= self._leave[a])

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def depth(self, label: str) -> int:
        """Distance from the entry in the dominator tree (entry = 0)."""
        depth = 0
        current = self.idom.get(label)
        while current is not None:
            depth += 1
            current = self.idom[current]
        return depth

