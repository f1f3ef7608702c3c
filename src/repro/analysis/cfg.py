"""Orders, dominators, and natural loops over :class:`Function` CFGs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.function import Function


def postorder(function: Function) -> list[str]:
    """Block labels in depth-first postorder from the entry."""
    visited: set[str] = set()
    order: list[str] = []

    # Iterative DFS to avoid recursion limits on long unrolled CFGs.
    stack: list[tuple[str, int]] = [(function.entry, 0)]
    succs = {
        label: block.successors()
        for label, block in function.blocks.items()
    }
    visited.add(function.entry)
    while stack:
        label, child_index = stack.pop()
        children = succs[label]
        while child_index < len(children):
            child = children[child_index]
            child_index += 1
            if child not in visited:
                visited.add(child)
                stack.append((label, child_index))
                stack.append((child, 0))
                break
        else:
            order.append(label)
    return order


def reverse_postorder(function: Function) -> list[str]:
    """Block labels in reverse postorder (a topological-ish order)."""
    return list(reversed(postorder(function)))


def immediate_dominators(function: Function) -> dict[str, str | None]:
    """Cooper-Harvey-Kennedy iterative immediate-dominator computation.

    Returns a map from block label to its immediate dominator label; the
    entry maps to ``None``.  Unreachable blocks are absent.
    """
    rpo = reverse_postorder(function)
    index = {label: i for i, label in enumerate(rpo)}
    preds = function.predecessors()
    idom: dict[str, str | None] = {function.entry: None}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == function.entry:
                continue
            candidates = [
                p for p in preds[label] if p in idom and p in index
            ]
            if not candidates:
                continue
            new_idom = candidates[0]
            for p in candidates[1:]:
                new_idom = intersect(new_idom, p)
            if idom.get(label) != new_idom:
                idom[label] = new_idom
                changed = True
    return idom


def dominator_sets(function: Function) -> dict[str, set[str]]:
    """Full dominator sets (including the block itself)."""
    idom = immediate_dominators(function)
    doms: dict[str, set[str]] = {}
    for label in idom:
        chain = {label}
        current = idom[label]
        while current is not None:
            chain.add(current)
            current = idom[current]
        doms[label] = chain
    return doms


def back_edges(function: Function) -> list[tuple[str, str]]:
    """CFG edges (tail, head) where ``head`` dominates ``tail``."""
    doms = dominator_sets(function)
    edges = []
    for label, block in function.blocks.items():
        if label not in doms:
            continue  # unreachable
        for succ in block.successors():
            if succ in doms.get(label, set()):
                edges.append((label, succ))
    return edges


@dataclass
class Loop:
    """A natural loop: its header and the set of member block labels."""

    header: str
    body: set[str] = field(default_factory=set)

    def __contains__(self, label: str) -> bool:
        return label in self.body


def natural_loops(function: Function) -> list[Loop]:
    """Natural loops from back edges; loops sharing a header are merged."""
    preds = function.predecessors()
    by_header: dict[str, Loop] = {}
    for tail, head in back_edges(function):
        loop = by_header.setdefault(head, Loop(header=head, body={head}))
        worklist = [tail]
        while worklist:
            label = worklist.pop()
            if label in loop.body:
                continue
            loop.body.add(label)
            worklist.extend(preds.get(label, ()))
    return list(by_header.values())


def loop_body_map(function: Function) -> dict[str, set[str]]:
    """Map each block label to the headers of all loops containing it."""
    membership: dict[str, set[str]] = {
        label: set() for label in function.blocks
    }
    for loop in natural_loops(function):
        for label in loop.body:
            membership[label].add(loop.header)
    return membership
