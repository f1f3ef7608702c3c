"""Generic monotone-fixpoint dataflow engine.

One worklist solver serves the dataflow analyses and optimizer passes
listed below — forward and backward, may and must.  An analysis is a
:class:`DataflowProblem`: a lattice (``join``/``equal``), a
``transfer`` function over whole blocks, and boundary and
initialization values.  The solver iterates a priority worklist ordered
by reverse postorder (forward) or postorder (backward), which visits
acyclic regions once and converges loops in a handful of sweeps.  Every
lattice here has finite height, so the solver needs no widening.

Clients:

* :func:`repro.analysis.liveness.liveness` — backward may (union)
* :func:`repro.analysis.defuse.definitely_assigned` — forward must
  (intersection)
* :func:`repro.opt.constprop.constant_propagation` — forward, over a
  flat constant lattice per register
* :func:`repro.opt.copyprop.copy_propagation` — forward must, over
  available copies

The interprocedural effect summaries
(:func:`repro.analysis.effects.effect_summaries`) iterate over
call-graph SCCs with their own loop, not with :func:`solve`.

The reference implementations of liveness and definite assignment live
on in :mod:`repro.analysis.legacy`; debug-mode pass verification and
the differential test suite cross-check the ports against them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.analysis.cfg import postorder, reverse_postorder
from repro.ir.function import Function

V = TypeVar("V")

FORWARD = "forward"
BACKWARD = "backward"


class DataflowProblem(Generic[V]):
    """One dataflow analysis: a lattice plus a block transfer function.

    Subclasses set ``direction`` and implement the four hooks.  The
    *direction-relative* convention: ``transfer`` receives the fact at
    the block's input edge (entry for forward problems, exit for
    backward ones) and returns the fact at its output edge.  The solver
    translates back to program order in the result (``before`` is
    always the block-entry fact, ``after`` the block-exit fact).
    """

    #: ``FORWARD`` or ``BACKWARD``.
    direction: str = FORWARD
    #: ``"reachable"`` restricts the solution to blocks reachable from
    #: the entry (must-analyses have no meaningful value for dead
    #: blocks); ``"all"`` also converges unreachable blocks, matching
    #: the historical whole-CFG behaviour of liveness.
    scope: str = "reachable"

    def boundary(self, function: Function) -> V:
        """Value at the boundary: function entry (forward) / exits
        (backward — blocks with no successors)."""
        raise NotImplementedError

    def initial(self, function: Function, label: str) -> V:
        """Optimistic initial value for non-boundary blocks (lattice
        top for must-problems, bottom for may-problems)."""
        raise NotImplementedError

    def join(self, a: V, b: V) -> V:
        """Combine facts where control-flow edges meet."""
        raise NotImplementedError

    def transfer(self, function: Function, label: str, value: V) -> V:
        """Push a fact through one block, input edge to output edge."""
        raise NotImplementedError

    def equal(self, a: V, b: V) -> bool:
        return a == b


@dataclass
class DataflowResult(Generic[V]):
    """The fixpoint, in *program order* regardless of direction.

    ``before[label]`` is the fact at block entry, ``after[label]`` the
    fact at block exit.  Only blocks in the problem's scope appear.
    """

    before: dict[str, V]
    after: dict[str, V]


def _unreachable(function: Function, reachable: list[str]) -> list[str]:
    known = set(reachable)
    return sorted(label for label in function.blocks if label not in known)


def solve(function: Function,
          problem: DataflowProblem[V]) -> DataflowResult[V]:
    """Run ``problem`` to its fixpoint over ``function``'s CFG."""
    forward = problem.direction == FORWARD
    order = (reverse_postorder(function) if forward
             else postorder(function))
    if problem.scope == "all":
        order = order + _unreachable(function, order)
    members = set(order)
    position = {label: i for i, label in enumerate(order)}

    succs = {
        label: [s for s in function.blocks[label].successors()
                if s in members]
        for label in order
    }
    preds: dict[str, list[str]] = {label: [] for label in order}
    for label, targets in succs.items():
        for succ in targets:
            preds[succ].append(label)

    if forward:
        edges_in, edges_out = preds, succs
        boundary_labels = {function.entry}
    else:
        edges_in, edges_out = succs, preds
        # Exit blocks: no successors (Return/Promote/ExitRegion ends).
        boundary_labels = {
            label for label in order if not succs[label]
        }

    boundary = problem.boundary(function)
    in_facts: dict[str, V] = {}
    out_facts: dict[str, V] = {}

    worklist: list[tuple[int, str]] = [
        (position[label], label) for label in order
    ]
    heapq.heapify(worklist)
    queued = set(order)

    while worklist:
        _, label = heapq.heappop(worklist)
        if label not in queued:
            continue
        queued.discard(label)

        if label in boundary_labels:
            # Boundary facts are pinned: the entry's assigned-set is
            # exactly the parameters even when a back edge re-enters it,
            # matching the reference implementations.
            in_fact = boundary
        else:
            in_fact: V | None = None  # type: ignore[no-redef]
            for source in edges_in[label]:
                fact = out_facts.get(source)
                if fact is None:
                    continue  # not yet visited: optimistically skipped
                in_fact = fact if in_fact is None \
                    else problem.join(in_fact, fact)
            if in_fact is None:
                in_fact = problem.initial(function, label)

        out_fact = problem.transfer(function, label, in_fact)
        in_facts[label] = in_fact
        if label not in out_facts \
                or not problem.equal(out_facts[label], out_fact):
            out_facts[label] = out_fact
            for target in edges_out[label]:
                if target not in queued:
                    queued.add(target)
                    heapq.heappush(worklist, (position[target], target))

    if forward:
        before, after = in_facts, out_facts
    else:
        before, after = out_facts, in_facts
    return DataflowResult(before=before, after=after)


# ----------------------------------------------------------------------
# Reusable set lattices
# ----------------------------------------------------------------------

class SetUnionProblem(DataflowProblem[frozenset]):
    """May-analysis base: facts are sets, join is union, init empty."""

    def boundary(self, function: Function) -> frozenset:
        return frozenset()

    def initial(self, function: Function, label: str) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b


class SetIntersectProblem(DataflowProblem[frozenset]):
    """Must-analysis base: join is intersection, init is the universe.

    Subclasses implement :meth:`universe` (lattice top); the solver's
    optimistic skip of unvisited predecessors supplies the rest.
    """

    def universe(self, function: Function) -> frozenset:
        raise NotImplementedError

    def initial(self, function: Function, label: str) -> frozenset:
        return self.universe(function)

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b
