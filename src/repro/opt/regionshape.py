"""Region-shape metadata for the code-generating backend.

The Python-codegen backend (:mod:`repro.machine.pycodegen`) lowers a
function's blocks to one generated Python function and needs a *layout*
before it can emit anything: an emission order in which as many control
transfers as possible become straight-line fallthrough, plus the
single-block loops that can be emitted as native ``while`` statements
instead of label dispatch.  The linter's DYC210 check needs the same
shape data to estimate how large the emitted source would be.  Both
consumers share this module so layout policy and size estimation cannot
drift apart.

Layout is greedy trace placement: starting from each not-yet-placed
block (in CFG insertion order, which is deterministic), follow the
fallthrough-preferred successor — a ``Jump`` target, or a ``Branch``'s
false arm (its true arm if the false arm is already placed) — until the
chain dead-ends.  Every chain becomes one contiguous run of dense block
ids, so the emitter can guard a chain with a single range test and let
execution fall from one block into the next.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.function import Function
from repro.ir.instructions import Branch, Jump, Reg

#: Rough emitted-source size per lowered IR instruction (counted mode:
#: semantics plus inlined cycle/step accounting).  Used by the DYC210
#: size-budget estimate; deliberately on the generous side so the lint
#: flags runaway regions before the backend refuses to compile them.
EST_CHARS_PER_INSTR = 110

#: Fixed emitted-source overhead per basic block (dispatch guard,
#: version guard, commit boilerplate).
EST_CHARS_PER_BLOCK = 120


@dataclass(frozen=True)
class RegionShape:
    """Codegen layout metadata for one function's CFG."""

    #: Trace-ordered chains of block labels; concatenated they cover
    #: every block exactly once.
    chains: tuple[tuple[str, ...], ...]
    #: Flattened emission order (``chains`` concatenated).
    order: tuple[str, ...]
    #: label -> dense id, in emission order.  Dense ids are what the
    #: generated dispatch loop switches on.
    ids: dict[str, int]
    #: Labels of single-block loops (a ``Branch`` on a register where
    #: exactly one arm targets the block itself); the emitter turns
    #: these into native ``while`` loops.
    self_loops: frozenset[str]
    #: Total instruction count across all blocks.
    instruction_count: int


def _preferred_successor(block, placed: set) -> str | None:
    """The successor to place immediately after ``block``, if any."""
    if not block.instrs:
        return None
    term = block.instrs[-1]
    cls = type(term)
    if cls is Jump:
        if term.target not in placed:
            return term.target
        return None
    if cls is Branch:
        # Prefer the false arm (loop exits / else branches tend to
        # continue the trace); take the true arm if false is placed.
        if term.if_false not in placed:
            return term.if_false
        if term.if_true not in placed:
            return term.if_true
    return None


def region_shape(fn: Function) -> RegionShape:
    """Compute the codegen layout for ``fn``.

    Unreachable-from-entry blocks are still placed: region code is
    entered at arbitrary labels (promotion continuations, region-exit
    resumes), so every block must be dispatchable.
    """
    placed: set[str] = set()
    chains: list[tuple[str, ...]] = []
    self_loops: set[str] = set()
    instruction_count = 0

    for label, block in fn.blocks.items():
        instruction_count += len(block.instrs)
        if block.instrs:
            term = block.instrs[-1]
            if (type(term) is Branch and type(term.cond) is Reg
                    and (term.if_true == label) != (term.if_false == label)):
                self_loops.add(label)

    for seed in fn.blocks:
        if seed in placed:
            continue
        chain: list[str] = []
        cursor: str | None = seed
        while cursor is not None and cursor not in placed:
            placed.add(cursor)
            chain.append(cursor)
            block = fn.blocks[cursor]
            if cursor in self_loops:
                # The loop body repeats in place; continue the trace at
                # the loop's exit arm.
                term = block.instrs[-1]
                exit_label = (term.if_false if term.if_true == cursor
                              else term.if_true)
                cursor = exit_label if exit_label not in placed else None
            else:
                cursor = _preferred_successor(block, placed)
        chains.append(tuple(chain))

    order = tuple(label for chain in chains for label in chain)
    ids = {label: index for index, label in enumerate(order)}
    return RegionShape(
        chains=tuple(chains),
        order=order,
        ids=ids,
        self_loops=frozenset(self_loops),
        instruction_count=instruction_count,
    )


def estimate_emitted_chars(instruction_count: int,
                           block_count: int = 0) -> int:
    """Rough size in characters of the Python source the codegen backend
    would emit for a function of this shape (counted mode)."""
    return (instruction_count * EST_CHARS_PER_INSTR
            + block_count * EST_CHARS_PER_BLOCK)
