"""Result structures produced by the binding-time analysis."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ir.function import Function

#: A *division*: the set of annotated variables currently assumed static
#: (§2.2.5).  With polyvariant division enabled, the same block may be
#: analyzed once per distinct division flowing into it.
Division = frozenset[str]

EMPTY_DIVISION: Division = frozenset()


class InstrClass(enum.Enum):
    """Binding-time classification of one instruction in one context."""

    STATIC = "static"               # evaluated once, at dynamic compile time
    STATIC_LOAD = "static_load"     # @-load folded at dynamic compile time
    STATIC_CALL = "static_call"     # pure call memoized at dyn compile time
    DYNAMIC = "dynamic"             # emitted into the specialized code
    STATIC_BRANCH = "static_branch"  # folded: specializer picks the arm
    DYNAMIC_BRANCH = "dynamic_branch"  # emitted; both arms specialized
    ANNOTATION = "annotation"       # make_static / make_dynamic
    PROMOTION = "promotion"         # dynamic assignment to an annotated var


@dataclass(frozen=True)
class PromotionPoint:
    """An internal dynamic-to-static promotion (§2.2.2).

    ``kind`` is ``"entry"`` for the region-entry promotion,
    ``"annotation"`` for a ``make_static`` executed where some listed
    variable is currently dynamic, and ``"assignment"`` for a dynamic
    value assigned to an annotated static variable.
    """

    point_id: int
    block: str
    index: int
    names: tuple[str, ...]
    policy: str
    kind: str


@dataclass
class ContextFacts:
    """Per-(block, division) facts for the generating-extension builder."""

    label: str
    division: Division
    #: Static set at block entry (restricted to variables live at entry).
    static_in: frozenset[str]
    #: Per-instruction classification.
    classes: list[InstrClass] = field(default_factory=list)
    #: Per-instruction static set *before* that instruction (used to turn
    #: static operands of dynamic instructions into template holes).
    static_before: list[frozenset[str]] = field(default_factory=list)
    #: Division at block exit (annotations inside the block may change it).
    division_out: Division = EMPTY_DIVISION
    #: Static set at block exit.
    static_out: frozenset[str] = frozenset()
    #: Promotion triggered by an instruction index, if any.
    promotions: dict[int, PromotionPoint] = field(default_factory=dict)
    #: For each successor label: is the edge a region exit?
    exit_successors: frozenset[str] = frozenset()
    #: For each non-exit successor label: the division flowing to it
    #: (the context key the generating extension must target).
    succ_division: dict[str, Division] = field(default_factory=dict)


@dataclass
class RegionInfo:
    """Everything known statically about one dynamic region."""

    region_id: int
    function_name: str
    entry_block: str
    entry_keys: tuple[str, ...]
    entry_policy: str
    #: The region's template CFG (a snapshot of the host function taken
    #: before the host was rewritten to dispatch through the code cache).
    template: Function | None = None
    #: Region member block labels.
    blocks: set[str] = field(default_factory=set)
    #: Ordered region-exit target labels (indices = ExitRegion operands).
    exits: tuple[str, ...] = ()
    #: (label, division) -> facts.
    contexts: dict[tuple[str, Division], ContextFacts] = field(
        default_factory=dict
    )
    #: Variables live at entry of each block (host-function liveness),
    #: used to key specialization contexts on live static variables only.
    live_in: dict[str, frozenset[str]] = field(default_factory=dict)
    #: All promotion points, by id.
    promotions: dict[int, PromotionPoint] = field(default_factory=dict)
    #: Per-variable cache policy (from annotations).
    policies: dict[str, str] = field(default_factory=dict)

    @property
    def division_count(self) -> int:
        """Number of distinct divisions across the region's contexts."""
        return len({division for (_, division) in self.contexts})
