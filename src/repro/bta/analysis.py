"""The binding-time analysis proper.

A flow-sensitive, program-point-specific forward analysis over contexts
``(block, division)``.  The dataflow value is the pair ``(S, D)`` — the
set of static variables and the division (annotated variables in force) —
with set intersection as the meet.  With polyvariant division enabled the
division is part of the context key, so joins with differing divisions
*split* the analysis instead of merging it (§2.2.5); with it disabled,
divisions meet by intersection like everything else.

The analysis also:

* discovers the dynamic region's extent ("ending after the last use of
  any static value", §2.2) and its exit edges;
* places promotion points (region entry, internal annotation promotions,
  and dynamic-assignment promotions, §2.2.1–2.2.2);
* when complete loop unrolling is disabled (the Table 5 ablation),
  demotes loop-variant variables at loop headers so loops are left
  rolled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import natural_loops
from repro.analysis.liveness import liveness
from repro.bta.annotations import (
    collect_annotations,
    split_at_annotations,
)
from repro.bta.facts import (
    ContextFacts,
    Division,
    EMPTY_DIVISION,
    InstrClass,
    PromotionPoint,
    RegionInfo,
)
from repro.errors import BTAError
from repro.config import OptConfig
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Imm,
    Instr,
    Jump,
    Load,
    MakeDynamic,
    MakeStatic,
    Move,
    Reg,
    Return,
    Store,
    UnOp,
)
from repro.machine.intrinsics import INTRINSICS

StaticSet = frozenset[str]
State = tuple[StaticSet, Division]


def _operands_static(instr: Instr, static: StaticSet) -> bool:
    """True when every register operand of ``instr`` is static."""
    return all(name in static for name in instr.uses())


@dataclass
class _Outcome:
    """Result of transferring one block in one context."""

    facts: ContextFacts
    #: (successor label, state flowing to it); exits excluded.
    successors: list[tuple[str, State]]
    #: Successor labels that leave the region.
    exits: list[str]


class BindingTimeAnalysis:
    """Runs the BTA for one function, producing its dynamic regions."""

    def __init__(self, function: Function, config: OptConfig,
                 module: Module | None = None,
                 first_region_id: int = 0) -> None:
        self.function = function
        self.config = config
        self.module = module
        self.first_region_id = first_region_id
        self.liveness = liveness(function)
        self.loop_defs = self._compute_loop_defs()
        self._promotion_counter = 0

    # ------------------------------------------------------------------
    # Public driver
    # ------------------------------------------------------------------

    def run(self) -> list[RegionInfo]:
        """Analyze every annotation-rooted region in the function."""
        regions: list[RegionInfo] = []
        claimed: set[str] = set()
        for site in collect_annotations(self.function):
            if site.block in claimed:
                continue  # interior annotation of an earlier region
            region_id = self.first_region_id + len(regions)
            region = self._analyze_region(region_id, site)
            regions.append(region)
            claimed |= region.blocks
        return regions

    # ------------------------------------------------------------------
    # Per-region fixpoint
    # ------------------------------------------------------------------

    def _analyze_region(self, region_id: int, site) -> RegionInfo:
        region = RegionInfo(
            region_id=region_id,
            function_name=self.function.name,
            entry_block=site.block,
            entry_keys=site.names,
            entry_policy=site.policy,
        )
        self._promotion_counter = 0

        # --- fixpoint over (block, division) contexts -------------------
        poly = self.config.polyvariant_division

        def key_of(label: str, division: Division):
            return (label, division) if poly else (label,)

        entry_state: State = (frozenset(), EMPTY_DIVISION)
        states: dict[object, State] = {
            key_of(site.block, EMPTY_DIVISION): entry_state,
        }
        entry_divisions: dict[object, Division] = {
            key_of(site.block, EMPTY_DIVISION): EMPTY_DIVISION,
        }
        worklist = [key_of(site.block, EMPTY_DIVISION)]
        labels_of_key = {key_of(site.block, EMPTY_DIVISION): site.block}

        while worklist:
            key = worklist.pop()
            label = labels_of_key[key]
            static_in, division_in = states[key]
            outcome = self._transfer(
                region, label, static_in, division_in, record=False
            )
            for succ, (succ_static, succ_division) in outcome.successors:
                succ_key = key_of(succ, succ_division)
                labels_of_key[succ_key] = succ
                if succ_key not in states:
                    states[succ_key] = (succ_static, succ_division)
                    worklist.append(succ_key)
                else:
                    old_static, old_division = states[succ_key]
                    met = (old_static & succ_static,
                           old_division & succ_division)
                    if met != states[succ_key]:
                        states[succ_key] = met
                        worklist.append(succ_key)

        # --- final recording pass ---------------------------------------
        exit_labels: list[str] = []
        for key, (static_in, division_in) in states.items():
            label = labels_of_key[key]
            outcome = self._transfer(
                region, label, static_in, division_in, record=True
            )
            region.contexts[(label, outcome.facts.division)] = outcome.facts
            region.blocks.add(label)
            for exit_label in outcome.exits:
                if exit_label not in exit_labels:
                    exit_labels.append(exit_label)

        region.exits = tuple(sorted(exit_labels))
        # The entry dispatch is keyed on the variables actually promoted
        # at the region-entry annotation (annotated *and* live there).
        entry_promotions = [
            p for p in region.promotions.values() if p.kind == "entry"
        ]
        region.entry_keys = (
            entry_promotions[0].names if entry_promotions else ()
        )
        region.live_in = {
            label: self.liveness.live_in[label]
            for label in self.function.blocks
        }
        return region

    # ------------------------------------------------------------------
    # Block transfer
    # ------------------------------------------------------------------

    def _transfer(self, region: RegionInfo, label: str,
                  static_in: StaticSet, division_in: Division,
                  record: bool) -> _Outcome:
        block = self.function.blocks[label]
        static = set(static_in)
        division = set(division_in)

        # Loop-variant variables at a loop header: only *annotated* ones
        # may stay static (they request complete unrolling, as Figure 2's
        # crow/ccol do).  Unannotated derived statics that vary around
        # the loop (irow = crowso2; irow = irow + 1 under a dynamic exit
        # test) are demoted — otherwise specialization would speculate
        # through a dynamic loop without bound.  With the unrolling
        # ablation, annotated ones are demoted too.
        variant = self.loop_defs.get(label)
        if variant:
            if self.config.complete_loop_unrolling:
                static -= (variant - division)
            else:
                static -= variant
                division -= variant

        facts = ContextFacts(
            label=label,
            division=frozenset(division_in),
            static_in=frozenset(static),
        )

        for index, instr in enumerate(block.instrs):
            before = frozenset(static)
            klass, promotion = self._classify_instr(
                region, label, index, instr, static, division,
                frozenset(division_in),
            )
            facts.classes.append(klass)
            facts.static_before.append(before)
            if promotion is not None:
                facts.promotions[index] = promotion
                if record:
                    region.promotions[promotion.point_id] = promotion

        static_out = frozenset(static)
        division_out = frozenset(division)
        facts.static_out = static_out
        facts.division_out = division_out

        successors: list[tuple[str, State]] = []
        exits: list[str] = []
        for succ in block.successors():
            live = self.liveness.live_in[succ]
            usable = static_out & live
            # Demote loop-variant variables on the edge into the loop
            # header, so every edge agrees on the context key (annotated
            # ones survive unless the unrolling ablation is active).
            variant = self.loop_defs.get(succ)
            edge_division = division_out
            if variant:
                if self.config.complete_loop_unrolling:
                    usable -= (variant - division_out)
                else:
                    usable -= variant
                    edge_division = division_out - variant
            if usable:
                # The region continues: besides the live statics, carry
                # every *annotated* static along even where it is
                # momentarily dead — an annotation keeps its variable
                # static for the rest of the region (so a path on which
                # pc is dead, e.g. an interpreter's halt arm, does not
                # demote pc at the loop-head meet).  The division is
                # likewise never intersected with liveness.
                carried = usable | (static_out & edge_division)
                successors.append((succ, (carried, edge_division)))
                facts.succ_division[succ] = edge_division
            else:
                # No live static value flows along this edge: the region
                # ends here ("after the last use of any static value").
                exits.append(succ)
        facts.exit_successors = frozenset(exits)
        return _Outcome(facts=facts, successors=successors, exits=exits)

    def _classify_instr(self, region: RegionInfo, label: str, index: int,
                        instr: Instr, static: set[str],
                        division: set[str],
                        division_key: Division):
        """Classify one instruction, updating ``static``/``division``.

        Returns ``(InstrClass, PromotionPoint | None)``.
        """
        cls = type(instr)

        if cls is MakeStatic:
            for name in instr.names:
                region.policies[name] = instr.policy
            # Only variables that are live here carry a value to promote;
            # the rest (e.g. loop indices annotated before their first
            # assignment, as in Figure 2) merely join the division and
            # become static when assigned a static value.
            live_here = self.liveness.live_before(
                self.function, label, index
            )
            promoted = tuple(
                name for name in instr.names
                if name not in static and name in live_here
            )
            division.update(instr.names)
            static.update(promoted)
            if promoted:
                kind = "entry" if (
                    label == region.entry_block and index == 0
                ) else "annotation"
                promotion = self._promotion(
                    region, label, index, division_key, promoted,
                    instr.policy, kind,
                )
                return InstrClass.ANNOTATION, promotion
            return InstrClass.ANNOTATION, None

        if cls is MakeDynamic:
            for name in instr.names:
                static.discard(name)
                division.discard(name)
            return InstrClass.ANNOTATION, None

        if cls in (Move, UnOp, BinOp):
            if _operands_static(instr, static):
                static.add(instr.dest)
                return InstrClass.STATIC, None
            return self._dynamic_def(
                region, label, index, instr, instr.dest, static,
                division, division_key,
            )

        if cls is Load:
            addr_static = _operands_static(instr, static)
            if instr.static and self.config.static_loads and addr_static:
                static.add(instr.dest)
                return InstrClass.STATIC_LOAD, None
            return self._dynamic_def(
                region, label, index, instr, instr.dest, static,
                division, division_key,
            )

        if cls is Call:
            args_static = _operands_static(instr, static)
            if (instr.static and self.config.static_calls and args_static
                    and self._callee_is_pure(instr.callee)):
                if instr.dest is not None:
                    static.add(instr.dest)
                return InstrClass.STATIC_CALL, None
            if instr.dest is None:
                return InstrClass.DYNAMIC, None
            return self._dynamic_def(
                region, label, index, instr, instr.dest, static,
                division, division_key,
            )

        if cls is Store:
            return InstrClass.DYNAMIC, None

        if cls is Branch:
            cond_static = _operands_static(instr, static)
            if cond_static:
                return InstrClass.STATIC_BRANCH, None
            return InstrClass.DYNAMIC_BRANCH, None

        if cls in (Jump, Return):
            return InstrClass.DYNAMIC, None

        raise BTAError(
            f"unexpected instruction {type(instr).__name__} during BTA"
        )

    def _dynamic_def(self, region: RegionInfo, label: str, index: int,
                     instr: Instr, dest: str, static: set[str],
                     division: set[str], division_key: Division):
        """A dynamic computation defines ``dest``.

        If ``dest`` is an annotated static variable, this is the §2.2.2
        situation: insert an internal promotion (when enabled) so that
        specialization on ``dest`` resumes after a cache check; otherwise
        the variable is demoted.
        """
        if dest in division:
            live_after = self.liveness.live_before(
                self.function, label, index + 1
            )
            if self.config.internal_promotions and dest in live_after:
                policy = region.policies.get(dest, "cache_all")
                promotion = self._promotion(
                    region, label, index, division_key, (dest,), policy,
                    "assignment",
                )
                # dest stays static downstream of the promotion.
                static.add(dest)
                return InstrClass.PROMOTION, promotion
            division.discard(dest)
        static.discard(dest)
        return InstrClass.DYNAMIC, None

    def _promotion(self, region: RegionInfo, label: str, index: int,
                   division_key: Division, names: tuple[str, ...],
                   policy: str, kind: str) -> PromotionPoint:
        """Allocate (or re-find) the promotion point at this site."""
        for existing in region.promotions.values():
            if (existing.block == label and existing.index == index
                    and existing.names == names):
                return existing
        point_id = self._promotion_counter
        self._promotion_counter += 1
        return PromotionPoint(
            point_id=point_id, block=label, index=index, names=names,
            policy=policy, kind=kind,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _callee_is_pure(self, callee: str) -> bool:
        intrinsic = INTRINSICS.get(callee)
        if intrinsic is not None:
            return intrinsic.pure
        # Module functions reached through a static call: the front end
        # already restricted the flag to `pure func`, but double-check the
        # callee exists so specialize-time evaluation cannot fault.
        return self.module is not None and callee in self.module.functions

    def _compute_loop_defs(self) -> dict[str, frozenset[str]]:
        """Map loop-header label -> variables defined inside the loop."""
        result: dict[str, frozenset[str]] = {}
        for loop in natural_loops(self.function):
            defs: set[str] = set()
            for label in loop.body:
                for instr in self.function.blocks[label].instrs:
                    defs.update(instr.defs())
            result[loop.header] = frozenset(defs)
        return result

def analyze_function(function: Function, config: OptConfig,
                     module: Module | None = None,
                     first_region_id: int = 0) -> list[RegionInfo]:
    """Split annotations to block boundaries, then run the BTA.

    The function is modified in place (block splitting); each returned
    region additionally carries a ``template`` snapshot of the function
    (:meth:`Function.copy`) for the generating-extension builder to
    consume after the host function has been rewritten.
    """
    split_at_annotations(function)
    analysis = BindingTimeAnalysis(
        function, config, module=module, first_region_id=first_region_id
    )
    regions = analysis.run()
    if regions:
        snapshot = function.copy()
        for region in regions:
            region.template = snapshot
    return regions
