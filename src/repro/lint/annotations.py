"""DYC1xx: annotation safety lints.

DyC's annotations are unsafe programmer assertions (paper §2): ``@``
loads assert invariant memory, ``cache_one_unchecked`` asserts the
promoted values never change, and ``make_static`` on loop induction
variables requests complete multi-way unrolling.  These checks walk the
BTA's results and flag the hazard patterns the paper itself warns about
(stale unchecked dispatch, §2.2.3; unbounded specialization through
dynamic loop exits, §2.2.2 and §2.2.4; invariance violated by region
stores, §2.2.6).
"""

from __future__ import annotations

from repro.analysis.cfg import natural_loops
from repro.analysis.defuse import unreachable_blocks
from repro.analysis.effects import (
    address_root as _address_root,
    def_index as _def_index,
)
from repro.bta.facts import InstrClass, RegionInfo
from repro.config import OptConfig
from repro.dyc.genext import GeneratingExtension
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    Load,
    MakeStatic,
    Store,
)
from repro.lint.diagnostics import Diagnostic, Severity


# ----------------------------------------------------------------------
# Function-level annotation checks (DYC102, DYC105)
# ----------------------------------------------------------------------

def _annotation_sites(function: Function
                      ) -> list[tuple[str, int, MakeStatic]]:
    dead = unreachable_blocks(function)
    sites = []
    for block in function.blocks.values():
        if block.label in dead:
            continue
        for index, instr in enumerate(block.instrs):
            if isinstance(instr, MakeStatic):
                sites.append((block.label, index, instr))
    return sites


def check_unchecked_sources(function: Function) -> list[Diagnostic]:
    """DYC102: ``cache_one_unchecked`` with >1 reachable value source.

    The unchecked policy dispatches through a single unguarded slot
    (§2.2.3); when two different ``make_static`` sites can fill it, the
    second reaching site silently reuses code specialized for the
    first site's values.
    """
    sites = _annotation_sites(function)
    by_var: dict[str, list[tuple[str, int, MakeStatic]]] = {}
    for site in sites:
        for name in site[2].names:
            by_var.setdefault(name, []).append(site)
    diags: list[Diagnostic] = []
    for name, var_sites in by_var.items():
        if len(var_sites) < 2:
            continue
        if not any(s[2].policy == "cache_one_unchecked"
                   for s in var_sites):
            continue
        label, index, _ = var_sites[1]
        others = ", ".join(s[0] for s in var_sites)
        diags.append(Diagnostic(
            code="DYC102",
            severity=Severity.WARNING,
            message=f"variable {name!r} uses cache_one_unchecked but has "
                    f"{len(var_sites)} reachable make_static value "
                    f"sources ({others}); the unchecked slot will "
                    "silently reuse stale code",
            function=function.name,
            block=label,
            index=index,
        ))
    return diags


def check_policy_conflicts(function: Function) -> list[Diagnostic]:
    """DYC105: one variable re-annotated under a different policy."""
    sites = _annotation_sites(function)
    policies: dict[str, dict[str, tuple[str, int]]] = {}
    for label, index, instr in sites:
        for name in instr.names:
            policies.setdefault(name, {}).setdefault(
                instr.policy, (label, index)
            )
    diags: list[Diagnostic] = []
    for name, by_policy in policies.items():
        if len(by_policy) < 2:
            continue
        label, index = sorted(by_policy.values())[-1]
        listing = ", ".join(sorted(by_policy))
        diags.append(Diagnostic(
            code="DYC105",
            severity=Severity.WARNING,
            message=f"variable {name!r} is annotated under conflicting "
                    f"cache policies ({listing}); the binding-time "
                    "analysis keeps only the last one seen",
            function=function.name,
            block=label,
            index=index,
        ))
    return diags


# ----------------------------------------------------------------------
# Region-level annotation checks (DYC101, DYC103, DYC104)
# ----------------------------------------------------------------------

def check_dead_annotations(function: Function,
                           regions: list[RegionInfo]) -> list[Diagnostic]:
    """DYC101: annotated variables the specialized code never reads.

    Every annotated variable should be used by at least one real
    instruction (annotations themselves report no uses); an unused one
    still costs a promotion key slot at every dispatch and widens the
    specialization cache for nothing.
    """
    used: set[str] = set()
    for _, _, instr in function.instructions():
        used.update(instr.uses())
    diags: list[Diagnostic] = []
    for region in regions:
        for name in sorted(region.policies):
            if name in used:
                continue
            diags.append(Diagnostic(
                code="DYC101",
                severity=Severity.WARNING,
                message=f"make_static({name}) is dead: the variable is "
                        "never used inside (or after) its dynamic "
                        "region",
                function=function.name,
                block=region.entry_block,
            ))
    return diags


def check_static_load_stores(function: Function,
                             regions: list[RegionInfo]
                             ) -> list[Diagnostic]:
    """DYC103: ``@``-loads from arrays the same region stores into.

    The ``@`` annotation asserts the loaded location is invariant, so
    the specializer folds it once at dynamic compile time (§2.2.6).  A
    store in the same region whose address derives from the same base
    variable makes that assertion suspect: the cached value can go
    stale within a single region execution.
    """
    defs = _def_index(function)
    diags: list[Diagnostic] = []
    for region in regions:
        store_roots: dict[str, tuple[str, int]] = {}
        loads: list[tuple[str, int, str]] = []  # (label, index, root)
        for label in sorted(region.blocks):
            block = function.blocks.get(label)
            if block is None:
                continue
            for index, instr in enumerate(block.instrs):
                if isinstance(instr, Store):
                    root = _address_root(function, instr.addr, defs)
                    if root is not None:
                        store_roots.setdefault(root, (label, index))
                elif isinstance(instr, Load) and instr.static:
                    root = _address_root(function, instr.addr, defs)
                    if root is not None:
                        loads.append((label, index, root))
        for label, index, root in loads:
            hit = store_roots.get(root)
            if hit is None:
                continue
            diags.append(Diagnostic(
                code="DYC103",
                severity=Severity.WARNING,
                message=f"@-load from {root!r}, but the same region "
                        f"stores through {root!r} (at {hit[0]}[{hit[1]}])"
                        "; the invariance assertion of '@' may not hold",
                function=function.name,
                block=label,
                index=index,
            ))
    return diags


def _dynamic_exit_loops(function: Function,
                        region: RegionInfo) -> dict[str, frozenset[str]]:
    """Headers of loops with a dynamic exit branch -> their body labels.

    A loop exits dynamically when some member block ends in a branch
    that (a) the BTA classifies dynamic in at least one context and
    (b) has a successor outside the loop.  Complete unrolling of such
    a loop is *unbounded*: the specializer cannot fold the exit test,
    so every promoted iteration value spawns another specialization.
    """
    dynamic_branch_blocks: set[str] = set()
    for (label, _), facts in region.contexts.items():
        if facts.classes and facts.classes[-1] is InstrClass.DYNAMIC_BRANCH:
            dynamic_branch_blocks.add(label)
    result: dict[str, frozenset[str]] = {}
    for loop in natural_loops(function):
        for label in loop.body:
            if label not in dynamic_branch_blocks:
                continue
            block = function.blocks[label]
            if not isinstance(block.instrs[-1], Branch):
                continue
            if any(succ not in loop.body
                   for succ in block.instrs[-1].successors()):
                result[loop.header] = frozenset(loop.body)
                break
    return result


def check_unbounded_unrolling(function: Function,
                              regions: list[RegionInfo],
                              config: OptConfig) -> list[Diagnostic]:
    """DYC104: promotions of loop-variant variables in dynamic loops.

    An internal promotion point inside a loop whose exit test stays
    dynamic re-dispatches on every iteration with a fresh value: the
    promotion cache grows without bound and specialization never
    converges (the cache-blowup risk of multi-way unrolling, §2.2.2).
    Disabled when complete loop unrolling is off — the BTA then demotes
    loop-variant variables at loop headers, removing the hazard.
    """
    if not config.complete_loop_unrolling:
        return []
    loop_defs: dict[str, set[str]] = {}
    diags: list[Diagnostic] = []
    for region in regions:
        risky = _dynamic_exit_loops(function, region)
        for header, body in risky.items():
            if header not in loop_defs:
                defined: set[str] = set()
                for label in body:
                    for instr in function.blocks[label].instrs:
                        defined.update(instr.defs())
                loop_defs[header] = defined
        for point in region.promotions.values():
            if point.kind == "entry":
                continue
            for header, body in risky.items():
                if point.block not in body:
                    continue
                variant = [n for n in point.names
                           if n in loop_defs[header]]
                if not variant:
                    continue
                names = ", ".join(variant)
                diags.append(Diagnostic(
                    code="DYC104",
                    severity=Severity.WARNING,
                    message=f"promotion of loop-variant variable(s) "
                            f"{names} inside loop {header!r}, whose exit "
                            "test is dynamic: multi-way unrolling is "
                            "unbounded and the promotion cache can grow "
                            "without limit",
                    function=function.name,
                    block=point.block,
                    index=point.index,
                ))
                break
    return diags


def check_runaway_unrolling(function: Function,
                            genext: GeneratingExtension
                            ) -> list[Diagnostic]:
    """DYC106: loops whose complete unrolling provably never ends.

    Reads the record the generating extension proved when it was built
    (:func:`repro.dyc.genext.find_runaway_loops`): a static variable
    that only grows or only shrinks around a loop whose exit tests never
    read it mints a fresh specialization context on every trip, so the
    specializer fails such a region without running it (§2.2.4's
    multi-way unrolling, with nothing to bound it).
    """
    diags: list[Diagnostic] = []
    seen: set[tuple[str, str]] = set()
    for loop in genext.runaway.values():
        if (loop.header, loop.variable) in seen:
            continue
        seen.add((loop.header, loop.variable))
        diags.append(Diagnostic(
            code="DYC106",
            severity=Severity.WARNING,
            message=f"{loop.reason}; complete unrolling never terminates",
            function=function.name,
            block=loop.header,
        ))
    return diags
