"""Unspecialized execution paths for the graceful-degradation ladder.

Two builders live here, both deriving ordinary dynamic code from a
region's *template* (the pre-rewrite snapshot of the host CFG that
:class:`~repro.bta.facts.RegionInfo` keeps):

:func:`build_fallback_function`
    The bottom rung: a standalone :class:`~repro.ir.function.Function`
    that executes the whole region dynamically, exactly as the statically
    compiled program would, ending in ``ExitRegion`` thunks at the
    region's exit edges.  The region dispatcher runs it when
    specialization failed (or the context is quarantined); no specialized
    state is needed, because the region's entry environment is the host
    environment itself.

:func:`ensure_dynamic_blocks`
    The budget-truncation rung: a fully dynamic copy of every template
    block *inside* an existing :class:`SpecializedCode` buffer.  When a
    specialization batch overruns its context budget mid-unrolling, each
    unfinished context is replaced by a truncation block that residualizes
    its static store and jumps into these blocks — converting the runaway
    unrolling into an ordinary dynamic loop while keeping every context
    already specialized.

Annotation markers (``MakeStatic``/``MakeDynamic``) are stripped: they
are free no-ops at execution time, but the fallback should look like the
statically compiled code, which never carries them.
"""

from __future__ import annotations

from repro.errors import SpecializationError
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Branch,
    ExitRegion,
    Jump,
    MakeDynamic,
    MakeStatic,
    Return,
)


def _body_instrs(block) -> list:
    """A template block's non-terminator instructions, annotations gone."""
    return [
        instr for instr in block.instrs[:-1]
        if not isinstance(instr, (MakeStatic, MakeDynamic))
    ]


def build_fallback_function(region) -> Function:
    """Build the unspecialized dynamic execution of ``region``.

    The returned function shares the template's block labels (entry
    included) and rewrites every region-exit edge into an ``ExitRegion``
    terminator/thunk, so ``Machine.exec_region_code`` can run it in
    the host environment exactly like specialized code.
    """
    template = region.template
    if template is None:
        raise SpecializationError(
            f"region {region.region_id} has no template snapshot",
            region_id=region.region_id,
        )
    exit_index = {label: i for i, label in enumerate(region.exits)}
    fn = Function(name=f"region{region.region_id}$fallback", params=())
    fn.entry = region.entry_block

    def exit_thunk(index: int) -> str:
        label = f"$exit{index}"
        if label not in fn.blocks:
            fn.blocks[label] = BasicBlock(label, [ExitRegion(index)])
        return label

    for label in sorted(region.blocks):
        block = template.blocks[label]
        instrs = _body_instrs(block)
        term = block.instrs[-1]
        if isinstance(term, Jump):
            if term.target in exit_index:
                instrs.append(ExitRegion(exit_index[term.target]))
            else:
                instrs.append(term)
        elif isinstance(term, Branch):
            if_true = term.if_true
            if_false = term.if_false
            if if_true in exit_index:
                if_true = exit_thunk(exit_index[if_true])
            if if_false in exit_index:
                if_false = exit_thunk(exit_index[if_false])
            if (if_true, if_false) == (term.if_true, term.if_false):
                instrs.append(term)
            else:
                instrs.append(Branch(term.cond, if_true, if_false))
        elif isinstance(term, Return):
            instrs.append(term)
        else:
            raise SpecializationError(
                f"region {region.region_id}: template block {label!r} "
                f"ends in unexpected {type(term).__name__}",
                region_id=region.region_id,
            )
        fn.blocks[label] = BasicBlock(label, instrs)
    return fn


def ensure_dynamic_blocks(code, genext, charge,
                          emit_cost: float) -> dict[str, str]:
    """Materialize dynamic copies of the template blocks inside ``code``.

    Returns a mapping from template label to the emitted dynamic label,
    building (and charging ``emit_cost`` per instruction) on first use;
    later truncations in the same code buffer reuse them.  The new
    labels are protected from jump threading — truncation blocks built
    in later batches jump into them by name.
    """
    if code.dynamic_labels:
        return code.dynamic_labels
    region = genext.region
    template = region.template
    exit_index = {label: i for i, label in enumerate(region.exits)}
    mapping = {
        label: code.fresh_label(f"dyn_{label}")
        for label in sorted(region.blocks)
    }
    for label in sorted(region.blocks):
        block = template.blocks[label]
        instrs = _body_instrs(block)
        term = block.instrs[-1]
        if isinstance(term, Jump):
            if term.target in exit_index:
                instrs.append(ExitRegion(exit_index[term.target]))
            else:
                instrs.append(Jump(mapping[term.target]))
        elif isinstance(term, Branch):
            instrs.append(Branch(
                term.cond,
                dynamic_arm(code, term.if_true, mapping, exit_index,
                            charge, emit_cost),
                dynamic_arm(code, term.if_false, mapping, exit_index,
                            charge, emit_cost),
            ))
        elif isinstance(term, Return):
            instrs.append(term)
        else:
            raise SpecializationError(
                f"region {region.region_id}: template block {label!r} "
                f"ends in unexpected {type(term).__name__}",
                region_id=region.region_id,
            )
        emitted = mapping[label]
        code.function.blocks[emitted] = BasicBlock(emitted, instrs)
        charge(emit_cost * len(instrs))
    code.protected_labels.update(mapping.values())
    code.dynamic_labels = mapping
    return mapping


def dynamic_arm(code, target: str, mapping: dict[str, str],
                exit_index: dict[str, int], charge,
                emit_cost: float) -> str:
    """Branch-arm label inside the dynamic copy (exit thunks shared)."""
    if target in exit_index:
        index = exit_index[target]
        if index not in code.exit_blocks:
            label = code.fresh_label(f"exit{index}")
            code.function.blocks[label] = BasicBlock(
                label, [ExitRegion(index)]
            )
            code.exit_blocks[index] = label
            code.protected_labels.add(label)
            charge(emit_cost)
        return code.exit_blocks[index]
    return mapping[target]
