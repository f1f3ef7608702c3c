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

Both copy the template through one loop, :func:`_copy_template`, and
differ only in the labels of the copies and in how a branch arm reaches
a region exit.  Annotation markers (``MakeStatic``/``MakeDynamic``) are
stripped: they are free no-ops at execution time, but the fallback
should look like the statically compiled code, which never carries them.
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


def _copy_template(region, labels: dict[str, str], exit_arm):
    """Yield ``(label, instrs)``, a dynamic copy of each template block
    of ``region`` in label order.

    ``labels`` maps each template label to its copy's label, and every
    region-exit edge becomes an ``ExitRegion``: inline at the end of a
    jump block, and through ``exit_arm(index) -> label`` for a branch
    arm.  A copy is yielded after its exit arms are built.
    """
    template = region.template
    if template is None:
        raise SpecializationError(
            f"region {region.region_id} has no template snapshot",
            region_id=region.region_id,
        )
    exit_index = {label: i for i, label in enumerate(region.exits)}

    def arm(target: str) -> str:
        if target in exit_index:
            return exit_arm(exit_index[target])
        return labels[target]

    for label in sorted(region.blocks):
        block = template.blocks[label]
        instrs = [
            instr for instr in block.instrs[:-1]
            if not isinstance(instr, (MakeStatic, MakeDynamic))
        ]
        term = block.instrs[-1]
        if isinstance(term, Jump):
            if term.target in exit_index:
                instrs.append(ExitRegion(exit_index[term.target]))
            else:
                instrs.append(Jump(labels[term.target]))
        elif isinstance(term, Branch):
            instrs.append(Branch(term.cond, arm(term.if_true),
                                 arm(term.if_false)))
        elif isinstance(term, Return):
            instrs.append(term)
        else:
            raise SpecializationError(
                f"region {region.region_id}: template block {label!r} "
                f"ends in unexpected {type(term).__name__}",
                region_id=region.region_id,
            )
        yield labels[label], instrs


def build_fallback_function(region) -> Function:
    """Build the unspecialized dynamic execution of ``region``.

    The returned function shares the template's block labels (entry
    included) and rewrites every region-exit edge into an ``ExitRegion``
    terminator/thunk, so ``Machine.exec_region_code`` can run it in
    the host environment exactly like specialized code.
    """
    fn = Function(name=f"region{region.region_id}$fallback", params=())
    fn.entry = region.entry_block

    def exit_arm(index: int) -> str:
        label = f"$exit{index}"
        if label not in fn.blocks:
            fn.blocks[label] = BasicBlock(label, [ExitRegion(index)])
        return label

    labels = {label: label for label in region.blocks}
    for label, instrs in _copy_template(region, labels, exit_arm):
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
    mapping = {
        label: code.fresh_label(f"dyn_{label}")
        for label in sorted(region.blocks)
    }

    def exit_arm(index: int) -> str:
        return exit_thunk(code, index, charge, emit_cost)

    for label, instrs in _copy_template(region, mapping, exit_arm):
        code.function.blocks[label] = BasicBlock(label, instrs)
        charge(emit_cost * len(instrs))
    code.protected_labels.update(mapping.values())
    code.dynamic_labels = mapping
    return mapping


def exit_thunk(code, index: int, charge, emit_cost: float) -> str:
    """The label of ``code``'s thunk for region exit ``index``, built
    (and charged ``emit_cost``) on first use and shared after."""
    if index not in code.exit_blocks:
        label = code.fresh_label(f"exit{index}")
        code.function.blocks[label] = BasicBlock(label, [ExitRegion(index)])
        code.exit_blocks[index] = label
        code.protected_labels.add(label)
        charge(emit_cost)
    return code.exit_blocks[index]
