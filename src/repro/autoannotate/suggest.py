"""From value profiles to annotation suggestions.

The heuristics mirror the paper's manual methodology (§3.2): "we first
profiled them with gprof.  We then examined the functions that comprised
the most execution time, searching for invariant function parameters" —
plus the unrolling step: a loop whose exit test depends only on
suggested-static variables (and its own induction variable) is a
complete-unrolling candidate, so its induction variable joins the
``make_static`` list, exactly as Figure 2 annotates crow/ccol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import natural_loops
from repro.autoannotate.profiler import FunctionProfile, ValueProfiler
from repro.ir.function import Function, Module
from repro.ir.instructions import BinOp, Branch, Load, MakeStatic, Op, Reg


@dataclass(frozen=True)
class Suggestion:
    """One proposed ``make_static`` annotation."""

    function: str
    #: Quasi-invariant parameters to annotate.
    params: tuple[str, ...]
    #: Loop induction variables to annotate for complete unrolling.
    induction_vars: tuple[str, ...]
    policy: str
    #: Fraction of profiled execution spent in the function.
    cycle_share: float
    #: Min over chosen params of P(most common value).
    invariance: float
    rationale: str

    @property
    def names(self) -> tuple[str, ...]:
        return self.params + self.induction_vars

    def annotation_source(self) -> str:
        """The MiniC line the user would paste at function entry."""
        names = ", ".join(self.names)
        if self.policy == "cache_all":
            return f"make_static({names});"
        return f"make_static({names}) : {self.policy};"


def _byte_ranged(profile) -> bool:
    """Does the parameter range over a small set of byte values?"""
    return (not profile.overflowed and 1 < profile.distinct <= 64
            and all(isinstance(v, int) and 0 <= v < 256
                    for v in profile.values))


def _choose_policy(profiles: list) -> str:
    """Pick a cache policy from the observed value distributions.

    * every chosen parameter saw exactly one value → the value never
      changes: ``cache_one_unchecked`` (the §4.4.3 fast path);
    * exactly one parameter ranging over small non-negative ints (all
      others single-valued) → ``cache_indexed`` (the §3.1 extension);
    * otherwise the safe default, ``cache_all``.
    """
    if all(p.distinct == 1 for p in profiles):
        return "cache_one_unchecked"
    varying = [p for p in profiles if p.distinct > 1]
    if len(varying) == 1 and _byte_ranged(varying[0]):
        return "cache_indexed"
    return "cache_all"


def _address_base_params(function: Function) -> set[str]:
    """Parameters used as pointer bases (Load/Store address roots).

    Relies on the front end's lowering convention: ``base[index]``
    lowers to ``addr = base + index`` with the base on the left.
    """
    params = set(function.params)
    bases: set[str] = set()
    for _, _, instr in function.instructions():
        if isinstance(instr, BinOp) and instr.op is Op.ADD:
            if isinstance(instr.lhs, Reg) and instr.lhs.name in params:
                bases.add(instr.lhs.name)
        elif isinstance(instr, Load):
            if isinstance(instr.addr, Reg) \
                    and instr.addr.name in params:
                bases.add(instr.addr.name)
    return bases


def _induction_candidates(function: Function,
                          static_params: set[str]) -> tuple[str, ...]:
    """Loop indices whose loops would completely unroll if annotated.

    A loop qualifies when its header's exit test reads only (a) the
    suggested static parameters and (b) variables defined inside the
    loop (the induction variables themselves).  Those in-loop variables
    are returned for annotation.
    """
    result: list[str] = []
    for loop in natural_loops(function):
        header = function.blocks[loop.header]
        terminator = header.instrs[-1]
        if not isinstance(terminator, Branch):
            continue
        loop_defs: set[str] = set()
        for label in loop.body:
            for instr in function.blocks[label].instrs:
                loop_defs.update(instr.defs())
        # Variables feeding the exit condition (one level back).
        cond_vars: set[str] = set()
        if isinstance(terminator.cond, Reg):
            cond_name = terminator.cond.name
            cond_vars.add(cond_name)
            for instr in header.instrs:
                if cond_name in instr.defs():
                    cond_vars.update(instr.uses())
        inductions = {
            name for name in cond_vars
            if name in loop_defs and not name.startswith("%")
        }
        others = cond_vars - inductions - {
            name for name in cond_vars if name.startswith("%")
        }
        if inductions and others <= static_params:
            result.extend(sorted(inductions))
    # Deduplicate, preserving order.
    seen: set[str] = set()
    ordered = []
    for name in result:
        if name not in seen:
            seen.add(name)
            ordered.append(name)
    return tuple(ordered)


def suggest_annotations(
    profiler: ValueProfiler,
    module: Module,
    min_calls: int = 3,
    min_cycle_share: float = 0.02,
    min_invariance: float = 0.5,
    max_distinct: int = 16,
) -> list[Suggestion]:
    """Rank annotation opportunities from a value profile."""
    total = profiler.total_cycles
    suggestions: list[Suggestion] = []
    for profile in profiler.functions.values():
        if profile.calls < min_calls or profile.name not in module:
            continue
        share = profile.cycle_share(total)
        if share < min_cycle_share:
            continue
        function = module.function(profile.name)
        address_bases = _address_base_params(function)
        chosen = []
        for param in profile.params:
            pp = profile.param_profiles[param]
            if pp.overflowed:
                continue
            # Quasi-invariant params, plus byte-ranged params (which the
            # indexed-dispatch policy handles even when they vary) — but
            # a parameter used as an address *base* is a pointer, whose
            # numeric smallness in our flat memory means nothing.
            if (pp.invariance >= min_invariance
                    and pp.distinct <= max_distinct) \
                    or (_byte_ranged(pp)
                        and param not in address_bases):
                chosen.append(pp)
        if not chosen:
            continue
        static_params = tuple(p.name for p in chosen)
        inductions = _induction_candidates(
            function, set(static_params)
        )
        invariance = min(p.invariance for p in chosen)
        policy = _choose_policy(chosen)
        distinct_desc = ", ".join(
            f"{p.name}: {p.distinct} value"
            f"{'s' if p.distinct != 1 else ''}" for p in chosen
        )
        rationale = (
            f"{profile.name} takes {share:.0%} of profiled cycles over "
            f"{profile.calls} calls; quasi-invariant parameters "
            f"({distinct_desc})"
        )
        if inductions:
            rationale += (
                f"; loops over {', '.join(inductions)} bounded by "
                "static values would completely unroll"
            )
        suggestions.append(Suggestion(
            function=profile.name,
            params=static_params,
            induction_vars=inductions,
            policy=policy,
            cycle_share=share,
            invariance=invariance,
            rationale=rationale,
        ))
    suggestions.sort(key=lambda s: (s.cycle_share, s.invariance),
                     reverse=True)
    return suggestions


def annotate_module(module: Module, suggestions: list[Suggestion],
                    static_loads: bool = False) -> Module:
    """Insert the suggested ``make_static`` annotations into a copy of
    ``module`` (at function entry), ready for ``compile_annotated``.

    With ``static_loads=True``, loads whose addresses derive from a
    suggested static pointer parameter are additionally marked ``@``.
    Like DyC's ``@`` annotation this is an *unsafe assertion* that the
    pointed-to data is invariant — the human step of §3.2 ("in cases
    when invariance was too difficult to infer by inspection, we logged
    the values") remains the caller's responsibility, e.g. by running
    with ``OptConfig(check_annotations=True)``.
    """
    annotated = module.copy()
    for suggestion in suggestions:
        function = annotated.function(suggestion.function)
        entry = function.entry_block
        entry.instrs.insert(0, MakeStatic(
            suggestion.names, policy=suggestion.policy
        ))
        if static_loads:
            _mark_static_loads(function, set(suggestion.params))
    return annotated


def _mark_static_loads(function: Function,
                       static_params: set[str]) -> None:
    """Mark loads addressed off suggested static pointers as ``@``."""
    for block in function.blocks.values():
        addr_bases: dict[str, set[str]] = {}
        for index, instr in enumerate(block.instrs):
            if isinstance(instr, BinOp) and instr.op is Op.ADD:
                bases = set()
                for operand in (instr.lhs, instr.rhs):
                    if isinstance(operand, Reg):
                        if operand.name in static_params:
                            bases.add(operand.name)
                        bases |= addr_bases.get(operand.name, set())
                if bases:
                    addr_bases[instr.dest] = bases
            elif isinstance(instr, Load) and not instr.static:
                base = None
                if isinstance(instr.addr, Reg):
                    name = instr.addr.name
                    if name in static_params or addr_bases.get(name):
                        base = name
                if base is not None:
                    block.instrs[index] = Load(
                        instr.dest, instr.addr, static=True
                    )
