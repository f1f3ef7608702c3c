"""Linter driver: run every check over a module and collect diagnostics.

The engine never mutates its input: annotation and plan checks run on a
copy (the BTA's block splitting rewrites the CFG in place).  Checks
are staged — structural validity gates the dataflow checks, which gate
the BTA-dependent checks — so a broken module produces its root-cause
diagnostic instead of a cascade of downstream noise.
"""

from __future__ import annotations

from repro.bta.analysis import analyze_function
from repro.bta.annotations import has_annotations
from repro.config import ALL_ON, OptConfig
from repro.dyc.genext import build_generating_extension
from repro.errors import ReproError
from repro.ir.function import Module
from repro.lint.annotations import (
    check_dead_annotations,
    check_policy_conflicts,
    check_runaway_unrolling,
    check_static_load_stores,
    check_unbounded_unrolling,
    check_unchecked_sources,
)
from repro.lint.codegen import check_codegen_size
from repro.lint.dataflow import (
    check_calls,
    check_def_before_use,
    check_reachability,
    check_structure,
)
from repro.lint.diagnostics import Diagnostic, Severity, sort_key
from repro.lint.plans import check_genext_plans, corrupt_plans_for_selftest


def _matches(code: str, selector: str) -> bool:
    if "-" in selector:
        low, _, high = selector.partition("-")
        return low <= code <= high
    return code.startswith(selector)


def select_codes(diags: list[Diagnostic],
                 select: tuple[str, ...] | None) -> list[Diagnostic]:
    """Keep diagnostics whose code matches a selector.

    A selector is a code prefix (``"DYC1"`` selects the whole
    annotation-safety group) or an inclusive range
    (``"DYC100-DYC199"``).  ``None`` keeps everything.
    """
    if not select:
        return diags
    return [
        d for d in diags
        if any(_matches(d.code, selector) for selector in select)
    ]


def lint_module(module: Module,
                config: OptConfig = ALL_ON,
                select: tuple[str, ...] | None = None,
                inject_plan_fault: bool = False,
                interprocedural: bool = False) -> list[Diagnostic]:
    """All diagnostics for ``module``, sorted by location.

    ``inject_plan_fault`` corrupts every staged plan before the
    consistency check runs — a self-test proving the DYC201 checker can
    catch a planner miscompile (used by ``--inject-plan-fault`` and CI).

    ``interprocedural`` additionally runs the DYC3xx specialization-
    safety prover over whole-module call-graph effect summaries (the
    CLI's ``--interprocedural``); off by default so the base lint's
    behaviour and cost are unchanged.
    """
    diags = check_structure(module)
    if any(d.severity is Severity.ERROR for d in diags):
        return sorted(select_codes(diags, select), key=sort_key)

    diags += check_calls(module)
    for function in module.functions.values():
        diags += check_def_before_use(function)
        diags += check_reachability(function)

    # BTA-dependent checks run on a copy: block splitting mutates.
    working = module.copy()
    regions_by_function: dict[str, list] = {}
    for function in working.functions.values():
        if not has_annotations(function):
            continue
        diags += check_unchecked_sources(function)
        diags += check_policy_conflicts(function)
        try:
            regions = analyze_function(function, config, module=working)
        except ReproError as exc:
            diags.append(Diagnostic(
                code="DYC000",
                severity=Severity.ERROR,
                message=f"binding-time analysis failed: {exc}",
                function=function.name,
            ))
            continue
        regions_by_function[function.name] = regions
        diags += check_dead_annotations(function, regions)
        diags += check_static_load_stores(function, regions)
        diags += check_unbounded_unrolling(function, regions, config)
        diags += check_codegen_size(function, regions, config)
        for region in regions:
            try:
                genext = build_generating_extension(region)
            except ReproError as exc:
                diags.append(Diagnostic(
                    code="DYC000",
                    severity=Severity.ERROR,
                    message=f"generating-extension construction failed "
                            f"for region {region.region_id}: {exc}",
                    function=function.name,
                    block=region.entry_block,
                ))
                continue
            diags += check_runaway_unrolling(function, genext)
            if inject_plan_fault:
                corrupt_plans_for_selftest(genext)
            diags += check_genext_plans(genext)

    if interprocedural:
        from repro.lint.interproc import check_module_interprocedural

        diags += check_module_interprocedural(
            working, regions_by_function
        )

    return sorted(select_codes(diags, select), key=sort_key)


def lint_source(source: str,
                config: OptConfig = ALL_ON,
                select: tuple[str, ...] | None = None,
                inject_plan_fault: bool = False,
                interprocedural: bool = False) -> list[Diagnostic]:
    """Lint MiniC source text; front-end failures become DYC000."""
    from repro.errors import SourceError
    from repro.frontend import compile_source

    try:
        module = compile_source(source, verify=False)
    except SourceError as exc:
        return select_codes([Diagnostic(
            code="DYC000",
            severity=Severity.ERROR,
            message=str(exc),
        )], select)
    return lint_module(module, config=config, select=select,
                       inject_plan_fault=inject_plan_fault,
                       interprocedural=interprocedural)
