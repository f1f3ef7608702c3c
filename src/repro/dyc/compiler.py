"""The static-compile-time driver (DyC's compile pipeline, §2.1).

``compile_annotated`` performs, for each procedure:

1. traditional intraprocedural optimization;
2. binding-time analysis for procedures containing annotations;
3. generating-extension construction per dynamic region, lowered to
   closures (:mod:`repro.dyc.lowering`);
4. the host rewrite: each region's entry block is replaced by an
   ``EnterRegion`` dispatch.  The region's other blocks stay in the host
   only where paths bypassing the annotation still need them (the
   unspecialized division); unreachable ones are removed.

Step 1 reads no configuration, so it is a separate front half,
:func:`prepare_module`, whose :class:`PreparedModule` can be computed
once per program and passed to ``compile_annotated`` in place of the
module; steps 2-4 and the lint gate are the per-configuration back half.

``compile_static`` builds the baseline configuration: the same program
compiled "by ignoring the annotations in the application source" (§3.3).

Compilation reads only part of an :class:`OptConfig`;
:func:`compile_key` names that part, so a compiled program can be shared
by every run whose configuration agrees on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bta.analysis import analyze_function
from repro.bta.annotations import has_annotations
from repro.bta.facts import RegionInfo
from repro.config import ALL_ON, OptConfig
from repro.dyc.genext import GeneratingExtension, build_generating_extension
from repro.ir.function import BasicBlock, Module
from repro.ir.instructions import EnterRegion, MakeDynamic, MakeStatic
from repro.machine.interp import Machine
from repro.machine.costs import CostModel, ALPHA_21164
from repro.machine.icache import ICacheModel
from repro.opt.pipeline import optimize_function


#: The switches the binding-time analysis reads.  ZCP, DAE, strength
#: reduction and unchecked dispatching are read when a region is
#: specialized or dispatched, so they are left out.
BTA_FIELDS = ("complete_loop_unrolling", "static_loads", "static_calls",
              "internal_promotions", "polyvariant_division")


def compile_key(config: OptConfig) -> tuple:
    """The projection of ``config`` onto the fields
    :func:`compile_annotated` reads, as ``(name, value)`` pairs.

    Two configurations with the same key compile any module to the same
    program.  Fault specs, budgets and quarantine are run-time
    settings, and compilation reads no environment variable.
    """
    return tuple((name, getattr(config, name))
                 for name in BTA_FIELDS + ("lint",))


@dataclass
class CompiledProgram:
    """A dynamically compiled program: host module + generating
    extensions.

    Runs only read the module, regions and extensions, so runs whose
    configurations share a :func:`compile_key` may share them;
    ``config`` is the run's own and is read at run time.
    """

    module: Module
    config: OptConfig
    regions: dict[int, RegionInfo] = field(default_factory=dict)
    genexts: dict[int, GeneratingExtension] = field(default_factory=dict)
    #: function name -> region ids it contains.
    region_functions: dict[str, list[int]] = field(default_factory=dict)

    def make_machine(self, memory=None,
                     cost_model: CostModel = ALPHA_21164,
                     icache: ICacheModel | None = None,
                     overhead=None,
                     tracked=frozenset(),
                     step_limit: int = 500_000_000,
                     backend: str = "reference"):
        """A machine + runtime pair ready to execute this program."""
        # Imported here: the runtime package imports the generating-
        # extension definitions from this package, so a module-level
        # import would be circular.
        from repro.runtime.runtime import DycRuntime

        runtime = DycRuntime(self, overhead=overhead)
        machine = Machine(
            self.module,
            memory=memory,
            cost_model=cost_model,
            icache=icache,
            runtime=runtime,
            tracked=tracked,
            step_limit=step_limit,
            backend=backend,
        )
        return machine, runtime


@dataclass(frozen=True)
class PreparedModule:
    """The configuration-invariant front half of a compile.

    ``source`` is the module as given, which the lint gate reads;
    ``optimized`` is a copy of it with every function optimized.
    Neither is written after :func:`prepare_module` returns: the back
    half copies ``optimized`` before the BTA splits its blocks, so one
    prepared module serves every configuration.
    """

    source: Module
    optimized: Module


def prepare_module(module: Module) -> PreparedModule:
    """Run traditional optimization on a copy of ``module``; ``module``
    is not modified."""
    optimized = module.copy()
    for function in optimized.functions.values():
        optimize_function(function)
    return PreparedModule(module, optimized)


class DycCompiler:
    """Compiles an annotated module for dynamic compilation."""

    def __init__(self, config: OptConfig = ALL_ON):
        self.config = config

    def compile(self, module: Module | PreparedModule) -> CompiledProgram:
        """Produce a :class:`CompiledProgram`; ``module`` is not
        modified.  A :class:`PreparedModule` skips the front half.

        With ``config.lint`` enabled, the staged-specialization linter
        runs on the unoptimized module, before anything else on a plain
        one, and error-severity diagnostics abort compilation with
        :class:`LintError` — the specializer's behaviour on ill-formed
        IR is undefined, so it never sees it.
        """
        prepared = module if isinstance(module, PreparedModule) else None
        if self.config.lint:
            self._lint_gate(module if prepared is None else prepared.source)
        if prepared is None:
            prepared = prepare_module(module)
        module = prepared.optimized.copy()
        compiled = CompiledProgram(module=module, config=self.config)
        next_region_id = 0
        for function in module.functions.values():
            if not has_annotations(function):
                continue
            regions = analyze_function(
                function, self.config, module=module,
                first_region_id=next_region_id,
            )
            for region in regions:
                genext = build_generating_extension(region)
                compiled.regions[region.region_id] = region
                compiled.genexts[region.region_id] = genext
                compiled.region_functions.setdefault(
                    function.name, []
                ).append(region.region_id)
                self._rewrite_host(function, region)
                next_region_id = region.region_id + 1
            function.remove_unreachable_blocks()
            self._strip_annotations(function)
        return compiled

    def _lint_gate(self, module: Module) -> None:
        # Imported here: repro.lint imports the generating-extension
        # definitions from this package, so a module-level import would
        # be circular.
        from repro.errors import LintError
        from repro.lint import Severity, lint_module

        diagnostics = lint_module(module, config=self.config)
        errors = [
            d for d in diagnostics if d.severity is Severity.ERROR
        ]
        if errors:
            raise LintError(errors)

    @staticmethod
    def _rewrite_host(function, region: RegionInfo) -> None:
        """Replace the region's entry block with a dispatch."""
        dispatch = EnterRegion(
            region_id=region.region_id,
            keys=region.entry_keys,
            exits=region.exits,
            policy=region.entry_policy,
        )
        function.blocks[region.entry_block] = BasicBlock(
            region.entry_block, [dispatch]
        )

    @staticmethod
    def _strip_annotations(function) -> None:
        """Remove annotation pseudo-instructions left on unspecialized
        paths (they are no-ops at run time, but removing them keeps the
        host clean)."""
        for block in function.blocks.values():
            block.instrs = [
                instr for instr in block.instrs
                if not isinstance(instr, (MakeStatic, MakeDynamic))
            ]


def compile_annotated(module: Module | PreparedModule,
                      config: OptConfig = ALL_ON) -> CompiledProgram:
    """Compile ``module`` for dynamic compilation under ``config``.

    ``module`` may be the :func:`prepare_module` of the module instead,
    to share the configuration-invariant front half between compiles.
    """
    return DycCompiler(config).compile(module)


def compile_static(module: Module) -> Module:
    """The statically compiled baseline: annotations ignored (§3.3)."""
    module = module.copy()
    for function in module.functions.values():
        DycCompiler._strip_annotations(function)
        optimize_function(function)
    return module
