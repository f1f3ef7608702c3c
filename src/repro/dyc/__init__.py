"""DyC's core: staged dynamic compilation.

This package implements the paper's primary contribution:

* :mod:`repro.dyc.config` — per-optimization switches (the knobs Table 5
  ablates);
* :mod:`repro.bta` (sibling package) — the binding-time analysis;
* :mod:`repro.dyc.plans` — static planning for staged dynamic zero/copy
  propagation, dead-assignment elimination, and strength reduction;
* :mod:`repro.dyc.genext` — construction of generating extensions (the
  custom per-region dynamic compilers with emit code "hard-wired" in);
* :mod:`repro.dyc.compiler` — the static-compile-time driver that ties it
  all together and rewrites host functions to dispatch into regions.
"""

from repro.config import OptConfig, ALL_ON, ALL_OFF, TABLE5_ABLATIONS
from repro.dyc.compiler import (
    CompiledProgram,
    DycCompiler,
    PreparedModule,
    compile_annotated,
    compile_key,
    compile_static,
    prepare_module,
)
from repro.dyc.genext import GeneratingExtension, build_generating_extension

__all__ = [
    "OptConfig",
    "ALL_ON",
    "ALL_OFF",
    "TABLE5_ABLATIONS",
    "CompiledProgram",
    "DycCompiler",
    "PreparedModule",
    "compile_annotated",
    "compile_key",
    "compile_static",
    "prepare_module",
    "GeneratingExtension",
    "build_generating_extension",
]
