"""The optimized IR of every program the repository ships, pinned.

Each program (the ten workloads, every MiniC source embedded in
``examples/``, every lint fixture) is compiled by ``compile_static``,
by ``prepare_module(...).optimized`` and by ``compile_annotated`` under
``ALL_ON`` and each Table 5 ablation.  The printed IR of all of them (a
dynamic compile's host module, and each region's template CFG with the
zero/copy-propagation, strength-reduction and dead-assignment plan of
every instruction its generating extension emits, or the error a
compile raises) is digested into one short hex string per program.  A
refactor of the optimizer, the BTA or the planner that means to change
no emitted instruction must leave every digest as it is; a change that
does mean to move one re-pins it and says why.
"""

import hashlib
from pathlib import Path

import pytest

from repro.config import ALL_ON, TABLE5_ABLATIONS
from repro.dyc import compile_annotated, compile_static, prepare_module
from repro.dyc.genext import EmitAction, PromoteAction
from repro.errors import ReproError
from repro.frontend import compile_source
from repro.ir.printer import format_function, format_instr, format_module
from repro.lint.extract import embedded_sources_from_file
from repro.workloads import ALL_WORKLOADS

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "lint_fixtures"

#: The configurations of the dynamic compiles, in Table 5's order.
CONFIGS = (ALL_ON,) + tuple(ALL_ON.without(name)
                            for name in TABLE5_ABLATIONS)


def _programs() -> dict[str, str]:
    programs = {f"workload:{w.name}": w.source for w in ALL_WORKLOADS}
    for path in sorted((ROOT / "examples").glob("*.py")):
        for name, source in embedded_sources_from_file(str(path)):
            programs[f"example:{path.stem}.{name}"] = source
    for path in sorted(FIXTURES.glob("*.minic")):
        programs[f"fixture:{path.stem}"] = path.read_text()
    return programs


PROGRAMS = _programs()


def _emits(block):
    """The emit actions of one context, the terminator's last."""
    for action in block.actions:
        if isinstance(action, PromoteAction):
            action = action.emit
        if isinstance(action, EmitAction):
            yield action
    action = getattr(block.terminator, "action", None)
    if action is not None:
        yield action


def _plans_text(genext) -> str:
    lines = []
    for key in sorted(genext.blocks, key=lambda k: (k[0], sorted(k[1]))):
        lines.append(f"{key[0]} {sorted(key[1])}:")
        lines += [f"    {format_instr(emit.instr)}  {emit.plan}"
                  for emit in _emits(genext.blocks[key])]
    return "\n".join(lines)


def _annotated_text(prepared, config) -> str:
    try:
        compiled = compile_annotated(prepared, config)
    except ReproError as error:
        return f"{type(error).__name__}: {error}"
    texts = [format_module(compiled.module)]
    for region_id, region in sorted(compiled.regions.items()):
        texts.append(f"region {region_id}\n"
                     + format_function(region.template) + "\n"
                     + _plans_text(compiled.genexts[region_id]))
    return "\n\n".join(texts)


def program_digest(source: str) -> str:
    """The first 12 hex digits of the SHA-256 of every compile's printed
    IR.  The verifier is off so the fixture that calls an undefined
    function parses; every other program is well formed."""
    module = compile_source(source, verify=False)
    prepared = prepare_module(module)
    texts = [format_module(compile_static(module)),
             format_module(prepared.optimized)]
    texts += [_annotated_text(prepared, config) for config in CONFIGS]
    return hashlib.sha256("\n\f\n".join(texts).encode()).hexdigest()[:12]


#: Program name -> :func:`program_digest` of its source.
PINNED = {
    "example:auto_annotation.SOURCE": "f87993372855",
    "example:cache_simulator.SOURCE": "3819f1c11d58",
    "example:conditional_specialization.SOURCE": "f75121fdd9dd",
    "example:interpreter_specialization.SOURCE": "731d71141004",
    "example:pipeline_tour.SOURCE": "30dbbaf64a20",
    "example:quickstart.SOURCE": "b1e8e5d54688",
    "fixture:conflicting_policies": "b79d19d6365e",
    "fixture:dead_annotation": "db6139ae2ce1",
    "fixture:impure_static_call": "500f7272352b",
    "fixture:impure_static_call_reader": "49ef175d0b90",
    "fixture:interproc_escape": "3818bfa2ba4a",
    "fixture:interproc_escape_readonly": "d41eb7b4cf95",
    "fixture:loop_annotation": "874206f06ec0",
    "fixture:loop_annotation_dominating": "3ee4fe1e1522",
    "fixture:plan_fault": "16782659cfb3",
    "fixture:runaway_unroll": "709b4b4962b4",
    "fixture:static_load_store": "536e7f3549ba",
    "fixture:unbounded_cache": "74134dd22307",
    "fixture:unbounded_cache_unchecked": "50adf834610a",
    "fixture:unbounded_unroll": "4b7c97e7c68c",
    "fixture:unresolved_call": "9945f9cd81b4",
    "fixture:unsafe_unchecked": "27af355c50d9",
    "fixture:use_before_def": "614a9dd184eb",
    "workload:binary": "0dc3bb1886ef",
    "workload:chebyshev": "c7ff3c00dcf4",
    "workload:dinero": "a9d9dba8ec1b",
    "workload:dotproduct": "88f98dfafdb4",
    "workload:m88ksim": "a039f70a6677",
    "workload:mipsi": "d0358a120b37",
    "workload:pnmconvol": "138388e8649c",
    "workload:query": "5be0296b0857",
    "workload:romberg": "ba9257a19c71",
    "workload:viewperf": "c3687fe73a85",
}


def test_every_program_is_pinned():
    assert sorted(PINNED) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_optimized_ir_is_pinned(name):
    assert program_digest(PROGRAMS[name]) == PINNED[name]
