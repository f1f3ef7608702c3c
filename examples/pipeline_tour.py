"""A tour of the compilation pipeline, stage by stage.

Shows what each component produces for a small annotated function:

1. MiniC source -> tokens -> AST -> IR (the front end)
2. traditional optimization (the Multiflow stand-in)
3. binding-time analysis: per-instruction static/dynamic classification,
   divisions, promotion points, region extent
4. the generating extension: set-up vs emit actions
5. run-time specialization: the emitted code, per entry value
6. dispatch statistics and the staged-optimization counters

Run:  python examples/pipeline_tour.py
"""

from repro.bta import analyze_function
from repro.bta.facts import InstrClass
from repro.config import ALL_ON
from repro.dyc import compile_annotated
from repro.dyc.genext import (
    EmitAction,
    EvalAction,
    PromoteAction,
    build_generating_extension,
)
from repro.frontend import compile_source, parse_program, tokenize
from repro.ir import format_function, format_instr
from repro.opt import optimize_function
from repro.runtime.cache import UncheckedCache

SOURCE = """
func power(base, n) {
    make_static(n, i);   // default cache-all policy
    var result = 1;
    for (i = 0; i < n; i = i + 1) {
        result = result * base;
    }
    return result;
}
"""


def stage(title: str) -> None:
    print(f"\n{'=' * 66}\n{title}\n{'=' * 66}")


def main():
    stage("1. Front end: source -> tokens -> AST -> IR")
    tokens = tokenize(SOURCE)
    print(f"{len(tokens)} tokens; first five:",
          [t.text for t in tokens[:5]])
    ast = parse_program(SOURCE)
    print(f"AST: {len(ast.functions)} function(s); "
          f"power({', '.join(ast.functions[0].params)})")
    module = compile_source(SOURCE)
    function = module.function("power")
    print(format_function(function))

    stage("2. Traditional optimization (constants, copies, CSE, DCE)")
    optimize_function(function)
    print(format_function(function))

    stage("3. Binding-time analysis")
    regions = analyze_function(function, ALL_ON, module=module)
    region = regions[0]
    print(f"region {region.region_id}: entry={region.entry_block!r}, "
          f"entry keys={region.entry_keys}, "
          f"policy={region.entry_policy}, exits={region.exits}")
    # (cache-all is the safe default: had we written
    #  `make_static(n, i) : cache_one_unchecked`, a later call with a
    #  different n would silently reuse the stale version - the paper's
    #  §4.4.3 hazard, demonstrated in tests/test_dyc_end_to_end.py.)
    for (label, division), facts in region.contexts.items():
        print(f"\n  block {label!r}  division={sorted(division)}  "
              f"static-in={sorted(facts.static_in)}")
        template_block = region.template.blocks[label]
        for index, instr in enumerate(template_block.instrs):
            klass = facts.classes[index]
            marker = {"static": "S", "static_branch": "SB",
                      "dynamic": "D", "dynamic_branch": "DB",
                      "annotation": "@",
                      "promotion": "P!"}.get(klass.value, klass.value)
            print(f"    [{marker:>2s}] {format_instr(instr)}")

    stage("4. The generating extension (set-up vs emit actions)")
    genext = build_generating_extension(region)
    for key, block in genext.blocks.items():
        print(f"\n  context {key[0]!r}: key vars {block.key_vars}")
        for action in block.actions:
            if isinstance(action, EvalAction):
                print(f"    eval  {format_instr(action.instr)}")
            elif isinstance(action, EmitAction):
                holes = ",".join(sorted(action.holes)) or "-"
                print(f"    emit  {format_instr(action.instr)}   "
                      f"holes: {holes}")
            elif isinstance(action, PromoteAction):
                print(f"    promote {action.point.names}")
        print(f"    term  {type(block.terminator).__name__}")

    stage("5. Run-time specialization (n = 5)")
    compiled = compile_annotated(compile_source(SOURCE))
    machine, runtime = compiled.make_machine()
    result = machine.run("power", 3, 5)
    print(f"power(3, 5) = {result}")
    cache = runtime.entry_caches[0]
    code = (cache._value if isinstance(cache, UncheckedCache)
            else next(iter(cache.items()))[1])
    print(format_function(code.function))

    stage("6. Statistics")
    print(f"power(2, 5) = {machine.run('power', 2, 5)} "
          "(same n: cache hit, no recompilation)")
    p28 = machine.run('power', 2, 8)
    assert p28 == 256
    print(f"power(2, 8) = {p28} (new n: respecialized)")
    stats = runtime.stats.regions[0]
    print(f"dispatches={stats.dispatches}  "
          f"specializations={stats.specializations}  "
          f"instructions generated={stats.instructions_generated}  "
          f"dc cycles={stats.dc_cycles:.0f}")
    print(f"unrolling: {stats.unrolling}  "
          f"(the loop became a straight-line chain of multiplies)")


if __name__ == "__main__":
    main()
