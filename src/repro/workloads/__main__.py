"""Workload inspector: ``python -m repro.workloads [name ...]``.

Runs the named workloads (default: all) statically and dynamically,
verifies their outputs agree, and prints a per-region report: speedup,
break-even, generated-code size, and which staged optimizations fired.
Add ``--dump`` to also print the specialized region code, and
``--backend reference|threaded|threaded_fast`` to pick the execution
backend (the reported numbers are identical on the two counted ones;
``threaded_fast`` drops the per-block cycle charges, so only use it
when you care about wall-clock, not the reported numbers).
"""

from __future__ import annotations

import argparse
import sys

from repro.evalharness.runner import resolve_backend, run_workload
from repro.ir import format_function
from repro.machine import BACKENDS, COUNTED_BACKENDS
from repro.workloads import ALL_WORKLOADS, get_workload


def report(name: str, dump: bool, backend: str | None = None) -> None:
    workload = get_workload(name)
    result = run_workload(workload, backend=backend)
    print(f"\n=== {workload.name} ({workload.kind}): "
          f"{workload.description} ===")
    print(f"static vars: {workload.static_vars} = "
          f"{workload.static_values}")
    backend = resolve_backend(backend)
    if backend not in COUNTED_BACKENDS:
        print(f"NOTE: {backend} drops the per-block cycle charges; "
              "the cycle-derived figures below are not meaningful "
              "(outputs are still verified)")
    print(f"whole-program speedup (incl. DC overhead): "
          f"{result.whole_program_speedup:.2f}x; region share of "
          f"static execution: {result.region_fraction_of_static:.0%}")
    for metrics in result.region_metrics():
        print(f"  {metrics.region_label}: "
              f"asymptotic {metrics.asymptotic_speedup:.2f}x, "
              f"break-even {metrics.breakeven_units:.0f} "
              f"{metrics.breakeven_unit}, "
              f"{metrics.instructions_generated} instructions at "
              f"{metrics.overhead_per_instruction:.0f} cyc/instr")
    for region_id, stats in sorted(result.region_stats.items()):
        used = []
        if stats.unrolling:
            used.append(f"{stats.unrolling} unrolling "
                        f"({stats.contexts_specialized} contexts)")
        if stats.used_static_loads:
            used.append(f"static loads ({stats.static_loads_folded})")
        if stats.used_static_calls:
            used.append(f"static calls ({stats.static_calls_folded})")
        if stats.used_zcp:
            used.append(f"zcp ({stats.zcp_zero_hits} zero / "
                        f"{stats.zcp_copy_hits} copy)")
        if stats.used_dae:
            used.append(f"dae ({stats.dae_removed})")
        if stats.used_sr:
            used.append(f"sr ({stats.sr_applied})")
        if stats.used_internal_promotions:
            used.append(
                f"promotions ({stats.internal_promotions_executed})"
            )
        if stats.used_polyvariant_division:
            used.append(f"divisions ({stats.divisions_used})")
        print(f"  region {region_id}: {', '.join(used) or 'plain'}")
    print(f"  outputs verified: {result.outputs_match}")
    if result.degraded:
        parts = []
        for region_id, stats in sorted(result.region_stats.items()):
            if not stats.degraded:
                continue
            detail = []
            if stats.specialization_failures:
                detail.append(f"{stats.specialization_failures} failed "
                              "specializations")
            if stats.respecializations:
                detail.append(f"{stats.respecializations} retried")
            if stats.fallback_executions:
                detail.append(f"{stats.fallback_executions} fallback "
                              "runs")
            if stats.quarantined_contexts:
                detail.append(f"{stats.quarantined_contexts} "
                              "quarantined")
            if stats.budget_truncations:
                detail.append(f"{stats.budget_truncations} budget "
                              "truncations")
            if stats.residualized_continuations:
                detail.append(f"{stats.residualized_continuations} "
                              "residualized continuations")
            if stats.cache_corruptions:
                detail.append(f"{stats.cache_corruptions} corrupt "
                              "cache hits")
            parts.append(f"region {region_id}: {', '.join(detail)}")
        print(f"  DEGRADED — {'; '.join(parts)}")
    if dump:
        # Re-run to capture the emitted code.
        from repro.dyc import compile_annotated
        from repro.frontend import compile_source
        from repro.ir import Memory
        from repro.runtime.cache import UncheckedCache

        module = compile_source(workload.source)
        compiled = compile_annotated(module)
        memory = Memory()
        inputs = workload.setup(memory)
        machine, runtime = compiled.make_machine(memory=memory)
        machine.run(workload.entry, *inputs.args)
        for region_id, cache in sorted(runtime.entry_caches.items()):
            if isinstance(cache, UncheckedCache):
                codes = [cache._value] if cache._filled else []
            else:
                codes = [value for _, value in cache.items()]
            for code in codes[:1]:
                print(f"\n--- emitted code, region {region_id} ---")
                print(format_function(code.function))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Run workloads, verify them and report each region.",
    )
    parser.add_argument("names", nargs="*", metavar="name",
                        help="workloads to run (default: all)")
    parser.add_argument("--dump", action="store_true",
                        help="also print the specialized region code")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="execution backend (default: $REPRO_BACKEND "
                             "or threaded)")
    args = parser.parse_args(argv)
    for name in args.names or [w.name for w in ALL_WORKLOADS]:
        try:
            report(name, args.dump, args.backend)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
