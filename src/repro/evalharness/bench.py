"""Wall-clock benchmark of the reference, threaded, and codegen backends.

``python -m repro.evalharness bench`` runs every workload's static and
dynamic executions under each benchmark column, sharing one compiled
program per workload across columns so only *execution* time is
compared, and writes ``BENCH_interp.json`` (schema 2) with per-workload
and aggregate wall-clock seconds, per-column speedup factors over the
reference interpreter, a geometric-mean summary, and a SHA-256 checksum
over each counted column's full execution statistics.  A checksum
mismatch means the backends diverged — the CLI (and CI) treat that as a
hard failure.

The columns are:

``reference``
    The reference interpreter — the baseline every speedup is against.
``threaded``
    The direct-threaded closure backend.
``pycodegen_counted``
    The Python-codegen backend in counted mode: regions compiled to real
    code objects, statistics byte-identical to the reference
    interpreter (checksum-enforced here).
``pycodegen``
    The Python-codegen backend in fast mode: no cycle accounting, so it
    participates only in the *results* checksum (program outputs must
    still match the reference run exactly).

Note this benchmarks the *interpreter itself* (host-Python seconds spent
simulating the abstract machine), not the simulated cycle counts the
tables report — those are identical across counted columns by
construction.

:func:`compare_reports` diffs a committed report against a fresh run:
statistics/results checksums must agree (they are machine-independent);
wall-clock drift is reported but never fails the comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import time

from repro.config import ALL_ON, OptConfig
from repro.dyc import compile_annotated, compile_static
from repro.evalharness.runner import _machine_kwargs
from repro.frontend import compile_source
from repro.ir import Memory
from repro.machine import ALPHA_21164, Machine
from repro.runtime.overhead import DEFAULT_OVERHEAD
from repro.workloads import ALL_WORKLOADS

DEFAULT_BENCH_PATH = "BENCH_interp.json"

#: Benchmark columns, in report order: (column name, backend, mode).
BENCH_COLUMNS: tuple[tuple[str, str, str], ...] = (
    ("reference", "reference", "counted"),
    ("threaded", "threaded", "counted"),
    ("pycodegen_counted", "pycodegen", "counted"),
    ("pycodegen", "pycodegen", "fast"),
)

#: Columns whose execution statistics must be byte-identical.
COUNTED_COLUMNS = ("reference", "threaded", "pycodegen_counted")

#: Columns with a speedup factor over the reference interpreter.
SPEEDUP_COLUMNS = ("threaded", "pycodegen_counted", "pycodegen")


def _execute(workload, static_module, compiled, backend: str, mode: str):
    """One timed static + dynamic execution.

    Returns ``(seconds, stats_fingerprint, results_fingerprint,
    cycles)``; the stats fingerprint is only meaningful in counted mode.
    """
    tracked = frozenset(workload.region_functions)
    kwargs = _machine_kwargs(workload, ALPHA_21164, backend, mode)

    static_memory = Memory()
    static_input = workload.setup(static_memory)
    static_machine = Machine(static_module, memory=static_memory,
                             tracked=tracked, **kwargs)
    dynamic_memory = Memory()
    dynamic_input = workload.setup(dynamic_memory)
    dynamic_machine, _runtime = compiled.make_machine(
        memory=dynamic_memory, tracked=tracked,
        overhead=DEFAULT_OVERHEAD, **kwargs,
    )

    start = time.perf_counter()
    static_result = static_machine.run(workload.entry,
                                       *static_input.args)
    dynamic_result = dynamic_machine.run(workload.entry,
                                         *dynamic_input.args)
    seconds = time.perf_counter() - start

    stat = static_machine.stats
    dyn = dynamic_machine.stats
    stats_fingerprint = (
        workload.name,
        stat.cycles, stat.instructions,
        dyn.cycles, dyn.instructions, dyn.dc_cycles,
        dyn.dispatch_cycles, dyn.dispatches,
        sorted(dyn.scope_cycles.items()),
        sorted(dyn.scope_entries.items()),
        static_result, dynamic_result,
    )
    if static_input.checksum is not None:
        results_fingerprint = (
            workload.name,
            static_input.checksum(static_memory, static_machine),
            dynamic_input.checksum(dynamic_memory, dynamic_machine),
        )
    else:
        results_fingerprint = (workload.name, static_result,
                               dynamic_result)
    cycles = stat.cycles + dyn.cycles + dyn.dc_cycles
    return seconds, stats_fingerprint, results_fingerprint, cycles


def _geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values)
                    / len(values))


def run_bench(workloads=ALL_WORKLOADS,
              config: OptConfig = ALL_ON,
              repeat: int = 3) -> dict:
    """Benchmark every column over ``workloads``; return the report."""
    columns = [name for name, _, _ in BENCH_COLUMNS]
    per_workload: dict[str, dict] = {}
    totals = {name: 0.0 for name in columns}
    stats_hashers = {name: hashlib.sha256() for name in COUNTED_COLUMNS}
    results_hashers = {name: hashlib.sha256() for name in columns}
    total_cycles = {name: 0.0 for name in COUNTED_COLUMNS}
    speedups: dict[str, list[float]] = {c: [] for c in SPEEDUP_COLUMNS}

    for workload in workloads:
        module = compile_source(workload.source)
        static_module = compile_static(module)
        compiled = compile_annotated(module, config)
        entry: dict[str, float] = {}
        for name, backend, mode in BENCH_COLUMNS:
            best = stats_fp = results_fp = cycles = None
            for _ in range(max(1, repeat)):
                seconds, stats_fp, results_fp, cycles = _execute(
                    workload, static_module, compiled, backend, mode
                )
                best = seconds if best is None else min(best, seconds)
            if name in stats_hashers:
                stats_hashers[name].update(
                    repr(stats_fp).encode("utf-8"))
                total_cycles[name] += cycles
            results_hashers[name].update(repr(results_fp).encode("utf-8"))
            totals[name] += best
            entry[f"{name}_seconds"] = round(best, 6)
        for name in SPEEDUP_COLUMNS:
            speedup = (entry["reference_seconds"]
                       / max(entry[f"{name}_seconds"], 1e-12))
            entry[f"{name}_speedup"] = round(speedup, 3)
            speedups[name].append(speedup)
        per_workload[workload.name] = entry

    stats_checksums = {c: stats_hashers[c].hexdigest()
                       for c in COUNTED_COLUMNS}
    results_checksums = {c: results_hashers[c].hexdigest()
                         for c in columns}
    backends: dict[str, dict] = {}
    for name in columns:
        info: dict[str, object] = {
            "seconds": round(totals[name], 6),
            "results_checksum": results_checksums[name],
        }
        if name in COUNTED_COLUMNS:
            info["cycles"] = total_cycles[name]
            info["stats_checksum"] = stats_checksums[name]
        backends[name] = info

    report = {
        "schema": 2,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeat": repeat,
        "columns": columns,
        "workloads": per_workload,
        "backends": backends,
        "geomean": {
            name: round(_geomean(speedups[name]), 3)
            for name in SPEEDUP_COLUMNS
        },
        "checksums_match":
            len(set(stats_checksums.values())) == 1,
        "results_match":
            len(set(results_checksums.values())) == 1,
    }
    return report


def write_bench(report: dict, path: str = DEFAULT_BENCH_PATH) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_bench(path: str = DEFAULT_BENCH_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare_reports(committed: dict, fresh: dict) -> tuple[list[str], bool]:
    """Diff a committed bench report against a freshly measured one.

    Returns ``(lines, ok)``.  ``ok`` goes False only on *semantic*
    divergence — schema mismatch, differing workload sets, internal
    checksum failures in the fresh run, or counted-stats / results
    checksums that disagree between the two reports (statistics are
    machine-independent, so any drift means the simulation changed).
    Wall-clock and speedup drift is listed but never fails.
    """
    lines: list[str] = []
    ok = True

    if committed.get("schema") != fresh.get("schema"):
        lines.append(
            f"schema: committed {committed.get('schema')!r} != "
            f"fresh {fresh.get('schema')!r}"
        )
        return lines, False

    if not fresh.get("checksums_match", False):
        lines.append("fresh run: counted-stats checksums diverge "
                     "across backends")
        ok = False
    if not fresh.get("results_match", False):
        lines.append("fresh run: program results diverge across backends")
        ok = False

    committed_wl = set(committed.get("workloads", {}))
    fresh_wl = set(fresh.get("workloads", {}))
    if committed_wl != fresh_wl:
        only_committed = sorted(committed_wl - fresh_wl)
        only_fresh = sorted(fresh_wl - committed_wl)
        if only_committed:
            lines.append("workloads only in committed report: "
                         + ", ".join(only_committed))
        if only_fresh:
            lines.append("workloads only in fresh report: "
                         + ", ".join(only_fresh))
        ok = False

    for column in COUNTED_COLUMNS:
        old = committed.get("backends", {}).get(column, {})
        new = fresh.get("backends", {}).get(column, {})
        for key in ("stats_checksum", "results_checksum"):
            if old.get(key) != new.get(key):
                lines.append(
                    f"{column}: {key} changed "
                    f"({str(old.get(key))[:12]}… -> "
                    f"{str(new.get(key))[:12]}…)"
                )
                ok = False

    # Informational: timing drift (machine-dependent, never a failure).
    for column in SPEEDUP_COLUMNS:
        old = committed.get("geomean", {}).get(column)
        new = fresh.get("geomean", {}).get(column)
        if old is not None and new is not None and old != new:
            lines.append(
                f"{column}: geomean speedup {old} -> {new} "
                "(wall-clock drift, informational)"
            )

    if not lines:
        lines.append("reports agree")
    return lines, ok
