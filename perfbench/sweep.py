"""The ``table_sweep`` workload body, run in a child process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/sweep.py --out RESULT.json [--setup-only]
                               [--seconds S] [--trace]

Set-up is the ``ALL_ON`` baseline pass, ``run_all(ALL_ON, jobs=1,
memo=None)``; the child prints ``READY`` when it is done, so the parent
can time spawn-to-ready, and goes on when it reads a line on standard
input.  The timed phase then runs whole Table 5
sweeps, ``build_table5(baseline, jobs=1, memo=None)`` with the default
backend, until ``--seconds`` have passed (at least ``MIN_SWEEPS``).  An op is one
``run_workload`` call: one per ablation cell, two for a starred cell
(the run that cannot be specialized and its fallback).  Every sweep
makes the same calls in the same order, and the result file lists each
sweep's call durations in that order, with the speed probe
(``probe.py``) timed before every call and once after the last.  The
``progress`` callback timestamps each of the 45 cells.  With
``--trace`` a single untraced sweep runs, then one more with the span
wrappers installed, for the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import checks
import probe
import spans

#: Each call is timed in at least this many sweeps, so the benchmark can
#: take its median and one disturbed call does not move the figures.
MIN_SWEEPS = 2


class Timing:
    """Times every ``run_workload`` call the ablation cells make (the
    Table 5 worker looks the name up in ``parallel``), with a speed
    probe before each call.  ``inner`` is what the wrapper calls, so
    span wrappers can go inside it and leave the probe out of them."""

    def __init__(self, parallel):
        self.inner = parallel.run_workload
        self.runs_ns: list[int] = []
        self.probes_ms: list[float] = []

        def run_workload(*args, **kwargs):
            self.probes_ms.append(probe.probe_ms())
            start = time.perf_counter_ns()
            try:
                return self.inner(*args, **kwargs)
            finally:
                self.runs_ns.append(time.perf_counter_ns() - start)
        parallel.run_workload = run_workload

    def normalized_ms(self) -> list[float]:
        """Each call's time at the reference speed of ``probe.py``."""
        probes = self.probes_ms
        return [probe.normalize(ns / 1e6, probes[i], probes[i + 1])
                for i, ns in enumerate(self.runs_ns)]


def _capture_cells(tables) -> list:
    """Keep the ``(task, outcome)`` pairs of each ``run_ablations``
    call, so every cell's ``RunResult`` can be checked."""
    captured: list = []
    inner = tables.run_ablations

    def run_ablations(tasks, **kwargs):
        outcomes = inner(tasks, **kwargs)
        captured.append(list(zip(tasks, outcomes)))
        return outcomes
    tables.run_ablations = run_ablations
    return captured


def _sweep(tables, baseline, captured, timing: Timing) -> dict:
    """One timed Table 5 sweep."""
    timing.runs_ns.clear()
    timing.probes_ms.clear()
    stamps: list[tuple[str, int]] = []

    def progress(name, ablation):
        stamps.append((f"{name}/{ablation}", time.perf_counter_ns()))

    start = time.perf_counter_ns()
    table = tables.build_table5(baseline, progress=progress, jobs=1,
                                memo=None)
    end = time.perf_counter_ns()
    timing.probes_ms.append(probe.probe_ms())
    latencies, previous = {}, start
    for op, stamp in stamps:
        latencies[op] = stamp - previous
        previous = stamp
    text = tables.render_table(table)
    cells = captured.pop()
    return {"wall_ns": end - start, "latencies_ns": latencies,
            "runs_ns": list(timing.runs_ns),
            "normalized_ms": timing.normalized_ms(),
            "digest": checks.sweep_digest(baseline, cells, text),
            "cells": cells}


def _sim_counts(baseline, cells) -> tuple[float, float]:
    results = list(baseline.values()) + [r for _, (r, _) in cells]
    exec_cycles = sum(r.static_total_cycles + r.dynamic_total_cycles
                      for r in results)
    return exec_cycles, sum(r.dc_cycles for r in results)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/sweep.py")
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.config import ALL_ON
    from repro.evalharness import parallel, tables

    baseline = tables.run_all(ALL_ON, jobs=1, memo=None)
    # The parent times its speed probe between READY and GO, while this
    # process is idle.
    print("READY", flush=True)
    sys.stdin.readline()
    if args.setup_only:
        return 0

    captured = _capture_cells(tables)
    timing = Timing(parallel)
    sweeps = []
    begin = time.perf_counter()
    # A traced run needs one untraced sweep only, for the overhead.
    min_sweeps = 1 if args.trace else MIN_SWEEPS
    while len(sweeps) < min_sweeps or (
            not args.trace and time.perf_counter() - begin < args.seconds):
        sweeps.append(_sweep(tables, baseline, captured, timing))
        del sweeps[-1]["cells"]  # checked; keep the heap the same size
    problems = []
    for sweep in sweeps:
        problem = checks.check_sweep_digest(sweep["digest"])
        if problem:
            problems.append(problem)
    ops = sum(len(s["runs_ns"]) for s in sweeps)
    wall_ns = sum(s["wall_ns"] for s in sweeps)
    report = {
        "ops": ops,
        "failed_ops": ops if problems else 0,
        "problems": problems,
        "wall_s": wall_ns / 1e9,
        "runs_ms": [[ns / 1e6 for ns in s["runs_ns"]] for s in sweeps],
        "normalized_ms": [s["normalized_ms"] for s in sweeps],
        "digest": sweeps[0]["digest"],
    }

    if args.trace:
        recorder = spans.SpanRecorder()
        # Span wrappers go inside the timing wrapper, so the probe stays
        # outside every span.
        timed, parallel.run_workload = parallel.run_workload, timing.inner
        spans.install_harness(recorder)
        timing.inner, parallel.run_workload = parallel.run_workload, timed
        traced = _sweep(tables, baseline, captured, timing)
        exec_cycles, dc_cycles = _sim_counts(baseline, traced["cells"])
        selfs = spans.self_times(recorder.spans)
        layers = spans.layer_metrics(recorder.spans, selfs,
                                     spans.HARNESS_LAYERS)
        cell_wall = spans.per_op(recorder.spans, selfs,
                                 "evalharness.table5_cell", spans.WALL)
        uncovered = [latency - cell_wall.get(op, 0)
                     for op, latency in traced["latencies_ns"].items()]
        untraced = [ms for s in sweeps for ms in s["normalized_ms"]]
        untraced_rate = len(untraced) / sum(untraced)
        traced_rate = (len(traced["normalized_ms"])
                       / sum(traced["normalized_ms"]))
        layers.update({
            "sim.exec_cycles": exec_cycles,
            "sim.dc_cycles": dc_cycles,
            "trace.uncovered_ms": spans.median(uncovered) / 1e6,
            "trace.overhead_pct":
                100.0 * (1.0 - traced_rate / untraced_rate),
            "trace.spans_per_op":
                len(recorder.spans) / len(traced["latencies_ns"]),
        })
        report["layers"] = layers
        if traced["digest"] != report["digest"]:
            report["problems"].append("traced sweep changed the digest")
            report["failed_ops"] = ops

    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
