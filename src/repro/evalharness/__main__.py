"""Regenerate the paper's tables: ``python -m repro.evalharness [what]``.

``what`` is one of ``table1`` … ``table5``, ``dispatch`` (the §4.4.3
dispatch-cost measurements), ``all`` (default), or ``bench`` (wall-clock
comparison of the execution backends, written to ``BENCH_interp.json``).

Shared flags::

    --backend {reference,threaded,threaded_fast}
                                     execution backend (default: threaded,
                                     or $REPRO_BACKEND; threaded_fast
                                     is uncounted)
    --jobs N                         fan runs out over N worker processes
                                     (0 = one per CPU; default $REPRO_JOBS
                                     or serial)
    --no-memo                        disable the content-hash result cache
    --memo-dir DIR                   cache directory (default .repro_memo,
                                     or $REPRO_MEMO_DIR)

Robustness flags (exported to the environment so pool workers inherit
them)::

    --faults SPEC                    arm fault-injection points
                                     (sets REPRO_FAULTS)
    --degrade                        enable the graceful-degradation
                                     ladder (sets REPRO_DEGRADE=1)
    --task-timeout SECS              no-progress timeout per pool round
                                     (sets REPRO_TASK_TIMEOUT)

``bench`` flags: ``--output PATH``, ``--repeat N``, and ``--compare``
(diff the committed report at ``--output`` against a fresh run instead
of overwriting it; exits non-zero on semantic divergence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.evalharness.bench import (
    DEFAULT_BENCH_PATH,
    compare_reports,
    load_bench,
    run_bench,
    write_bench,
)
from repro.evalharness.memo import Memoizer
from repro.evalharness.tables import (
    Table,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    build_table5,
    render_table,
    run_all,
)
from repro.machine import BACKENDS
from repro.workloads import APPLICATIONS

TARGETS = ("table1", "table2", "table3", "table4", "table5",
           "dispatch", "all", "bench")


def _emit(table: Table) -> None:
    print()
    print(render_table(table))


def build_dispatch_table(results) -> Table:
    """§4.4.3: unchecked vs hash-based dispatch costs."""
    table = Table(
        title="Dispatch Costs (Section 4.4.3)",
        headers=["Dynamic Region", "Policy", "Dispatches",
                 "Avg Cycles/Dispatch"],
    )
    for name, result in results.items():
        for region_id, stats in sorted(result.region_stats.items()):
            if not stats.dispatches:
                continue
            policy = ("cache_one_unchecked" if stats.unchecked_dispatches
                      else "cache_all")
            table.rows.append([
                f"{name} (region {region_id})",
                policy,
                str(stats.dispatches),
                f"{stats.dispatch_cycles / stats.dispatches:.0f}",
            ])
    return table


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evalharness",
        description="Reproduce the paper's tables / benchmark the "
                    "interpreter backends.",
    )
    parser.add_argument("what", nargs="?", default="all",
                        choices=TARGETS,
                        help="which table (or sweep) to build")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="execution backend (default: $REPRO_BACKEND "
                             "or threaded)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (0 = one per CPU; "
                             "default: $REPRO_JOBS or serial)")
    parser.add_argument("--no-memo", action="store_true",
                        help="disable the content-hash result cache")
    parser.add_argument("--memo-dir", default=None, metavar="DIR",
                        help="result-cache directory (default: "
                             "$REPRO_MEMO_DIR or .repro_memo)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault-injection spec, e.g. "
                             "'cache.corrupt:once;worker.crash' "
                             "(sets $REPRO_FAULTS for workers too)")
    parser.add_argument("--degrade", action="store_true",
                        help="enable the graceful-degradation ladder "
                             "(sets $REPRO_DEGRADE=1)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECS",
                        help="abandon a pool round after SECS with no "
                             "completed task (sets $REPRO_TASK_TIMEOUT)")
    parser.add_argument("--output", default=DEFAULT_BENCH_PATH,
                        metavar="PATH",
                        help="bench only: where to write the JSON report")
    parser.add_argument("--repeat", type=int, default=3, metavar="N",
                        help="bench only: timing repetitions per "
                             "measurement (best-of; default 3)")
    parser.add_argument("--compare", action="store_true",
                        help="bench only: diff the committed report at "
                             "--output against a fresh run instead of "
                             "overwriting it")
    return parser.parse_args(argv)


def _bench(args: argparse.Namespace) -> int:
    report = run_bench(repeat=args.repeat)
    if args.compare:
        try:
            committed = load_bench(args.output)
        except (OSError, ValueError) as err:
            print(f"cannot load committed report {args.output}: {err}",
                  file=sys.stderr)
            return 1
        lines, ok = compare_reports(committed, report)
        for line in lines:
            print(line)
        if not ok:
            print("ERROR: committed bench report disagrees with the "
                  "fresh run", file=sys.stderr)
            return 1
        return 0
    write_bench(report, args.output)
    print(json.dumps(report["backends"], indent=2))
    for column, value in report["geomean"].items():
        print(f"geomean speedup (reference/{column}): {value}x")
    print(f"report written to {args.output}")
    failed = False
    if not report["checksums_match"]:
        print("ERROR: counted execution statistics diverged "
              "(stats_checksum mismatch)", file=sys.stderr)
        failed = True
    if not report["results_match"]:
        print("ERROR: program results diverged across backends "
              "(results_checksum mismatch)", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("backend statistics and results checksums match")
    return 0


def _export_robustness_env(args: argparse.Namespace) -> None:
    """Publish robustness flags as environment variables.

    The runtime resolves faults/degradation from the environment (on top
    of ``OptConfig``), and pool workers inherit ``os.environ`` — so one
    export point covers the serial path, the parent's own runs, and
    every worker process.
    """
    if args.faults is not None:
        from repro.faults import parse_spec
        parse_spec(args.faults)   # fail fast on typos, in the parent
        os.environ["REPRO_FAULTS"] = args.faults
    if args.degrade:
        os.environ["REPRO_DEGRADE"] = "1"
    if args.task_timeout is not None:
        os.environ["REPRO_TASK_TIMEOUT"] = str(args.task_timeout)


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    _export_robustness_env(args)
    start = time.time()

    if args.what == "bench":
        return _bench(args)

    memo = None if args.no_memo else Memoizer(args.memo_dir)
    kwargs = dict(jobs=args.jobs, memo=memo, backend=args.backend)

    if args.what in ("table1", "all"):
        _emit(build_table1())
    if args.what in ("table2", "table3", "table4", "dispatch", "all"):
        results = run_all(**kwargs)
        if args.what in ("table2", "all"):
            _emit(build_table2(results))
        if args.what in ("table3", "all"):
            _emit(build_table3(results))
        if args.what in ("table4", "all"):
            app_results = {
                w.name: results[w.name] for w in APPLICATIONS
            }
            _emit(build_table4(app_results))
        if args.what in ("dispatch", "all"):
            _emit(build_dispatch_table(results))
        if args.what == "all":
            _emit(build_table5(results, progress=_progress, **kwargs))
    elif args.what == "table5":
        _emit(build_table5(progress=_progress, **kwargs))

    print(f"\n[{time.time() - start:.1f}s]", file=sys.stderr)
    return 0


def _progress(workload: str, ablation: str) -> None:
    print(f"  [table5] {workload} without {ablation}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
