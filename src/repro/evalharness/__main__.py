"""Regenerate the paper's tables: ``python -m repro.evalharness [what]``.

``what`` is one of ``table1`` … ``table5``, ``dispatch`` (the §4.4.3
dispatch-cost measurements), ``all`` (default), ``bench`` (wall-clock
comparison of the execution backends, written to ``BENCH_interp.json``),
or ``warmstart`` (cold vs warm artifact generation against the
persistent store, written to ``BENCH_warmstart.json``).

Shared flags::

    --backend {reference,threaded,pycodegen}
                                     execution backend (default: threaded,
                                     or $REPRO_BACKEND)
    --codegen-mode {counted,fast}    pycodegen mode (default: counted,
                                     or $REPRO_CODEGEN_MODE)
    --jobs N                         fan runs out over N worker processes
                                     (0 = one per CPU; default $REPRO_JOBS
                                     or serial)
    --no-memo                        disable the content-hash result cache
    --memo-dir DIR                   cache directory (default .repro_memo,
                                     or $REPRO_MEMO_DIR)
    --persist-dir DIR                activate the persistent artifact
                                     store at DIR for every run (sets
                                     REPRO_PERSIST_DIR, so --jobs pool
                                     workers share it too)

Robustness flags (exported to the environment so pool workers inherit
them)::

    --faults SPEC                    arm fault-injection points
                                     (sets REPRO_FAULTS)
    --degrade                        enable the graceful-degradation
                                     ladder (sets REPRO_DEGRADE=1)
    --task-timeout SECS              no-progress timeout per pool round
                                     (sets REPRO_TASK_TIMEOUT)

``bench``/``warmstart`` flags: ``--output PATH``, ``--repeat N``
(bench only), and ``--compare`` (diff the committed report at
``--output`` against a fresh run instead of overwriting it; exits
non-zero on semantic divergence).
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
from repro.machine import BACKENDS, CODEGEN_MODES
from repro.workloads import APPLICATIONS

TARGETS = ("table1", "table2", "table3", "table4", "table5",
           "dispatch", "all", "bench", "warmstart")


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
    parser.add_argument("--codegen-mode", choices=CODEGEN_MODES,
                        default=None,
                        help="pycodegen mode (default: "
                             "$REPRO_CODEGEN_MODE or counted; sets "
                             "$REPRO_CODEGEN_MODE for workers too)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (0 = one per CPU; "
                             "default: $REPRO_JOBS or serial)")
    parser.add_argument("--no-memo", action="store_true",
                        help="disable the content-hash result cache")
    parser.add_argument("--memo-dir", default=None, metavar="DIR",
                        help="result-cache directory (default: "
                             "$REPRO_MEMO_DIR or .repro_memo)")
    parser.add_argument("--persist-dir", default=None, metavar="DIR",
                        help="activate the persistent artifact store at "
                             "DIR (sets $REPRO_PERSIST_DIR for workers "
                             "too)")
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


def _warmstart(args: argparse.Namespace) -> int:
    from repro.evalharness.warmstart import (
        DEFAULT_WARMSTART_PATH,
        compare_warmstart,
        load_warmstart,
        run_warmstart,
        write_warmstart,
    )
    output = args.output
    if output == DEFAULT_BENCH_PATH:
        output = DEFAULT_WARMSTART_PATH
    report = run_warmstart(backend=args.backend)
    if args.compare:
        try:
            committed = load_warmstart(output)
        except (OSError, ValueError) as err:
            print(f"cannot load committed report {output}: {err}",
                  file=sys.stderr)
            return 1
        lines, ok = compare_warmstart(committed, report)
        for line in lines:
            print(line)
        if not ok:
            print("ERROR: committed warm-start report disagrees with "
                  "the fresh run", file=sys.stderr)
            return 1
        return 0
    write_warmstart(report, output)
    for name, entry in report["workloads"].items():
        print(f"{name:12s} cold={entry['cold_work_seconds']:.4f}s "
              f"warm={entry['warm_work_seconds']:.4f}s "
              f"ratio={entry['warm_ratio']:.4f} "
              f"match={entry['checksums_match']}")
    totals = report["totals"]
    print(f"total cold={totals['cold_work_seconds']:.4f}s "
          f"warm={totals['warm_work_seconds']:.4f}s "
          f"ratio={totals['warm_ratio']:.4f}")
    print(f"report written to {output}")
    if not report["checksums_match"]:
        print("ERROR: warm run statistics/results diverged from cold "
              "run", file=sys.stderr)
        return 1
    if not report["warm_within_limit"]:
        print("ERROR: warm-start overhead exceeds "
              f"{report['warm_ratio_limit']:.0%} of cold",
              file=sys.stderr)
        return 1
    print("warm runs byte-identical to cold and within the overhead "
          "limit")
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
    if args.codegen_mode is not None:
        os.environ["REPRO_CODEGEN_MODE"] = args.codegen_mode
    if args.persist_dir is not None:
        from repro.runtime import persist
        os.environ[persist.ENV_PERSIST_DIR] = args.persist_dir
        # The parent process may already have resolved (and cached) "no
        # store" — re-resolve so its own runs honor the flag too.
        persist.reset()


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    _export_robustness_env(args)
    start = time.time()

    if args.what == "bench":
        return _bench(args)
    if args.what == "warmstart":
        return _warmstart(args)

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
