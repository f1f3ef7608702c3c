"""Steadiness tool: run each workload repeatedly and report the noise.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload serve_miss [--workload ...]
        [--runs 10] [--seed-base 1] [--seconds S] [--out FILE]

Each run is ``perfbench/run.py`` with its own seed (``seed-base``,
``seed-base + 1``, ...).  For every end-to-end metric the tool prints
the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the relative spread
``(q3 - q1) / median``, next to the metric's bound in
``BENCHMARK.json``.  A spread below a third of the bound is ``steady``.
With ``--out`` the set is appended to the workload's list in a JSON
file, so later changes can see the noise floor they are measured
against; when the file already holds a set for the workload, each
metric's median is also compared with the previous set's.  Each run's
human-readable lines (raw wall times, tail rung, set-up samples) are
printed as it ends and kept with the set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed\n"
                         + proc.stdout)
    # The human-readable lines: raw wall times, tail rung, sample counts.
    result["notes"] = [line.strip() for line in lines[1:-1]
                       if " = " not in line]
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2
    verdict = ("steady" if spread < bound / 3
               else "within bound" if spread <= bound else "too noisy")
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "verdict": verdict}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            record = json.load(handle)
    for workload in args.workload:
        sets = record.setdefault(workload, [])
        values: dict[str, list[float]] = {name: [] for name in bounds}
        notes = []
        started = time.time()
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i, seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            notes.append(result["notes"])
            print(f"  seed {args.seed_base + i}: "
                  + "; ".join(result["notes"]), flush=True)
        summary = {name: summarize(values[name], bounds[name])
                   for name in bounds}
        print(f"{workload}: {args.runs} runs of {seconds} s, seeds "
              f"{args.seed_base}..{args.seed_base + args.runs - 1}, "
              f"{time.time() - started:.0f} s wall")
        for name, s in summary.items():
            print(f"  {name:18s} median {s['median']:12.5g}  "
                  f"q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}  "
                  f"spread {s['spread']:7.2%}  bound {s['bound']:.0%}  "
                  f"{s['verdict']}")
        if sets:
            for name, s in summary.items():
                old = sets[-1]["metrics"][name]["median"]
                print(f"  {name:18s} median moved "
                      f"{s['median'] / old - 1:+7.2%} from the previous set")
        sets.append({
            "runs": args.runs, "seconds": seconds,
            "seeds": [args.seed_base, args.seed_base + args.runs - 1],
            "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                    f"Python {platform.python_version()}",
            "metrics": summary,
            "notes": notes,
        })
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
