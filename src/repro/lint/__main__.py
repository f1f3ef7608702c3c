"""Command-line linter: ``python -m repro.lint [options] files...``.

Accepts MiniC files directly and Python files with embedded MiniC
programs (top-level string constants, as the examples and workloads
use).  Exit status: 0 clean, 1 diagnostics reported (errors, or any
finding under ``--strict``), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.lint.diagnostics import (
    CODES,
    JSON_SCHEMA_VERSION,
    Severity,
    has_errors,
)
from repro.lint.engine import lint_source
from repro.lint.extract import embedded_sources_from_file


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Staged-specialization static analyzer "
                    "(dataflow verifier + annotation safety linter + "
                    "plan consistency checker).",
    )
    parser.add_argument(
        "files", nargs="*",
        help="MiniC files (.minic), or Python files with embedded "
             "MiniC string constants",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="treat warnings as errors (nonzero exit on any finding)",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated code prefixes or inclusive ranges to "
             "report (e.g. DYC001,DYC1 or DYC100-DYC199)",
    )
    parser.add_argument(
        "--interprocedural", action="store_true",
        help="also run the DYC3xx specialization-safety prover "
             "(whole-module call-graph effect summaries)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit diagnostics as JSON on stdout "
             f"(schema_version {JSON_SCHEMA_VERSION})",
    )
    parser.add_argument(
        "--codes", action="store_true",
        help="print the diagnostic code table and exit",
    )
    parser.add_argument(
        "--inject-plan-fault", action="store_true",
        help="self-test: corrupt every staged ZCP/DAE plan before the "
             "consistency check, proving DYC201 catches planner bugs",
    )
    return parser


def _valid_selector(selector: str) -> bool:
    """A selector is a known-code prefix or an inclusive ``LOW-HIGH``
    range whose endpoints parse as codes and that covers at least one
    known code."""
    if "-" in selector:
        low, _, high = selector.partition("-")
        if not (low.startswith("DYC") and high.startswith("DYC")):
            return False
        return any(low <= code <= high for code in CODES)
    return any(code.startswith(selector) for code in CODES)


def _sources_for(path: str) -> list[tuple[str, str]]:
    """``(source_id, minic_text)`` pairs for one input file."""
    if path.endswith(".py"):
        return [
            (f"{path}::{name}", text)
            for name, text in embedded_sources_from_file(path)
        ]
    with open(path, "r", encoding="utf-8") as handle:
        return [(path, handle.read())]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.codes:
        width = max(len(code) for code in CODES)
        for code, description in sorted(CODES.items()):
            print(f"{code:<{width}}  {description}")
        return 0

    if not args.files:
        parser.print_usage(sys.stderr)
        print("error: no input files", file=sys.stderr)
        return 2

    select = None
    if args.select:
        select = tuple(
            part.strip() for part in args.select.split(",") if part.strip()
        )
        unknown = [
            part for part in select if not _valid_selector(part)
        ]
        if unknown:
            print(f"error: unknown code selector(s): "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2

    all_diags = []
    checked = 0
    started = time.perf_counter()
    for path in args.files:
        try:
            sources = _sources_for(path)
        except (OSError, SyntaxError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        for source_id, text in sources:
            checked += 1
            diags = lint_source(
                text, select=select,
                inject_plan_fault=args.inject_plan_fault,
                interprocedural=args.interprocedural,
            )
            all_diags.extend(d.with_source(source_id) for d in diags)
    elapsed = time.perf_counter() - started

    if args.as_json:
        print(json.dumps({
            "schema_version": JSON_SCHEMA_VERSION,
            "strict": args.strict,
            "interprocedural": args.interprocedural,
            "programs_checked": checked,
            "wall_time_seconds": round(elapsed, 4),
            "diagnostics": [d.to_json() for d in all_diags],
        }, indent=2))
    else:
        for diag in all_diags:
            print(diag.format())
        errors = sum(
            1 for d in all_diags if d.severity is Severity.ERROR
        )
        warnings = len(all_diags) - errors
        print(f"{checked} program(s) checked: "
              f"{errors} error(s), {warnings} warning(s) "
              f"in {elapsed:.2f}s")

    return 1 if has_errors(all_diags, strict=args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
