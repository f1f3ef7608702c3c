"""Output checks: the Table 5 sweep digest and served-result checks.

The sweep digest hashes every ``RunResult`` the sweep produces (the
``ALL_ON`` baseline and each ablation cell) plus the rendered table.  It
reads a fixed list of fields, so adding a counter to the program does
not move it, while any change in what a run measures or computes does.
The expected value is pinned in ``pinned.json`` beside this file; it
was recorded with the reference interpreter, and every counted backend
must match it byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "pinned.json")

#: ``RegionStats`` counters that enter the digest.
REGION_FIELDS = ("specializations", "contexts_specialized",
                 "instructions_generated", "dc_cycles", "dispatches",
                 "dispatch_cycles")


def run_result_record(result) -> tuple:
    """The measured statistics and results of one run, canonically
    ordered (no set or dict iteration order leaks in)."""
    regions = tuple(
        (region_id, stats.function_name,
         tuple(getattr(stats, name) for name in REGION_FIELDS))
        for region_id, stats in sorted(result.region_stats.items())
    )
    return (
        result.workload.name,
        result.static_total_cycles,
        result.dynamic_total_cycles,
        result.dc_cycles,
        tuple(sorted(result.static_region_cycles.items())),
        tuple(sorted(result.dynamic_region_cycles.items())),
        tuple(sorted(result.region_entries.items())),
        regions,
        result.outputs_match,
        tuple(result.return_values),
    )


def sweep_digest(baseline: dict, cells: list, table_text: str) -> str:
    """SHA-256 over the baseline runs, every cell, and the table.

    ``cells`` is a list of ``((workload, ablation), (result, starred))``
    in sweep order.
    """
    hasher = hashlib.sha256()
    for name in sorted(baseline):
        hasher.update(repr(("baseline", name,
                            run_result_record(baseline[name])))
                      .encode("utf-8"))
    for (name, ablation), (result, starred) in cells:
        hasher.update(repr((name, ablation, starred,
                            run_result_record(result))).encode("utf-8"))
    hasher.update(table_text.encode("utf-8"))
    return hasher.hexdigest()


def load_pinned(path: str = PINNED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_sweep_digest(digest: str, path: str = PINNED_PATH) -> str | None:
    """``None`` when ``digest`` matches the pinned value, else why not."""
    try:
        expected = load_pinned(path)["table_sweep_digest"]
    except (OSError, ValueError, KeyError) as err:
        return f"cannot read the pinned digest from {path}: {err}"
    if digest != expected:
        return (f"sweep digest {digest} differs from the pinned "
                f"{expected}")
    return None


def sim_totals(records) -> tuple[float, float, str | None]:
    """Execution and dynamic-compilation cycles summed over workloads.

    ``records`` yields ``(workload, exec_cycles, dc_cycles)``; one
    workload must always report the same pair (configurations in the
    serve workloads differ only in execution-inert fields).  Returns
    ``(exec, dc, problem)``.
    """
    per_workload: dict[str, tuple[float, float]] = {}
    for name, exec_cycles, dc_cycles in records:
        seen = per_workload.setdefault(name, (exec_cycles, dc_cycles))
        if seen != (exec_cycles, dc_cycles):
            return 0.0, 0.0, (f"{name}: cycle counts differ between "
                              f"responses ({seen} vs "
                              f"{(exec_cycles, dc_cycles)})")
    exec_total = dc_total = 0.0
    for name in sorted(per_workload):
        exec_total += per_workload[name][0]
        dc_total += per_workload[name][1]
    return exec_total, dc_total, None


def served_failures(records, leg) -> list[str]:
    """Check served responses; returns one message per failed request.

    ``records`` are ``(request, status, body)`` with ``body`` decoded.
    Each is also fed to ``leg`` (a :class:`repro.serve.loadgen.
    LegResult`), which tracks fingerprint self-consistency for the
    offline comparison.
    """
    problems = []
    for request, status, body in records:
        leg.record(request, status, body, 0.0)
        if status != 200:
            problems.append(f"{request['echo']}: status {status}")
        elif body.get("echo") != request["echo"]:
            problems.append(f"{request['echo']}: echo came back as "
                            f"{body.get('echo')!r}")
        elif not body.get("outputs_match", False):
            problems.append(f"{request['echo']}: outputs_match false")
    if leg.mismatched_fingerprints:
        problems.append(f"{leg.mismatched_fingerprints} response(s) "
                        f"changed fingerprint for the same request")
    return problems


def offline_failures(leg, sample: int, seed: int) -> tuple[int, list[str]]:
    """Re-run a seeded sample of served keys offline and compare
    fingerprints (``loadgen.verify_offline``).  Returns
    ``(checked, problems)``."""
    import random

    from repro.serve.loadgen import verify_offline

    outcome = verify_offline(leg, sample, random.Random(seed))
    problems = [f"offline fingerprint mismatch: {name}"
                for name in outcome["mismatches"]]
    return outcome["checked"], problems
