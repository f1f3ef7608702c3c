"""Table-4-style warm-start benchmark of the persistent artifact store.

``python -m repro.evalharness warmstart`` measures, per workload, the
wall-clock cost of *generating* specialized artifacts (entry and
continuation specializations, pycodegen compilations, fusion decisions)
on a cold persistent store versus replaying them from a warm one:

1. **Cold leg** — run the workload with a fresh, empty
   :mod:`repro.runtime.persist` store; every artifact is generated and
   written back.  The store's per-kind ``work_seconds`` timers capture
   exactly the host seconds spent producing artifacts.
2. **Snapshot** — capture the populated store into a single snapshot
   file (:func:`repro.runtime.persist.save_snapshot`), then unpack it
   into a second, previously empty store directory — the cross-process
   hand-off a warm daemon start performs.
3. **Warm leg** — rerun the same workload against the unpacked store;
   artifacts replay instead of being regenerated, so the warm
   ``work_seconds`` is the residual generation cost.

The report (``BENCH_warmstart.json``, schema 1) gives each workload a
Table-4-style column: cold vs warm artifact-generation seconds, the
warm/cold overhead ratio (must be at or under ``WARM_RATIO_LIMIT``),
and the *break-even run count* — how many warm runs amortize the
one-time snapshot save + load cost, the warm-start analog of Table 4's
break-even points.

Correctness is enforced, not assumed: the cold and warm legs must
produce byte-identical statistics and results fingerprints (replayed
artifacts re-create the exact runtime state the cold run computed), and
any mismatch or over-limit ratio makes the run — and the CLI — fail.

:func:`compare_warmstart` diffs a committed report against a fresh run:
fingerprints are machine-independent and must agree; wall-clock drift
is reported but never fails the comparison.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time

from repro.config import ALL_ON, OptConfig
from repro.evalharness.runner import (
    reset_invariant_caches,
    resolve_backend,
    run_workload,
)
from repro.runtime import persist
from repro.workloads import ALL_WORKLOADS

DEFAULT_WARMSTART_PATH = "BENCH_warmstart.json"

#: Acceptance ceiling: warm-leg artifact-generation seconds must be at
#: most this fraction of the cold leg's.
WARM_RATIO_LIMIT = 0.10

#: Noise floor for the ratio check — a warm leg this cheap passes even
#: when the cold leg was itself nearly free.
_WARM_EPSILON = 1e-4


def _canon(value):
    """Hash-order-independent rendering of nested run statistics.

    ``repr`` of a set (or a dict populated in hash order) of strings is
    not stable across processes — string hashing is randomized per
    interpreter — so every set is sorted and every dict is rendered as
    sorted item tuples before hashing.  Ints and floats pass through
    (``repr`` round-trips them exactly).
    """
    if isinstance(value, dict):
        return tuple(sorted(
            ((_canon(key), _canon(item)) for key, item in value.items()),
            key=repr))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_canon(item) for item in value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(item) for item in value)
    return value


def run_fingerprints(result) -> tuple[str, str]:
    """``(stats_sha256, results_sha256)`` over one run.

    The stats fingerprint covers every byte-identical-by-construction
    quantity a run measures (full per-region statistics, cycle totals,
    region cycle maps, degradations); the results fingerprint covers the
    verified program outputs.  ``repr`` round-trips ints and floats
    exactly, so these are byte-level fingerprints.
    """
    stats_part = (
        sorted((region_id, repr(_canon(dataclasses.asdict(stats))))
               for region_id, stats in result.region_stats.items()),
        result.static_total_cycles,
        result.dynamic_total_cycles,
        result.dc_cycles,
        sorted(result.static_region_cycles.items()),
        sorted(result.dynamic_region_cycles.items()),
        sorted(result.region_entries.items()),
        result.degraded_translations,
        result.degraded_compilations,
    )
    stats_fp = hashlib.sha256(
        repr(stats_part).encode("utf-8")).hexdigest()
    results_fp = hashlib.sha256(
        repr((result.outputs_match,
              result.return_values)).encode("utf-8")).hexdigest()
    return stats_fp, results_fp


def _one_leg(workload, config: OptConfig, backend: str, store_dir: str):
    """Run ``workload`` against the store at ``store_dir``.

    Returns ``(result, store_stats, work_seconds)`` where
    ``work_seconds`` is the total artifact-generation wall time the
    store observed during this leg.  The in-process invariant caches are
    cleared first, so the leg's static run consults the store as well.
    """
    reset_invariant_caches()
    persist.reset()
    persist.activate(store_dir)
    try:
        result = run_workload(workload, config, backend=backend)
        store = persist.active_store()
        store_stats = store.stats()
        work = sum(store_stats["work_seconds"].values())
    finally:
        persist.reset()
    return result, store_stats, work


def run_warmstart(workloads=ALL_WORKLOADS,
                  config: OptConfig = ALL_ON,
                  backend: str | None = None) -> dict:
    """Benchmark cold vs warm artifact generation; return the report."""
    backend = resolve_backend(backend)
    per_workload: dict[str, dict] = {}
    total_cold = total_warm = 0.0
    all_match = True
    all_within = True

    scratch = tempfile.mkdtemp(prefix="repro-warmstart-")
    try:
        for workload in workloads:
            cold_dir = os.path.join(scratch, f"{workload.name}-cold")
            warm_dir = os.path.join(scratch, f"{workload.name}-warm")
            snap_path = os.path.join(scratch, f"{workload.name}.snap")

            cold, cold_stats, cold_work = _one_leg(
                workload, config, backend, cold_dir)

            snap_start = time.perf_counter()
            saved = persist.save_snapshot(cold_dir, snap_path)
            loaded = persist.load_snapshot(snap_path, warm_dir)
            snapshot_seconds = time.perf_counter() - snap_start
            if not saved.ok or not loaded.ok:
                raise RuntimeError(
                    f"{workload.name}: snapshot round-trip failed "
                    f"(save: {saved.error}, load: {loaded.error})")

            warm, warm_stats, warm_work = _one_leg(
                workload, config, backend, warm_dir)

            cold_fp = run_fingerprints(cold)
            warm_fp = run_fingerprints(warm)
            match = cold_fp == warm_fp
            within = warm_work <= max(WARM_RATIO_LIMIT * cold_work,
                                      _WARM_EPSILON)
            all_match = all_match and match
            all_within = all_within and within
            total_cold += cold_work
            total_warm += warm_work

            saved_per_run = cold_work - warm_work
            break_even = (round(snapshot_seconds / saved_per_run, 2)
                          if saved_per_run > 0 else None)
            per_workload[workload.name] = {
                "cold_work_seconds": round(cold_work, 6),
                "warm_work_seconds": round(warm_work, 6),
                "warm_ratio": round(warm_work / cold_work, 4)
                              if cold_work > 0 else 0.0,
                "within_limit": within,
                "snapshot_seconds": round(snapshot_seconds, 6),
                "break_even_runs": break_even,
                "snapshot_records": saved.loaded,
                "replayed_entries": warm_stats["replayed_entries"],
                "replayed_continuations":
                    warm_stats["replayed_continuations"],
                "warm_hits": warm_stats["hits"],
                "stale_drops": warm_stats["stale_drops"],
                "stats_checksum": cold_fp[0],
                "results_checksum": cold_fp[1],
                "checksums_match": match,
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    return {
        "schema": 1,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "backend": backend,
        "warm_ratio_limit": WARM_RATIO_LIMIT,
        "workloads": per_workload,
        "totals": {
            "cold_work_seconds": round(total_cold, 6),
            "warm_work_seconds": round(total_warm, 6),
            "warm_ratio": round(total_warm / total_cold, 4)
                          if total_cold > 0 else 0.0,
        },
        "checksums_match": all_match,
        "warm_within_limit": all_within,
        "ok": all_match and all_within,
    }


def write_warmstart(report: dict,
                    path: str = DEFAULT_WARMSTART_PATH) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_warmstart(path: str = DEFAULT_WARMSTART_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare_warmstart(committed: dict,
                      fresh: dict) -> tuple[list[str], bool]:
    """Diff a committed warm-start report against a fresh run.

    ``ok`` goes False only on semantic divergence: schema mismatch,
    differing workload sets, a failing fresh run, or stats/results
    fingerprints that disagree between the two reports (fingerprints are
    machine-independent).  Timing drift is listed but never fails.
    """
    lines: list[str] = []
    ok = True

    if committed.get("schema") != fresh.get("schema"):
        lines.append(
            f"schema: committed {committed.get('schema')!r} != "
            f"fresh {fresh.get('schema')!r}")
        return lines, False

    if not fresh.get("ok", False):
        lines.append("fresh run failed (checksum mismatch or warm "
                     "overhead over limit)")
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

    for name in sorted(committed_wl & fresh_wl):
        old = committed["workloads"][name]
        new = fresh["workloads"][name]
        for key in ("stats_checksum", "results_checksum"):
            if old.get(key) != new.get(key):
                lines.append(
                    f"{name}: {key} changed "
                    f"({str(old.get(key))[:12]}… -> "
                    f"{str(new.get(key))[:12]}…)")
                ok = False
        old_ratio = old.get("warm_ratio")
        new_ratio = new.get("warm_ratio")
        if old_ratio != new_ratio:
            lines.append(f"{name}: warm ratio {old_ratio} -> "
                         f"{new_ratio} (wall-clock drift, informational)")

    if not lines:
        lines.append("reports agree")
    return lines, ok
