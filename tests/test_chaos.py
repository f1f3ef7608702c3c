"""Tests for the chaos harness: scheduling, invariants, end-to-end.

``plan_schedule`` is the reproducibility contract — everything a chaos
run does (fault spec, traffic, kill schedule) must be a pure function
of the seed — so most of this module pins that down without spawning
anything.  One deliberately tiny end-to-end run exercises the full
orchestrator (supervised fleet on a memo directory, mid-chunk worker
kill, drain burst, warm replay from the memoizer, offline oracle) in
CI-sized form.
"""

import json
import os

from repro.chaos.orchestrator import (
    ALLOWED_ERROR_CODES,
    ALLOWED_STATUSES,
    DEFAULT_BENCH_PATH,
    SMOKE_BENCH_PATH,
    _parse_args,
    check_memo,
    main,
    merge_leg,
    output_path,
    plan_schedule,
)
from repro.evalharness.memo import Memoizer
from repro.evalharness.runner import run_workload
from repro.faults import parse_spec
from repro.serve.loadgen import LegResult
from repro.workloads import WORKLOADS_BY_NAME

_PLAN_KNOBS = dict(procs=2, kills=3, chunks=5, chunk_size=10,
                   tenants=2, workloads=("binary", "query"))


class TestPlanSchedule:
    def test_same_seed_is_identical(self):
        assert plan_schedule(42, **_PLAN_KNOBS) == \
               plan_schedule(42, **_PLAN_KNOBS)

    def test_different_seeds_differ(self):
        a = plan_schedule(1, **_PLAN_KNOBS)
        b = plan_schedule(2, **_PLAN_KNOBS)
        assert a != b
        assert a["traffic"] != b["traffic"]

    def test_fault_spec_parses(self):
        # Regression: points are ';'-separated — a ','-joined spec
        # reads as a bogus parameter and crash-loops every worker.
        schedule = plan_schedule(7, **_PLAN_KNOBS)
        registry = parse_spec(schedule["fault_spec"])
        assert set(registry) == {"serve.respond",
                                 "serve.worker_heartbeat"}

    def test_kill_plan_bounds(self):
        schedule = plan_schedule(9, **_PLAN_KNOBS)
        kills = schedule["kills"]
        assert len(kills) == 3
        chunks_hit = [k["during_chunk"] for k in kills]
        assert chunks_hit == sorted(chunks_hit)
        assert len(set(chunks_hit)) == len(chunks_hit)
        for kill in kills:
            # Never before the fleet has served real traffic.
            assert 1 <= kill["during_chunk"] < 5
            assert 0 <= kill["worker_slot"] < 2

    def test_kills_clamped_by_chunks(self):
        schedule = plan_schedule(3, procs=2, kills=10, chunks=3,
                                 chunk_size=4, tenants=1,
                                 workloads=("binary",))
        assert len(schedule["kills"]) == 2

    def test_traffic_stays_in_universe(self):
        schedule = plan_schedule(5, **_PLAN_KNOBS)
        assert len(schedule["traffic"]) == 5
        for chunk in schedule["traffic"]:
            assert len(chunk) == 10
            for request in chunk:
                assert request["workload"] in ("binary", "query")
                assert request["config"]["quarantine_after"] in (3, 4)

    def test_drain_burst_is_disjoint_from_universe(self):
        schedule = plan_schedule(5, **_PLAN_KNOBS)
        assert schedule["drain_burst"]
        for request in schedule["drain_burst"]:
            # Fresh keys: the burst must actually execute, so it is
            # genuinely in flight when SIGTERM lands.
            assert request["config"]["quarantine_after"] >= 8000


class TestInvariantHelpers:
    def test_merge_leg_accumulates(self):
        total, part = LegResult("total"), LegResult("part")
        part.statuses = {"200": 3, "503": 1}
        part.error_codes = {"circuit_open": 1}
        part.fingerprints = {"k1": "aa"}
        part.retries, part.lost, part.echo_mismatches = 2, 1, 1
        part.cached, part.transport_errors = 1, 2
        merge_leg(total, part)
        assert total.statuses == {"200": 3, "503": 1}
        assert total.error_codes == {"circuit_open": 1}
        assert (total.retries, total.lost, total.echo_mismatches) \
            == (2, 1, 1)
        # Same key, same fingerprint: no mismatch.
        merge_leg(total, part)
        assert total.mismatched_fingerprints == 0
        assert total.statuses["200"] == 6

    def test_merge_leg_flags_cross_leg_divergence(self):
        total, part = LegResult("total"), LegResult("part")
        total.fingerprints = {"k1": "aa"}
        part.fingerprints = {"k1": "bb"}
        merge_leg(total, part)
        assert total.mismatched_fingerprints == 1

    def test_check_memo_clean_and_corrupt(self, tmp_path):
        run_workload(WORKLOADS_BY_NAME["binary"],
                     memo=Memoizer(str(tmp_path)))
        failures = []
        scan = check_memo(str(tmp_path), "after kill 1", failures)
        assert failures == []
        assert scan["when"] == "after kill 1"
        assert scan["entries"] == 1 and scan["corrupt"] == 0
        entry = next(tmp_path.glob("*.pkl"))
        entry.write_bytes(b"torn" + entry.read_bytes()[4:])
        scan = check_memo(str(tmp_path), "after drain", failures)
        assert scan["corrupt"] == 1
        assert failures and "after drain" in failures[0]

    def test_error_taxonomy_is_bounded(self):
        assert "200" in ALLOWED_STATUSES
        assert "404" not in ALLOWED_STATUSES
        assert "circuit_open" in ALLOWED_ERROR_CODES
        assert "unknown" not in ALLOWED_ERROR_CODES


class TestOutputPath:
    def test_smoke_run_leaves_the_committed_report_alone(self):
        """A smoke run from the repository root writes under a
        git-ignored directory, never over the committed report."""
        path = output_path(_parse_args(["--smoke"]))
        assert path == SMOKE_BENCH_PATH != DEFAULT_BENCH_PATH
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, ".gitignore"),
                  encoding="utf-8") as handle:
            ignored = handle.read().split()
        assert os.path.dirname(SMOKE_BENCH_PATH) + "/" in ignored

    def test_full_run_writes_the_committed_report(self):
        assert output_path(_parse_args([])) == DEFAULT_BENCH_PATH

    def test_output_wins(self):
        for argv in (["--smoke"], []):
            args = _parse_args([*argv, "--output", "elsewhere.json"])
            assert output_path(args) == "elsewhere.json"


class TestEndToEnd:
    def test_tiny_chaos_run_holds_invariants(self, tmp_path):
        output = str(tmp_path / "BENCH_chaos.json")
        code = main([
            "--seed", "11", "--procs", "2", "--kills", "1",
            "--chunks", "3", "--chunk-size", "8", "--clients", "4",
            "--tenants", "2", "--workloads", "binary",
            "--output", output,
        ])
        assert code == 0
        with open(output, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["kind"] == "chaos-bench" and report["ok"]
        assert report["failures"] == []
        traffic = report["traffic"]
        assert traffic["lost"] == 0
        assert traffic["echo_mismatches"] == 0
        assert len(report["kills"]) == 1
        assert all(k["recycled"] for k in report["kills"])
        assert report["memo_checks"]
        assert all(s["corrupt"] == 0 for s in report["memo_checks"])
        oracle = report["offline_oracle"]
        assert oracle["checked"] == oracle["matched"] > 0
        drain = report["drain"]
        assert drain["supervisor_exit"] == 0
        assert drain["warm_fingerprints_identical"]
        assert drain["warm_memo_hits"] > 0
