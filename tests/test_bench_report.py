"""The BENCH_interp.json schema-3 report: three-column layout, counted
stats checksums, geomean summary, and the --compare diff used by CI to
assert the committed report still describes this tree."""

import copy
import json

import pytest

from repro.evalharness.bench import (
    SPEEDUP_COLUMNS,
    compare_reports,
    load_bench,
    run_bench,
    write_bench,
)
from repro.machine import BACKENDS, COUNTED_BACKENDS
from repro.workloads import WORKLOADS_BY_NAME


@pytest.fixture(scope="module")
def report():
    workloads = [WORKLOADS_BY_NAME["dotproduct"],
                 WORKLOADS_BY_NAME["dinero"]]
    return run_bench(workloads=workloads, repeat=1)


class TestSchema:
    def test_layout(self, report):
        assert report["schema"] == 3
        assert report["columns"] == list(BACKENDS) \
            == ["reference", "threaded", "threaded_fast"]
        assert set(report["workloads"]) == {"dotproduct", "dinero"}
        for entry in report["workloads"].values():
            for name in BACKENDS:
                assert entry[f"{name}_seconds"] > 0
            for name in SPEEDUP_COLUMNS:
                assert entry[f"{name}_speedup"] > 0

    def test_counted_columns_checksum_identical(self, report):
        checksums = {
            report["backends"][c]["stats_checksum"]
            for c in COUNTED_BACKENDS
        }
        assert len(checksums) == 1
        assert report["checksums_match"]

    def test_fast_column_results_match(self, report):
        results = {
            report["backends"][c]["results_checksum"]
            for c in report["columns"]
        }
        assert len(results) == 1
        assert report["results_match"]
        # The fast column carries no counted statistics.
        assert "stats_checksum" not in report["backends"]["threaded_fast"]

    def test_geomean_summary(self, report):
        assert set(report["geomean"]) == set(SPEEDUP_COLUMNS)
        for value in report["geomean"].values():
            assert value > 0

    def test_round_trips_through_json(self, report, tmp_path):
        path = tmp_path / "bench.json"
        write_bench(report, str(path))
        loaded = load_bench(str(path))
        assert loaded == json.loads(json.dumps(report))


class TestCompare:
    def test_identical_reports_agree(self, report):
        lines, ok = compare_reports(report, copy.deepcopy(report))
        assert ok
        assert lines == ["reports agree"]

    def test_stats_checksum_drift_fails(self, report):
        tampered = copy.deepcopy(report)
        tampered["backends"]["threaded"]["stats_checksum"] = "0" * 64
        lines, ok = compare_reports(tampered, report)
        assert not ok
        assert any("stats_checksum" in line for line in lines)

    def test_fast_results_checksum_drift_fails(self, report):
        tampered = copy.deepcopy(report)
        tampered["backends"]["threaded_fast"]["results_checksum"] = "0" * 64
        lines, ok = compare_reports(tampered, report)
        assert not ok
        assert any("threaded_fast: results_checksum" in line
                   for line in lines)

    def test_schema_mismatch_fails(self, report):
        old = copy.deepcopy(report)
        old["schema"] = 1
        lines, ok = compare_reports(old, report)
        assert not ok
        assert any("schema" in line for line in lines)

    def test_workload_set_drift_fails(self, report):
        shrunk = copy.deepcopy(report)
        del shrunk["workloads"]["dinero"]
        lines, ok = compare_reports(shrunk, report)
        assert not ok
        assert any("dinero" in line for line in lines)

    def test_wall_clock_drift_is_informational(self, report):
        drifted = copy.deepcopy(report)
        for column in SPEEDUP_COLUMNS:
            drifted["geomean"][column] = \
                round(drifted["geomean"][column] * 2, 3)
        lines, ok = compare_reports(report, drifted)
        assert ok
        assert any("informational" in line for line in lines)

    def test_internal_divergence_in_fresh_run_fails(self, report):
        broken = copy.deepcopy(report)
        broken["checksums_match"] = False
        lines, ok = compare_reports(report, broken)
        assert not ok
