import json
from types import SimpleNamespace

import pytest

import checks
import run


def fake_result(name="dotproduct", cycles=100.0, returns=(1, 1)):
    stats = SimpleNamespace(function_name="f", **{
        field: 1 for field in checks.REGION_FIELDS})
    return SimpleNamespace(
        workload=SimpleNamespace(name=name),
        static_total_cycles=cycles, dynamic_total_cycles=cycles / 2,
        dc_cycles=7.0, static_region_cycles={"f": 3.0},
        dynamic_region_cycles={"f": 2.0}, region_entries={"f": 1},
        region_stats={0: stats}, outputs_match=True,
        return_values=returns)


def digest(**kwargs):
    baseline = {"dotproduct": fake_result()}
    cells = [(("dotproduct", "static_loads"),
              (fake_result(**kwargs), False))]
    return checks.sweep_digest(baseline, cells, "table")


def test_sweep_digest_moves_with_any_measured_value():
    assert digest() == digest()
    assert digest(cycles=101.0) != digest()
    assert digest(returns=(1, 2)) != digest()


def test_pinned_digest_passes_and_a_corrupted_pin_fails(tmp_path):
    pin = tmp_path / "pinned.json"
    pin.write_text(json.dumps({"table_sweep_digest": digest()}))
    assert checks.check_sweep_digest(digest(), str(pin)) is None
    pin.write_text(json.dumps({"table_sweep_digest": "0" * 64}))
    assert "differs" in checks.check_sweep_digest(digest(), str(pin))
    assert "cannot read" in checks.check_sweep_digest(
        digest(), str(tmp_path / "missing.json"))


def test_committed_pin_is_a_sha256():
    pinned = checks.load_pinned()["table_sweep_digest"]
    assert len(pinned) == 64 and int(pinned, 16) >= 0


def test_sim_totals_require_repeatable_counts():
    records = [("b", 10.0, 1.0), ("a", 5.0, 2.0), ("b", 10.0, 1.0)]
    assert checks.sim_totals(records) == (15.0, 3.0, None)
    _, _, problem = checks.sim_totals(records + [("a", 6.0, 2.0)])
    assert "differ" in problem


def served(echo, status=200, **body):
    request = {"tenant": "t", "workload": "dotproduct",
               "config": {"quarantine_after": 3}, "echo": echo}
    return request, status, dict({"echo": echo, "outputs_match": True,
                                  "fingerprint": "f" * 64}, **body)


def test_served_failures_catch_echo_status_and_fingerprint_drift():
    from repro.serve.loadgen import LegResult

    assert checks.served_failures([served("e1"), served("e2")],
                                  LegResult("x")) == []
    request, status, body = served("e3")
    body["echo"] = "someone-else"
    problems = checks.served_failures(
        [(request, status, body), served("e4", status=503),
         served("e5", fingerprint="0" * 64)], LegResult("x"))
    assert len(problems) == 3
    assert "echo" in problems[0] and "503" in problems[1]
    assert "fingerprint" in problems[2]


def test_offline_check_fails_on_a_corrupted_served_fingerprint():
    from repro.evalharness.runner import run_workload
    from repro.serve.loadgen import LegResult
    from repro.serve.protocol import build_config, run_fingerprint
    from repro.workloads import WORKLOADS_BY_NAME

    config = build_config({"quarantine_after": 3})
    good = run_fingerprint(run_workload(WORKLOADS_BY_NAME["dotproduct"],
                                        config))
    leg = LegResult("x")
    checks.served_failures([served("e1", fingerprint=good)], leg)
    assert checks.offline_failures(leg, 5, seed=1) == (1, [])

    flipped = good[:-1] + ("1" if good[-1] == "0" else "0")
    corrupted = LegResult("y")
    checks.served_failures([served("e1", fingerprint=flipped)], corrupted)
    checked, problems = checks.offline_failures(corrupted, 5, seed=1)
    assert checked == 1 and problems


@pytest.mark.parametrize("n, expected", [
    (47, 75.0),       # 11 samples beyond p75, 4 beyond p90
    (39, 50.0),       # p75 would leave only 9
    (139, 90.0),      # 13 beyond p90, 6 beyond p95
    (100, 90.0),      # the fewest and the most requests of a serve window
    (195, 90.0),
    (10000, 99.0),
    (900, 95.0),
])
def test_tail_rung_has_ten_samples_beyond(n, expected):
    pct, value, beyond = run.tail([float(i) for i in range(n)])
    assert pct == expected
    assert beyond >= run.TAIL_BEYOND
    assert value == run.nearest_rank(sorted(float(i) for i in range(n)),
                                     pct)
