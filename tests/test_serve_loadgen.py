"""Tests for the load generator: sampling, plans, HTTP end-to-end."""

import asyncio
import random

from repro.dyc.compiler import BTA_FIELDS
from repro.serve.loadgen import (
    Client,
    SpawnedDaemon,
    ZipfSampler,
    key_universe,
    plan_ablate,
    plan_faulted,
    plan_storm,
    plan_thrash,
    plan_zipf,
    run_leg,
    verify_offline,
    wait_ready,
)


class TestSampling:
    def test_zipf_is_deterministic(self):
        a = ZipfSampler(50, 1.1, random.Random(7))
        b = ZipfSampler(50, 1.1, random.Random(7))
        assert [a.sample() for _ in range(200)] == \
               [b.sample() for _ in range(200)]

    def test_zipf_is_skewed(self):
        sampler = ZipfSampler(100, 1.2, random.Random(3))
        draws = [sampler.sample() for _ in range(2000)]
        assert all(0 <= r < 100 for r in draws)
        head = sum(1 for r in draws if r < 10)
        assert head > len(draws) * 0.4   # the head dominates

    def test_universe_and_plans_deterministic(self):
        u1 = key_universe(4, ("binary", "query"), 2, random.Random(11))
        u2 = key_universe(4, ("binary", "query"), 2, random.Random(11))
        assert u1 == u2
        assert len(u1) == 4 * 2 * 2
        p1 = plan_zipf(u1, 50, 1.1, random.Random(5))
        p2 = plan_zipf(u2, 50, 1.1, random.Random(5))
        assert p1 == p2

    def test_thrash_keys_unique_and_disjoint(self):
        universe = key_universe(2, ("binary",), 3, random.Random(1))
        thrash = plan_thrash(("binary",), 20, random.Random(1))
        universe_keys = {(r["workload"], tuple(r["config"].items()))
                         for r in universe}
        thrash_keys = {(r["workload"], tuple(r["config"].items()))
                       for r in thrash}
        assert len(thrash_keys) == 20
        assert not universe_keys & thrash_keys

    def test_storm_waves_are_identical_within(self):
        waves = plan_storm(("binary", "query"), 2, 5)
        assert len(waves) == 2
        for wave in waves:
            assert len(wave) == 5
            assert all(r == wave[0] for r in wave)
        assert waves[0][0] != waves[1][0]

    def test_ablate_plan_compiles_each_switch_on_fresh_keys(self):
        requests = plan_ablate(("binary", "query"), random.Random(4))
        assert len(requests) == 2 * (1 + len(BTA_FIELDS))
        keys = {(r["workload"], tuple(sorted(r["config"].items())))
                for r in requests}
        assert len(keys) == len(requests)
        universe = key_universe(24, ("binary", "query"), 4,
                                random.Random(4))
        assert not keys & {(r["workload"],
                            tuple(sorted(r["config"].items())))
                           for r in universe}
        for workload in ("binary", "query"):
            ablated = sorted(
                name for r in requests if r["workload"] == workload
                for name, value in r["config"].items() if value is False)
            assert ablated == sorted(BTA_FIELDS)

    def test_faulted_plan_mixes_rungs(self):
        requests = plan_faulted(("binary",), 6)
        specs = [r["config"]["faults"] for r in requests]
        assert "specializer.entry:once" in specs
        assert "specializer.entry" in specs


class TestEndToEnd:
    def test_spawned_daemon_serves_traffic(self):
        daemon = SpawnedDaemon(["--port", "0", "--workers", "2",
                                "--cache-capacity", "8"])
        try:
            async def go():
                health = await wait_ready(daemon.host, daemon.port)
                assert health["status"] == "ok"
                universe = key_universe(2, ("binary",), 2,
                                        random.Random(2))
                requests = plan_zipf(universe, 12, 1.1,
                                     random.Random(2))
                leg = await run_leg("zipf", daemon.host, daemon.port,
                                    requests, clients=4)
                assert leg.statuses == {"200": 12}
                assert leg.transport_errors == 0
                assert leg.mismatched_fingerprints == 0
                # Repeats of the four distinct keys must be served
                # from cache or coalesced.
                assert leg.cached + leg.coalesced >= 12 - len(universe)
                offline = verify_offline(leg, sample=0,
                                         rng=random.Random(2))
                assert offline["checked"] == len(leg.fingerprints) > 0
                assert offline["matched"] == offline["checked"]
                return leg

            asyncio.run(go())
        finally:
            daemon.stop()

    def test_client_reports_structured_errors(self):
        daemon = SpawnedDaemon(["--port", "0", "--workers", "2"])
        try:
            async def go():
                await wait_ready(daemon.host, daemon.port)
                client = Client(daemon.host, daemon.port)
                try:
                    status, body, _ = await client.request(
                        "POST", "/run", {"workload": "bogus"})
                    assert status == 400
                    assert body["error"]["code"] == "bad_request"
                    status, body, _ = await client.request(
                        "GET", "/stats")
                    assert status == 200
                    assert body["server"]["status_counts"]["400"] == 1
                finally:
                    await client.close()

            asyncio.run(go())
        finally:
            daemon.stop()
