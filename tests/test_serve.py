"""Tests for the serve daemon: protocol, admission, cache, routing."""

import asyncio
import json

import pytest

from repro.config import ALL_ON
from repro.errors import (
    HarnessError,
    SpecializationBudgetError,
    SpecializationError,
    WorkerFault,
)
from repro.evalharness.runner import run_workload
from repro.runtime.specializer import Specializer
from repro.serve.admission import (
    AdmissionQueue,
    Backpressure,
    QuotaExceeded,
)
from repro.serve.app import ServeApp
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard
from repro.serve.cache import ShardedResultCache
from repro.serve.http import render_response, retry_after_hint
from repro.serve.protocol import (
    BadRequest,
    build_config,
    classify_error,
    parse_run_request,
    result_payload,
    run_fingerprint,
)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_parse_minimal_request(self):
        req = parse_run_request({"workload": "binary"})
        assert req.tenant == "anon"
        assert req.workload == "binary"
        assert req.config == ALL_ON
        assert req.verify and not req.no_cache

    def test_unknown_workload_rejected(self):
        with pytest.raises(BadRequest, match="unknown workload"):
            parse_run_request({"workload": "nope"})

    def test_non_object_body_rejected(self):
        with pytest.raises(BadRequest):
            parse_run_request([1, 2, 3])

    def test_bad_tenant_rejected(self):
        with pytest.raises(BadRequest, match="tenant"):
            parse_run_request({"workload": "binary", "tenant": ""})
        with pytest.raises(BadRequest, match="tenant"):
            parse_run_request({"workload": "binary", "tenant": "x" * 65})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(BadRequest, match="unknown config field"):
            build_config({"turbo": True})

    def test_config_type_checking(self):
        with pytest.raises(BadRequest, match="boolean"):
            build_config({"static_loads": 1})
        with pytest.raises(BadRequest, match="integer"):
            build_config({"quarantine_after": True})

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(BadRequest, match="unknown fault point"):
            build_config({"faults": "not.a.point"})

    def test_config_overrides_applied(self):
        config = build_config({"static_loads": False,
                               "quarantine_after": 7})
        assert not config.static_loads
        assert config.quarantine_after == 7

    def test_classify_specialization_errors(self):
        status, body = classify_error(
            SpecializationError("boom", region_id=2, attempt=1))
        assert status == 422
        assert body["error"]["code"] == "specialization_error"
        assert body["error"]["region_id"] == 2
        status, body = classify_error(SpecializationBudgetError("over"))
        assert status == 422
        assert body["error"]["code"] == "specialization_budget"

    def test_classify_other_errors(self):
        assert classify_error(WorkerFault("x"))[0] == 500
        assert classify_error(HarnessError([]))[0] == 502
        assert classify_error(BadRequest("x"))[0] == 400
        assert classify_error(RuntimeError("x"))[0] == 500

    def test_fingerprint_matches_offline_run(self):
        a = run_workload(_workload("binary"), backend="reference")
        b = run_workload(_workload("binary"), backend="threaded")
        assert run_fingerprint(a) == run_fingerprint(b)

    def test_result_payload_is_json_safe(self):
        result = run_workload(_workload("binary"))
        payload = result_payload(result, "threaded")
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["workload"] == "binary"
        assert round_tripped["fingerprint"] == run_fingerprint(result)
        assert "quarantined_contexts" in round_tripped["degradation"]


def _workload(name):
    from repro.workloads import WORKLOADS_BY_NAME
    return WORKLOADS_BY_NAME[name]


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------

def _run(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_quota_rejects_hot_tenant_only(self):
        async def go():
            queue = AdmissionQueue(max_concurrency=1, max_queue=10,
                                   tenant_quota=1)
            release = asyncio.Event()

            async def hold(tenant):
                async with queue.slot(tenant):
                    await release.wait()

            task = asyncio.create_task(hold("a"))
            await asyncio.sleep(0)
            with pytest.raises(QuotaExceeded):
                async with queue.slot("a"):
                    pass
            # Another tenant may still wait for the semaphore.
            other = asyncio.create_task(hold("b"))
            await asyncio.sleep(0)
            assert queue.waiting == 1
            release.set()
            await asyncio.gather(task, other)
            assert queue.rejected_quota == 1
            assert queue.stats()["tenants_in_flight"] == {}

        _run(go())

    def test_backpressure_on_full_queue(self):
        async def go():
            queue = AdmissionQueue(max_concurrency=1, max_queue=1,
                                   tenant_quota=100)
            release = asyncio.Event()

            async def hold(tenant):
                async with queue.slot(tenant):
                    await release.wait()

            running = asyncio.create_task(hold("a"))
            await asyncio.sleep(0)
            waiting = asyncio.create_task(hold("b"))
            await asyncio.sleep(0)
            with pytest.raises(Backpressure):
                async with queue.slot("c"):
                    pass
            release.set()
            await asyncio.gather(running, waiting)
            assert queue.rejected_backpressure == 1
            assert queue.peak_waiting == 1

        _run(go())


# ----------------------------------------------------------------------
# Sharded cache
# ----------------------------------------------------------------------

class TestShardedCache:
    def test_miss_then_hit_and_tenant_isolation(self):
        cache = ShardedResultCache(shards=4, capacity_per_shard=8)
        assert cache.get("a", "key") is None
        cache.put("a", "key", {"v": 1})
        assert cache.get("a", "key") == {"v": 1}
        assert cache.get("b", "key") is None   # other tenant: miss

    def test_stats_shape(self):
        cache = ShardedResultCache(shards=3, capacity_per_shard=8)
        cache.put("t", "a", {})
        cache.get("t", "a")
        cache.get("t", "b")
        stats = cache.stats()
        assert len(stats["shards"]) == 3
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert 0.0 <= stats["shard_balance"] <= 1.0
        # Fill one shard far past its capacity: it evicts and stays
        # bounded.
        cache = ShardedResultCache(shards=1, capacity_per_shard=4)
        for i in range(16):
            cache.put("t", f"other-{i}", {"i": i})
        stats = cache.stats()
        assert stats["evictions"] > 0
        assert stats["entries"] <= 4


# ----------------------------------------------------------------------
# App routing and request orchestration
# ----------------------------------------------------------------------

def _app(**kwargs) -> ServeApp:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("cache_capacity", 16)
    return ServeApp(**kwargs)


def _post_run(app, body: dict):
    return app.handle("POST", "/run",
                      json.dumps(body).encode("utf-8"))


class TestServeApp:
    def test_unknown_path_and_method(self):
        async def go():
            app = _app()
            try:
                assert (await app.handle("GET", "/nope", b""))[0] == 404
                assert (await app.handle("POST", "/stats", b""))[0] == 405
                assert (await app.handle("GET", "/run", b""))[0] == 405
            finally:
                app.close()

        _run(go())

    def test_bad_json_is_400(self):
        async def go():
            app = _app()
            try:
                status, body = await app.handle("POST", "/run", b"{nope")
                assert status == 400
                assert body["error"]["code"] == "bad_request"
            finally:
                app.close()

        _run(go())

    def test_run_then_cache_hit(self):
        async def go():
            app = _app()
            try:
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "t1"})
                assert status == 200
                assert body["backend"] == app.backend
                assert "cached" not in body
                status, again = await _post_run(
                    app, {"workload": "binary", "tenant": "t1"})
                assert status == 200
                assert again["cached"] is True
                assert again["fingerprint"] == body["fingerprint"]
                offline = run_workload(_workload("binary"))
                assert body["fingerprint"] == run_fingerprint(offline)
                assert app.cache_served == 1 and app.executions == 1
            finally:
                app.close()

        _run(go())

    def test_single_flight_coalesces_storm(self):
        async def go():
            app = _app()
            try:
                request = {"workload": "dotproduct", "tenant": "storm"}
                results = await asyncio.gather(
                    *(_post_run(app, request) for _ in range(8)))
                assert all(status == 200 for status, _ in results)
                fingerprints = {body["fingerprint"]
                                for _, body in results}
                assert len(fingerprints) == 1
                # One leader executed; everyone else coalesced or was
                # served from cache.
                assert app.executions == 1
                assert app.coalesced + app.cache_served == 7
            finally:
                app.close()

        _run(go())

    def test_serve_admit_fault_is_structured_500(self):
        async def go():
            app = _app(fault_spec="serve.admit:once")
            try:
                status, body = await _post_run(
                    app, {"workload": "binary"})
                assert status == 500
                assert body["error"]["code"] == "injected_fault"
                # The daemon survives: the next request succeeds.
                status, _ = await _post_run(app, {"workload": "binary"})
                assert status == 200
                assert app.faults.summary()["serve.admit"] == (2, 1)
            finally:
                app.close()

        _run(go())

    def test_deterministic_422_is_cached(self, monkeypatch):
        calls = []

        def boom(*args, **kwargs):
            calls.append(1)
            raise SpecializationBudgetError("over budget", region_id=0)

        async def go():
            app = _app()
            try:
                monkeypatch.setattr("repro.serve.app.run_workload", boom)
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "e"})
                assert status == 422
                assert body["error"]["code"] == "specialization_budget"
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "e"})
                assert status == 422
                assert body["cached"] is True
                assert len(calls) == 1
            finally:
                app.close()

        _run(go())

    def test_runaway_request_fails_before_specializing(self, monkeypatch):
        # mipsi without static loads is proved runaway when its
        # generating extension is built: the 422 comes back without the
        # specializer minting the contexts its budget would allow.
        from repro.runtime.specializer import Specializer

        calls = []
        process_task = Specializer._process_task

        def counted(self, *args, **kwargs):
            calls.append(1)
            return process_task(self, *args, **kwargs)

        monkeypatch.setattr(Specializer, "_process_task", counted)

        async def go():
            app = _app()
            try:
                status, body = await _post_run(app, {
                    "workload": "mipsi", "tenant": "g",
                    "config": {"static_loads": False},
                })
                assert status == 422
                assert body["error"]["code"] == "specialization_budget"
                assert "exceeded" in body["error"]["message"]
                assert body["error"]["region_id"] == 0
            finally:
                app.close()

        _run(go())
        assert len(calls) < 1000

    def test_clean_request_counts_specialized_contexts(self, monkeypatch):
        # The counter above is live: the same wrapper on a request that
        # specializes normally counts its contexts, so the runaway
        # test's bound cannot pass without counting anything.
        from repro.runtime.specializer import Specializer

        calls = []
        process_task = Specializer._process_task

        def counted(self, *args, **kwargs):
            calls.append(1)
            return process_task(self, *args, **kwargs)

        monkeypatch.setattr(Specializer, "_process_task", counted)

        async def go():
            app = _app()
            try:
                status, _ = await _post_run(
                    app, {"workload": "binary", "tenant": "g"})
                assert status == 200
            finally:
                app.close()

        _run(go())
        assert len(calls) > 0

    def test_degraded_run_counts_surface(self):
        async def go():
            app = _app()
            try:
                status, body = await _post_run(app, {
                    "workload": "binary",
                    "tenant": "f",
                    "config": {"faults": "specializer.entry:once"},
                })
                assert status == 200
                assert body["degradation"]["respecializations"] > 0
                health = app._healthz()
                assert health["degraded_runs"] == 1
                stats = app._stats()
                assert stats["degradation"]["respecializations"] > 0
                assert stats["tenants"]["f"]["degraded_runs"] == 1
            finally:
                app.close()

        _run(go())

    def test_quota_429(self):
        async def go():
            app = _app(workers=1, tenant_quota=1)
            try:
                slow = _post_run(app, {"workload": "chebyshev",
                                       "tenant": "q"})
                fast = _post_run(app, {"workload": "binary",
                                       "tenant": "q"})
                (s1, _), (s2, b2) = await asyncio.gather(slow, fast)
                statuses = sorted((s1, s2))
                assert statuses == [200, 429] or statuses == [200, 200]
                if 429 in (s1, s2):
                    assert app.admission.rejected_quota == 1
            finally:
                app.close()

        _run(go())

    def test_healthz_and_stats_endpoints(self):
        async def go():
            app = _app()
            try:
                status, health = await app.handle("GET", "/healthz", b"")
                assert status == 200 and health["status"] == "ok"
                assert health["draining"] is False
                assert health["worker"] is None
                status, stats = await app.handle("GET", "/stats", b"")
                assert status == 200
                assert "cache" in stats and "admission" in stats
                assert stats["breakers"]["enabled"] is True
                assert stats["server"]["respond_drops"] == 0
                assert stats["server"]["draining"] is False
                # No supervisor state file exported in-process.
                assert stats["supervisor"] is None
                status, listing = await app.handle(
                    "GET", "/workloads", b"")
                assert status == 200
                assert "binary" in listing["workloads"]
            finally:
                app.close()

        _run(go())


# ----------------------------------------------------------------------
# One backend per daemon
# ----------------------------------------------------------------------

def _served(monkeypatch, backend):
    """The fingerprint of one dotproduct run on a daemon built under
    ``REPRO_BACKEND=backend`` (unset for None), which must label the
    run and its ``/stats`` tier with that backend."""
    async def go():
        if backend is None:
            monkeypatch.delenv("REPRO_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_BACKEND", backend)
        app = _app()
        try:
            status, body = await _post_run(
                app, {"workload": "dotproduct", "tenant": "t"})
            assert status == 200
            assert body["backend"] == (backend or "threaded")
            status, stats = await app.handle("GET", "/stats", b"")
            assert stats["server"]["tiers"] == {body["backend"]: 1}
            return body["fingerprint"]
        finally:
            app.close()

    return _run(go())


class TestServeBackend:
    def test_every_backend_serves_the_same_bytes(self, monkeypatch):
        unset = _served(monkeypatch, None)
        assert _served(monkeypatch, "reference") == unset

    def test_uncounted_daemon_serves_its_own_bytes(self, monkeypatch):
        uncounted = _served(monkeypatch, "threaded_fast")
        assert uncounted != _served(monkeypatch, "threaded")
        assert uncounted == run_fingerprint(run_workload(
            _workload("dotproduct"), backend="threaded_fast"))

    def test_a_request_cannot_choose_the_backend(self):
        async def go():
            app = _app()
            try:
                for config in ({"codegen_mode": "fast"},
                               {"backend": "reference"}):
                    status, body = await _post_run(app, {
                        "workload": "dotproduct", "config": config})
                    assert status == 400, config
                    assert body["error"]["code"] == "bad_request"
                    assert "unknown config field" \
                        in body["error"]["message"]
                assert app.executions == 0
            finally:
                app.close()

        _run(go())

    def test_bogus_backend_refuses_to_build(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError, match="unknown backend"):
            _app()

    def test_bogus_backend_refuses_before_binding(self, monkeypatch,
                                                  capsys):
        from repro.serve import __main__ as serve_main

        def no_daemon(*args, **kwargs):
            raise AssertionError("daemon built despite a bad backend")

        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        monkeypatch.setattr(serve_main, "ServeDaemon", no_daemon)
        assert serve_main.main(["--port", "0"]) == 2
        assert "bad REPRO_BACKEND" in capsys.readouterr().err


class TestServeFlags:
    """The daemon and the supervisor declare the serving flags once and
    check each count when they parse it: a bad one exits 2 before a
    socket is bound or a worker forked."""

    @staticmethod
    def _mains():
        from repro.serve import __main__ as serve_main
        from repro.serve import supervisor
        return serve_main, supervisor

    @pytest.mark.parametrize("entry,argv", [
        ("daemon", ["--shards", "0"]),
        ("daemon", ["--workers", "0"]),
        ("daemon", ["--cache-capacity", "-1"]),
        ("supervisor", ["--procs", "0"]),
        ("supervisor", ["--shards", "0"]),
        ("supervisor", ["--workers", "0"]),
        ("supervisor", ["--cache-capacity", "-1"]),
    ])
    def test_bad_count_exits_2_before_starting(self, monkeypatch, capsys,
                                               entry, argv):
        serve_main, supervisor = self._mains()

        def refused(*args, **kwargs):
            raise AssertionError("started despite a bad count")

        monkeypatch.setattr(serve_main, "ServeDaemon", refused)
        monkeypatch.setattr("os.fork", refused)
        monkeypatch.setattr("socket.socket", refused)
        main = serve_main.main if entry == "daemon" else supervisor.main
        with pytest.raises(SystemExit) as exited:
            main(["--port", "0", *argv])
        assert exited.value.code == 2
        assert f"argument {argv[0]}: invalid int >=" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["daemon", "supervisor"])
    def test_lowest_counts_and_benchmark_flags_parse(self, entry):
        serve_main, supervisor = self._mains()
        parse = (serve_main._parse_args if entry == "daemon"
                 else supervisor._parse_args)
        args = parse(["--shards", "8", "--cache-capacity", "4"])
        assert (args.shards, args.cache_capacity) == (8, 4)
        args = parse(["--shards", "1", "--workers", "1",
                      "--cache-capacity", "0"])
        assert (args.shards, args.workers, args.cache_capacity) \
            == (1, 1, 0)


class TestKeyHistory:
    """A served key's bytes never depend on how often it was looked up.

    One dotproduct key is served ten times from a one-entry cache, with
    a filler key evicting it in between, so every request recomputes.
    A ``once`` budget fault collapses only the first batch of a run, so
    fault hit counts that leaked from one request into the next would
    change the bytes.  Each key is served by a counted and by an
    uncounted (``threaded_fast``) daemon, whose bytes are its own.
    """

    @pytest.mark.parametrize("config", [
        {"faults": "specializer.budget:once"},
        {},
    ])
    def test_recomputed_key_keeps_its_fingerprint(self, config,
                                                  monkeypatch):
        async def go():
            app = ServeApp(shards=1, cache_capacity=1, workers=1)
            try:
                fingerprints = set()
                for _ in range(10):
                    status, body = await _post_run(app, {
                        "workload": "dotproduct", "tenant": "t",
                        "config": config})
                    assert status == 200 and "cached" not in body
                    fingerprints.add(body["fingerprint"])
                    status, _ = await _post_run(
                        app, {"workload": "binary", "tenant": "t"})
                    assert status == 200
                assert len(fingerprints) == 1
                assert app.executions == 20
                return app.backend, fingerprints
            finally:
                app.close()

        for backend in ("threaded", "threaded_fast"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            served_by, fingerprints = _run(go())
            assert served_by == backend
            offline = run_workload(_workload("dotproduct"),
                                   build_config(config), backend=backend)
            assert fingerprints == {run_fingerprint(offline)}, backend


# ----------------------------------------------------------------------
# Memo directory (--memo-dir)
# ----------------------------------------------------------------------

class TestMemoDir:
    def test_second_app_serves_the_first_apps_run_from_disk(
            self, monkeypatch, tmp_path):
        """A restarted daemon on the same memo directory serves a key
        its predecessor ran without specializing; ``no_cache`` still
        executes."""
        specializations = []
        inner = Specializer.specialize_entry

        def counted(self, *args, **kwargs):
            specializations.append(1)
            return inner(self, *args, **kwargs)

        monkeypatch.setattr(Specializer, "specialize_entry", counted)
        request = {"workload": "dotproduct", "tenant": "t",
                   "config": {"quarantine_after": 7001}}

        async def go():
            first = _app(memo_dir=str(tmp_path))
            try:
                status, body = await _post_run(first, request)
                assert status == 200
            finally:
                first.close()
            ran = len(specializations)
            assert ran > 0
            second = _app(memo_dir=str(tmp_path))
            try:
                status, again = await _post_run(second, request)
                assert status == 200 and "cached" not in again
                assert again["fingerprint"] == body["fingerprint"]
                assert len(specializations) == ran
                _, stats = await second.handle("GET", "/stats", b"")
                assert stats["memo"] == {
                    "directory": str(tmp_path), "hits": 1, "misses": 0,
                    "corrupt_drops": 0, "write_skips": 0}
                status, fresh = await _post_run(
                    second, dict(request, no_cache=True))
                assert status == 200
                assert fresh["fingerprint"] == body["fingerprint"]
                assert len(specializations) > ran
                _, stats = await second.handle("GET", "/stats", b"")
                assert stats["memo"]["hits"] == 1
                assert stats["memo"]["misses"] == 0
            finally:
                second.close()

        _run(go())

    def test_one_key_per_request(self, monkeypatch, tmp_path):
        """The result cache's key is the memo's: a memo miss and a memo
        hit each compute it once (twice each before)."""
        from repro.evalharness import memo as memo_module
        from repro.serve import app as app_module

        keys = []
        inner = memo_module.memo_key

        def counted(*args, **kwargs):
            keys.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(app_module, "memo_key", counted)
        monkeypatch.setattr(memo_module.Memoizer, "key_for",
                            staticmethod(counted))
        request = {"workload": "dotproduct", "tenant": "t",
                   "config": {"quarantine_after": 7002}}

        async def go():
            for hits in (0, 1):   # a miss, then a restart's memo hit
                app = _app(memo_dir=str(tmp_path))
                try:
                    before = len(keys)
                    status, body = await _post_run(app, request)
                    assert status == 200 and "cached" not in body
                    assert len(keys) - before == 1
                    _, stats = await app.handle("GET", "/stats", b"")
                    assert stats["memo"]["hits"] == hits
                    assert stats["memo"]["misses"] == 1 - hits
                finally:
                    app.close()

        _run(go())

    def test_off_unless_given(self, monkeypatch, tmp_path):
        """``$REPRO_MEMO_DIR`` configures the offline harness only."""
        import repro.serve.__main__ as serve_main
        monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path))
        app = serve_main.build_app(serve_main._parse_args([]))
        try:
            assert app.memo is None
            _, stats = _run(app.handle("GET", "/stats", b""))
            assert stats["memo"] is None
        finally:
            app.close()
        app = serve_main.build_app(
            serve_main._parse_args(["--memo-dir", str(tmp_path)]))
        try:
            assert app.memo.directory == str(tmp_path)
        finally:
            app.close()


# ----------------------------------------------------------------------
# Circuit breakers
# ----------------------------------------------------------------------

def _board(threshold=3, cooldown=10.0):
    """A BreakerBoard on a hand-cranked clock."""
    clock = {"now": 0.0}
    board = BreakerBoard(threshold=threshold, cooldown=cooldown,
                         clock=lambda: clock["now"])
    return board, clock


class TestCircuitBreakerUnit:
    def test_trips_after_consecutive_failures(self):
        board, _ = _board(threshold=3)
        for _ in range(3):
            assert board.acquire("t", "w") is None
            board.settle("t", "w", 500)
        wait = board.acquire("t", "w")
        assert wait is not None and wait > 0
        assert board.state_of("t", "w") == OPEN
        assert board.rejected == 1

    def test_success_resets_the_streak(self):
        board, _ = _board(threshold=2)
        board.acquire("t", "w")
        board.settle("t", "w", 500)
        board.acquire("t", "w")
        board.settle("t", "w", 200)          # streak broken
        board.acquire("t", "w")
        board.settle("t", "w", 500)
        assert board.acquire("t", "w") is None
        assert board.state_of("t", "w") == CLOSED

    def test_deterministic_422_counts_as_success(self):
        board, _ = _board(threshold=1)
        board.acquire("t", "w")
        board.settle("t", "w", 422)
        assert board.state_of("t", "w") == CLOSED

    def test_shed_statuses_are_neutral(self):
        board, _ = _board(threshold=1)
        for status in (429, 503):
            board.acquire("t", "w")
            board.settle("t", "w", status)
        assert board.state_of("t", "w") == CLOSED

    def test_none_status_is_a_failure(self):
        board, _ = _board(threshold=1)
        board.acquire("t", "w")
        board.settle("t", "w", None)
        assert board.state_of("t", "w") == OPEN

    def test_half_open_probe_closes_on_success(self):
        board, clock = _board(threshold=1, cooldown=5.0)
        board.acquire("t", "w")
        board.settle("t", "w", 500)
        assert board.acquire("t", "w") is not None   # still cooling
        clock["now"] = 5.1
        assert board.acquire("t", "w") is None       # the probe
        assert board.state_of("t", "w") == HALF_OPEN
        # Only one probe slot: a second caller is rejected.
        assert board.acquire("t", "w") is not None
        board.settle("t", "w", 200)
        assert board.state_of("t", "w") == CLOSED
        assert board.acquire("t", "w") is None

    def test_half_open_probe_reopens_on_failure(self):
        board, clock = _board(threshold=1, cooldown=5.0)
        board.acquire("t", "w")
        board.settle("t", "w", 500)
        clock["now"] = 5.1
        assert board.acquire("t", "w") is None
        board.settle("t", "w", 502)
        assert board.state_of("t", "w") == OPEN
        # Fresh cooldown from the failed probe.
        wait = board.acquire("t", "w")
        assert wait is not None and wait > 4.0

    def test_keys_are_independent(self):
        board, _ = _board(threshold=1)
        board.acquire("a", "binary")
        board.settle("a", "binary", 500)
        assert board.acquire("a", "binary") is not None
        assert board.acquire("a", "dotproduct") is None
        assert board.acquire("b", "binary") is None

    def test_threshold_zero_disables_the_board(self):
        board, _ = _board(threshold=0)
        assert not board.enabled
        for _ in range(10):
            assert board.acquire("t", "w") is None
            board.settle("t", "w", 500)
        assert board.acquire("t", "w") is None
        assert board.stats()["tracked"] == 0

    def test_stats_shape(self):
        board, _ = _board(threshold=1)
        board.acquire("t", "w")
        board.settle("t", "w", 500)
        board.acquire("t", "w")
        stats = board.stats()
        assert stats["trips"] == 1 and stats["rejected"] == 1
        assert stats["states"][OPEN] == 1
        assert stats["open_now"] == ["t/w"]


class TestBreakerInApp:
    def test_trips_to_circuit_open_503(self):
        async def go():
            app = _app(fault_spec="serve.admit",
                       breaker_threshold=2, breaker_cooldown=60.0)
            try:
                for _ in range(2):
                    status, body = await _post_run(
                        app, {"workload": "binary", "tenant": "t"})
                    assert status == 500
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "t"})
                assert status == 503
                assert body["error"]["code"] == "circuit_open"
                assert body["error"]["retry_after"] > 0
                # Only the admitted requests hit the fault point.
                assert app.faults.summary()["serve.admit"] == (2, 2)
                stats = app._stats()
                assert stats["breakers"]["trips"] == 1
                assert stats["breakers"]["open_now"] == ["t/binary"]
                assert stats["tenants"]["t"]["rejected"] == 1
            finally:
                app.close()

        _run(go())

    def test_breaker_keys_tenant_and_workload(self):
        async def go():
            app = _app(fault_spec="serve.admit",
                       breaker_threshold=1, breaker_cooldown=60.0)
            try:
                status, _ = await _post_run(
                    app, {"workload": "binary", "tenant": "t1"})
                assert status == 500
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "t1"})
                assert body["error"]["code"] == "circuit_open"
                # Other tenants and workloads still reach the executor
                # (and take the injected 500, not a breaker 503).
                status, _ = await _post_run(
                    app, {"workload": "binary", "tenant": "t2"})
                assert status == 500
                status, _ = await _post_run(
                    app, {"workload": "dotproduct", "tenant": "t1"})
                assert status == 500
            finally:
                app.close()

        _run(go())

    def test_cache_hits_bypass_open_breaker(self, monkeypatch):
        async def go():
            app = _app(breaker_threshold=1, breaker_cooldown=60.0)
            try:
                status, warm = await _post_run(
                    app, {"workload": "binary", "tenant": "t"})
                assert status == 200
                monkeypatch.setattr("repro.serve.app.run_workload",
                                    _boom)
                # no_cache forces a miss → executes → 500 → trips.
                status, _ = await _post_run(
                    app, {"workload": "binary", "tenant": "t",
                          "no_cache": True})
                assert status == 500
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "t",
                          "no_cache": True})
                assert body["error"]["code"] == "circuit_open"
                # The cached result is still served while open.
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "t"})
                assert status == 200 and body["cached"] is True
                assert body["fingerprint"] == warm["fingerprint"]
            finally:
                app.close()

        _run(go())

    def test_half_open_probe_recovers(self, monkeypatch):
        fail = {"left": 2}

        def flaky(*args, **kwargs):
            if fail["left"] > 0:
                fail["left"] -= 1
                raise RuntimeError("transient backend failure")
            return run_workload(*args, **kwargs)

        async def go():
            app = _app(breaker_threshold=2, breaker_cooldown=0.05)
            try:
                monkeypatch.setattr("repro.serve.app.run_workload",
                                    flaky)
                for _ in range(2):
                    status, _ = await _post_run(
                        app, {"workload": "binary", "tenant": "t"})
                    assert status == 500
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "t"})
                assert body["error"]["code"] == "circuit_open"
                await asyncio.sleep(0.06)
                # Cooldown elapsed: the probe runs and heals the pair.
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "t"})
                assert status == 200
                assert app.breakers.state_of("t", "binary") == "closed"
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "t"})
                assert status == 200 and body["cached"] is True
            finally:
                app.close()

        _run(go())

    def test_threshold_zero_disables_in_app(self):
        async def go():
            app = _app(fault_spec="serve.admit", breaker_threshold=0)
            try:
                for _ in range(4):
                    status, body = await _post_run(
                        app, {"workload": "binary", "tenant": "t"})
                    assert status == 500
                    assert body["error"]["code"] == "injected_fault"
                assert app._stats()["breakers"]["enabled"] is False
            finally:
                app.close()

        _run(go())


def _boom(*args, **kwargs):
    raise RuntimeError("backend down")


# ----------------------------------------------------------------------
# Echo passthrough and respond-fault behavior
# ----------------------------------------------------------------------

class TestEchoAndRespondFault:
    def test_echo_round_trips_on_every_outcome(self, monkeypatch):
        async def go():
            app = _app(breaker_threshold=1, breaker_cooldown=60.0)
            try:
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "t",
                          "echo": "req-000"})
                assert status == 200 and body["echo"] == "req-000"
                # Cached response echoes the *new* request's token.
                status, body = await _post_run(
                    app, {"workload": "binary", "tenant": "t",
                          "echo": "req-001"})
                assert body["cached"] is True
                assert body["echo"] == "req-001"
                monkeypatch.setattr("repro.serve.app.run_workload",
                                    _boom)
                status, body = await _post_run(
                    app, {"workload": "dotproduct", "tenant": "t",
                          "echo": "req-002", "no_cache": True})
                assert status == 500 and body["echo"] == "req-002"
                status, body = await _post_run(
                    app, {"workload": "dotproduct", "tenant": "t",
                          "echo": "req-003", "no_cache": True})
                assert body["error"]["code"] == "circuit_open"
                assert body["echo"] == "req-003"
            finally:
                app.close()

        _run(go())

    def test_echo_never_reaches_the_cache_key(self):
        async def go():
            app = _app()
            try:
                status, a = await _post_run(
                    app, {"workload": "binary", "echo": "x"})
                status, b = await _post_run(
                    app, {"workload": "binary", "echo": "y"})
                assert b["cached"] is True
                assert a["fingerprint"] == b["fingerprint"]
                assert app.executions == 1
            finally:
                app.close()

        _run(go())

    def test_oversize_or_non_string_echo_rejected(self):
        async def go():
            app = _app()
            try:
                status, body = await _post_run(
                    app, {"workload": "binary", "echo": "e" * 129})
                assert status == 400
                status, body = await _post_run(
                    app, {"workload": "binary", "echo": 7})
                assert status == 400
            finally:
                app.close()

        _run(go())

    def test_drop_response_cuts_connection_unsupervised(self):
        async def go():
            # Unsupervised (no worker id): the hook reports True (the
            # http layer cuts the connection) instead of exiting.
            app = _app(fault_spec="serve.respond:once")
            try:
                assert app.drop_response() is True
                assert app.respond_drops == 1
                assert app.drop_response() is False   # once = spent
            finally:
                app.close()

        _run(go())

    def test_drop_response_suppressed_while_draining(self):
        async def go():
            app = _app(fault_spec="serve.respond")
            try:
                app.draining = True
                assert app.drop_response() is False
                assert app.respond_drops == 0
            finally:
                app.close()

        _run(go())


# ----------------------------------------------------------------------
# Retry-After surfacing
# ----------------------------------------------------------------------

class TestRetryAfter:
    def test_hint_only_for_shed_statuses(self):
        body = {"error": {"retry_after": 0.4}}
        assert retry_after_hint(429, body) == 1
        assert retry_after_hint(503, body) == 1
        assert retry_after_hint(500, body) is None
        assert retry_after_hint(200, body) is None

    def test_hint_rounds_up_whole_seconds(self):
        assert retry_after_hint(
            429, {"error": {"retry_after": 2.1}}) == 3
        assert retry_after_hint(
            503, {"error": {"retry_after": 5}}) == 5

    def test_hint_ignores_malformed_bodies(self):
        assert retry_after_hint(429, {}) is None
        assert retry_after_hint(429, {"error": {}}) is None
        assert retry_after_hint(
            429, {"error": {"retry_after": "soon"}}) is None
        assert retry_after_hint(
            429, {"error": {"retry_after": -1}}) is None

    def test_header_emitted_in_rendered_response(self):
        raw = render_response(503, {"error": {"retry_after": 0.25}})
        head = raw.split(b"\r\n\r\n", 1)[0]
        assert b"Retry-After: 1" in head
        raw = render_response(200, {"ok": True})
        assert b"Retry-After" not in raw

    def test_admission_rejections_carry_retry_after(self):
        status, body = ServeApp._classify_admission(
            QuotaExceeded("t", in_flight=3, quota=3))
        assert status == 429 and body["error"]["retry_after"] == 1
        status, body = ServeApp._classify_admission(
            Backpressure(queued=9, limit=9))
        assert status == 503 and body["error"]["retry_after"] == 1
