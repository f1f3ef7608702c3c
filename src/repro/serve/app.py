"""The serve application: routing, single-flight, execution, degradation.

Request lifecycle for ``POST /run``:

1. **Parse/validate** on the event loop (:mod:`repro.serve.protocol`);
   structural problems never reach a worker thread.
2. **Cache lookup** in the sharded result cache.  Deterministic
   outcomes are cached: successful runs *and* deterministic
   specialization failures (422s), mirroring the offline memoizer's
   error memoization.  Cache hits bypass the circuit breaker — serving
   known-good bytes is always safe.
3. **Circuit breaker** (:mod:`repro.serve.breaker`) — a per-(tenant,
   workload) breaker that has seen ``REPRO_BREAKER_THRESHOLD``
   consecutive 5xx outcomes rejects the miss with a ``circuit_open``
   503 (plus ``Retry-After``) until its cooldown admits a half-open
   probe.  Every non-cached outcome settles the breaker.
4. **Admission fault point** — ``serve.admit`` (armed via the daemon's
   ``--faults`` flag or ``REPRO_FAULTS``) can deterministically fail
   the request here, producing a structured 500.  This is the serve
   tier's own rung on the fault-injection ladder: it proves the daemon
   converts internal failures into responses instead of dying — and it
   feeds the breaker like any organic 5xx.
5. **Single-flight** — concurrent misses on the same (tenant, key)
   coalesce onto one execution; followers await the leader's future
   (a promotion storm of N identical requests costs one run).
6. **Admission queue** (:mod:`repro.serve.admission`): backpressure
   503s, per-tenant quota 429s, then a semaphore sized to the worker
   pool.
7. **Execution** on the daemon's one backend, resolved when the app
   is built exactly as the harness resolves it (``REPRO_BACKEND``,
   else threaded), so a key's bytes never depend on how often it was
   looked up.  The run executes on a thread pool via
   ``run_in_executor``.  With ``--memo-dir`` the run goes through the
   harness's :class:`~repro.evalharness.memo.Memoizer` on that
   directory, so a restarted or recycled worker serves any key a
   predecessor ran from disk; ``no_cache`` requests bypass it.  Runs
   are thread-safe because every run builds a fresh runtime/machine
   stack (the thread-confinement invariant documented on
   :class:`~repro.runtime.cache.CodeCache`); per-request fault specs
   travel in ``OptConfig.faults``, never via the (shared) process
   environment.
8. **Degradation accounting** — ladder counters from the run's region
   stats are aggregated into daemon-wide and per-tenant totals,
   surfaced on ``/stats`` and ``/healthz``.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import SpecializationError, WorkerFault
from repro.evalharness.memo import Memoizer, memo_key
from repro.evalharness.runner import resolve_backend, run_workload
from repro.faults import FaultRegistry
from repro.machine.costs import ALPHA_21164
from repro.runtime.overhead import DEFAULT_OVERHEAD
from repro.serve import knobs
from repro.serve.admission import (
    AdmissionQueue,
    Backpressure,
    QuotaExceeded,
)
from repro.serve.breaker import BreakerBoard
from repro.serve.cache import ShardedResultCache
from repro.serve.protocol import (
    BadRequest,
    RunRequest,
    classify_error,
    error_body,
    parse_run_request,
    result_payload,
)
from repro.workloads import WORKLOADS_BY_NAME

DEFAULT_SHARDS = 8
DEFAULT_CAPACITY_PER_SHARD = 256
DEFAULT_MAX_QUEUE = 1024
DEFAULT_TENANT_QUOTA = 128

_DEGRADATION_KEYS = (
    "specialization_failures",
    "respecializations",
    "fallback_executions",
    "quarantined_contexts",
    "quarantine_skips",
    "budget_truncations",
    "cache_corruptions",
    "degraded_translations",
    "degraded_compilations",
)


class ServeApp:
    """Routing + request orchestration for the serve daemon."""

    def __init__(self, *,
                 shards: int = DEFAULT_SHARDS,
                 cache_capacity: int = DEFAULT_CAPACITY_PER_SHARD,
                 workers: int | None = None,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 tenant_quota: int = DEFAULT_TENANT_QUOTA,
                 fault_spec: str | None = None,
                 memo_dir: str | None = None,
                 breaker_threshold: int | None = None,
                 breaker_cooldown: float | None = None):
        import os
        # First, so a bad REPRO_BACKEND refuses the daemon before any
        # thread or socket exists.
        self.backend = resolve_backend(None)
        if workers is None:
            workers = min(8, os.cpu_count() or 2)
        self.started = time.time()
        # Off unless a directory is given: $REPRO_MEMO_DIR, which the
        # offline harness reads, never turns it on here.
        self.memo = Memoizer(memo_dir) if memo_dir else None
        self.fault_spec = fault_spec or ""
        self.faults = FaultRegistry.from_spec(self.fault_spec)
        self.cache = ShardedResultCache(
            shards=shards,
            capacity_per_shard=cache_capacity,
            fault_spec=self.fault_spec or None,
        )
        self.admission = AdmissionQueue(
            max_concurrency=workers,
            max_queue=max_queue,
            tenant_quota=tenant_quota,
        )
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve",
        )
        self.breakers = BreakerBoard(threshold=breaker_threshold,
                                     cooldown=breaker_cooldown)
        self._inflight: dict[tuple[str, str], asyncio.Future] = {}
        #: Set while a SIGTERM drain is in progress: keep-alive turns
        #: off (clients reconnect elsewhere) and /healthz reports it.
        self.draining = False
        self.respond_drops = 0
        # /stats counters (event-loop thread only).
        self.requests_total = 0
        self.status_counts: dict[str, int] = {}
        self.error_codes: dict[str, int] = {}
        self.coalesced = 0
        self.cache_served = 0
        self.executions = 0
        self.degradation = {name: 0 for name in _DEGRADATION_KEYS}
        self.degraded_runs = 0
        self.tenants: dict[str, dict[str, int]] = {}

    def close(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)

    # -- routing ---------------------------------------------------------

    async def handle(self, method: str, path: str,
                     body: bytes) -> tuple[int, dict]:
        """Dispatch one request; never raises."""
        self.requests_total += 1
        try:
            if path == "/healthz":
                status, payload = self._require_get(method) \
                    or (200, self._healthz())
            elif path == "/stats":
                status, payload = self._require_get(method) \
                    or (200, self._stats())
            elif path == "/workloads":
                status, payload = self._require_get(method) or (
                    200, {"workloads": sorted(WORKLOADS_BY_NAME)})
            elif path == "/run":
                if method != "POST":
                    status, payload = 405, error_body(
                        "method_not_allowed", f"{path} requires POST")
                else:
                    status, payload = await self._run(body)
            else:
                status, payload = 404, error_body(
                    "not_found", f"unknown path {path!r}")
        except (QuotaExceeded, Backpressure) as exc:
            status, payload = self._classify_admission(exc)
        except Exception as exc:  # the daemon must never die on a request
            status, payload = classify_error(exc)
        self.status_counts[str(status)] = \
            self.status_counts.get(str(status), 0) + 1
        if status >= 400 and isinstance(payload.get("error"), dict):
            code = payload["error"].get("code", "unknown")
            self.error_codes[code] = self.error_codes.get(code, 0) + 1
        return status, payload

    @staticmethod
    def _require_get(method: str):
        if method != "GET":
            return 405, error_body("method_not_allowed",
                                   "this endpoint requires GET")
        return None

    @staticmethod
    def _classify_admission(exc) -> tuple[int, dict]:
        if isinstance(exc, QuotaExceeded):
            return 429, error_body("quota_exceeded", str(exc),
                                   tenant=exc.tenant,
                                   in_flight=exc.in_flight,
                                   quota=exc.quota,
                                   retry_after=1)
        return 503, error_body("backpressure", str(exc),
                               queued=exc.queued, limit=exc.limit,
                               retry_after=1)

    def drop_response(self) -> bool:
        """``serve.respond`` fault hook, called just before a response
        is written.  Firing simulates the worst-case worker loss: the
        work is done (and possibly cached) but the response never
        reaches the client.  Under a supervisor the whole process dies
        (the supervisor recycles it); an unsupervised daemon merely
        cuts the connection so in-process tests stay alive.

        Suppressed while draining: with the listener closed a client
        cannot retry into another worker, so firing here would turn a
        simulated crash into a guaranteed lost response — the drain
        guarantee is the one property this fault must not break."""
        if self.draining \
                or not self.faults.enabled("serve.respond") \
                or not self.faults.should_fire("serve.respond"):
            return False
        self.respond_drops += 1
        if knobs.worker_id() is not None:
            import os
            import sys
            sys.stderr.flush()
            os._exit(knobs.EXIT_RESPOND_FAULT)
        return True

    # -- POST /run -------------------------------------------------------

    async def _run(self, body: bytes) -> tuple[int, dict]:
        try:
            decoded = json.loads(body)
        except ValueError:
            raise BadRequest("request body is not valid JSON") from None
        request = parse_run_request(decoded)
        status, payload = await self._routed(request)
        if request.echo is not None:
            payload = dict(payload, echo=request.echo)
        return status, payload

    async def _routed(self, request: RunRequest) -> tuple[int, dict]:
        workload = WORKLOADS_BY_NAME[request.workload]
        run_key = memo_key(workload, request.config, ALPHA_21164,
                           DEFAULT_OVERHEAD, request.verify)
        tenant = request.tenant
        self._tenant(tenant)["requests"] += 1

        if not request.no_cache:
            envelope = self.cache.get(tenant, run_key)
            if envelope is not None:
                self.cache_served += 1
                return envelope["status"], dict(envelope["body"],
                                                cached=True)

        # Circuit-breaker gate (after the cache: serving known-good
        # cached bytes is always safe, even for a tripped pair).
        wait = self.breakers.acquire(tenant, request.workload)
        if wait is not None:
            self._tenant(tenant)["rejected"] += 1
            return 503, error_body(
                "circuit_open",
                f"circuit breaker open for tenant {tenant!r} "
                f"workload {request.workload!r}",
                tenant=tenant, workload=request.workload,
                retry_after=round(wait, 3))

        status: int | None = None
        try:
            if self.faults.should_fire("serve.admit"):
                raise WorkerFault(
                    "injected fault: serve.admit failed the request"
                )
            status, payload = await self._flight(request, workload,
                                                 run_key)
            return status, payload
        except (QuotaExceeded, Backpressure) as exc:
            self._tenant(tenant)["rejected"] += 1
            status, payload = self._classify_admission(exc)
            return status, payload
        except Exception as exc:
            status, payload = classify_error(exc)
            return status, payload
        finally:
            self.breakers.settle(tenant, request.workload, status)

    async def _flight(self, request: RunRequest, workload,
                      run_key: str) -> tuple[int, dict]:
        """Single-flight coalescing around the admitted leader."""
        tenant = request.tenant
        flight_key = (tenant, run_key)
        leader = self._inflight.get(flight_key)
        if leader is not None and not request.no_cache:
            self.coalesced += 1
            status, payload = await asyncio.shield(leader)
            return status, dict(payload, coalesced=True)

        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[flight_key] = fut
        outcome: tuple[int, dict] = (500, error_body(
            "internal_error", "request leader failed"))
        try:
            outcome = await self._lead(request, workload, run_key)
            return outcome
        finally:
            self._inflight.pop(flight_key, None)
            if not fut.done():
                fut.set_result(outcome)

    async def _lead(self, request: RunRequest, workload,
                    run_key: str) -> tuple[int, dict]:
        """Admission + execution for the single-flight leader."""
        tenant = request.tenant
        try:
            async with self.admission.slot(tenant):
                payload = await asyncio.get_running_loop().run_in_executor(
                    self.executor, self._execute, request, run_key)
                self.executions += 1
                self._absorb_degradation(tenant, payload["degradation"])
                return 200, payload
        except (QuotaExceeded, Backpressure) as exc:
            self._tenant(tenant)["rejected"] += 1
            return self._classify_admission(exc)
        except Exception as exc:
            status, body = classify_error(exc)
            self._tenant(tenant)["errors"] += 1
            if status == 422 and isinstance(exc, SpecializationError) \
                    and not request.no_cache:
                # Deterministic failure: cache it like the offline
                # memoizer does, so repeats are instant 422s.
                self.cache.put(tenant, run_key,
                               {"status": 422, "body": body})
            return status, body

    def _execute(self, request: RunRequest, run_key: str) -> dict:
        """Worker-thread body: run the workload, cache the payload."""
        workload = WORKLOADS_BY_NAME[request.workload]
        result = run_workload(
            workload, request.config, verify=request.verify,
            backend=self.backend,
            memo=None if request.no_cache else self.memo,
            memo_key=run_key)
        payload = result_payload(result, self.backend)
        if not request.no_cache:
            # Insertion happens on the worker thread; the shard's lock
            # serializes it against event-loop lookups.
            self.cache.put(request.tenant, run_key,
                           {"status": 200, "body": payload})
        return payload

    # -- accounting ------------------------------------------------------

    def _tenant(self, tenant: str) -> dict[str, int]:
        entry = self.tenants.get(tenant)
        if entry is None:
            entry = {"requests": 0, "errors": 0, "rejected": 0,
                     "degraded_runs": 0}
            self.tenants[tenant] = entry
        return entry

    def _absorb_degradation(self, tenant: str,
                            counters: dict[str, int]) -> None:
        degraded = False
        for name in _DEGRADATION_KEYS:
            value = counters.get(name, 0)
            if value:
                degraded = True
                self.degradation[name] += value
        if degraded:
            self.degraded_runs += 1
            self._tenant(tenant)["degraded_runs"] += 1

    # -- GET endpoints ---------------------------------------------------

    def _healthz(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": round(time.time() - self.started, 3),
            "requests_total": self.requests_total,
            "in_flight": self.admission.waiting + self.admission.running,
            "degraded_runs": self.degraded_runs,
            "quarantined_contexts":
                self.degradation["quarantined_contexts"],
            "worker": knobs.worker_id(),
            "draining": self.draining,
        }

    @staticmethod
    def _supervisor_stats() -> dict | None:
        """Supervision counters, when running under a supervisor.

        The supervisor rewrites its state file atomically on every
        lifecycle event; any worker can therefore surface fleet-wide
        restart counters on its own ``/stats`` without IPC.
        """
        path = knobs.supervisor_state_path()
        if path is None:
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                state = json.load(handle)
        except (OSError, ValueError):
            return {"state_file": path, "readable": False}
        state["state_file"] = path
        state["readable"] = True
        return state

    def _stats(self) -> dict:
        return {
            "server": {
                "worker": knobs.worker_id(),
                "uptime_seconds": round(time.time() - self.started, 3),
                "requests_total": self.requests_total,
                "status_counts": dict(sorted(self.status_counts.items())),
                "error_codes": dict(sorted(self.error_codes.items())),
                "executions": self.executions,
                "cache_served": self.cache_served,
                "coalesced": self.coalesced,
                # Executions per backend; one daemon runs one backend.
                "tiers": {self.backend: self.executions},
                "respond_drops": self.respond_drops,
                "draining": self.draining,
                "fault_spec": self.fault_spec,
                "fault_points": {
                    point: {"hits": hits, "fires": fires}
                    for point, (hits, fires)
                    in self.faults.summary().items()
                },
            },
            "cache": self.cache.stats(),
            "memo": self.memo.stats() if self.memo else None,
            "admission": self.admission.stats(),
            "breakers": self.breakers.stats(),
            "supervisor": self._supervisor_stats(),
            "degradation": dict(self.degradation),
            "degraded_runs": self.degraded_runs,
            "tenants": {
                tenant: dict(counts)
                for tenant, counts in sorted(self.tenants.items())
            },
        }
