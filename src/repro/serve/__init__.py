"""Specialization-as-a-service: an asyncio daemon over the harness.

``python -m repro.serve`` exposes the eval harness's (workload, config)
runs over HTTP with a sharded multi-tenant result cache, per-tenant
admission control, per-(tenant, workload) circuit breakers, and the
degradation ladder wired into the request path.  Every miss runs on
one backend, resolved at start-up as the harness resolves it
(``REPRO_BACKEND``, else ``threaded``).
``python -m repro.serve.supervisor`` runs N such workers behind one
shared socket with crash/hang recovery (heartbeat pipes), warm
recycling from the persistent store, and graceful SIGTERM drain.
``python -m repro.serve.loadgen`` is the matching deterministic
traffic-replay load generator, with retry budgets and echo-token
response accounting; ``python -m repro.chaos`` storms the whole stack
with seeded faults and worker kills.

Endpoints
---------

================  ====================================================
``POST /run``     execute (or serve from cache) a workload run; body
                  ``{"workload": ..., "tenant": ..., "config": {...},
                  "verify": true, "no_cache": false, "echo": ...}``
``GET /stats``    cache shards, admission queue, executions per
                  backend, degradation counters, per-tenant tallies,
                  fault-point hits, circuit-breaker states,
                  supervision counters
``GET /healthz``  liveness + in-flight + quarantine + drain status
``GET /workloads``  available workload names
================  ====================================================

See ``DESIGN.md`` §10 (daemon) and §12 (supervision, breakers, and
the chaos harness) for the architecture.
"""

from repro.serve.admission import AdmissionQueue, Backpressure, \
    QuotaExceeded
from repro.serve.app import ServeApp
from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.cache import ShardedResultCache
from repro.serve.http import ServeDaemon
from repro.serve.protocol import (
    RunRequest,
    classify_error,
    parse_run_request,
    result_payload,
    run_fingerprint,
)

__all__ = [
    "AdmissionQueue",
    "Backpressure",
    "BreakerBoard",
    "CircuitBreaker",
    "QuotaExceeded",
    "RunRequest",
    "ServeApp",
    "ServeDaemon",
    "ShardedResultCache",
    "classify_error",
    "parse_run_request",
    "result_payload",
    "run_fingerprint",
]
