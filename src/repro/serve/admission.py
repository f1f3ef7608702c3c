"""Async admission control: global concurrency, quotas, backpressure.

The daemon executes runs on a thread pool; this queue stands in front
of it and decides, on the event loop, whether a request may wait for a
worker at all.  Three limits apply, in order:

1. **Backpressure** — if more than ``max_queue`` requests are already
   waiting for a worker slot, the request is rejected immediately with
   :class:`Backpressure` (HTTP 503).  A full queue means the daemon is
   falling behind; admitting more work would only grow latency
   unboundedly.
2. **Per-tenant quota** — each tenant may have at most ``tenant_quota``
   requests in flight (queued + executing).  A tenant at its quota
   draws :class:`QuotaExceeded` (HTTP 429) while other tenants keep
   being admitted — one hot tenant cannot starve the rest.
3. **Global concurrency** — an :class:`asyncio.Semaphore` sized to the
   worker pool; requests past both gates wait here (this wait *is* the
   queue that limit 1 measures).

Everything here runs on the event-loop thread only, so plain counters
suffice — no locks.  Use :meth:`AdmissionQueue.slot` as an async
context manager around the executor call.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.errors import ReproError


class QuotaExceeded(ReproError):
    """A tenant is at its in-flight quota (HTTP 429)."""

    def __init__(self, tenant: str, in_flight: int, quota: int):
        self.tenant = tenant
        self.in_flight = in_flight
        self.quota = quota
        super().__init__(
            f"tenant {tenant!r} has {in_flight} request(s) in flight "
            f"(quota {quota})"
        )


class Backpressure(ReproError):
    """The admission queue is full (HTTP 503)."""

    def __init__(self, queued: int, limit: int):
        self.queued = queued
        self.limit = limit
        super().__init__(
            f"admission queue full ({queued} waiting, limit {limit})"
        )


class AdmissionQueue:
    """Event-loop-confined admission gate for the run executor."""

    def __init__(self, max_concurrency: int, max_queue: int,
                 tenant_quota: int):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.tenant_quota = tenant_quota
        self._sem = asyncio.Semaphore(max_concurrency)
        self._waiting = 0
        self._running = 0
        self._tenant_in_flight: dict[str, int] = {}
        # Counters for /stats.
        self.admitted = 0
        self.rejected_quota = 0
        self.rejected_backpressure = 0
        self.peak_waiting = 0
        self.peak_running = 0

    # -- observability ---------------------------------------------------

    @property
    def waiting(self) -> int:
        return self._waiting

    @property
    def running(self) -> int:
        return self._running

    def stats(self) -> dict:
        return {
            "max_concurrency": self.max_concurrency,
            "max_queue": self.max_queue,
            "tenant_quota": self.tenant_quota,
            "waiting": self._waiting,
            "running": self._running,
            "admitted": self.admitted,
            "rejected_quota": self.rejected_quota,
            "rejected_backpressure": self.rejected_backpressure,
            "peak_waiting": self.peak_waiting,
            "peak_running": self.peak_running,
            "tenants_in_flight": {
                tenant: count
                for tenant, count in sorted(self._tenant_in_flight.items())
                if count
            },
        }

    # -- admission -------------------------------------------------------

    @contextlib.asynccontextmanager
    async def slot(self, tenant: str):
        """Hold one execution slot for ``tenant`` (async context)."""
        if self._waiting >= self.max_queue > 0:
            self.rejected_backpressure += 1
            raise Backpressure(self._waiting, self.max_queue)
        in_flight = self._tenant_in_flight.get(tenant, 0)
        if in_flight >= self.tenant_quota:
            self.rejected_quota += 1
            raise QuotaExceeded(tenant, in_flight, self.tenant_quota)
        self._tenant_in_flight[tenant] = in_flight + 1
        self._waiting += 1
        self.peak_waiting = max(self.peak_waiting, self._waiting)
        acquired = False
        try:
            await self._sem.acquire()
            acquired = True
            self._waiting -= 1
            self._running += 1
            self.peak_running = max(self.peak_running, self._running)
            self.admitted += 1
            yield
        finally:
            if acquired:
                self._running -= 1
                self._sem.release()
            else:
                self._waiting -= 1
            remaining = self._tenant_in_flight.get(tenant, 1) - 1
            if remaining:
                self._tenant_in_flight[tenant] = remaining
            else:
                self._tenant_in_flight.pop(tenant, None)
