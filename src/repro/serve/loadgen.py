"""Deterministic traffic-replay load generator for the serve daemon.

``python -m repro.serve.loadgen`` drives a daemon (an external one via
``--host/--port``, or one spawned in-process with ``--spawn``) with a
seeded, reproducible request mix:

* **zipf** — the steady-state leg: requests drawn from a Zipfian
  distribution over a (tenants x workloads x config-variants) key
  universe, so a few keys are hot and the long tail is cold.  This is
  the leg the cache is for.
* **thrash** — adversarial: a stream of unique keys sized past the
  cache capacity, forcing evictions; every miss, first or after an
  eviction, runs on the daemon's one backend.
* **storm** — adversarial: waves of identical concurrent requests for
  a cold key; single-flight coalescing must collapse each wave onto
  one execution.
* **faulted** — per-request fault injection via ``OptConfig.faults``
  (degraded-but-successful runs, quarantine circuit-breaks) plus the
  deterministic mipsi context-budget overrun (a structured 422 that
  the daemon memoizes).  If the daemon itself has ``serve.admit``
  armed, injected 500s are expected and asserted on instead of
  failing the clean legs.

Every request the clean legs successfully execute carries a result
*fingerprint*; the generator re-runs a sample of distinct keys through
the offline harness in-process and requires byte-identical
fingerprints — the daemon may never serve bytes the harness would not
produce.

``--smoke`` runs a small mix with hard assertions (CI); ``--bench``
runs the full mix at ``--clients`` concurrency (default 1000) and
writes ``BENCH_serve.json``.

``--snapshot`` (requires ``--spawn``) adds a warm-restart leg: replay
a fixed key set against a daemon backed by a fresh persistent artifact
store, snapshot the store, restart the daemon warm (``--snapshot`` +
an empty store) mid-replay, and replay the same keys again.  Every
fingerprint must be byte-identical across the restart *and* to the
offline harness oracle, and the warm daemon must actually replay
persisted artifacts rather than regenerate them.

Clients are resilient by default: every request carries an ``echo``
token the daemon must return verbatim (catching lost, duplicated, or
cross-wired responses across retries and worker recycling), transport
errors and 429/503 sheds are retried with seeded-jitter exponential
backoff (the body's ``retry_after`` hint floors the wait) under a
bounded attempt budget, and a request counts as ``lost`` only when
every attempt died on the wire.  That is what lets the chaos harness
(``python -m repro.chaos``) demand *zero* lost responses while a
supervisor SIGKILLs and recycles the workers serving the traffic.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import json
import random
import sys
import threading
import time
from collections import deque

from repro.evalharness.runner import run_workload
from repro.serve.protocol import build_config, run_fingerprint
from repro.workloads import KERNELS, WORKLOADS_BY_NAME

DEFAULT_BENCH_PATH = "BENCH_serve.json"
DEFAULT_SEED = 20260807

#: Workloads the generator mixes by default: the paper's kernels, which
#: run in well under a second each on any backend.
DEFAULT_WORKLOADS = tuple(w.name for w in KERNELS)


# ----------------------------------------------------------------------
# Seeded traffic shapes
# ----------------------------------------------------------------------

class ZipfSampler:
    """Zipf(s) over ranks 0..n-1 via inverse-CDF on a seeded RNG."""

    def __init__(self, n: int, s: float, rng: random.Random):
        if n < 1:
            raise ValueError("n must be >= 1")
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0
        self._rng = rng

    def sample(self) -> int:
        return bisect.bisect_left(self._cdf, self._rng.random())


def key_universe(tenants: int, workloads: tuple[str, ...],
                 variants: int, rng: random.Random) -> list[dict]:
    """The (tenant, workload, config) triples zipf traffic draws from.

    Config variants differ only in ``quarantine_after`` — a knob that
    is execution-inert on clean runs but changes the content-hash run
    key, giving the cache a controllable number of distinct entries.
    Rank order is shuffled so hotness is not correlated with tenant id.
    """
    universe = []
    for t in range(tenants):
        for name in workloads:
            for v in range(variants):
                universe.append({
                    "tenant": f"tenant-{t:02d}",
                    "workload": name,
                    "config": {"quarantine_after": 3 + v},
                })
    rng.shuffle(universe)
    return universe


# ----------------------------------------------------------------------
# Raw asyncio HTTP client (keep-alive, one connection per virtual user)
# ----------------------------------------------------------------------

class Client:
    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def request(self, method: str, path: str,
                      payload: dict | None = None):
        """One round trip; returns ``(status, body_dict, seconds)``."""
        if self._writer is None:
            await self.open()
        body = b""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        )
        start = time.perf_counter()
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status, response = await asyncio.wait_for(
            self._read_response(), self.timeout)
        return status, response, time.perf_counter() - start

    async def _read_response(self):
        line = await self._reader.readuntil(b"\r\n")
        status = int(line.split()[1])
        length = 0
        while True:
            line = await self._reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self._reader.readexactly(length) if length else b"{}"
        return status, json.loads(raw)


# ----------------------------------------------------------------------
# Leg execution
# ----------------------------------------------------------------------

class LegResult:
    def __init__(self, name: str):
        self.name = name
        self.latencies: list[float] = []
        self.statuses: dict[str, int] = {}
        self.error_codes: dict[str, int] = {}
        self.fingerprints: dict[str, str] = {}   # request key -> fp
        self.mismatched_fingerprints = 0
        self.cached = 0
        self.coalesced = 0
        self.transport_errors = 0
        self.retries = 0
        self.lost = 0
        self.echo_mismatches = 0
        self.duration = 0.0

    def record(self, request: dict, status: int, body: dict,
               seconds: float) -> None:
        self.latencies.append(seconds)
        self.statuses[str(status)] = self.statuses.get(str(status), 0) + 1
        expected_echo = request.get("echo")
        if expected_echo is not None \
                and body.get("echo") != expected_echo:
            # The response must be *this* request's response — catching
            # cross-wiring or replay across retries and worker kills.
            self.echo_mismatches += 1
        if status >= 400 and isinstance(body.get("error"), dict):
            code = body["error"].get("code", "unknown")
            self.error_codes[code] = self.error_codes.get(code, 0) + 1
        if status == 200:
            if body.get("cached"):
                self.cached += 1
            if body.get("coalesced"):
                self.coalesced += 1
            fp = body.get("fingerprint")
            key = _request_identity(request)
            if fp:
                seen = self.fingerprints.get(key)
                if seen is None:
                    self.fingerprints[key] = fp
                elif seen != fp:
                    # The same (workload, config, verify) must always
                    # serve the same bytes, cached or not.
                    self.mismatched_fingerprints += 1

    def report(self) -> dict:
        n = len(self.latencies)
        lat = sorted(self.latencies)

        def pct(q: float) -> float:
            if not lat:
                return 0.0
            return round(1000 * lat[min(n - 1, int(q * (n - 1)))], 3)

        return {
            "requests": n,
            "duration_s": round(self.duration, 3),
            "throughput_rps": round(n / self.duration, 1)
            if self.duration else 0.0,
            "latency_ms": {"p50": pct(0.50), "p90": pct(0.90),
                           "p99": pct(0.99), "max": pct(1.0)},
            "statuses": dict(sorted(self.statuses.items())),
            "error_codes": dict(sorted(self.error_codes.items())),
            "cached": self.cached,
            "coalesced": self.coalesced,
            "transport_errors": self.transport_errors,
            "retries": self.retries,
            "lost": self.lost,
            "echo_mismatches": self.echo_mismatches,
            "self_consistent_fingerprints":
                self.mismatched_fingerprints == 0,
        }


def _request_identity(request: dict) -> str:
    return json.dumps(
        {"workload": request["workload"],
         "config": request.get("config", {}),
         "verify": request.get("verify", True)},
        sort_keys=True)


#: Per-request attempt ceiling (first try + retries).  Transport errors
#: and retryable statuses both consume attempts; exhausting them on a
#: transport error marks the request *lost* — the invariant the chaos
#: harness forbids.
MAX_ATTEMPTS = 6
#: Attempts spent on retryable statuses (429/503) before the client
#: accepts the shed response as final.
MAX_STATUS_RETRIES = 3
#: Backoff base; attempt k waits ``BACKOFF_BASE * 2**k`` seconds (or
#: the server's ``Retry-After``-equivalent hint, whichever is larger)
#: plus up to 50% seeded jitter.
BACKOFF_BASE = 0.05
RETRYABLE_STATUSES = (429, 503)


def _retry_wait(body: dict, attempt: int, rng: random.Random) -> float:
    """Jittered exponential backoff, floored by the server's hint.

    The structured body's ``retry_after`` carries sub-second precision
    (the header is rounded up to whole seconds), so the client honors
    the body when present.
    """
    wait = BACKOFF_BASE * (2 ** attempt)
    error = body.get("error")
    if isinstance(error, dict):
        hinted = error.get("retry_after")
        if isinstance(hinted, (int, float)) and hinted > 0:
            wait = max(wait, float(hinted))
    return min(5.0, wait * (1.0 + 0.5 * rng.random()))


async def run_leg(name: str, host: str, port: int,
                  requests: list[dict], clients: int,
                  timeout: float = 120.0,
                  echo: bool = False) -> LegResult:
    """Drain ``requests`` through ``clients`` keep-alive connections.

    Clients survive worker recycling: transport errors (a daemon or
    supervised worker dying mid-request) reconnect and retry with
    seeded jittered exponential backoff, and retryable shed statuses
    (429/503, including open circuit breakers) honor the response's
    ``retry_after`` hint.  A request is *lost* only when every attempt
    ends in a transport error.  With ``echo=True`` every request
    carries a unique token the response must echo back verbatim.
    """
    leg = LegResult(name)
    if echo:
        requests = [dict(r, echo=f"{name}:{i:06d}")
                    for i, r in enumerate(requests)]
    queue: deque = deque(requests)
    clients = max(1, min(clients, len(requests)))

    async def attempt(client: Client, request: dict,
                      rng: random.Random) -> None:
        status_retries = 0
        for attempt_no in range(MAX_ATTEMPTS):
            try:
                status, body, seconds = await client.request(
                    "POST", "/run", request)
            except (OSError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError, ValueError):
                leg.transport_errors += 1
                await client.close()
                if attempt_no + 1 >= MAX_ATTEMPTS:
                    break
                leg.retries += 1
                await asyncio.sleep(_retry_wait({}, attempt_no, rng))
                try:
                    await client.open()
                except OSError:
                    continue  # next attempt re-opens
                continue
            if status in RETRYABLE_STATUSES \
                    and status_retries < MAX_STATUS_RETRIES:
                status_retries += 1
                leg.retries += 1
                await asyncio.sleep(
                    _retry_wait(body, status_retries, rng))
                continue
            leg.record(request, status, body, seconds)
            return
        leg.lost += 1

    async def worker(worker_no: int) -> None:
        # zlib.crc32, not hash(): str hashes are salted per process.
        import zlib
        rng = random.Random(
            (zlib.crc32(name.encode("utf-8")) << 16) ^ worker_no)
        client = Client(host, port, timeout=timeout)
        try:
            try:
                await client.open()
            except OSError:
                pass  # first attempt() will retry the connect
            while True:
                try:
                    request = queue.popleft()
                except IndexError:
                    return
                await attempt(client, request, rng)
        finally:
            await client.close()

    start = time.perf_counter()
    await asyncio.gather(*(worker(n) for n in range(clients)))
    leg.duration = time.perf_counter() - start
    return leg


async def fetch(host: str, port: int, path: str) -> dict:
    client = Client(host, port)
    try:
        status, body, _ = await client.request("GET", path)
    finally:
        await client.close()
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}: {body}")
    return body


async def wait_ready(host: str, port: int, timeout: float = 30.0) -> dict:
    """Poll ``/healthz`` until the daemon answers (CI startup race)."""
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            return await fetch(host, port, "/healthz")
        except (OSError, RuntimeError, asyncio.IncompleteReadError) as err:
            last = err
            await asyncio.sleep(0.2)
    raise RuntimeError(f"daemon at {host}:{port} never became ready: "
                       f"{last}")


# ----------------------------------------------------------------------
# Offline byte-identical verification
# ----------------------------------------------------------------------

def verify_offline(leg: LegResult, sample: int,
                   rng: random.Random) -> dict:
    """Re-run distinct clean keys offline; fingerprints must match."""
    identities = sorted(leg.fingerprints)
    if sample and len(identities) > sample:
        identities = rng.sample(identities, sample)
    checked = matched = 0
    mismatches: list[str] = []
    for identity in identities:
        spec = json.loads(identity)
        config = build_config(spec["config"])
        result = run_workload(WORKLOADS_BY_NAME[spec["workload"]],
                              config, verify=spec["verify"],
                              backend="threaded")
        checked += 1
        if run_fingerprint(result) == leg.fingerprints[identity]:
            matched += 1
        else:
            mismatches.append(spec["workload"])
    return {"checked": checked, "matched": matched,
            "mismatches": mismatches}


# ----------------------------------------------------------------------
# In-process daemon (--spawn)
# ----------------------------------------------------------------------

class SpawnedDaemon:
    """A daemon on a background thread with its own event loop."""

    def __init__(self, argv: list[str]):
        from repro.serve.__main__ import _parse_args, build_app
        from repro.serve.http import ServeDaemon
        args = _parse_args(argv)
        self.app = build_app(args)
        self._daemon = ServeDaemon(self.app, args.host, args.port)
        self.host = args.host
        self.port = 0
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("spawned daemon failed to start")
        self.port = self._daemon.port

    def _run(self) -> None:
        async def go() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self._daemon.start()
            self._ready.set()
            await self._stop.wait()
            await self._daemon.close()
        asyncio.run(go())
        self.app.close()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)


# ----------------------------------------------------------------------
# Warm-restart leg (--snapshot)
# ----------------------------------------------------------------------

def run_snapshot_leg(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Cold replay -> snapshot -> warm daemon restart -> same replay.

    Returns ``(report_section, failures)``.  The daemon is spawned
    in-process twice: first against a fresh persistent store (cold),
    then — after snapshotting that store — against a *different* empty
    store warmed only by the snapshot, proving the snapshot file alone
    carries the artifacts across the restart.
    """
    import os
    import shutil
    import tempfile

    from repro.runtime import persist

    failures: list[str] = []
    scratch = tempfile.mkdtemp(prefix="repro-loadgen-snap-")
    cold_store = os.path.join(scratch, "store-cold")
    warm_store = os.path.join(scratch, "store-warm")
    snap_path = os.path.join(scratch, "serve.snap")
    # The same keys replayed in both phases; requested twice each so the
    # result cache is exercised too (identical fingerprints required).
    requests = [
        {"tenant": "warm", "workload": name,
         "config": {"quarantine_after": 7000 + i}}
        for i, name in enumerate(args.workloads)
    ]
    plan = [dict(r) for r in requests] + [dict(r) for r in requests]

    def phase(store_args: list[str], name: str):
        spawned = SpawnedDaemon(["--port", "0"] + store_args)
        try:
            leg = asyncio.run(run_leg(
                name, spawned.host, spawned.port, [dict(r) for r in plan],
                8, args.timeout, echo=True))
            stats = asyncio.run(fetch(spawned.host, spawned.port,
                                      "/stats"))
        finally:
            spawned.stop()
        return leg, stats

    try:
        cold_leg, _ = phase(["--persist-dir", cold_store],
                            "snapshot-cold")
        persist.reset()
        saved = persist.save_snapshot(cold_store, snap_path)
        if not saved.ok:
            failures.append(f"snapshot: save failed ({saved.error})")
            return {"error": saved.error}, failures

        warm_leg, warm_stats = phase(
            ["--persist-dir", warm_store, "--snapshot", snap_path],
            "snapshot-warm")
        persist.reset()

        # Offline oracle, with no store active.
        offline: dict[str, str] = {}
        for identity in sorted(cold_leg.fingerprints):
            spec = json.loads(identity)
            result = run_workload(WORKLOADS_BY_NAME[spec["workload"]],
                                  build_config(spec["config"]),
                                  verify=spec["verify"],
                                  backend="threaded")
            offline[identity] = run_fingerprint(result)

        if set(cold_leg.fingerprints) != set(warm_leg.fingerprints):
            failures.append("snapshot: cold and warm phases did not "
                            "serve the same key set")
        restart_matches = offline_matches = 0
        for identity, fp in cold_leg.fingerprints.items():
            if warm_leg.fingerprints.get(identity) == fp:
                restart_matches += 1
            else:
                failures.append(
                    f"snapshot: fingerprint changed across the warm "
                    f"restart for {json.loads(identity)['workload']}")
            if offline.get(identity) == fp:
                offline_matches += 1
            else:
                failures.append(
                    f"snapshot: daemon fingerprint disagrees with the "
                    f"offline oracle for "
                    f"{json.loads(identity)['workload']}")
        for leg in (cold_leg, warm_leg):
            if leg.mismatched_fingerprints:
                failures.append(f"{leg.name}: same key served "
                                "different fingerprints")
            bad = set(leg.statuses) - {"200"}
            if bad:
                failures.append(f"{leg.name}: unexpected statuses "
                                f"{sorted(bad)}")

        persist_stats = (warm_stats or {}).get("persist") or {}
        snapshot_info = persist_stats.get("snapshot") or {}
        if not snapshot_info.get("loaded"):
            failures.append("snapshot: warm daemon loaded no records "
                            "from the snapshot")
        if not (persist_stats.get("replayed_entries")
                or persist_stats.get("hits")):
            failures.append("snapshot: warm daemon never replayed a "
                            "persisted artifact")

        return {
            "keys": len(requests),
            "cold": cold_leg.report(),
            "warm": warm_leg.report(),
            "snapshot_records": saved.loaded,
            "warm_persist": {
                "hits": persist_stats.get("hits", 0),
                "replayed_entries":
                    persist_stats.get("replayed_entries", 0),
                "replayed_continuations":
                    persist_stats.get("replayed_continuations", 0),
                "stale_drops": persist_stats.get("stale_drops", 0),
                "snapshot": snapshot_info,
            },
            "restart_fingerprints_identical":
                restart_matches == len(cold_leg.fingerprints),
            "offline_fingerprints_identical":
                offline_matches == len(cold_leg.fingerprints),
        }, failures
    finally:
        persist.reset()
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# Traffic plans
# ----------------------------------------------------------------------

def plan_zipf(universe: list[dict], n: int, skew: float,
              rng: random.Random) -> list[dict]:
    sampler = ZipfSampler(len(universe), skew, rng)
    return [universe[sampler.sample()] for _ in range(n)]


def plan_thrash(workloads: tuple[str, ...], n: int,
                rng: random.Random) -> list[dict]:
    """Unique keys (disjoint from the zipf universe) to force evictions."""
    requests = []
    for i in range(n):
        requests.append({
            "tenant": f"thrash-{i % 4}",
            "workload": workloads[i % len(workloads)],
            # quarantine_after >= 1000 never collides with the zipf
            # universe's 3..3+variants range.
            "config": {"quarantine_after": 1000 + i},
        })
    rng.shuffle(requests)
    return requests


def plan_storm(workloads: tuple[str, ...], waves: int,
               wave_size: int) -> list[list[dict]]:
    """Waves of identical requests for previously unseen keys."""
    plans = []
    for wave in range(waves):
        request = {
            "tenant": "storm",
            "workload": workloads[wave % len(workloads)],
            "config": {"quarantine_after": 5000 + wave},
        }
        plans.append([dict(request) for _ in range(wave_size)])
    return plans


def plan_faulted(workloads: tuple[str, ...], n: int) -> list[dict]:
    """Per-request fault injection: degraded runs + quarantine."""
    requests = []
    for i in range(n):
        if i % 2 == 0:
            # Rung 1-2: first specialize attempt fails, the retry
            # succeeds -> 200 with respecializations > 0.
            config = {"faults": "specializer.entry:once",
                      "quarantine_after": 9000 + i}
        else:
            # Rung 3: every attempt fails, the circuit breaker
            # quarantines the (region, context) -> 200 with
            # quarantined_contexts > 0 and fallback executions.
            config = {"faults": "specializer.entry",
                      "quarantine_after": 1,
                      # distinct keys so each run exercises the ladder
                      "specialize_budget": 100000 + i}
        requests.append({"tenant": "faulty",
                         "workload": workloads[i % len(workloads)],
                         "config": config})
    return requests


def plan_budget(repeats: int) -> list[dict]:
    """Deterministic 422: mipsi without static loads overruns the
    context budget; repeats should be served from the error cache."""
    return [{"tenant": "faulty", "workload": "mipsi",
             "config": {"static_loads": False}}
            for _ in range(1 + repeats)]


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

async def drive(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Run all legs; returns (report, failed assertion messages)."""
    host, port = args.host, args.port
    rng = random.Random(args.seed)
    workloads = tuple(args.workloads)

    health = await wait_ready(host, port)
    stats_before = await fetch(host, port, "/stats")
    admit_armed = "serve.admit" in (
        stats_before["server"].get("fault_spec") or "")

    universe = key_universe(args.tenants, workloads, args.variants, rng)
    legs: dict[str, LegResult] = {}

    print(f"[loadgen] daemon ready (uptime {health['uptime_seconds']}s, "
          f"admit faults {'armed' if admit_armed else 'off'}); "
          f"universe of {len(universe)} keys", file=sys.stderr)

    zipf_requests = plan_zipf(universe, args.requests, args.skew, rng)
    legs["zipf"] = await run_leg("zipf", host, port, zipf_requests,
                                 args.clients, args.timeout, echo=True)
    print(f"[loadgen] zipf: {legs['zipf'].report()['throughput_rps']} "
          f"req/s over {args.clients} clients", file=sys.stderr)

    thrash_requests = plan_thrash(workloads, args.thrash, rng)
    legs["thrash"] = await run_leg("thrash", host, port, thrash_requests,
                                   max(32, args.clients // 5),
                                   args.timeout, echo=True)

    storm = LegResult("storm")
    start = time.perf_counter()
    for wave in plan_storm(workloads, args.storm_waves, args.storm_size):
        wave_leg = await run_leg("storm-wave", host, port, wave,
                                 len(wave), args.timeout, echo=True)
        storm.latencies += wave_leg.latencies
        storm.coalesced += wave_leg.coalesced
        storm.cached += wave_leg.cached
        storm.transport_errors += wave_leg.transport_errors
        storm.retries += wave_leg.retries
        storm.lost += wave_leg.lost
        storm.echo_mismatches += wave_leg.echo_mismatches
        for key, count in wave_leg.statuses.items():
            storm.statuses[key] = storm.statuses.get(key, 0) + count
        for key, count in wave_leg.error_codes.items():
            storm.error_codes[key] = \
                storm.error_codes.get(key, 0) + count
        storm.fingerprints.update(wave_leg.fingerprints)
        storm.mismatched_fingerprints += wave_leg.mismatched_fingerprints
    storm.duration = time.perf_counter() - start
    legs["storm"] = storm

    faulted_requests = plan_faulted(workloads, args.faulted)
    if args.budget_leg:
        faulted_requests += plan_budget(args.budget_repeats)
    legs["faulted"] = await run_leg("faulted", host, port,
                                    faulted_requests,
                                    max(8, args.clients // 20),
                                    args.timeout, echo=True)

    stats_after = await fetch(host, port, "/stats")
    health_after = await fetch(host, port, "/healthz")

    offline = verify_offline(legs["zipf"], args.verify_samples,
                             rng)
    print(f"[loadgen] offline verification: {offline['matched']}/"
          f"{offline['checked']} fingerprints byte-identical",
          file=sys.stderr)

    report = {
        "schema": 1,
        "kind": "serve-bench",
        "seed": args.seed,
        "clients": args.clients,
        "workloads": list(workloads),
        "universe_keys": len(universe),
        "total_requests": sum(len(l.latencies) for l in legs.values()),
        "legs": {name: leg.report() for name, leg in legs.items()},
        "offline_verification": offline,
        "daemon": {
            "healthz": health_after,
            "cache": stats_after["cache"],
            "admission": stats_after["admission"],
            "tiers": stats_after["server"]["tiers"],
            "degradation": stats_after["degradation"],
            "status_counts": stats_after["server"]["status_counts"],
            "error_codes": stats_after["server"]["error_codes"],
            "coalesced": stats_after["server"]["coalesced"],
            "executions": stats_after["server"]["executions"],
            "fault_points": stats_after["server"]["fault_points"],
        },
    }
    failures = check_invariants(report, legs, admit_armed, args)
    return report, failures


def check_invariants(report: dict, legs: dict[str, LegResult],
                     admit_armed: bool,
                     args: argparse.Namespace) -> list[str]:
    """Hard assertions shared by --smoke and --bench."""
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    daemon = report["daemon"]
    expect(daemon["healthz"]["status"] == "ok",
           "daemon unhealthy after the run")
    offline = report["offline_verification"]
    expect(offline["checked"] > 0, "offline verification checked nothing")
    expect(offline["matched"] == offline["checked"],
           f"fingerprint mismatches vs offline harness: "
           f"{offline['mismatches']}")
    for name, leg in legs.items():
        expect(leg.mismatched_fingerprints == 0,
               f"{name}: same key served different fingerprints")
        expect(leg.transport_errors == 0,
               f"{name}: {leg.transport_errors} transport errors "
               f"(daemon dropped connections)")
        expect(leg.lost == 0,
               f"{name}: {leg.lost} requests never got a response")
        expect(leg.echo_mismatches == 0,
               f"{name}: {leg.echo_mismatches} responses carried the "
               f"wrong echo token (cross-wired responses)")

    clean_ok = {"200"} | ({"500"} if admit_armed else set()) \
        | {"429", "503"}
    for name in ("zipf", "thrash", "storm"):
        unexpected = set(legs[name].statuses) - clean_ok
        expect(not unexpected,
               f"{name}: unexpected statuses {sorted(unexpected)}")
        if admit_armed:
            pass  # injected 500s are asserted globally below
        else:
            expect(set(legs[name].statuses) <= {"200", "429", "503"},
                   f"{name}: non-200 statuses "
                   f"{dict(legs[name].statuses)}")
    expect(legs["storm"].coalesced + legs["storm"].cached > 0,
           "storm: no requests were coalesced or cache-served")
    # Eviction pressure only exists when the distinct keys touched
    # exceed the daemon's total cache capacity.
    total_capacity = sum(shard["capacity"]
                         for shard in daemon["cache"]["shards"])
    keys_touched = (report["universe_keys"] + args.thrash
                    + args.storm_waves + args.faulted)
    if args.thrash and keys_touched > total_capacity > 0:
        expect(daemon["cache"]["evictions"] > 0,
               f"thrash: no evictions despite {keys_touched} keys over "
               f"capacity {total_capacity}")

    faulted = legs["faulted"]
    degradation = daemon["degradation"]
    if args.faulted:
        expect(faulted.statuses.get("200", 0) > 0,
               "faulted: no degraded-but-successful runs")
        expect(degradation["respecializations"] > 0,
               "faulted: ladder rung 2 (re-specialize) never fired")
        expect(degradation["quarantined_contexts"] > 0,
               "faulted: quarantine circuit breaker never tripped")
    if args.budget_leg:
        expect(faulted.statuses.get("422", 0) >= 1 + args.budget_repeats,
               "faulted: mipsi budget overrun did not produce 422s")
        expect(faulted.error_codes.get("specialization_budget", 0) > 0,
               "faulted: 422s were not structured "
               "specialization_budget errors")
    if admit_armed:
        expect(daemon["error_codes"].get("injected_fault", 0) > 0,
               "serve.admit armed but no injected_fault 500s observed")
    return failures


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Seeded traffic replay against the serve daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8950)
    parser.add_argument("--spawn", action="store_true",
                        help="spawn an in-process daemon on an "
                             "ephemeral port instead of connecting")
    parser.add_argument("--spawn-faults", default=None, metavar="SPEC",
                        help="fault spec for the spawned daemon "
                             "(e.g. 'serve.admit:every=40')")
    parser.add_argument("--spawn-cache-capacity", type=int, default=None,
                        help="entries per shard for the spawned daemon")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--clients", type=int, default=1000,
                        help="concurrent connections for the zipf leg")
    parser.add_argument("--requests", type=int, default=4000,
                        help="zipf-leg request count")
    parser.add_argument("--tenants", type=int, default=24)
    parser.add_argument("--variants", type=int, default=4,
                        help="config variants per (tenant, workload)")
    parser.add_argument("--skew", type=float, default=1.1,
                        help="Zipf exponent")
    parser.add_argument("--thrash", type=int, default=600,
                        help="unique-key requests (eviction pressure)")
    parser.add_argument("--storm-waves", type=int, default=4)
    parser.add_argument("--storm-size", type=int, default=250)
    parser.add_argument("--faulted", type=int, default=40,
                        help="fault-injected requests")
    parser.add_argument("--budget-leg", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="include the mipsi context-budget 422 leg")
    parser.add_argument("--budget-repeats", type=int, default=8,
                        help="cached repeats of the budget 422")
    parser.add_argument("--verify-samples", type=int, default=12,
                        help="distinct keys to re-run offline "
                             "(0 = all)")
    parser.add_argument("--timeout", type=float, default=180.0,
                        help="per-request client timeout (seconds)")
    parser.add_argument("--workloads", nargs="+",
                        default=list(DEFAULT_WORKLOADS),
                        choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--snapshot", action="store_true",
                        help="add the warm-restart leg: snapshot the "
                             "daemon's persistent store and restart it "
                             "warm mid-replay (requires --spawn)")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized mix with hard assertions")
    parser.add_argument("--bench", action="store_true",
                        help="write the full report to --output")
    parser.add_argument("--output", default=DEFAULT_BENCH_PATH)
    return parser.parse_args(argv)


def _apply_smoke_sizing(args: argparse.Namespace) -> None:
    args.clients = min(args.clients, 64)
    args.requests = min(args.requests, 240)
    args.tenants = min(args.tenants, 6)
    args.variants = min(args.variants, 2)
    args.thrash = min(args.thrash, 80)
    args.storm_waves = min(args.storm_waves, 2)
    args.storm_size = min(args.storm_size, 40)
    args.faulted = min(args.faulted, 10)
    args.budget_repeats = min(args.budget_repeats, 3)
    args.verify_samples = min(args.verify_samples or 8, 8)
    if args.spawn and args.spawn_cache_capacity is None:
        # Small enough that the thrash leg actually evicts.
        args.spawn_cache_capacity = 8


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if args.snapshot and not args.spawn:
        print("--snapshot requires --spawn", file=sys.stderr)
        return 2
    if args.smoke:
        _apply_smoke_sizing(args)
    from repro.serve.__main__ import _raise_nofile_limit
    _raise_nofile_limit(8192)

    spawned: SpawnedDaemon | None = None
    if args.spawn:
        spawn_argv = ["--port", "0"]
        if args.spawn_faults:
            spawn_argv += ["--faults", args.spawn_faults]
        if args.spawn_cache_capacity is not None:
            spawn_argv += ["--cache-capacity",
                           str(args.spawn_cache_capacity)]
        spawned = SpawnedDaemon(spawn_argv)
        args.host, args.port = spawned.host, spawned.port
        print(f"[loadgen] spawned daemon on port {args.port}",
              file=sys.stderr)

    try:
        report, failures = asyncio.run(drive(args))
    finally:
        if spawned is not None:
            spawned.stop()

    if args.snapshot:
        snap_report, snap_failures = run_snapshot_leg(args)
        report["snapshot_restart"] = snap_report
        failures += snap_failures
        print(f"[loadgen] snapshot restart: "
              f"{snap_report.get('snapshot_records', 0)} record(s) "
              f"carried across; fingerprints identical="
              f"{snap_report.get('restart_fingerprints_identical')}",
              file=sys.stderr)

    if args.bench:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[loadgen] report written to {args.output}",
              file=sys.stderr)
    print(json.dumps({
        "legs": report["legs"],
        "offline_verification": report["offline_verification"],
        "daemon": {"healthz": report["daemon"]["healthz"],
                   "tiers": report["daemon"]["tiers"],
                   "coalesced": report["daemon"]["coalesced"]},
    }, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all load-generator invariants held", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
