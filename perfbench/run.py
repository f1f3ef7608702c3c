"""The repository benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {table_sweep,serve_miss}
                             --seed N --seconds S --trace {0,1}

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (see
``README.md`` beside this file for what each workload and metric is).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits 1 when any output check fails and 2 when it cannot run at all,
including when it cannot finish within ``RUN_DEADLINE_S``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

import checks
import probe
import spans as sp
import traffic

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for daemon logs, child results and the process-group
#: registry; ignored by git.
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
REGISTRY = os.path.join(RUN_DIR, "process_groups")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Probes timed before and after each set-up; the median of each side
#: is the speed estimate at that end.
SETUP_PROBES = 3
#: Ladder for the tail percentile: the tail is the highest rung with at
#: least ``TAIL_BEYOND`` samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: A run that has not finished after this many seconds stops its
#: children and exits 2 without a result line.
RUN_DEADLINE_S = 170

#: The daemon under test: its default executor threads, and 8 shards of
#: 4 entries, so fresh keys evict.
DAEMON_FLAGS = ["--host", "127.0.0.1", "--port", "0",
                "--shards", "8", "--cache-capacity", "4"]
OFFLINE_SAMPLE = 5
#: A serve window takes 100 to 195 requests (whole rounds), so its tail
#: is p90 at any speed: the tail rule gives p90 from 100 samples up to
#: 199.  At the reference speed 30 s hold about 130.
MIN_REQUESTS = 100
MAX_REQUESTS = 195


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def nearest_rank(ordered: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def speed_probes() -> float:
    """The median of ``SETUP_PROBES`` speed probes, in ms."""
    return statistics.median(probe.probe_ms() for _ in range(SETUP_PROBES))


def tail(latencies: list[float]):
    """``(percentile, value, samples beyond)`` for the latency tail: the
    highest rung of ``TAIL_LADDER`` with at least ``TAIL_BEYOND`` samples
    above it (the lowest rung if none has)."""
    ordered = sorted(latencies)
    n = len(ordered)

    def beyond(pct: float) -> int:
        return n - math.ceil(pct / 100.0 * n)
    pct = next((p for p in TAIL_LADDER if beyond(p) >= TAIL_BEYOND),
               TAIL_LADDER[-1])
    return pct, nearest_rank(ordered, pct), beyond(pct)


# ----------------------------------------------------------------------
# Child processes: own session, registered, killed on every exit path
# ----------------------------------------------------------------------

def use_last_cpu() -> None:
    """Run the harness and, by inheritance, every child on one CPU.

    On a shared 2-vCPU host the two CPUs ran the same code at speeds up
    to 1.5x apart, and which one was slower changed over minutes, so an
    unpinned run's figures depended on where the scheduler happened to
    put the program.  The load client shares the CPU; it is idle while
    a request executes.  Pinned runs were faster and steadier than
    unpinned ones (README.md, "One CPU, one executor thread")."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict:
    """The environment for the program: ``src`` on the path, no
    ``REPRO_*`` knob leaking in from the caller, and a fixed string-hash
    seed, so dict layouts and collector timing do not differ from run to
    run (the outputs do not depend on it; the pinned digest was checked
    under several hash seeds)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _registered() -> list[int]:
    try:
        with open(REGISTRY, encoding="utf-8") as handle:
            return [int(line) for line in handle if line.strip()]
    except (OSError, ValueError):
        return []


def _write_registry(groups: list[int]) -> None:
    with open(REGISTRY, "w", encoding="utf-8") as handle:
        handle.writelines(f"{g}\n" for g in groups)


def _ours(pgid: int) -> bool:
    """Whether the group leader is still a benchmark child."""
    try:
        with open(f"/proc/{pgid}/cmdline", "rb") as handle:
            return b"perfbench" in handle.read()
    except OSError:
        return False


def reap_stale() -> int:
    """Kill process groups a previous run left behind; returns how many
    were still alive."""
    stale = 0
    for pgid in _registered():
        if _ours(pgid):
            stale += 1
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    _write_registry([])
    return stale


def _wait_children() -> None:
    """Reap every child this process started (the killed ones too)."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


class Child:
    """A benchmark child in its own session (process group)."""

    def __init__(self, argv: list[str], stdout, log_name: str,
                 stdin=subprocess.DEVNULL):
        self.log_path = os.path.join(RUN_DIR, log_name)
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable] + argv, cwd=ROOT, env=child_env(),
                stdin=stdin, stdout=stdout, stderr=log,
                start_new_session=True)
        _write_registry(_registered() + [self.proc.pid])

    def stop(self) -> None:
        """SIGTERM the group, then SIGKILL it; reap the leader."""
        pgid = self.proc.pid
        for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                continue
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
        self.proc.wait(timeout=10)
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()
        _write_registry([g for g in _registered() if g != pgid])

    def log_tail(self) -> str:
        try:
            with open(self.log_path, encoding="utf-8",
                      errors="replace") as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""


# ----------------------------------------------------------------------
# table_sweep
# ----------------------------------------------------------------------

def _spawn_sweep(extra: list[str], out: str) -> tuple[Child, float, float]:
    """Start a sweep child and let it go on once it is set up; returns
    it, its spawn-to-READY seconds and those seconds at the reference
    speed (probed before the spawn and while the child waits)."""
    before = speed_probes()
    start = time.perf_counter()
    child = Child([os.path.join(BENCH_DIR, "sweep.py"), "--out", out]
                  + extra, subprocess.PIPE, "sweep.log", subprocess.PIPE)
    line = child.proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != b"READY":
        child.stop()
        raise BenchError("sweep child failed during set-up:\n"
                         + child.log_tail())
    after = speed_probes()
    child.proc.stdin.write(b"GO\n")
    child.proc.stdin.flush()
    return child, ready, probe.normalize(ready, before, after)


def run_table_sweep(args) -> dict:
    out = os.path.join(RUN_DIR, "sweep.json")
    raw_setups, setups = [], []
    repeats = 1 if args.trace else SETUP_REPEATS
    for _ in range(repeats - 1):
        child, ready, normalized = _spawn_sweep(["--setup-only"], out)
        raw_setups.append(ready)
        setups.append(normalized)
        child.proc.wait()
        child.stop()
    extra = ["--seconds", str(args.seconds)]
    if args.trace:
        extra.append("--trace")
    child, ready, normalized = _spawn_sweep(extra, out)
    raw_setups.append(ready)
    setups.append(normalized)
    try:
        code = child.proc.wait()
    finally:
        child.stop()
    if code != 0:
        raise BenchError(f"sweep child exited {code}:\n"
                         + child.log_tail())
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    os.remove(out)

    # Every sweep makes the same calls in the same order.  A call's
    # latency is its median over the sweeps at the reference speed, and
    # the median sweep is the sum of those latencies.
    sweeps = report["normalized_ms"]
    latencies = [statistics.median(call) for call in zip(*sweeps)]
    raw = [statistics.median(call) for call in zip(*report["runs_ms"])]
    pct, tail_ms, beyond = tail(latencies)
    result = {
        "attempted": report["ops"],
        "failed": report["failed_ops"],
        "problems": report["problems"],
        "notes": [f"sweep digest {report['digest']}",
                  f"{len(sweeps)} sweep(s) of {len(latencies)} runs in "
                  f"{report['wall_s']:.1f} s; latencies are per-run "
                  "medians over the sweeps",
                  f"latency_tail_ms is p{pct:g} with {beyond} of "
                  f"{len(latencies)} samples beyond it",
                  f"raw wall time: throughput "
                  f"{len(raw) / (sum(raw) / 1e3):.4g} ops/s, p50 "
                  f"{statistics.median(raw):.4g} ms, tail "
                  f"{tail(raw)[1]:.4g} ms",
                  "setup_s samples: "
                  + ", ".join(f"{s:.3f}" for s in setups) + " (raw "
                  + ", ".join(f"{s:.3f}" for s in raw_setups) + ")"],
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": len(latencies) / (sum(latencies) / 1e3),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
            "peak_rss_mb": report["peak_rss_mb"],
        },
    }
    if args.trace:
        result["layers"] = report["layers"]
    return result


# ----------------------------------------------------------------------
# Serve workloads: daemon, client, checks
# ----------------------------------------------------------------------

class Daemon:
    """``perfbench/launcher.py`` serving on an ephemeral port."""

    def __init__(self, trace: bool):
        argv = [os.path.join(BENCH_DIR, "launcher.py")]
        if trace:
            argv.append("--trace")
        self.child = Child(argv + ["--"] + DAEMON_FLAGS,
                           subprocess.DEVNULL, "daemon.log")
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Poll the log for the daemon's ``serving on`` line."""
        deadline = time.perf_counter() + timeout
        marker = "serving on http://127.0.0.1:"
        while time.perf_counter() < deadline:
            text = self.child.log_tail()
            at = text.find(marker)
            if at >= 0 and " " in text[at + len(marker):]:
                self.port = int(text[at + len(marker):].split()[0])
                return
            if self.child.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError("daemon did not start:\n" + self.child.log_tail())

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.child.proc.pid}/status",
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self) -> list[str]:
        """Stop the daemon; returns problems if anything survived."""
        self.child.stop()
        problems = []
        if self.port is not None:
            try:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=1.0):
                    problems.append(f"port {self.port} still accepts "
                                    "connections after the daemon stopped")
            except OSError:
                pass
        return problems


class Connection:
    """One keep-alive HTTP/1.1 connection (closed-loop client)."""

    def __init__(self, port: int):
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass

    async def call(self, method: str, path: str, body: bytes = b""):
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
            + body)
        await self.writer.drain()
        status = int((await self.reader.readuntil(b"\r\n")).split()[1])
        length = 0
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)


def encode(request: dict) -> bytes:
    return json.dumps(request, separators=(",", ":")).encode("utf-8")


async def get_json(port: int, path: str) -> dict:
    conn = Connection(port)
    await conn.open()
    try:
        status, raw = await conn.call("GET", path)
    finally:
        await conn.close()
    if status != 200:
        raise BenchError(f"GET {path} returned {status}")
    return json.loads(raw)


async def send_all(port: int, requests: list[dict]) -> list[str]:
    """Send requests one at a time (priming / warm-up); returns
    problems."""
    conn = Connection(port)
    await conn.open()
    problems = []
    try:
        for request in requests:
            status, raw = await conn.call("POST", "/run", encode(request))
            if status != 200:
                problems.append(f"{request['echo']}: status {status} "
                                f"{raw[:200]!r}")
    finally:
        await conn.close()
    return problems


async def drive(port: int, stream, seconds: float, round_size: int):
    """Closed loop over one keep-alive connection until ``seconds`` pass,
    ``MIN_REQUESTS`` are done and the stream is at a round boundary, or
    ``MAX_REQUESTS`` are done, with a speed probe before each request
    and after the last, while the daemon is idle.

    Returns ``(records, probes_ms, wall_s)`` with records
    ``(request, start_s, end_s, status, raw_body)`` and one more probe
    than records.
    """
    records: list = []
    probes: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds

    def more() -> bool:
        done = len(records)
        return done < MAX_REQUESTS and (
            done < MIN_REQUESTS or done % round_size != 0
            or time.perf_counter() < deadline)

    conn = Connection(port)
    await conn.open()
    # The client's own collector pauses would land in the latencies of
    # requests in flight; collect before and after the window instead.
    gc.collect()
    gc.disable()
    try:
        while more():
            request = next(stream)
            body = encode(request)
            probes.append(probe.probe_ms())
            sent = time.perf_counter()
            try:
                status, raw = await conn.call("POST", "/run", body)
            except (OSError, asyncio.IncompleteReadError,
                    ValueError) as err:
                records.append((request, sent, time.perf_counter(),
                                0, repr(err).encode()))
                break
            records.append((request, sent, time.perf_counter(),
                            status, raw))
        probes.append(probe.probe_ms())
    finally:
        gc.enable()
        await conn.close()
    return records, probes, time.perf_counter() - start


def normalized_latencies(records, probes) -> list[float]:
    """Each request's latency in ms at the probe's reference speed."""
    return [probe.normalize((r[2] - r[1]) * 1e3, probes[i], probes[i + 1])
            for i, r in enumerate(records)]


async def _serve_window(args, trace: bool,
                        setups: list[tuple[float, float]] | None) -> dict:
    """Start a daemon, set it up, run one timed window, check it."""
    daemon, problems, setup = await _set_up_daemon(trace)
    try:
        if setups is not None:
            setups.append(setup)
        before = await get_json(daemon.port, "/stats")
        records, probes, wall = await drive(
            daemon.port, traffic.miss_stream(args.seed), args.seconds,
            len(traffic.KERNELS))
        after = await get_json(daemon.port, "/stats")
        rss = daemon.peak_rss_mb()
        spans = None
        if trace:
            from launcher import SPANS_PATH
            spans = (await get_json(daemon.port, SPANS_PATH))["spans"]
    finally:
        problems += daemon.stop()
    return {"records": records, "probes": probes, "wall": wall,
            "before": before, "after": after, "rss": rss, "spans": spans,
            "problems": problems}


async def _set_up_daemon(trace: bool):
    """Start a daemon and warm it up; returns it, the problems seen and
    ``(raw, normalized)`` set-up seconds (probed before the spawn and
    after the warm-up, while the daemon is idle)."""
    before = speed_probes()
    start = time.perf_counter()
    daemon = Daemon(trace)
    try:
        daemon.wait_ready()
        problems = await send_all(daemon.port, traffic.miss_warmup())
    except BaseException:
        daemon.stop()
        raise
    raw = time.perf_counter() - start
    return daemon, problems, (raw, probe.normalize(raw, before,
                                                   speed_probes()))


def _check_window(window: dict, seed: int) -> tuple[list, list[str]]:
    """Decode and check every response; returns the decoded records
    and the problems found (each failed request listed once)."""
    from repro.serve.loadgen import LegResult

    decoded = []
    for request, _, _, status, raw in window["records"]:
        try:
            body = json.loads(raw) if status else {}
        except ValueError:
            body = {}
        decoded.append((request, status, body))
    leg = LegResult("perfbench")
    problems = checks.served_failures(decoded, leg)
    _, offline = checks.offline_failures(leg, OFFLINE_SAMPLE, seed)
    return decoded, problems + offline


def _sim_records(decoded):
    for _, status, body in decoded:
        if status == 200:
            yield (body["workload"],
                   body["static_total_cycles"]
                   + body["dynamic_total_cycles"], body["dc_cycles"])


def _serve_layers(window: dict, decoded, untraced_rate: float) -> dict:
    latency_ns = {r[0]["echo"]: int((r[2] - r[1]) * 1e9)
                  for r in window["records"]}
    records = [tuple(s) for s in window["spans"] if s[sp.OP] in latency_ns]
    selfs = sp.self_times(records)
    layers = sp.layer_metrics(records, selfs, sp.SERVE_LAYERS)
    handle = sp.per_op(records, selfs, "serve.handle", sp.WALL)
    read = sp.per_op(records, selfs, "serve.read_request", sp.BUSY_TIME)
    render = sp.per_op(records, selfs, "serve.render_response", sp.SELF)
    layers["serve.transport_ms"] = sp.median(
        latency_ns[op] - handle[op] for op in handle) / 1e6
    layers["trace.uncovered_ms"] = sp.median(
        latency_ns[op] - handle[op] - read.get(op, 0) - render.get(op, 0)
        for op in handle) / 1e6

    before, after = window["before"], window["after"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    layers["serve.cache_hit_ratio"] = hits / max(1, hits + misses)
    layers["serve.cache_evictions"] = float(
        after["cache"]["evictions"] - before["cache"]["evictions"])
    for tier in ("reference", "threaded", "pycodegen"):
        layers[f"serve.tier_{tier}"] = float(
            after["server"]["tiers"].get(tier, 0)
            - before["server"]["tiers"].get(tier, 0))
    exec_cycles, dc_cycles, problem = checks.sim_totals(
        _sim_records(decoded))
    layers["sim.exec_cycles"] = exec_cycles
    layers["sim.dc_cycles"] = dc_cycles
    ops = len(window["records"])
    traced = normalized_latencies(window["records"], window["probes"])
    layers["trace.overhead_pct"] = 100.0 * (
        1.0 - (ops / (sum(traced) / 1e3)) / untraced_rate)
    layers["trace.spans_per_op"] = len(records) / ops
    return layers, problem


def run_serve_miss(args) -> dict:
    setups: list[tuple[float, float]] = []
    repeats = 1 if args.trace else SETUP_REPEATS
    for _ in range(repeats - 1):
        daemon, problems, setup = asyncio.run(_set_up_daemon(False))
        setups.append(setup)
        problems = daemon.stop() + problems
        if problems:
            raise BenchError("set-up failed: " + "; ".join(problems))
    window = asyncio.run(_serve_window(args, False, setups))
    decoded, problems = _check_window(window, args.seed)
    problems = window["problems"] + problems
    records = window["records"]
    normalized = normalized_latencies(records, window["probes"])
    latencies = [ms for ms, r in zip(normalized, records) if r[3] == 200]
    raw = [(r[2] - r[1]) * 1e3 for r in records if r[3] == 200]
    pct, tail_ms, beyond = tail(latencies)
    # Closed loop on one connection: requests per second of request
    # time, the client's probes and bookkeeping between requests left
    # out.
    rate = len(latencies) / (sum(normalized) / 1e3)
    result = {
        "attempted": len(records),
        "failed": min(len(records), len(problems)),
        "problems": problems,
        "notes": [f"{len(records)} requests in {window['wall']:.2f} s",
                  f"latency_tail_ms is p{pct:g} with {beyond} of "
                  f"{len(latencies)} samples beyond it",
                  f"raw wall time: throughput "
                  f"{len(raw) / (sum(raw) / 1e3):.4g} ops/s, p50 "
                  f"{statistics.median(raw):.4g} ms, tail "
                  f"{tail(raw)[1]:.4g} ms",
                  "setup_s samples: "
                  + ", ".join(f"{n:.3f}" for _, n in setups) + " (raw "
                  + ", ".join(f"{r:.3f}" for r, _ in setups) + ")"],
        "end_to_end": {
            "setup_s": statistics.median(n for _, n in setups),
            "throughput_ops_s": rate,
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
            "peak_rss_mb": window["rss"],
        },
    }
    if args.trace:
        traced = asyncio.run(_serve_window(args, True, None))
        traced_decoded, traced_problems = _check_window(traced, args.seed)
        layers, problem = _serve_layers(traced, traced_decoded, rate)
        problems += traced["problems"] + traced_problems
        if problem:
            problems.append(problem)
        result["failed"] = min(len(records), len(problems))
        result["layers"] = layers
    return result


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

WORKLOADS = {
    "table_sweep": run_table_sweep,
    "serve_miss": run_serve_miss,
}


def load_metric_specs() -> tuple[list[dict], list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def _deadline(_signum, _frame):
    raise BenchError(f"the run did not finish within {RUN_DEADLINE_S} s")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    use_last_cpu()
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    os.makedirs(RUN_DIR, exist_ok=True)
    stale = reap_stale()
    if stale:
        print(f"perfbench: killed {stale} process group(s) left by an "
              "earlier run", file=sys.stderr)
    end_to_end, per_layer = load_metric_specs()
    try:
        result = WORKLOADS[args.workload](args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        reap_stale()
        _wait_children()

    if args.trace:
        # A layer this workload never enters reads 0.
        specs = per_layer
        values = {s["name"]: 0.0 for s in specs} | result["layers"]
    else:
        specs, values = end_to_end, result["end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        print(f"perfbench: {args.workload} did not measure "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    correct = result["failed"] == 0 and not result["problems"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['failed'] / result['attempted']:.4f}")
    for note in result["notes"]:
        print(f"  {note}")
    for problem in result["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
