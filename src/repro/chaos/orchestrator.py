"""The chaos orchestrator: seeded faults + kills against a live fleet.

Execution shape (all derived from ``--seed`` before anything starts):

1. **Plan** — :func:`plan_schedule` draws the daemon-side fault spec,
   the per-chunk traffic, and the kill schedule (which worker slot
   dies after which traffic chunk) from one seeded RNG.
2. **Launch** — a real ``python -m repro.serve.supervisor`` subprocess
   (its own session, so cleanup can ``killpg`` the whole tree even
   when an assertion fails — no orphaned daemons).
3. **Storm** — traffic chunks replay through the retrying loadgen
   client; between chunks the scheduled SIGKILLs land on live worker
   pids read from the supervisor's state file, and the fleet's shared
   memo directory is scanned after every kill.
4. **Drain** — SIGTERM with a burst still in flight: the burst must
   complete, the supervisor must exit 0, and a fleet restarted on the
   same memo directory must serve a replay byte-identically, from the
   memoizer.
5. **Verdict** — every distinct fingerprint is re-derived offline;
   invariant failures are listed and exit the process non-zero.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time

from repro.evalharness.memo import Memoizer
from repro.serve.loadgen import (
    DEFAULT_WORKLOADS,
    LegResult,
    fetch,
    run_leg,
    wait_ready,
)
from repro.serve.protocol import build_config, run_fingerprint
from repro.serve.supervisor import read_state
from repro.workloads import WORKLOADS_BY_NAME

DEFAULT_BENCH_PATH = "BENCH_chaos.json"
#: Where a ``--smoke`` run without ``--output`` writes its report: a
#: git-ignored directory, so a smoke run from the repository root leaves
#: the committed ``BENCH_chaos.json`` alone.
SMOKE_BENCH_PATH = os.path.join(".chaos_smoke", "BENCH_chaos.json")
DEFAULT_SEED = 20260807

#: Statuses the serve tier is allowed to produce under chaos; anything
#: else is an unbounded-taxonomy failure.
ALLOWED_STATUSES = {"200", "422", "429", "500", "502", "503"}
#: Structured error codes the taxonomy bounds chaos runs to.
ALLOWED_ERROR_CODES = {
    "quota_exceeded", "backpressure", "circuit_open", "injected_fault",
    "specialization_budget", "specialization_error", "harness_error",
}


# ----------------------------------------------------------------------
# Seeded schedule
# ----------------------------------------------------------------------

def plan_schedule(seed: int, *, procs: int, kills: int, chunks: int,
                  chunk_size: int, tenants: int,
                  workloads: tuple[str, ...]) -> dict:
    """Everything the run will do, as a pure function of the seed.

    The returned dict *is* the reproducibility contract: re-running
    with the same seed replans the identical fault spec, traffic, and
    kill schedule (worker slots and chunk boundaries), so a chaos
    failure replays exactly.
    """
    rng = random.Random(seed)
    fault_spec = ";".join([
        # A worker dies (or drops the wire) instead of responding.
        f"serve.respond:every={rng.randrange(17, 31)}",
        # One simulated hang per worker incarnation.
        f"serve.worker_heartbeat:at={rng.randrange(60, 120)}",
    ])
    universe = []
    for t in range(tenants):
        for name in workloads:
            for variant in (0, 1):
                universe.append({
                    "tenant": f"chaos-{t}",
                    "workload": name,
                    "config": {"quarantine_after": 3 + variant},
                })
    traffic = [
        [dict(rng.choice(universe)) for _ in range(chunk_size)]
        for _ in range(chunks)
    ]
    # Kills land *during* chunks 1..chunks-1 (never before the fleet
    # has served real traffic), so recycling is proven against
    # genuinely in-flight requests, not idle workers.
    kill_points = sorted(
        rng.sample(range(1, chunks), min(kills, chunks - 1))
        if chunks > 1 else [])
    kill_plan = [{"during_chunk": point,
                  "worker_slot": rng.randrange(procs)}
                 for point in kill_points]
    # The drain burst uses fresh keys so its requests actually execute
    # (and are therefore genuinely in flight when SIGTERM lands).
    burst = [{"tenant": "drain", "workload": workloads[i % len(workloads)],
              "config": {"quarantine_after": 8000 + i}}
             for i in range(min(8, 2 * len(workloads)))]
    return {
        "seed": seed,
        "procs": procs,
        "fault_spec": fault_spec,
        "universe_keys": len(universe),
        "chunks": chunks,
        "chunk_size": chunk_size,
        "traffic": traffic,
        "kills": kill_plan,
        "drain_burst": burst,
    }


# ----------------------------------------------------------------------
# Supervisor subprocess management
# ----------------------------------------------------------------------

class SupervisedFleet:
    """A ``repro.serve.supervisor`` subprocess in its own session."""

    def __init__(self, *, procs: int, fault_spec: str | None,
                 memo_dir: str, state_file: str,
                 env_overrides: dict[str, str] | None = None,
                 flags: tuple[str, ...] = ()):
        self.state_file = state_file
        argv = [sys.executable, "-m", "repro.serve.supervisor",
                "--port", "0", "--procs", str(procs),
                "--state-file", state_file,
                "--memo-dir", memo_dir, *flags]
        if fault_spec:
            argv += ["--faults", fault_spec]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.path.dirname(__file__),
                                     "..", ".."),
                        env.get("PYTHONPATH")) if p)
        env.update(env_overrides or {})
        self.proc = subprocess.Popen(
            argv, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self._stderr_tail: list[bytes] = []

    def wait_ready(self, procs: int, timeout: float = 30.0) -> dict:
        """Block until the state file shows a full worker fleet."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"supervisor exited early "
                    f"({self.proc.returncode}): "
                    f"{self.proc.stderr.read().decode(errors='replace')}")
            state = read_state(self.state_file)
            if state and len(state.get("workers", [])) >= procs \
                    and state.get("port"):
                return state
            time.sleep(0.05)
        raise RuntimeError("supervised fleet never became ready")

    def state(self) -> dict:
        return read_state(self.state_file) or {}

    def terminate(self) -> int | None:
        """Graceful SIGTERM to the supervisor (it drains its workers)."""
        if self.proc.poll() is None:
            self.proc.terminate()
        return self.proc.poll()

    def destroy(self) -> None:
        """Hard cleanup: kill the whole session, success or failure.

        This is the no-orphaned-daemons guarantee — assertion failures
        and exceptions run through here before the orchestrator exits.
        """
        try:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            pass
        try:
            self.proc.wait(timeout=10)
        except (subprocess.TimeoutExpired, OSError):
            pass
        if self.proc.stderr is not None:
            try:
                self._stderr_tail = self.proc.stderr.read().splitlines()
                self.proc.stderr.close()
            except OSError:
                pass

    def stderr_tail(self, lines: int = 40) -> list[str]:
        return [raw.decode(errors="replace")
                for raw in self._stderr_tail[-lines:]]


def kill_worker(fleet: SupervisedFleet, slot: int,
                timeout: float = 20.0) -> dict:
    """SIGKILL the live pid in ``slot``; wait for its replacement."""
    state = fleet.state()
    before = state.get("restarts_total", 0)
    target = next((w for w in state.get("workers", [])
                   if w["worker"] == slot), None)
    if target is None:
        return {"slot": slot, "killed_pid": None, "recycled": False,
                "error": "slot not found in state file"}
    try:
        os.kill(target["pid"], signal.SIGKILL)
    except ProcessLookupError:
        pass  # already being recycled (e.g. a respond-fault exit won)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = fleet.state()
        fresh = next((w for w in state.get("workers", [])
                      if w["worker"] == slot), None)
        if state.get("restarts_total", 0) > before and fresh \
                and fresh["pid"] != target["pid"]:
            return {"slot": slot, "killed_pid": target["pid"],
                    "recycled_pid": fresh["pid"], "recycled": True}
        time.sleep(0.05)
    return {"slot": slot, "killed_pid": target["pid"],
            "recycled": False, "error": "worker was not recycled"}


# ----------------------------------------------------------------------
# Invariant helpers
# ----------------------------------------------------------------------

def merge_leg(total: LegResult, part: LegResult) -> None:
    total.latencies += part.latencies
    total.cached += part.cached
    total.coalesced += part.coalesced
    total.transport_errors += part.transport_errors
    total.retries += part.retries
    total.lost += part.lost
    total.echo_mismatches += part.echo_mismatches
    total.mismatched_fingerprints += part.mismatched_fingerprints
    for key, count in part.statuses.items():
        total.statuses[key] = total.statuses.get(key, 0) + count
    for key, count in part.error_codes.items():
        total.error_codes[key] = total.error_codes.get(key, 0) + count
    for identity, fp in part.fingerprints.items():
        seen = total.fingerprints.get(identity)
        if seen is None:
            total.fingerprints[identity] = fp
        elif seen != fp:
            total.mismatched_fingerprints += 1


def oracle_check(fingerprints: dict[str, str]) -> dict:
    """Re-derive every distinct fingerprint offline; all must match."""
    from repro.evalharness.runner import run_workload
    checked = matched = 0
    mismatches = []
    for identity in sorted(fingerprints):
        spec = json.loads(identity)
        result = run_workload(
            WORKLOADS_BY_NAME[spec["workload"]],
            build_config(spec["config"]), verify=spec["verify"],
            backend="threaded")
        checked += 1
        if run_fingerprint(result) == fingerprints[identity]:
            matched += 1
        else:
            mismatches.append(spec["workload"])
    return {"checked": checked, "matched": matched,
            "mismatches": mismatches}


def check_memo(memo_dir: str, when: str,
               failures: list[str]) -> dict:
    """The memo directory must scan clean — no torn or corrupt
    entries."""
    scan = Memoizer(memo_dir).scan()
    scan["when"] = when
    if scan["corrupt"]:
        failures.append(
            f"memo corrupt after {when}: {scan['corrupt']} of "
            f"{scan['entries']} entries")
    return scan


async def fleet_memo_stats(host: str, port: int, procs: int,
                           attempts: int = 40) -> dict[str, dict]:
    """Worker id -> its ``/stats`` memo counters.

    Each ``GET`` lands on whichever worker accepts it, so this polls
    until every worker has answered, or until one reports a hit.
    """
    seen: dict[str, dict] = {}
    for _ in range(attempts):
        stats = await fetch(host, port, "/stats")
        memo = stats.get("memo") or {}
        seen[str(stats["server"].get("worker"))] = memo
        if len(seen) >= procs or memo.get("hits"):
            break
    return seen


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

async def _drain_with_burst(fleet: SupervisedFleet, host: str,
                            port: int, burst: list[dict],
                            timeout: float) -> tuple[LegResult, int]:
    """SIGTERM the fleet with the burst in flight; both must finish."""
    task = asyncio.ensure_future(run_leg(
        "drain-burst", host, port, [dict(r) for r in burst],
        clients=len(burst), timeout=timeout, echo=True))
    # Give every client time to connect and put its request on the
    # wire, then pull the trigger while the work is still running.
    await asyncio.sleep(0.4)
    fleet.terminate()
    leg = await task
    exit_code = await asyncio.get_running_loop().run_in_executor(
        None, fleet.proc.wait, 60)
    return leg, exit_code


def run_chaos(args: argparse.Namespace) -> tuple[dict, list[str]]:
    schedule = plan_schedule(
        args.seed, procs=args.procs, kills=args.kills,
        chunks=args.chunks, chunk_size=args.chunk_size,
        tenants=args.tenants, workloads=tuple(args.workloads))
    failures: list[str] = []
    scratch = tempfile.mkdtemp(prefix="repro-chaos-")
    memo_dir = os.path.join(scratch, "memo")
    env = {
        # Fast hang detection so heartbeat faults recycle within the
        # smoke budget.  Neither setting can change a run, so neither
        # is part of a memo key.
        "REPRO_HEARTBEAT_INTERVAL": "0.25",
        "REPRO_HEARTBEAT_TIMEOUT": "2.0",
    }
    flags = ("--breaker-threshold", str(args.breaker_threshold))
    report: dict = {
        "schema": 1,
        "kind": "chaos-bench",
        "seed": args.seed,
        "schedule": {k: v for k, v in schedule.items()
                     if k != "traffic"},
        "kills": [],
        "memo_checks": [],
    }
    total = LegResult("chaos")
    kills_by_chunk: dict[int, list[dict]] = {}
    for kill in schedule["kills"]:
        kills_by_chunk.setdefault(kill["during_chunk"], []).append(kill)

    fleet = SupervisedFleet(
        procs=args.procs, fault_spec=schedule["fault_spec"],
        memo_dir=memo_dir,
        state_file=os.path.join(scratch, "sup.json"),
        env_overrides=env, flags=flags)
    warm_fleet: SupervisedFleet | None = None
    try:
        state = fleet.wait_ready(args.procs)
        host, port = state["host"], state["port"]
        asyncio.run(wait_ready(host, port))
        print(f"[chaos] fleet up on :{port} (procs={args.procs}, "
              f"faults={schedule['fault_spec']})", file=sys.stderr)

        async def storm_chunk(index: int, chunk: list[dict]) -> None:
            """One traffic chunk with its kills landing mid-flight."""
            loop = asyncio.get_running_loop()
            task = asyncio.ensure_future(run_leg(
                f"chunk-{index}", host, port, chunk,
                clients=args.clients, timeout=args.timeout, echo=True))
            for kill in kills_by_chunk.get(index, ()):
                await asyncio.sleep(0.3)  # let the chunk get in flight
                outcome = await loop.run_in_executor(
                    None, kill_worker, fleet, kill["worker_slot"])
                report["kills"].append(outcome)
                if not outcome["recycled"]:
                    failures.append(
                        f"kill during chunk {index}: worker slot "
                        f"{kill['worker_slot']} was not recycled "
                        f"({outcome.get('error')})")
                print(f"[chaos] chunk {index}: killed worker "
                      f"{kill['worker_slot']} "
                      f"(pid {outcome.get('killed_pid')}) -> "
                      f"recycled={outcome['recycled']}",
                      file=sys.stderr)
            merge_leg(total, await task)

        start = time.perf_counter()
        for index, chunk in enumerate(schedule["traffic"]):
            asyncio.run(storm_chunk(index, chunk))
            for kill in kills_by_chunk.get(index, ()):
                report["memo_checks"].append(check_memo(
                    memo_dir, f"kill during chunk {index}", failures))
        total.duration = time.perf_counter() - start

        # ---- graceful drain with a burst in flight -------------------
        drain_leg, drain_exit = asyncio.run(_drain_with_burst(
            fleet, host, port, schedule["drain_burst"], args.timeout))
        if drain_exit != 0:
            failures.append(
                f"supervisor exited {drain_exit} on SIGTERM drain")
        if drain_leg.lost:
            failures.append(
                f"drain: {drain_leg.lost} in-flight request(s) never "
                f"got a response")
        bad_drain = set(drain_leg.statuses) - {"200"}
        if bad_drain:
            failures.append(
                f"drain: burst saw statuses {sorted(bad_drain)}")
        report["memo_checks"].append(
            check_memo(memo_dir, "graceful drain", failures))
        final_state = fleet.state()
        report["supervisor"] = final_state
        if len(report["kills"]) != len(schedule["kills"]):
            failures.append("not every scheduled kill was delivered")
        expected_kills = sum(
            1 for k in report["kills"] if k.get("killed_pid"))
        if final_state.get("crash_exits", 0) < expected_kills:
            failures.append(
                f"supervisor reaped {final_state.get('crash_exits', 0)} "
                f"crashes but {expected_kills} kills were delivered")

        # ---- warm restart on the same memo directory -----------------
        warm_fleet = SupervisedFleet(
            procs=args.procs, fault_spec=None, memo_dir=memo_dir,
            state_file=os.path.join(scratch, "sup-warm.json"),
            env_overrides=env, flags=flags)
        wstate = warm_fleet.wait_ready(args.procs)
        asyncio.run(wait_ready(wstate["host"], wstate["port"]))
        warm_leg = asyncio.run(run_leg(
            "warm-replay", wstate["host"], wstate["port"],
            [dict(r) for r in schedule["drain_burst"]],
            clients=4, timeout=args.timeout, echo=True))
        for identity, fp in drain_leg.fingerprints.items():
            if warm_leg.fingerprints.get(identity) != fp:
                failures.append(
                    f"warm restart changed the fingerprint of "
                    f"{json.loads(identity)['workload']}")
        warm_memo = asyncio.run(fleet_memo_stats(
            wstate["host"], wstate["port"], args.procs))
        warm_hits = sum(m.get("hits", 0) for m in warm_memo.values())
        if not warm_hits:
            failures.append("warm restart served nothing from the "
                            "memo directory")
        warm_fleet.terminate()
        try:
            warm_exit = warm_fleet.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            warm_exit = None
        if warm_exit != 0:
            failures.append(f"warm supervisor exited {warm_exit}")
        report["drain"] = {
            "burst": drain_leg.report(),
            "supervisor_exit": drain_exit,
            "warm_replay": warm_leg.report(),
            "warm_memo": warm_memo,
            "warm_memo_hits": warm_hits,
            "warm_fingerprints_identical": all(
                warm_leg.fingerprints.get(i) == fp
                for i, fp in drain_leg.fingerprints.items()),
        }
        merge_leg(total, drain_leg)
        merge_leg(total, warm_leg)
    finally:
        fleet.destroy()
        if warm_fleet is not None:
            warm_fleet.destroy()

    # ---- fleet-independent verdicts ----------------------------------
    report["traffic"] = total.report()
    if total.lost:
        failures.append(f"{total.lost} request(s) lost a response "
                        f"across worker kills")
    if total.echo_mismatches:
        failures.append(f"{total.echo_mismatches} cross-wired "
                        f"response(s) (echo token mismatch)")
    if total.mismatched_fingerprints:
        failures.append("the same key served different fingerprints")
    bad_statuses = set(total.statuses) - ALLOWED_STATUSES
    if bad_statuses:
        failures.append(f"unbounded statuses under chaos: "
                        f"{sorted(bad_statuses)}")
    bad_codes = set(total.error_codes) - ALLOWED_ERROR_CODES
    if bad_codes:
        failures.append(f"unbounded error codes under chaos: "
                        f"{sorted(bad_codes)}")
    oracle = oracle_check(total.fingerprints)
    report["offline_oracle"] = oracle
    if oracle["checked"] == 0:
        failures.append("oracle checked nothing (no 200s at all?)")
    if oracle["matched"] != oracle["checked"]:
        failures.append(f"offline oracle mismatches: "
                        f"{oracle['mismatches']}")
    if not report["kills"]:
        failures.append("no worker kills were scheduled")
    report["failures"] = list(failures)
    report["ok"] = not failures

    import shutil
    shutil.rmtree(scratch, ignore_errors=True)
    return report, failures


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Seeded chaos run against a supervised serve "
                    "fleet.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument("--kills", type=int, default=5,
                        help="scheduled SIGKILLs of live workers")
    parser.add_argument("--chunks", type=int, default=8,
                        help="traffic chunks (kills land between them)")
    parser.add_argument("--chunk-size", type=int, default=40)
    parser.add_argument("--clients", type=int, default=12)
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--breaker-threshold", type=int, default=5)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--workloads", nargs="+",
                        default=list(DEFAULT_WORKLOADS),
                        choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (fewer, smaller chunks)")
    parser.add_argument("--output", default=None,
                        help=f"report path (default {DEFAULT_BENCH_PATH}; "
                             f"{SMOKE_BENCH_PATH} with --smoke)")
    return parser.parse_args(argv)


def output_path(args: argparse.Namespace) -> str:
    """The report path: ``--output`` if given, else the smoke path for a
    ``--smoke`` run and the committed report's path for a full run."""
    if args.output is not None:
        return args.output
    return SMOKE_BENCH_PATH if args.smoke else DEFAULT_BENCH_PATH


def _apply_smoke_sizing(args: argparse.Namespace) -> None:
    args.chunks = min(args.chunks, 6)
    args.chunk_size = min(args.chunk_size, 24)
    args.clients = min(args.clients, 8)
    args.kills = min(args.kills, 5)


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if args.smoke:
        _apply_smoke_sizing(args)
    if args.kills > args.chunks - 1:
        print(f"--kills {args.kills} needs --chunks >= "
              f"{args.kills + 1}; raising chunks", file=sys.stderr)
        args.chunks = args.kills + 1
    report, failures = run_chaos(args)
    output = output_path(args)
    if os.path.dirname(output):
        os.makedirs(os.path.dirname(output), exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[chaos] report written to {output}", file=sys.stderr)
    print(json.dumps({
        "seed": report["seed"],
        "traffic": report["traffic"],
        "kills": report["kills"],
        "offline_oracle": report["offline_oracle"],
        "drain": {k: v for k, v in report.get("drain", {}).items()
                  if k != "warm_replay"},
        "ok": report["ok"],
    }, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"all chaos invariants held over "
          f"{report['traffic']['requests']} requests and "
          f"{len(report['kills'])} worker kills", file=sys.stderr)
    return 0
