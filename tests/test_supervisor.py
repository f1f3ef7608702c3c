"""Tests for the serve supervisor: state file, recovery, drain.

The integration tests fork a real ``repro.serve.supervisor`` subprocess
(in its own session, via the chaos harness's :class:`SupervisedFleet`
helper) and drive it over HTTP with the loadgen client.  They are kept
deliberately small — a couple of workers, a handful of requests, tight
heartbeat knobs — so the whole module stays in the seconds range.
"""

import asyncio
import os
import pickle
import select
import signal
import socket
import time

import repro.serve.__main__ as serve_main
from repro.chaos.orchestrator import SupervisedFleet, kill_worker
from repro.serve.loadgen import Client, wait_ready
from repro.serve.supervisor import (
    _parse_args,
    _worker_main,
    main,
    read_state,
    write_state,
)

#: Heartbeats tuned for test speed (defaults are production-paced).
FAST_BEAT = {
    "REPRO_HEARTBEAT_INTERVAL": "0.1",
    "REPRO_HEARTBEAT_TIMEOUT": "5.0",
}


# ----------------------------------------------------------------------
# State file
# ----------------------------------------------------------------------

class TestStateFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "supervisor.json")
        write_state(path, {"schema": 1, "workers": []})
        assert read_state(path) == {"schema": 1, "workers": []}
        # Atomic rewrite: no .tmp litter next to the state file.
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_read_missing_or_corrupt_is_none(self, tmp_path):
        assert read_state(str(tmp_path / "nope.json")) is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert read_state(str(bad)) is None


# ----------------------------------------------------------------------
# Argument validation (in-process: rejected before any fork)
# ----------------------------------------------------------------------

class TestArgValidation:
    def test_bad_fault_spec_exits_2(self, capsys):
        assert main(["--faults", "serve.respond:nope=1"]) == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_comma_joined_points_exit_2(self, capsys):
        # Points are ';'-separated; a ','-joined pair reads as a bogus
        # parameter and must die here, not crash-loop in the workers.
        code = main(["--faults",
                     "serve.respond:every=3,persist.fsync:every=5"])
        assert code == 2

    def test_bad_backend_exits_2_without_forking(self, monkeypatch,
                                                 capsys):
        def no_fork():
            raise AssertionError("forked despite a bad REPRO_BACKEND")

        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        monkeypatch.setattr("os.fork", no_fork)
        assert main(["--port", "0"]) == 2
        assert "bad REPRO_BACKEND" in capsys.readouterr().err

    def test_snapshot_out_requires_persist_dir(self, tmp_path, capsys):
        code = main(["--snapshot-out", str(tmp_path / "out.snap")])
        assert code == 2
        assert "requires --persist-dir" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Worker start-up (one forked worker, no supervisor)
# ----------------------------------------------------------------------

def _wait_exit(pid, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.05)
    raise AssertionError(f"worker {pid} did not exit in {timeout}s")


class TestWorkerStartup:
    def test_sigterm_while_building_the_app_drains_and_exits_0(
            self, monkeypatch):
        """A SIGTERM that lands before the worker serves (the supervisor
        forwards one as soon as its state file lists the worker) must
        drain the worker, not kill it."""
        building_r, building_w = os.pipe()
        real_build = serve_main.build_app

        def slow_build(args):
            os.write(building_w, b"b")
            time.sleep(1.0)
            return real_build(args)

        monkeypatch.setattr(serve_main, "build_app", slow_build)
        args = _parse_args(["--port", "0", "--workers", "1"])
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(8)
        beat_r, beat_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(building_r)
            os.close(beat_r)
            _worker_main(args, sock, beat_w, 0)
        status = None
        try:
            os.close(building_w)
            os.close(beat_w)
            ready, _, _ = select.select([building_r], [], [], 30.0)
            assert ready, "worker never started building its app"
            os.kill(pid, signal.SIGTERM)
            status = _wait_exit(pid)
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(building_r)
            os.close(beat_r)
            sock.close()
        assert os.WIFEXITED(status), status
        assert os.WEXITSTATUS(status) == 0


# ----------------------------------------------------------------------
# Live fleet: crash recovery, supervision counters, graceful drain
# ----------------------------------------------------------------------

def _wait_state(fleet, predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = fleet.state()
        if state and predicate(state):
            return state
        time.sleep(0.05)
    raise AssertionError(
        f"supervisor state never satisfied predicate: {fleet.state()}")


async def _post(host, port, body):
    client = Client(host, port)
    try:
        return await client.request("POST", "/run", body)
    finally:
        await client.close()


async def _get(host, port, path):
    client = Client(host, port)
    try:
        return await client.request("GET", path)
    finally:
        await client.close()


class TestSupervisedFleet:
    def test_crash_recovery_and_graceful_drain(self, tmp_path):
        state_file = str(tmp_path / "supervisor.json")
        snapshot_out = str(tmp_path / "drain.snap")
        fleet = SupervisedFleet(
            procs=2, fault_spec=None,
            persist_dir=str(tmp_path / "store"),
            state_file=state_file,
            snapshot_out=snapshot_out,
            env_overrides=FAST_BEAT)
        try:
            state = fleet.wait_ready(procs=2)
            host, port = state["host"], state["port"]
            assert state["kind"] == "serve-supervisor"
            assert state["schema"] == 1

            async def warm():
                await wait_ready(host, port)
                status, body, _ = await _post(
                    host, port,
                    {"workload": "binary", "tenant": "sup",
                     "echo": "sup-0"})
                assert status == 200 and body["echo"] == "sup-0"
                return body["fingerprint"]

            fingerprint = asyncio.run(warm())

            outcome = kill_worker(fleet, slot=0)
            assert outcome["recycled"], outcome
            state = fleet.state()
            assert state["restarts_total"] >= 1
            assert state["crash_exits"] >= 1

            async def after():
                await wait_ready(host, port)
                # The recycled worker serves the same bytes, warm from
                # the shared store (no re-specialization needed).
                status, body, _ = await _post(
                    host, port,
                    {"workload": "binary", "tenant": "sup",
                     "echo": "sup-1"})
                assert status == 200
                assert body["fingerprint"] == fingerprint
                assert body["echo"] == "sup-1"
                # Workers surface supervision counters on /stats via
                # the exported state-file path.
                status, stats, _ = await _get(host, port, "/stats")
                assert status == 200
                sup = stats["supervisor"]
                assert sup["readable"] is True
                assert sup["restarts_total"] >= 1

            asyncio.run(after())

            fleet.terminate()
            assert fleet.proc.wait(timeout=30) == 0
            final = fleet.state()
            assert final["shutting_down"] is True
            assert final["workers"] == []
            assert final["clean_exits"] >= 2
            with open(snapshot_out, "rb") as handle:
                snap = pickle.load(handle)
            assert snap.get("kind") == "snapshot"
            assert snap.get("files")
        finally:
            fleet.destroy()

    def test_hung_worker_is_killed_and_recycled(self, tmp_path):
        fleet = SupervisedFleet(
            procs=1,
            # Third heartbeat check goes silent: a simulated hang.
            fault_spec="serve.worker_heartbeat:at=3",
            persist_dir=str(tmp_path / "store"),
            state_file=str(tmp_path / "supervisor.json"),
            env_overrides={
                "REPRO_HEARTBEAT_INTERVAL": "0.1",
                "REPRO_HEARTBEAT_TIMEOUT": "0.6",
            })
        try:
            state = fleet.wait_ready(procs=1)
            first_pid = state["workers"][0]["pid"]
            state = _wait_state(
                fleet, lambda s: s.get("hang_kills", 0) >= 1
                and s.get("workers")
                and s["workers"][0]["pid"] != first_pid)
            assert state["restarts_total"] >= 1
        finally:
            fleet.destroy()

    def test_sigterm_with_no_traffic_exits_clean(self, tmp_path):
        fleet = SupervisedFleet(
            procs=2, fault_spec=None,
            persist_dir=str(tmp_path / "store"),
            state_file=str(tmp_path / "supervisor.json"),
            env_overrides=FAST_BEAT)
        try:
            fleet.wait_ready(procs=2)
            fleet.proc.send_signal(signal.SIGTERM)
            assert fleet.proc.wait(timeout=30) == 0
            final = fleet.state()
            assert final["clean_exits"] == 2
            assert final["crash_exits"] == 0
        finally:
            fleet.destroy()
