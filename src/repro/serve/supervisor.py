"""Multi-process supervision for the serve daemon.

``python -m repro.serve.supervisor`` binds the listening socket once,
forks ``--procs`` worker processes that all ``accept()`` from it (the
kernel load-balances connections), and then babysits them:

* **Crash detection** — ``os.waitpid(WNOHANG)`` reaps exited workers
  every tick; a worker that died (organic crash, ``serve.respond``
  fault, OOM-kill, …) is respawned immediately.  When the workers
  share a ``--memo-dir``, a respawned worker starts *warm*: any run a
  predecessor finished is served from disk instead of re-specialized.
* **Hang detection** — each worker heartbeats over a dedicated pipe
  (``REPRO_HEARTBEAT_INTERVAL`` seconds apart, from a thread, so a
  wedged event loop still beats but a wedged *process* does not).  A
  worker silent for ``REPRO_HEARTBEAT_TIMEOUT`` seconds is SIGKILLed
  and respawned.  The ``serve.worker_heartbeat`` fault point simulates
  the hang by silencing the beat while the worker keeps serving.
* **Graceful drain** — SIGTERM/SIGINT forwards SIGTERM to every
  worker; each stops accepting, finishes its in-flight requests
  (:meth:`~repro.serve.http.ServeDaemon.drain`, for at most
  :data:`DRAIN_TIMEOUT` seconds), and exits.  Once all workers are gone
  the supervisor exits 0; a fleet restarted on the same ``--memo-dir``
  starts warm.
* **State file** — every lifecycle event atomically rewrites a JSON
  state file (``--state-file``; its path is also passed to each
  worker's app so ``GET /stats`` can surface supervision counters).
  The chaos harness reads it to learn the bound port and the live
  worker pids it is allowed to kill.

Workers are forked, not exec'd: the parent never starts an event loop
(forking after asyncio starts is unsafe), and each child gets a fresh
``asyncio.run`` of its own.  A worker that sees its heartbeat pipe
closed (the supervisor died) exits rather than lingering as an orphan.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import socket
import sys
import time

from repro import settings
from repro.serve.app import EXIT_RESPOND_FAULT

#: Respawns after which the supervisor gives up and shuts down — a
#: backstop against crash loops, far above anything the chaos harness
#: schedules.
DEFAULT_MAX_RESTARTS = 100

DEFAULT_PROCS = 2

#: Seconds a draining worker (or the supervisor) waits for in-flight
#: work before forcing shutdown.
DRAIN_TIMEOUT = 30.0

_TICK = 0.05


def _parse_args(argv: list[str]) -> argparse.Namespace:
    from repro.serve.__main__ import add_serve_flags
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.supervisor",
        description="Supervise N serve workers behind one socket with "
                    "crash/hang recovery and graceful drain.",
    )
    add_serve_flags(parser)
    parser.add_argument("--procs", type=settings.at_least(int, 1),
                        default=DEFAULT_PROCS,
                        help="worker processes (default %(default)s)")
    parser.add_argument("--state-file", default=None, metavar="PATH",
                        help="atomically rewritten JSON supervision "
                             "state (default: <memo-dir or cwd>/"
                             "supervisor.json)")
    parser.add_argument("--max-restarts", type=int,
                        default=DEFAULT_MAX_RESTARTS)
    return parser.parse_args(argv)


def write_state(path: str, state: dict) -> None:
    """Atomically rewrite the supervision state file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def read_state(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# Worker (child) side
# ----------------------------------------------------------------------

def _heartbeat_loop(fd: int, faults, interval: float) -> None:
    """Beat on ``fd`` until the fault point silences us or the pipe
    breaks (supervisor gone -> exit instead of orphaning)."""
    while True:
        if faults.enabled("serve.worker_heartbeat") \
                and faults.should_fire("serve.worker_heartbeat"):
            # Simulated hang: stop beating but keep the process (and
            # its event loop) running; the supervisor must notice.
            return
        try:
            os.write(fd, b".")
        except OSError:
            os._exit(0)
        time.sleep(interval)


def _worker_main(args: argparse.Namespace, sock: socket.socket,
                 heartbeat_fd: int, worker: int,
                 state_path: str | None = None) -> None:
    """Forked child body: serve on the shared socket until SIGTERM.

    Never returns — exits via ``os._exit`` so the child cannot fall
    back into the supervisor's stack (atexit handlers, finally blocks).
    """
    import asyncio
    import threading

    # A SIGTERM that arrives while the app is still being built is
    # recorded, not fatal: the worker drains as soon as it serves.
    early_stop: list[int] = []
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: early_stop.append(signum))
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    exit_code = 0
    try:
        from repro.serve.__main__ import build_app
        from repro.serve.http import ServeDaemon

        app = build_app(args, worker=worker, supervisor_state=state_path)
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(heartbeat_fd, app.faults,
                  settings.read("REPRO_HEARTBEAT_INTERVAL")),
            daemon=True)
        beat.start()

        async def serve() -> None:
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            if early_stop:
                stop.set()
            daemon = ServeDaemon(app, sock=sock)
            await daemon.start()
            print(f"[worker {worker}] pid {os.getpid()} serving "
                  f"(backend={app.backend})", file=sys.stderr, flush=True)
            await stop.wait()
            app.draining = True
            completed = await daemon.drain(DRAIN_TIMEOUT)
            print(f"[worker {worker}] drained "
                  f"(completed={completed})", file=sys.stderr,
                  flush=True)

        asyncio.run(serve())
    except BaseException as err:  # noqa: BLE001 — child must not unwind
        print(f"[worker {worker}] fatal: {type(err).__name__}: {err}",
              file=sys.stderr, flush=True)
        exit_code = 1
    finally:
        sys.stderr.flush()
        os._exit(exit_code)


# ----------------------------------------------------------------------
# Supervisor (parent) side
# ----------------------------------------------------------------------

class WorkerRecord:
    def __init__(self, worker: int, pid: int, pipe_fd: int,
                 now: float):
        self.worker = worker
        self.pid = pid
        self.pipe_fd = pipe_fd
        self.last_beat = now
        self.restarts = 0


class Supervisor:
    """Fork/watch/recycle loop around N serve workers."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.procs = args.procs
        self.max_restarts = max(0, args.max_restarts)
        self.heartbeat_timeout = settings.read("REPRO_HEARTBEAT_TIMEOUT")
        self.sock: socket.socket | None = None
        self.port = args.port
        self.workers: dict[int, WorkerRecord] = {}   # pid -> record
        self.selector = selectors.DefaultSelector()
        self.shutting_down = False
        self.restarts_total = 0
        self.crash_exits = 0
        self.respond_fault_exits = 0
        self.hang_kills = 0
        self.clean_exits = 0
        self.state_path = args.state_file or os.path.join(
            args.memo_dir or ".", "supervisor.json")

    # -- lifecycle -----------------------------------------------------

    def bind(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.args.host, self.args.port))
        sock.listen(128)
        sock.set_inheritable(True)
        self.sock = sock
        self.port = sock.getsockname()[1]

    def spawn(self, worker: int) -> WorkerRecord:
        read_fd, write_fd = os.pipe()
        os.set_inheritable(write_fd, True)
        pid = os.fork()
        if pid == 0:
            # Child: drop every parent-side fd (other workers' pipe
            # read ends included — a held read end would defeat the
            # sibling's EOF-on-death signal), then serve.
            os.close(read_fd)
            self.selector.close()
            for record in self.workers.values():
                try:
                    os.close(record.pipe_fd)
                except OSError:
                    pass
            _worker_main(self.args, self.sock, write_fd, worker,
                         os.path.abspath(self.state_path))
            os._exit(1)  # unreachable
        os.close(write_fd)
        os.set_blocking(read_fd, False)
        record = WorkerRecord(worker, pid, read_fd, time.monotonic())
        self.workers[pid] = record
        self.selector.register(read_fd, selectors.EVENT_READ, record)
        return record

    def _retire(self, record: WorkerRecord) -> None:
        try:
            self.selector.unregister(record.pipe_fd)
        except (KeyError, ValueError):
            pass
        try:
            os.close(record.pipe_fd)
        except OSError:
            pass
        self.workers.pop(record.pid, None)

    # -- accounting ----------------------------------------------------

    def state(self) -> dict:
        return {
            "schema": 1,
            "kind": "serve-supervisor",
            "supervisor_pid": os.getpid(),
            "host": self.args.host,
            "port": self.port,
            "procs": self.procs,
            "workers": [
                {"worker": record.worker, "pid": record.pid}
                for record in sorted(self.workers.values(),
                                     key=lambda r: r.worker)
            ],
            "restarts_total": self.restarts_total,
            "crash_exits": self.crash_exits,
            "respond_fault_exits": self.respond_fault_exits,
            "hang_kills": self.hang_kills,
            "clean_exits": self.clean_exits,
            "shutting_down": self.shutting_down,
        }

    def publish(self) -> None:
        write_state(self.state_path, self.state())

    # -- event handling ------------------------------------------------

    def _drain_pipes(self, timeout: float) -> None:
        for key, _ in self.selector.select(timeout):
            record: WorkerRecord = key.data
            try:
                chunk = os.read(record.pipe_fd, 4096)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                chunk = b""
            if chunk:
                record.last_beat = time.monotonic()
            # EOF means the worker died; waitpid will reap it.

    def _reap(self) -> bool:
        """Collect exited workers; returns whether anything changed."""
        changed = False
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
            record = self.workers.get(pid)
            if record is None:
                continue
            changed = True
            self._retire(record)
            if os.WIFEXITED(status) \
                    and os.WEXITSTATUS(status) == EXIT_RESPOND_FAULT:
                self.respond_fault_exits += 1
                kind = "respond-fault exit"
            elif os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
                self.clean_exits += 1
                kind = "clean exit"
            elif os.WIFSIGNALED(status) \
                    and os.WTERMSIG(status) == signal.SIGKILL:
                # Either our own hang-kill or an external SIGKILL
                # (the chaos harness); both recycle the same way.
                self.crash_exits += 1
                kind = f"killed (SIGKILL)"
            else:
                self.crash_exits += 1
                kind = f"crash (status {status})"
            print(f"[supervisor] worker {record.worker} pid {pid}: "
                  f"{kind}", file=sys.stderr, flush=True)
            if not self.shutting_down:
                self.restarts_total += 1
                if self.restarts_total > self.max_restarts:
                    print(f"[supervisor] restart cap "
                          f"({self.max_restarts}) exceeded; shutting "
                          f"down", file=sys.stderr, flush=True)
                    self.shutting_down = True
                else:
                    fresh = self.spawn(record.worker)
                    fresh.restarts = record.restarts + 1
                    print(f"[supervisor] worker {record.worker} "
                          f"recycled as pid {fresh.pid} (warm from "
                          f"shared store)", file=sys.stderr, flush=True)
        return changed

    def _kill_hung(self) -> bool:
        now = time.monotonic()
        changed = False
        for record in list(self.workers.values()):
            if now - record.last_beat > self.heartbeat_timeout:
                print(f"[supervisor] worker {record.worker} pid "
                      f"{record.pid} silent for "
                      f"{now - record.last_beat:.1f}s; killing",
                      file=sys.stderr, flush=True)
                self.hang_kills += 1
                changed = True
                try:
                    os.kill(record.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                # Avoid double-kill while waiting for the reap.
                record.last_beat = now + 3600.0
        return changed

    # -- drain ---------------------------------------------------------

    def drain(self) -> None:
        """SIGTERM every worker and wait for clean exits."""
        self.shutting_down = True
        self.publish()
        # Close the parent's copy of the listener: once every draining
        # worker closes its copy too, the socket dies and late connects
        # are refused immediately instead of rotting in the backlog.
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        for record in list(self.workers.values()):
            try:
                os.kill(record.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while self.workers and time.monotonic() < deadline:
            self._drain_pipes(_TICK)
            self._reap()
        for record in list(self.workers.values()):
            print(f"[supervisor] worker {record.worker} pid "
                  f"{record.pid} ignored drain; killing",
                  file=sys.stderr, flush=True)
            try:
                os.kill(record.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while self.workers:
            self._drain_pipes(_TICK)
            self._reap()
        self.publish()

    # -- main loop -----------------------------------------------------

    def run(self) -> int:
        self.bind()
        if self.args.memo_dir:
            os.makedirs(self.args.memo_dir, exist_ok=True)
        self.publish()

        def on_term(_signum, _frame):
            self.shutting_down = True

        signal.signal(signal.SIGTERM, on_term)
        signal.signal(signal.SIGINT, on_term)

        for worker in range(self.procs):
            self.spawn(worker)
        self.publish()
        print(f"supervising on http://{self.args.host}:{self.port} "
              f"(procs={self.procs}, heartbeat "
              f"timeout={self.heartbeat_timeout}s, state="
              f"{self.state_path})", file=sys.stderr, flush=True)

        try:
            while not self.shutting_down:
                self._drain_pipes(_TICK)
                changed = self._reap()
                changed |= self._kill_hung()
                if changed:
                    self.publish()
        finally:
            self.drain()
        return 0


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    from repro.serve.__main__ import _raise_nofile_limit, startup_error
    error = startup_error(args.faults)
    if error:
        print(error, file=sys.stderr)
        return 2
    _raise_nofile_limit()
    return Supervisor(args).run()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
