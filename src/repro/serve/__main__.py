"""Run the serve daemon: ``python -m repro.serve [flags]``.

Flags::

    --host HOST             bind address (default 127.0.0.1)
    --port PORT             bind port (default 8950; 0 = ephemeral)
    --shards N              result-cache shards (default 8)
    --cache-capacity N      entries per shard (default 256)
    --workers N             executor threads == max concurrent runs
                            (default min(8, cpus))
    --max-queue N           admission queue depth before 503s
                            (default 1024)
    --tenant-quota N        per-tenant in-flight limit before 429s
                            (default 128)
    --faults SPEC           arm server-side fault points (serve.admit,
                            serve.respond, serve.worker_heartbeat,
                            cache.corrupt, cache.evict); combined with
                            $REPRO_FAULTS
    --breaker-threshold N   consecutive 5xx outcomes that trip a
                            per-(tenant, workload) circuit breaker
                            (default 5; 0 disables)
    --breaker-cooldown S    open-breaker cooldown before the half-open
                            probe (default 1.0)
    --memo-dir DIR          serve and store every run through the
                            harness's result memoizer at DIR, so a
                            restarted daemon serves earlier runs from
                            disk (off unless given; $REPRO_MEMO_DIR is
                            not read)

Every miss runs on one backend, resolved at start-up as the eval
harness resolves it: ``$REPRO_BACKEND``, else ``threaded``.  A count
flag below its minimum (``--shards``, ``--workers`` < 1,
``--cache-capacity`` < 0), a bad fault spec or a malformed ``REPRO_*``
setting (:mod:`repro.settings`) refuses to start (exit 2) before the
socket is bound.

The daemon prints one ``serving on http://host:port`` line to stderr
once the socket is bound, so supervisors (and the CI smoke job) can
wait for readiness by watching stderr or polling ``GET /healthz``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro import settings
from repro.errors import FaultConfigError
from repro.faults import combine_specs, parse_spec
from repro.serve.app import (
    DEFAULT_CAPACITY_PER_SHARD,
    DEFAULT_MAX_QUEUE,
    DEFAULT_SHARDS,
    DEFAULT_TENANT_QUOTA,
    ServeApp,
)
from repro.serve.breaker import (
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
)
from repro.serve.http import ServeDaemon

DEFAULT_PORT = 8950


def _raise_nofile_limit(target: int = 4096) -> None:
    """Best-effort RLIMIT_NOFILE bump for high-concurrency clients."""
    try:
        import resource
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < target:
            resource.setrlimit(resource.RLIMIT_NOFILE,
                               (min(target, hard), hard))
    except (ImportError, ValueError, OSError):
        pass


def add_serve_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of a serving process: its address, and what each
    worker passes to :func:`build_app`.  The daemon and the supervisor
    both declare them here.  A bad count exits 2 when the flags are
    parsed, before a socket is bound or a worker forked."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--shards", type=settings.at_least(int, 1),
                        default=DEFAULT_SHARDS)
    parser.add_argument("--cache-capacity", type=settings.at_least(int, 0),
                        default=DEFAULT_CAPACITY_PER_SHARD,
                        help="entries per shard")
    parser.add_argument("--workers", type=settings.at_least(int, 1),
                        default=None)
    parser.add_argument("--max-queue", type=int,
                        default=DEFAULT_MAX_QUEUE)
    parser.add_argument("--tenant-quota", type=int,
                        default=DEFAULT_TENANT_QUOTA)
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="server-side fault spec (e.g. "
                             "'serve.admit:every=50')")
    parser.add_argument("--memo-dir", default=None, metavar="DIR",
                        help="serve and store runs through the result "
                             "memoizer at DIR (off unless given)")
    parser.add_argument("--breaker-threshold", type=int,
                        default=DEFAULT_BREAKER_THRESHOLD,
                        help="consecutive 5xx outcomes that trip a "
                             "per-(tenant, workload) circuit breaker "
                             "(default %(default)s; 0 disables)")
    parser.add_argument("--breaker-cooldown", type=float,
                        default=DEFAULT_BREAKER_COOLDOWN,
                        help="seconds an open breaker waits before a "
                             "half-open probe (default %(default)s)")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve (workload, config) runs over HTTP with a "
                    "sharded multi-tenant result cache.",
    )
    add_serve_flags(parser)
    return parser.parse_args(argv)


def startup_error(faults: str | None) -> str | None:
    """Why a daemon with fault spec ``faults`` must not start, if so.

    Checked before binding (and, under the supervisor, before forking):
    a bad fault spec or a malformed setting such as ``REPRO_BACKEND``
    would otherwise fail every request, or crash-loop every worker up
    to the restart cap.
    """
    try:
        parse_spec(combine_specs(faults, settings.read("REPRO_FAULTS")))
    except FaultConfigError as err:
        return f"bad fault spec: {err}"
    for name in settings.SETTINGS:
        try:
            settings.read(name)
        except ValueError as err:
            return f"bad {err}"
    return None


def build_app(args: argparse.Namespace, worker: int | None = None,
              supervisor_state: str | None = None) -> ServeApp:
    """The app a daemon serves; a supervised worker passes its id and
    the supervisor's state-file path."""
    fault_spec = combine_specs(args.faults,
                               settings.read("REPRO_FAULTS"))
    return ServeApp(
        shards=args.shards,
        cache_capacity=args.cache_capacity,
        workers=args.workers,
        max_queue=args.max_queue,
        tenant_quota=args.tenant_quota,
        fault_spec=fault_spec or None,
        memo_dir=args.memo_dir,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        worker=worker,
        supervisor_state=supervisor_state,
    )


async def _amain(args: argparse.Namespace) -> int:
    app = build_app(args)
    daemon = ServeDaemon(app, host=args.host, port=args.port)
    await daemon.start()
    print(f"serving on http://{args.host}:{daemon.port} "
          f"(workers={app.admission.max_concurrency}, "
          f"shards={len(app.cache.stats()['shards'])}, "
          f"backend={app.backend}, "
          f"memo={app.memo.directory if app.memo else 'off'}, "
          f"faults={app.fault_spec or 'none'})",
          file=sys.stderr, flush=True)
    try:
        await daemon.serve_forever()
    finally:
        await daemon.close()
        app.close()
    return 0


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    error = startup_error(args.faults)
    if error:
        print(error, file=sys.stderr)
        return 2
    _raise_nofile_limit()
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
        return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
