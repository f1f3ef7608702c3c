"""Resolved environment knobs for the serve tier's resilience layer.

These knobs shape how the daemon operates, never what a run computes,
so the run memo key (:mod:`repro.evalharness.memo`) leaves them out.

==============================  =======  ==============================
environment variable            default  meaning
==============================  =======  ==============================
``REPRO_BREAKER_THRESHOLD``     5        consecutive failure signals
                                         (5xx) that trip a per-(tenant,
                                         workload) circuit breaker;
                                         0 disables breakers entirely
``REPRO_BREAKER_COOLDOWN``      1.0      seconds an open breaker waits
                                         before admitting a half-open
                                         probe
``REPRO_SERVE_PROCS``           2        supervised daemon worker
                                         processes (``python -m
                                         repro.serve.supervisor``)
``REPRO_HEARTBEAT_INTERVAL``    0.5      seconds between worker
                                         heartbeat writes
``REPRO_HEARTBEAT_TIMEOUT``     5.0      silence after which the
                                         supervisor declares a worker
                                         hung and recycles it
``REPRO_DRAIN_TIMEOUT``         30.0     seconds a draining worker (or
                                         the supervisor) waits for
                                         in-flight work before forcing
                                         shutdown
==============================  =======  ==============================
"""

from __future__ import annotations

import os

DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_COOLDOWN = 1.0
DEFAULT_SERVE_PROCS = 2
DEFAULT_HEARTBEAT_INTERVAL = 0.5
DEFAULT_HEARTBEAT_TIMEOUT = 5.0
DEFAULT_DRAIN_TIMEOUT = 30.0

ENV_BREAKER_THRESHOLD = "REPRO_BREAKER_THRESHOLD"
ENV_BREAKER_COOLDOWN = "REPRO_BREAKER_COOLDOWN"
ENV_SERVE_PROCS = "REPRO_SERVE_PROCS"
ENV_HEARTBEAT_INTERVAL = "REPRO_HEARTBEAT_INTERVAL"
ENV_HEARTBEAT_TIMEOUT = "REPRO_HEARTBEAT_TIMEOUT"
ENV_DRAIN_TIMEOUT = "REPRO_DRAIN_TIMEOUT"

#: Worker processes publish their identity here so fault points that
#: crash the process (``serve.respond``) know it is safe to ``os._exit``
#: — an unsupervised (in-process test) daemon degrades to dropping the
#: connection instead.
ENV_WORKER_ID = "REPRO_SERVE_WORKER"
#: Path of the supervisor's atomically rewritten state file; workers
#: read it to include supervision counters in ``GET /stats``.
ENV_SUPERVISOR_STATE = "REPRO_SUPERVISOR_STATE"

#: Exit code of a worker killed by the ``serve.respond`` fault point,
#: so the supervisor can tell an injected crash from a real one.
EXIT_RESPOND_FAULT = 17


def _int_env(name: str, default: int, floor: int = 0) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return max(floor, int(raw))
    except ValueError:
        return default


def _float_env(name: str, default: float, floor: float = 0.0) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return max(floor, float(raw))
    except ValueError:
        return default


def resolve_breaker_threshold() -> int:
    """Consecutive failures that trip a breaker (0 = breakers off)."""
    return _int_env(ENV_BREAKER_THRESHOLD, DEFAULT_BREAKER_THRESHOLD)


def resolve_breaker_cooldown() -> float:
    """Seconds an open breaker waits before a half-open probe."""
    return _float_env(ENV_BREAKER_COOLDOWN, DEFAULT_BREAKER_COOLDOWN,
                      floor=0.001)


def resolve_serve_procs() -> int:
    """Supervised worker-process count."""
    return _int_env(ENV_SERVE_PROCS, DEFAULT_SERVE_PROCS, floor=1)


def resolve_heartbeat_interval() -> float:
    return _float_env(ENV_HEARTBEAT_INTERVAL,
                      DEFAULT_HEARTBEAT_INTERVAL, floor=0.01)


def resolve_heartbeat_timeout() -> float:
    return _float_env(ENV_HEARTBEAT_TIMEOUT,
                      DEFAULT_HEARTBEAT_TIMEOUT, floor=0.1)


def resolve_drain_timeout() -> float:
    return _float_env(ENV_DRAIN_TIMEOUT, DEFAULT_DRAIN_TIMEOUT,
                      floor=0.1)


def worker_id() -> str | None:
    """This process's supervised-worker id, or ``None`` outside one."""
    return os.environ.get(ENV_WORKER_ID) or None


def supervisor_state_path() -> str | None:
    return os.environ.get(ENV_SUPERVISOR_STATE) or None
