"""Content-hash memoization of (workload, config, cost model) runs.

Every quantity in a :class:`~repro.evalharness.runner.RunResult` is a
deterministic function of the workload program text, its prepared inputs,
the optimization configuration, and the cost/overhead models — the
execution *backend* explicitly is not part of the key, because every
backend produces byte-identical statistics (enforced by
``tests/test_threaded_backend.py`` and
``tests/test_pycodegen_backend.py``; the runner bypasses the memoizer
entirely for pycodegen in fast mode, whose statistics are not counted).
The memoizer therefore keys cached
results on a SHA-256 of exactly those inputs, so re-running tables (or the
full ``all`` sweep) only recomputes runs whose inputs actually changed.

Cache entries are one pickle file per key, written atomically
(temp file + ``os.replace``) so concurrent ``--jobs`` workers can share a
cache directory without locking: the worst case is two workers computing
the same run and one ``replace`` winning, which is harmless.

Deterministic specialization failures (``SpecializationError``, e.g. mipsi
without static loads exceeding the context budget) are memoized too — as a
small error marker rather than a result — so Table 5's fallback logic does
not re-pay the failed specialization on a warm cache.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import pickle
import tempfile

from repro.config import OptConfig
from repro.errors import SpecializationBudgetError, SpecializationError
from repro.faults import resolve_degrade, resolve_fault_spec
from repro.ir import Memory
from repro.machine.costs import CostModel
from repro.machine.pycodegen import resolve_source_limit
from repro.machine.threaded import resolve_fusion_threshold
from repro.runtime import persist
from repro.runtime.overhead import OverheadModel
from repro.workloads import WORKLOADS_BY_NAME
from repro.workloads.base import Workload

#: Bump when the RunResult layout or the fingerprint recipe changes;
#: stale entries from older schemas simply never match.  Schema 6 keys
#: the serve tier's resilience knobs (circuit-breaker threshold and
#: cooldown, supervised worker count) into the environment fingerprint.
_SCHEMA = 6

#: Default cache directory (relative to the current working directory)
#: when none is given explicitly or via ``REPRO_MEMO_DIR``.
DEFAULT_MEMO_DIR = ".repro_memo"

#: Entries kept by each in-process invariant cache: workload key
#: prefixes here, parsed modules and static baselines in the runner
#: (ten workloads on every backend and codegen mode, with room for
#: cost-model and input variants).
INVARIANT_CACHE_CAPACITY = 64


def resolve_memo_dir(directory: str | None) -> str:
    """Resolve a memo directory choice (explicit > env > default)."""
    if directory is None:
        directory = os.environ.get("REPRO_MEMO_DIR") or DEFAULT_MEMO_DIR
    return directory


def _fingerprint_inputs(workload: Workload) -> str:
    """Deterministic description of the workload's prepared inputs.

    Runs the workload's ``setup`` on a fresh memory and captures both the
    entry arguments and the full memory image.  ``repr`` round-trips ints
    and floats exactly, so this is a byte-level fingerprint.
    """
    memory = Memory()
    inp = workload.setup(memory)
    has_checksum = inp.checksum is not None
    return repr((tuple(inp.args), has_checksum, memory.words()))


def backend_env_fingerprint() -> tuple:
    """Resolved values of backend-affecting environment knobs.

    These knobs change *how* a run executes — when the threaded tier
    quickens (``REPRO_FUSION_THRESHOLD``), when the codegen tier refuses
    an oversize source and walks the backend ladder
    (``REPRO_PYCODEGEN_SOURCE_LIMIT``, which bumps
    ``degraded_compilations``), and when the supervised pool abandons a
    round (``REPRO_TASK_TIMEOUT``, which decides whether a hung worker's
    task is retried or reported).  None of them is visible in
    ``OptConfig``, so without feeding the *resolved* values into the key
    a warm hit could serve a result computed under a different
    configuration.  The timeout is read through
    :func:`repro.evalharness.parallel.resolve_task_timeout` lazily to
    keep this module import-light.
    """
    from repro.evalharness.parallel import resolve_task_timeout
    from repro.serve.knobs import (
        resolve_breaker_cooldown,
        resolve_breaker_threshold,
        resolve_serve_procs,
    )
    return (
        resolve_fusion_threshold(),
        resolve_source_limit(),
        resolve_task_timeout(),
        # Serve-tier resilience knobs.  They do not change run *bytes*,
        # but results computed and persisted by a supervised fleet are
        # replayed across worker recycles; keying the knobs makes a
        # fleet reconfiguration (different breaker policy or worker
        # count) start from a fresh key space instead of mixing
        # artifacts produced under different supervision regimes.
        resolve_breaker_threshold(),
        resolve_breaker_cooldown(),
        resolve_serve_procs(),
    )


def _feed(hasher, part: object) -> None:
    hasher.update(repr(part).encode("utf-8"))
    hasher.update(b"\x00")


@functools.lru_cache(maxsize=INVARIANT_CACHE_CAPACITY)
def _workload_prefix(workload: Workload):
    hasher = hashlib.sha256()
    for part in (_SCHEMA, workload.name, workload.source, workload.entry,
                 tuple(workload.region_functions),
                 workload.icache_capacity_bytes,
                 _fingerprint_inputs(workload)):
        _feed(hasher, part)
    return hasher


def workload_prefix(workload: Workload):
    """A fresh SHA-256 state fed the workload-only prefix of
    :func:`memo_key`.

    The prefix covers the program text, entry, region functions,
    I-cache capacity and prepared inputs.  Fingerprinting the inputs
    re-runs ``setup`` and ``repr``s the memory image, so the state is
    computed once per workload and copied for each key; the runner
    keys its static baselines on the same prefix.
    """
    return _workload_prefix(workload).copy()


def reset_prefix_cache() -> None:
    """Fingerprint every workload afresh next time."""
    _workload_prefix.cache_clear()


def memo_key(workload: Workload,
             config: OptConfig,
             cost_model: CostModel,
             overhead: OverheadModel,
             verify: bool = True) -> str:
    """SHA-256 key over everything that determines a run's statistics."""
    hasher = workload_prefix(workload)
    feed = functools.partial(_feed, hasher)
    feed(sorted(dataclasses.asdict(config).items()))
    # Fault-injection and degradation settings change run statistics but
    # partly live in environment variables (REPRO_FAULTS/REPRO_DEGRADE),
    # which ``asdict(config)`` cannot see: feed the *resolved* values so a
    # faulted run can never serve a clean run from the cache (or vice
    # versa).
    feed(("resolved_faults", resolve_fault_spec(config)))
    feed(("resolved_degrade", resolve_degrade(config)))
    # Backend-affecting environment knobs (same rationale: they change
    # run behavior but are invisible to ``asdict(config)``).
    feed(("resolved_env", backend_env_fingerprint()))
    # Persistent-store state: schema version and whether a store is
    # active.  Artifact records are themselves keyed on this memo key
    # plus the persist schema, so a snapshot from an older persist
    # layout (or a run that flipped persistence on/off) can never serve
    # a stale memoized result.
    feed(("persist", (persist.PERSIST_SCHEMA,
                      persist.active_store() is not None)))
    feed(sorted(dataclasses.asdict(cost_model).items()))
    feed(sorted(dataclasses.asdict(overhead).items()))
    feed(verify)
    return hasher.hexdigest()


class Memoizer:
    """A directory of pickled run results keyed by content hash."""

    def __init__(self, directory: str | None = None):
        self.directory = resolve_memo_dir(directory)

    # -- key construction ------------------------------------------------

    key_for = staticmethod(memo_key)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    # -- load ------------------------------------------------------------

    def get(self, key: str):
        """Return the cached RunResult for ``key``, raise a cached
        :class:`SpecializationError`, or return ``None`` on a miss."""
        try:
            with open(self._path(key), "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError):
            return None
        if not isinstance(payload, dict) or payload.get("schema") != _SCHEMA:
            return None
        if "error" in payload:
            cls = (SpecializationBudgetError
                   if payload.get("error_kind") == "budget"
                   else SpecializationError)
            fields = payload.get("error_fields") or {}
            raise cls(payload["error"], **fields)
        fields = payload.get("result")
        if not isinstance(fields, dict):
            return None
        workload = WORKLOADS_BY_NAME.get(fields.get("workload"))
        if workload is None:
            return None
        from repro.evalharness.runner import RunResult
        try:
            return RunResult(**{**fields, "workload": workload})
        except TypeError:
            return None

    # -- store -----------------------------------------------------------

    def _write(self, key: str, payload: dict) -> None:
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put(self, key: str, result) -> None:
        """Cache a RunResult (the Workload is stored by name)."""
        fields = {
            f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
        }
        fields["workload"] = result.workload.name
        self._write(key, {"schema": _SCHEMA, "result": fields})

    def put_error(self, key: str, error: SpecializationError) -> None:
        """Cache a deterministic specialization failure.

        The raw message and the structured fields are stored separately
        (``str(error)`` already embeds the fields) so :meth:`get` can
        reconstruct an identical exception, subclass included.
        """
        self._write(key, {
            "schema": _SCHEMA,
            "error": getattr(error, "message", str(error)),
            "error_fields": error.fields(),
            "error_kind": (
                "budget" if isinstance(error, SpecializationBudgetError)
                else "spec"
            ),
        })
