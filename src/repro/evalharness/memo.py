"""Content-hash memoization of (workload, config, cost model) runs.

Every quantity in a :class:`~repro.evalharness.runner.RunResult` is a
deterministic function of the workload program text, its prepared inputs,
the optimization configuration, and the cost/overhead models — the
execution *backend* explicitly is not part of the key, because both
counted backends produce byte-identical statistics (enforced by
``tests/test_threaded_backend.py``; the runner bypasses the memoizer
entirely on ``threaded_fast``, whose block cycles are not counted).
The memoizer therefore keys cached
results on a SHA-256 of exactly those inputs, so re-running tables (or the
full ``all`` sweep) only recomputes runs whose inputs actually changed.

Cache entries are one file per key, written atomically (temp file +
``os.replace``) so concurrent ``--jobs`` workers, and the serve
daemon's workers under ``--memo-dir``, can share a cache directory
without locking: the worst case is two writers computing the same run
and one ``replace`` winning, which is harmless.  Each file seals the
pickled payload with a SHA-256 over the key and the payload, checked
before anything is unpickled: a damaged entry, or one stored under
another key's name, reads as a miss and is recomputed, never served
and never raised.  Writes are not fsynced: a write the machine loses
is a miss, and a torn one fails its checksum.  A write that fails
(a full disk, a path that is not a directory) is counted and skipped;
the run it would have stored still returns its result.

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
import threading

from repro import settings
from repro.config import OptConfig
from repro.errors import SpecializationBudgetError, SpecializationError
from repro.machine.costs import CostModel
from repro.runtime.overhead import OverheadModel
from repro.workloads.base import Workload

#: Bump when the RunResult layout, the entry format or the key recipe
#: changes; stale entries from older schemas simply never match.
#: Schema 8 seals every entry with a checksum and no longer keys on a
#: persistent artifact store; schema 9 drops ``degraded_compilations``
#: from the RunResult and the codegen source limit from the key;
#: schema 10 drops the refused-translation counter from the RunResult
#: and keys on the settings table's keyed entries, which leaves the
#: pool's task timeout out; schema 11 keys an ``OptConfig`` that no
#: longer holds a threaded mode (uncounted runs are the never-memoized
#: ``threaded_fast`` backend).
_SCHEMA = 11

#: Every entry file starts with this tag, then the SHA-256 of the
#: entry's key and its pickled payload, then the payload.
_MAGIC = b"repro-memo\n"
_HEAD = len(_MAGIC) + hashlib.sha256().digest_size

#: Entries kept by each in-process invariant cache: workload key
#: prefixes here, parsed modules and static baselines in the runner
#: (ten workloads on every backend, with room for cost-model and input
#: variants).
INVARIANT_CACHE_CAPACITY = 64


def resolve_memo_dir(directory: str | None) -> str:
    """Resolve a memo directory choice (explicit > ``REPRO_MEMO_DIR``,
    whose default is ``.repro_memo`` in the working directory)."""
    if directory is None:
        directory = settings.read("REPRO_MEMO_DIR")
    return directory


def _fingerprint_inputs(workload: Workload) -> str:
    """Deterministic description of the workload's prepared inputs.

    Captures the entry arguments and the full memory image that the
    workload's ``setup`` builds into a fresh memory, as the runner's
    shared prepared inputs hold them.  ``repr`` round-trips ints and
    floats exactly, so this is a byte-level fingerprint.
    """
    # Imported here: the runner imports this module.
    from repro.evalharness.runner import prepared_input
    prepared = prepared_input(workload)
    has_checksum = prepared.checksum is not None
    return repr((prepared.args, has_checksum, prepared.words))


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
    # The environment settings that can change a run (the fault spec
    # and the degradation ladder), which ``asdict(config)`` cannot see:
    # a faulted run can never serve a clean run from the cache (or vice
    # versa).
    feed(("settings", settings.keyed()))
    feed(sorted(dataclasses.asdict(cost_model).items()))
    feed(sorted(dataclasses.asdict(overhead).items()))
    feed(verify)
    return hasher.hexdigest()


def _digest(key: str, body: bytes) -> bytes:
    return hashlib.sha256(os.fsencode(key) + b"\x00" + body).digest()


def _rebuild(payload: dict):
    """The RunResult or SpecializationError a sound ``payload``
    records."""
    if "error" in payload:
        cls = (SpecializationBudgetError
               if payload.get("error_kind") == "budget"
               else SpecializationError)
        return cls(payload["error"], **(payload.get("error_fields") or {}))
    # Imported here: the runner imports this module.
    from repro.evalharness.runner import unpack_result
    return unpack_result(payload["result"])


def _decode(key: str, raw: bytes) -> tuple[str, dict | None]:
    """``("ok", payload)`` for a sound entry of this schema,
    ``("stale", None)`` for a sound entry of another schema, and
    ``("corrupt", None)`` for anything else."""
    body = raw[_HEAD:]
    if not raw.startswith(_MAGIC) \
            or raw[len(_MAGIC):_HEAD] != _digest(key, body):
        return "corrupt", None
    try:
        payload = pickle.loads(body)
    except Exception:
        return "corrupt", None
    if not isinstance(payload, dict):
        return "corrupt", None
    if payload.get("schema") != _SCHEMA:
        return "stale", None
    return "ok", payload


class Memoizer:
    """A directory of sealed, pickled run results keyed by content hash.

    Lookups and writes are counted under a lock (the serve daemon calls
    them from its executor threads): ``hits`` served a result or a
    cached error, ``misses`` found nothing usable, ``corrupt_drops``
    counts the misses that found a damaged entry, and ``write_skips``
    the writes that failed.
    """

    def __init__(self, directory: str | None = None):
        self.directory = resolve_memo_dir(directory)
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("hits", "misses", "corrupt_drops", "write_skips"), 0)

    def _count(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def stats(self) -> dict:
        with self._lock:
            return {"directory": self.directory, **self._counts}

    # -- key construction ------------------------------------------------

    key_for = staticmethod(memo_key)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    # -- load ------------------------------------------------------------

    def get(self, key: str):
        """Return the cached RunResult for ``key``, raise a cached
        :class:`SpecializationError`, or return ``None`` on a miss."""
        status, found = self._lookup(key)
        self._count("hits" if status == "hit" else "misses")
        if status == "corrupt":
            self._count("corrupt_drops")
        if isinstance(found, SpecializationError):
            raise found
        return found

    def _lookup(self, key: str) -> tuple[str, object]:
        """``("hit", value)``, ``("miss", None)`` or
        ``("corrupt", None)``; never raises."""
        try:
            with open(self._path(key), "rb") as fh:
                raw = fh.read()
        except OSError:
            return "miss", None
        status, payload = _decode(key, raw)
        if status != "ok":
            return ("miss" if status == "stale" else "corrupt"), None
        try:
            return "hit", _rebuild(payload)
        except Exception:
            return "corrupt", None

    def scan(self) -> dict:
        """Read-only integrity check of every entry in the directory.

        ``tmp_files`` are an interrupted writer's leftovers, which no
        reader opens; ``stale`` entries belong to another schema.
        """
        counts = dict.fromkeys(
            ("entries", "ok", "corrupt", "stale", "tmp_files"), 0)
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return counts
        for name in names:
            if name.endswith(".tmp"):
                counts["tmp_files"] += 1
                continue
            if not name.endswith(".pkl"):
                continue
            counts["entries"] += 1
            try:
                with open(os.path.join(self.directory, name), "rb") as fh:
                    raw = fh.read()
            except OSError:
                counts["corrupt"] += 1
                continue
            counts[_decode(name[:-len(".pkl")], raw)[0]] += 1
        return counts

    # -- store -----------------------------------------------------------

    def _write(self, key: str, payload: dict) -> None:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        tmp = None
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC + _digest(key, body) + body)
            os.replace(tmp, self._path(key))
            tmp = None
        except OSError:
            self._count("write_skips")
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def put(self, key: str, result) -> None:
        """Cache a RunResult (the Workload is stored by name)."""
        from repro.evalharness.runner import pack_result
        self._write(key, {"schema": _SCHEMA, "result": pack_result(result)})

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
