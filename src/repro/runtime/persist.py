"""Persistent cross-process specialization cache and warm-start snapshots.

Every process so far respecialized from scratch: each eval-harness run,
each ``--jobs`` pool worker, and each serve-daemon restart paid the full
dynamic-compilation bill for regions that an earlier process had already
specialized.  This module adds a disk-backed, content-addressed store of
specialized artifacts:

``entry``
    A whole :class:`~repro.runtime.specializer.SpecializedCode` produced
    by one entry-cache miss, together with the batch's side effects
    (pending lazy promotions, statistics deltas, dc-cycle charges) so a
    warm process replays the *exact* observable state of the cold one.
``cont``
    One lazily specialized promotion continuation: the blocks appended to
    the (mutated-in-place) code version plus the same side-effect record.
``pycodegen``
    The Python source + namespace metadata emitted by the codegen
    backend for one function version, so a warm process skips emission
    and (when the interpreter magic matches) bytecode compilation.

Keys are content hashes derived the way :mod:`repro.evalharness.memo`
keys runs — run context (workload content + resolved config/env knobs)
plus artifact-local identity plus a per-run sequence number — so a store
entry can only ever be replayed into a byte-identical run prefix, and
any divergence degrades to a cold miss.

Integrity reuses the PR 3 machinery: every record carries a sha256 over
its payload (plus schema and key echo), the in-process front cache is a
checksummed :class:`~repro.runtime.cache.CodeCache`, and a corrupt or
schema-mismatched record is **deleted and treated as a miss, never
executed**.  Writes are crash-consistent (``mkstemp`` + payload fsync +
``os.replace`` + directory fsync — see :func:`atomic_install`) so the
``--jobs`` pool can share one store, a racing daemon can be SIGKILLed
mid-``store``, and the survivor always reads whole records: racers
simply last-write-win a byte-identical record and a killed writer
leaves at worst an ignorable ``.tmp`` file.  Three fault points —
``persist.load``, ``persist.store``, and ``persist.fsync`` — inject
load-side corruption drops, lost writes, and failed fsync barriers
deterministically.

A *snapshot* is a single-file capture of a warmed store
(``python -m repro.workloads snapshot save/load``) used by CI and by the
serve daemon's ``--snapshot`` flag to start with zero specialization
overhead.  See ``DESIGN.md`` §11.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass

from repro.faults import FaultRegistry, parse_spec, resolve_fault_spec
from repro.runtime.cache import CodeCache, entry_checksum
from repro.runtime.specializer import PendingPromotion, SpecializedCode
from repro.runtime.stats import RegionStats

#: Bumped whenever the record layout or replay semantics change; a store
#: written by any other schema is read as all-misses (and memo keys it).
#: The kind set (``KINDS``) is part of the layout.
PERSIST_SCHEMA = 2

ENV_PERSIST_DIR = "REPRO_PERSIST_DIR"
DEFAULT_PERSIST_DIR = ".repro_persist"

#: Artifact kinds the store accepts (also the filename prefix).
KINDS = ("entry", "cont", "pycodegen")

#: Live-entry bound of the in-process front cache over decoded records.
_FRONT_CAPACITY = 256

#: The only fault points that may be armed while run-level artifacts
#: (entry/cont) are persisted: they exercise the store itself without
#: perturbing the specializer, so replay stays deterministic.
_PERSIST_POINTS = ("persist.load", "persist.store", "persist.fsync")

#: Scalar RegionStats counters, snapshot/restored absolutely on replay
#: (dict-shaped fields are handled separately — see _BatchCapture).
_NUMERIC_FIELDS = tuple(
    f.name for f in dataclasses.fields(RegionStats)
    if f.type in ("int", "float")
)


def digest(*parts) -> str:
    """Content hash of a heterogeneous key: sha256 over reprs.

    ``repr`` of the ints/floats/strings/tuples fed here is deterministic
    across processes (no id()-bearing objects are ever part of a key).
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def function_text(fn) -> str:
    """Stable textual identity of a function's code (blocks + instrs)."""
    return repr((
        fn.name, fn.entry, fn.version,
        [(label, block.instrs) for label, block in fn.blocks.items()],
    ))


def numeric_snapshot(stats: RegionStats) -> tuple:
    return tuple(getattr(stats, name) for name in _NUMERIC_FIELDS)


class _FrontEntry:
    """Decoded-record wrapper stored in the checksummed front cache."""

    __slots__ = ("kind", "digest", "payload")

    def __init__(self, kind: str, digest_: str, payload: bytes) -> None:
        self.kind = kind
        self.digest = digest_
        self.payload = payload

    def cache_identity(self) -> tuple:
        return (self.kind, self.digest, len(self.payload))


def _fsync_directory(directory: str) -> None:
    """Flush the directory entry of a just-renamed record (best effort:
    a filesystem that cannot fsync directories still gets the rename)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class _FsyncFault(OSError):
    """Injected ``persist.fsync`` failure (drops the write)."""


def atomic_install(directory: str, final_path: str, raw: bytes,
                   prefix: str, faults=None) -> bool:
    """Crash-consistent write: tmp file + fsync + rename + dir fsync.

    The durability contract the chaos harness kills writers against:
    a reader (even one opening the directory cold after a SIGKILL
    mid-write) sees either the complete old record, the complete new
    record, or no record — never a torn one.  The payload is fsynced
    *before* the rename so a crash between rename and data reaching
    disk cannot publish a name pointing at garbage, and the directory
    is fsynced after so the rename itself is durable.  A failed (or
    ``persist.fsync``-injected) fsync drops the whole write: the tmp
    file is unlinked and the caller reports a store skip.
    """
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(prefix=prefix, suffix=".tmp",
                                        dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
                handle.flush()
                if faults is not None \
                        and faults.enabled("persist.fsync") \
                        and faults.should_fire("persist.fsync"):
                    raise _FsyncFault("injected fsync failure")
                os.fsync(handle.fileno())
            os.replace(tmp_path, final_path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError:
        return False
    _fsync_directory(directory)
    return True


def verify_store(directory: str) -> dict:
    """Read-only integrity scan of a store directory.

    Decodes and checksums every ``.rec`` file the way a cold reader
    would; the chaos harness calls this after every injected crash to
    prove no torn or corrupt record survived a kill.  Leftover ``.tmp``
    files are reported but are *not* a violation — an interrupted
    writer may leave one behind; readers never open them.
    """
    counts = {"records": 0, "ok": 0, "corrupt": 0,
              "schema": 0, "tmp_files": 0}
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return counts
    for name in names:
        if name.endswith(".tmp"):
            counts["tmp_files"] += 1
            continue
        if not name.endswith(".rec"):
            continue
        counts["records"] += 1
        kind, _, rest = name.partition("-")
        digest_ = rest[:-len(".rec")]
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                raw = handle.read()
        except OSError:
            counts["corrupt"] += 1
            continue
        status, _record = _check_record(raw, kind or None,
                                        digest_ or None)
        if status == "ok":
            counts["ok"] += 1
        elif status == "schema":
            counts["schema"] += 1
        else:
            counts["corrupt"] += 1
    return counts


def _check_record(raw: bytes, kind: str | None = None,
                  digest_: str | None = None):
    """Decode + verify one record file; ("ok"|"corrupt"|"schema", dict)."""
    try:
        record = pickle.loads(raw)
    except Exception:
        return ("corrupt", None)
    if not isinstance(record, dict):
        return ("corrupt", None)
    if record.get("schema") != PERSIST_SCHEMA:
        return ("schema", None)
    rkind = record.get("kind")
    if rkind not in KINDS or (kind is not None and rkind != kind):
        return ("corrupt", None)
    if digest_ is not None and record.get("digest") != digest_:
        return ("corrupt", None)
    payload = record.get("payload")
    if not isinstance(payload, bytes):
        return ("corrupt", None)
    if hashlib.sha256(payload).hexdigest() != record.get("sha256"):
        return ("corrupt", None)
    return ("ok", record)


class PersistStore:
    """A disk directory of content-addressed specialization records.

    One file per record (``{kind}-{digest}.rec``), each a pickled
    envelope carrying schema, kind, digest echo, payload bytes, and a
    sha256 over the payload.  All reads verify the full envelope; any
    failure unlinks the file, bumps a counter, and reports a miss.
    Writes go through ``mkstemp`` + ``os.replace`` so concurrent writers
    (pool workers, a racing daemon) can never expose a torn record.

    The store object itself is thread-safe: the front cache is a locked
    :class:`CodeCache` and counters are guarded by a mutex, so the serve
    daemon's worker threads may share one instance.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        self._front = CodeCache(capacity=_FRONT_CAPACITY,
                                checksum=entry_checksum, lock=True)
        self._lock = threading.Lock()
        #: Default registry for callers without a run-scoped one (the
        #: snapshot CLI, serve-level warm loads).
        self.faults = FaultRegistry.from_spec(
            os.environ.get("REPRO_FAULTS")
        )
        self.hits = 0
        self.front_hits = 0
        self.misses = 0
        self.stores = 0
        self.store_skips = 0
        self.corrupt_dropped = 0
        self.schema_dropped = 0
        self.stale_drops = 0
        self.replayed_entries = 0
        self.replayed_continuations = 0
        self.load_seconds = 0.0
        self.store_seconds = 0.0
        #: kind -> wall-seconds of *cold* artifact generation measured
        #: around the wrapped producer (the warm-start overhead metric).
        self.work_seconds: dict[str, float] = {}

    # -- accounting ----------------------------------------------------

    def _bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def record_work(self, kind: str, seconds: float) -> None:
        with self._lock:
            self.work_seconds[kind] = \
                self.work_seconds.get(kind, 0.0) + seconds

    def stats(self) -> dict:
        with self._lock:
            return {
                "directory": self.directory,
                "schema": PERSIST_SCHEMA,
                "hits": self.hits,
                "front_hits": self.front_hits,
                "misses": self.misses,
                "stores": self.stores,
                "store_skips": self.store_skips,
                "corrupt_dropped": self.corrupt_dropped,
                "schema_dropped": self.schema_dropped,
                "stale_drops": self.stale_drops,
                "replayed_entries": self.replayed_entries,
                "replayed_continuations": self.replayed_continuations,
                "load_seconds": self.load_seconds,
                "store_seconds": self.store_seconds,
                "work_seconds": dict(self.work_seconds),
            }

    # -- paths ---------------------------------------------------------

    def _path(self, kind: str, digest_: str) -> str:
        return os.path.join(self.directory, f"{kind}-{digest_}.rec")

    def _drop(self, kind: str, digest_: str) -> None:
        """Forget a record everywhere (front cache + disk)."""
        self._front.delete((kind, digest_))
        try:
            os.unlink(self._path(kind, digest_))
        except OSError:
            pass

    # -- the store API -------------------------------------------------

    def get(self, kind: str, digest_: str, faults=None):
        """Fetch and decode one artifact; ``None`` on any kind of miss.

        The decoded payload is unpickled *fresh on every call* — even on
        a front-cache hit — because replayed artifacts (SpecializedCode)
        are mutated in place by the run that receives them and must
        never be shared between runs.
        """
        registry = faults if faults is not None else self.faults
        if registry.enabled("persist.load") \
                and registry.should_fire("persist.load"):
            # Injected load-side corruption: the record (if any) is
            # treated exactly like a checksum mismatch.
            self._drop(kind, digest_)
            self._bump("corrupt_dropped")
            self._bump("misses")
            return None
        began = time.perf_counter()
        found = self._front.lookup((kind, digest_))
        if found.hit:
            try:
                obj = pickle.loads(found.value.payload)
            except Exception:
                self._drop(kind, digest_)
                self._bump("corrupt_dropped")
                self._bump("misses")
                return None
            self._bump("front_hits")
            self._bump("hits")
            with self._lock:
                self.load_seconds += time.perf_counter() - began
            return obj
        try:
            with open(self._path(kind, digest_), "rb") as handle:
                raw = handle.read()
        except OSError:
            self._bump("misses")
            return None
        status, record = _check_record(raw, kind, digest_)
        if status != "ok":
            self._drop(kind, digest_)
            self._bump("schema_dropped" if status == "schema"
                       else "corrupt_dropped")
            self._bump("misses")
            return None
        try:
            obj = pickle.loads(record["payload"])
        except Exception:
            self._drop(kind, digest_)
            self._bump("corrupt_dropped")
            self._bump("misses")
            return None
        self._front.insert((kind, digest_),
                           _FrontEntry(kind, digest_, record["payload"]))
        self._bump("hits")
        with self._lock:
            self.load_seconds += time.perf_counter() - began
        return obj

    def put(self, kind: str, digest_: str, obj, faults=None) -> bool:
        """Persist one artifact; returns whether it reached disk."""
        registry = faults if faults is not None else self.faults
        if registry.enabled("persist.store") \
                and registry.should_fire("persist.store"):
            self._bump("store_skips")
            return False
        began = time.perf_counter()
        try:
            payload = pickle.dumps(obj)
        except Exception:
            self._bump("store_skips")
            return False
        record = {
            "schema": PERSIST_SCHEMA,
            "kind": kind,
            "digest": digest_,
            "payload": payload,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        raw = pickle.dumps(record)
        if not atomic_install(self.directory,
                              self._path(kind, digest_), raw,
                              prefix=f".{kind}-", faults=registry):
            self._bump("store_skips")
            return False
        self._front.insert((kind, digest_),
                           _FrontEntry(kind, digest_, payload))
        self._bump("stores")
        with self._lock:
            self.store_seconds += time.perf_counter() - began
        return True


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------

@dataclass
class SnapshotResult:
    """Outcome of a snapshot save/load."""

    ok: bool
    loaded: int = 0
    skipped: int = 0
    error: str | None = None


def _files_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(files[name])
        h.update(b"\x00")
    return h.hexdigest()


def save_snapshot(store_dir: str, path: str) -> SnapshotResult:
    """Capture every record in ``store_dir`` into one snapshot file."""
    files: dict[str, bytes] = {}
    try:
        names = sorted(os.listdir(store_dir))
    except OSError:
        names = []
    count = 0
    for name in names:
        if not name.endswith(".rec"):
            continue
        try:
            with open(os.path.join(store_dir, name), "rb") as handle:
                files[name] = handle.read()
            count += 1
        except OSError:
            continue
    payload = {
        "schema": PERSIST_SCHEMA,
        "kind": "snapshot",
        "files": files,
        "sha256": _files_digest(files),
    }
    raw = pickle.dumps(payload)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    if not atomic_install(directory, path, raw, prefix=".snapshot-"):
        return SnapshotResult(False, error="snapshot write failed")
    return SnapshotResult(True, loaded=count)


def load_snapshot(path: str, store_dir: str) -> SnapshotResult:
    """Unpack a snapshot into ``store_dir``, dropping invalid records.

    The outer envelope (schema + whole-file digest) must verify or
    nothing is loaded; each inner record is then re-verified
    individually, so a snapshot carrying one corrupt record still warms
    every valid one (``skipped`` counts the drops).
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return SnapshotResult(False, error=f"snapshot unreadable: {exc}")
    try:
        payload = pickle.loads(raw)
    except Exception:
        return SnapshotResult(False, error="snapshot is not a valid "
                                           "pickle envelope")
    if not isinstance(payload, dict) \
            or payload.get("kind") != "snapshot":
        return SnapshotResult(False, error="not a snapshot file")
    if payload.get("schema") != PERSIST_SCHEMA:
        return SnapshotResult(
            False,
            error=f"snapshot schema {payload.get('schema')!r} != "
                  f"{PERSIST_SCHEMA}",
        )
    files = payload.get("files")
    if not isinstance(files, dict) \
            or _files_digest(files) != payload.get("sha256"):
        return SnapshotResult(False, error="snapshot digest mismatch")
    loaded = 0
    skipped = 0
    for name, data in sorted(files.items()):
        kind, _, rest = name.partition("-")
        digest_ = rest[:-len(".rec")] if rest.endswith(".rec") else ""
        if kind not in KINDS or not digest_ \
                or not isinstance(data, bytes):
            skipped += 1
            continue
        status, _record = _check_record(data, kind, digest_)
        if status != "ok":
            skipped += 1
            continue
        if not atomic_install(store_dir, os.path.join(store_dir, name),
                              data, prefix=f".{kind}-"):
            skipped += 1
            continue
        loaded += 1
    return SnapshotResult(True, loaded=loaded, skipped=skipped)


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------

_active: PersistStore | None = None
_env_checked = False


def resolve_persist_dir(directory: str | None = None) -> str:
    """Resolve a store-directory choice (explicit > env > default)."""
    if directory:
        return directory
    return (os.environ.get(ENV_PERSIST_DIR, "").strip()
            or DEFAULT_PERSIST_DIR)


def activate(directory: str) -> PersistStore:
    """Activate persistence for this process, rooted at ``directory``."""
    global _active, _env_checked
    _active = PersistStore(directory)
    _env_checked = True
    return _active


def deactivate() -> None:
    global _active, _env_checked
    _active = None
    _env_checked = True


def active_store() -> PersistStore | None:
    """The process-wide store, resolving ``REPRO_PERSIST_DIR`` once.

    Pool workers inherit the environment, so a harness activated via the
    environment variable warms every ``--jobs`` worker automatically.
    """
    global _active, _env_checked
    if not _env_checked:
        _env_checked = True
        directory = os.environ.get(ENV_PERSIST_DIR, "").strip()
        if directory:
            _active = PersistStore(directory)
    return _active


def reset(clear_env_cache: bool = True) -> None:
    """Test hook: drop the active store (and re-read the env next time)."""
    global _active, _env_checked
    _active = None
    _env_checked = not clear_env_cache


# ----------------------------------------------------------------------
# Run-level binding (entry + continuation artifacts)
# ----------------------------------------------------------------------

def run_eligible(config) -> bool:
    """May this run's entry/cont artifacts be persisted and replayed?

    Annotation-checking runs install memory watches during static loads
    (a side effect replay would skip), and any armed fault point other
    than the persist ones can fire *inside* the specializer, so both
    disqualify the run.  The config itself is part of the key, so
    ineligibility never risks staleness — only a cold run.
    """
    if getattr(config, "check_annotations", False):
        return False
    try:
        specs = parse_spec(resolve_fault_spec(config))
    except Exception:
        return False
    return all(point in _PERSIST_POINTS for point in specs)


def bind_runtime(runtime, store: PersistStore, ctx: str) -> None:
    """Attach a :class:`RunBinding` so the runtime's entry-cache and
    promotion-cache misses go through the persistent store."""
    runtime._persist = RunBinding(runtime, store, ctx)


class RunBinding:
    """Per-run adapter between a :class:`DycRuntime` and the store.

    Keys every artifact with the run context (the memo key), artifact
    identity, and a per-identity sequence number (the same (region, key)
    can be specialized more than once under eviction/quarantine churn).
    Replay *verifies before applying*: the recorded pre-state (emission
    counter, scalar stats, dc cycles, and for continuations the code
    version/shape) must match the live run exactly, else the record is
    stale — the run diverged — and we fall back to cold specialization
    and stop persisting (a diverged run must not overwrite good records).
    """

    def __init__(self, runtime, store: PersistStore, ctx: str) -> None:
        self.runtime = runtime
        self.store = store
        self.ctx = ctx
        self.faults = runtime.faults
        self._seq: dict[tuple, int] = {}
        self._diverged = False

    def _next_seq(self, kind: str, ident: tuple) -> int:
        key = (kind, ident)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    def _stale(self) -> None:
        self._diverged = True
        self.store._bump("stale_drops")

    # -- entry artifacts ----------------------------------------------

    def entry(self, genext, machine, entry_env: dict, region_id: int,
              key: tuple, stats) -> SpecializedCode:
        seq = self._next_seq("entry", (region_id, key))
        dig = digest("entry", PERSIST_SCHEMA, self.ctx, region_id, key,
                     seq)
        record = self.store.get("entry", dig, faults=self.faults)
        if record is not None:
            code = self._replay_entry(record, machine, stats)
            if code is not None:
                return code
        capture = _BatchCapture(self.runtime, machine, stats)
        with capture:
            began = time.perf_counter()
            code = self.runtime.specializer.specialize_entry(
                genext, machine, entry_env
            )
            self.store.record_work("entry",
                                   time.perf_counter() - began)
        if not self._diverged:
            self.store.put("entry", dig, {
                "code": code,
                "pre": capture.pre_block(),
                "pendings": capture.pendings_data(),
                "post": capture.post_block(),
            }, faults=self.faults)
        return code

    def _replay_entry(self, record, machine, stats):
        try:
            pre = record["pre"]
            code = record["code"]
            pendings = record["pendings"]
            post = record["post"]
        except (TypeError, KeyError):
            self._stale()
            return None
        if not isinstance(code, SpecializedCode) \
                or not isinstance(pre, dict) \
                or pre.get("emission") != self.runtime._emission_counter \
                or pre.get("stats") != numeric_snapshot(stats) \
                or pre.get("machine_dc") != machine.stats.dc_cycles:
            self._stale()
            return None
        self._apply(code, pendings, post, machine, stats)
        self.store._bump("replayed_entries")
        return code

    # -- continuation artifacts ---------------------------------------

    def continuation(self, pending: PendingPromotion, machine,
                     values: tuple, stats) -> str:
        code = pending.code
        seq = self._next_seq("cont", (pending.emission_id, values))
        dig = digest("cont", PERSIST_SCHEMA, self.ctx, code.region_id,
                     pending.emission_id, values, seq)
        record = self.store.get("cont", dig, faults=self.faults)
        if record is not None:
            label = self._replay_cont(record, pending, machine, stats)
            if label is not None:
                return label
        capture = _BatchCapture(self.runtime, machine, stats, code=code)
        with capture:
            began = time.perf_counter()
            label = self.runtime.specializer.specialize_continuation(
                pending, machine, values
            )
            self.store.record_work("cont", time.perf_counter() - began)
        if not self._diverged:
            fn = code.function
            self.store.put("cont", dig, {
                "label": label,
                "pre": capture.pre_block(),
                "blocks": list(fn.blocks.items())[capture.pre_nblocks:],
                "contexts": dict(
                    list(code.contexts.items())[capture.pre_ncontexts:]
                ),
                "exit_blocks": dict(code.exit_blocks),
                "dynamic_labels": dict(code.dynamic_labels),
                "protected": set(code.protected_labels),
                "label_counter": code.label_counter,
                "footprint": code.footprint,
                "pendings": capture.pendings_data(),
                "post": capture.post_block(),
            }, faults=self.faults)
        return label

    def _replay_cont(self, record, pending: PendingPromotion, machine,
                     stats):
        code = pending.code
        fn = code.function
        try:
            pre = record["pre"]
            post = record["post"]
            label = record["label"]
            blocks = record["blocks"]
            pendings = record["pendings"]
        except (TypeError, KeyError):
            self._stale()
            return None
        if not isinstance(pre, dict) \
                or pre.get("version") != fn.version \
                or pre.get("nblocks") != len(fn.blocks) \
                or pre.get("ncontexts") != len(code.contexts) \
                or pre.get("label_counter") != code.label_counter \
                or pre.get("emission") != self.runtime._emission_counter \
                or pre.get("stats") != numeric_snapshot(stats) \
                or pre.get("machine_dc") != machine.stats.dc_cycles:
            self._stale()
            return None
        # Batches only ever append blocks and retarget within the batch
        # (older blocks, contexts, and thunks are protected or already
        # threaded — see Specializer._thread_jumps), so installing the
        # captured tail reproduces the cold post-state exactly.
        for block_label, block in blocks:
            fn.blocks[block_label] = block
        code.contexts.update(record["contexts"])
        code.exit_blocks = dict(record["exit_blocks"])
        code.dynamic_labels = dict(record["dynamic_labels"])
        code.protected_labels = set(record["protected"])
        code.label_counter = record["label_counter"]
        self._apply(code, pendings, post, machine, stats)
        fn.bump_version()
        code.footprint = record["footprint"]
        self.store._bump("replayed_continuations")
        return label

    # -- shared replay tail -------------------------------------------

    def _apply(self, code: SpecializedCode, pendings, post, machine,
               stats) -> None:
        runtime = self.runtime
        genext = runtime.compiled.genexts[code.region_id]
        for data in pendings:
            runtime.register_pending(PendingPromotion(
                emission_id=data["emission_id"],
                code=code,
                genext=genext,
                block_key=data["block_key"],
                action_index=data["action_index"],
                store=dict(data["store"]),
                point_names=tuple(data["point_names"]),
                policy=data["policy"],
                cache=runtime.make_cache(data["policy"], stats=stats),
                frames=dict(data["frames"]),
            ))
        runtime._emission_counter = post["emission"]
        for name, value in zip(_NUMERIC_FIELDS, post["stats"]):
            setattr(stats, name, value)
        for header, src, dst in post["loop_edges"]:
            stats.record_loop_edge(header, src, dst)
        # Map unpickled (label, division) keys back onto the live
        # genext's own key objects: an unpickled frozenset is equal to
        # the native one but may repr its elements in a different order,
        # which would break byte-level stats fingerprints.
        canon = {block_key: block_key for block_key in genext.blocks}
        for key, value in post["loop_counts"].items():
            stats.loop_context_counts[canon.get(key, key)] = value
        machine.stats.dc_cycles = post["machine_dc"]


class _BatchCapture:
    """Pre/post observer around one specializer batch.

    Snapshots the observable pre-state (for warm-run verification),
    shadows ``stats.record_loop_edge`` with a recording wrapper (loop
    edges land in sets, so the calls themselves must be re-played), and
    afterwards packages the batch's absolute post-state: scalar stats
    and dc cycles are restored by *assignment* on replay, keeping even
    float accumulation IEEE-identical to the cold run.
    """

    def __init__(self, runtime, machine, stats, code=None) -> None:
        self.runtime = runtime
        self.machine = machine
        self.stats = stats
        self.code = code
        self.loop_edges: list[tuple] = []

    def __enter__(self) -> "_BatchCapture":
        runtime, stats = self.runtime, self.stats
        self.pre_emission = runtime._emission_counter
        self.pre_stats = numeric_snapshot(stats)
        self.pre_machine_dc = self.machine.stats.dc_cycles
        self.pre_loop_counts = dict(stats.loop_context_counts)
        code = self.code
        if code is not None:
            self.pre_version = code.function.version
            self.pre_nblocks = len(code.function.blocks)
            self.pre_ncontexts = len(code.contexts)
            self.pre_label_counter = code.label_counter
        record = self.loop_edges.append

        def recording(header, src, dst):
            record((header, src, dst))
            RegionStats.record_loop_edge(stats, header, src, dst)

        stats.record_loop_edge = recording
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            del self.stats.record_loop_edge
        except AttributeError:
            pass
        return False

    def pre_block(self) -> dict:
        pre = {
            "emission": self.pre_emission,
            "stats": self.pre_stats,
            "machine_dc": self.pre_machine_dc,
        }
        if self.code is not None:
            pre["version"] = self.pre_version
            pre["nblocks"] = self.pre_nblocks
            pre["ncontexts"] = self.pre_ncontexts
            pre["label_counter"] = self.pre_label_counter
        return pre

    def post_block(self) -> dict:
        stats = self.stats
        counts = {
            key: value
            for key, value in stats.loop_context_counts.items()
            if self.pre_loop_counts.get(key) != value
        }
        return {
            "emission": self.runtime._emission_counter,
            "stats": numeric_snapshot(stats),
            "machine_dc": self.machine.stats.dc_cycles,
            "loop_edges": list(self.loop_edges),
            "loop_counts": counts,
        }

    def pendings_data(self) -> list[dict]:
        runtime = self.runtime
        out = []
        for eid in range(self.pre_emission + 1,
                         runtime._emission_counter + 1):
            pending = runtime.pendings.get(eid)
            if pending is None:
                continue
            out.append({
                "emission_id": pending.emission_id,
                "block_key": pending.block_key,
                "action_index": pending.action_index,
                "store": dict(pending.store),
                "point_names": tuple(pending.point_names),
                "policy": pending.policy,
                "frames": dict(pending.frames),
            })
        return out
