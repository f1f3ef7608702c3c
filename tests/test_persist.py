"""The persistent cross-process artifact store and warm-start snapshots.

The store may only ever make runs *faster*, never different: every test
here pins warm-run statistics and results byte-identical to the cold
run, and every integrity failure (truncation, bit flips, schema drift,
injected faults, races) must resolve to a cold miss — re-generating the
artifact — never to a crash or to executing a stale artifact.
"""

import dataclasses
import hashlib
import os
import pickle
import threading

import pytest

from repro.config import ALL_ON
from repro.evalharness.runner import run_workload
from repro.evalharness.warmstart import run_fingerprints
from repro.runtime import persist
from repro.workloads import WORKLOADS_BY_NAME


@pytest.fixture(autouse=True)
def _isolated_store():
    """No ambient store before, no leaked store after."""
    persist.reset()
    yield
    persist.reset()


def _run_with_store(workload, directory, config=ALL_ON,
                    backend="threaded"):
    persist.reset()
    persist.activate(str(directory))
    try:
        result = run_workload(workload, config, backend=backend)
        stats = persist.active_store().stats()
    finally:
        persist.reset()
    return result, stats


def _records(directory):
    try:
        return sorted(name for name in os.listdir(directory)
                      if name.endswith(".rec"))
    except OSError:
        return []


class TestWarmColdIdentity:
    @pytest.mark.parametrize("name,backend", [
        ("binary", "threaded"),
        ("binary", "pycodegen"),
        ("mipsi", "threaded"),     # exercises continuation replay
    ])
    def test_warm_run_byte_identical(self, tmp_path, name, backend):
        workload = WORKLOADS_BY_NAME[name]
        cold, cold_stats = _run_with_store(workload, tmp_path,
                                           backend=backend)
        warm, warm_stats = _run_with_store(workload, tmp_path,
                                           backend=backend)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert warm_stats["replayed_entries"] > 0
        assert warm_stats["stale_drops"] == 0
        if name == "mipsi":
            assert warm_stats["replayed_continuations"] > 0
        # The warm leg generated (essentially) nothing.
        assert sum(warm_stats["work_seconds"].values()) <= \
            sum(cold_stats["work_seconds"].values())

    def test_store_populated_by_cold_run(self, tmp_path):
        workload = WORKLOADS_BY_NAME["binary"]
        _, stats = _run_with_store(workload, tmp_path)
        assert stats["stores"] > 0
        names = _records(tmp_path)
        assert names
        assert all(name.split("-", 1)[0] in persist.KINDS
                   for name in names)


class TestSnapshotRoundTrip:
    def test_snapshot_carries_warm_start(self, tmp_path):
        workload = WORKLOADS_BY_NAME["binary"]
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        snap = tmp_path / "store.snap"
        cold, _ = _run_with_store(workload, cold_dir)

        saved = persist.save_snapshot(str(cold_dir), str(snap))
        assert saved.ok and saved.loaded == len(_records(cold_dir))
        loaded = persist.load_snapshot(str(snap), str(warm_dir))
        assert loaded.ok and loaded.loaded == saved.loaded
        assert loaded.skipped == 0
        assert _records(warm_dir) == _records(cold_dir)

        warm, warm_stats = _run_with_store(workload, warm_dir)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert warm_stats["replayed_entries"] > 0

    def test_truncated_snapshot_rejected(self, tmp_path):
        workload = WORKLOADS_BY_NAME["binary"]
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        snap = tmp_path / "store.snap"
        _run_with_store(workload, cold_dir)
        persist.save_snapshot(str(cold_dir), str(snap))
        raw = snap.read_bytes()
        snap.write_bytes(raw[: len(raw) // 2])

        outcome = persist.load_snapshot(str(snap), str(warm_dir))
        assert not outcome.ok
        assert outcome.error
        assert _records(warm_dir) == []   # nothing half-installed

    def test_flipped_byte_in_snapshot_rejected(self, tmp_path):
        workload = WORKLOADS_BY_NAME["binary"]
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        snap = tmp_path / "store.snap"
        _run_with_store(workload, cold_dir)
        persist.save_snapshot(str(cold_dir), str(snap))
        raw = bytearray(snap.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        snap.write_bytes(bytes(raw))

        outcome = persist.load_snapshot(str(snap), str(warm_dir))
        assert not outcome.ok
        assert _records(warm_dir) == []

    def test_missing_snapshot_rejected(self, tmp_path):
        outcome = persist.load_snapshot(str(tmp_path / "absent.snap"),
                                        str(tmp_path / "warm"))
        assert not outcome.ok

    def test_corrupt_record_inside_snapshot_skipped(self, tmp_path):
        """A snapshot whose outer envelope verifies but which carries a
        tampered record installs the good records and skips the bad."""
        workload = WORKLOADS_BY_NAME["binary"]
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        snap = tmp_path / "store.snap"
        _run_with_store(workload, cold_dir)
        names = _records(cold_dir)
        victim = cold_dir / names[0]
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))

        saved = persist.save_snapshot(str(cold_dir), str(snap))
        assert saved.ok
        outcome = persist.load_snapshot(str(snap), str(warm_dir))
        assert outcome.ok
        assert outcome.skipped == 1
        assert outcome.loaded == len(names) - 1
        assert names[0] not in _records(warm_dir)


class TestSchemaOneArtifacts:
    """Schema 2 dropped the ``fusion`` kind: artifacts written before
    the change read as schema drift, never as corruption or hits."""

    def test_schema_one_store_and_snapshot_are_refused(self, tmp_path):
        store_dir = tmp_path / "store"
        _run_with_store(WORKLOADS_BY_NAME["binary"], store_dir)
        current = _records(store_dir)
        payload = pickle.dumps(True)
        digest = persist.digest("fusion", 1, "main")
        (store_dir / f"fusion-{digest}.rec").write_bytes(pickle.dumps({
            "schema": 1,
            "kind": "fusion",
            "digest": digest,
            "payload": payload,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }))
        scan = persist.verify_store(str(store_dir))
        assert scan["schema"] == 1
        assert scan["corrupt"] == 0
        assert scan["ok"] == len(current)

        snap = tmp_path / "store.snap"
        assert persist.save_snapshot(str(store_dir), str(snap)).ok
        envelope = pickle.loads(snap.read_bytes())
        envelope["schema"] = 1
        snap.write_bytes(pickle.dumps(envelope))
        outcome = persist.load_snapshot(str(snap), str(tmp_path / "warm"))
        assert not outcome.ok
        assert outcome.error == \
            f"snapshot schema 1 != {persist.PERSIST_SCHEMA}"
        assert _records(tmp_path / "warm") == []


class TestRecordIntegrity:
    def _populate(self, tmp_path):
        workload = WORKLOADS_BY_NAME["binary"]
        cold, _ = _run_with_store(workload, tmp_path)
        return workload, cold

    def test_flipped_byte_is_cold_miss(self, tmp_path):
        workload, cold = self._populate(tmp_path)
        for name in _records(tmp_path):
            victim = tmp_path / name
            raw = bytearray(victim.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            victim.write_bytes(bytes(raw))

        warm, stats = _run_with_store(workload, tmp_path)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert stats["corrupt_dropped"] > 0
        assert stats["replayed_entries"] == 0
        # Dropped records were deleted, then freshly re-stored.
        assert stats["stores"] > 0

    def test_truncated_record_is_cold_miss(self, tmp_path):
        workload, cold = self._populate(tmp_path)
        for name in _records(tmp_path):
            victim = tmp_path / name
            raw = victim.read_bytes()
            victim.write_bytes(raw[: len(raw) // 3])

        warm, stats = _run_with_store(workload, tmp_path)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert stats["corrupt_dropped"] > 0
        assert stats["replayed_entries"] == 0

    def test_schema_mismatch_is_cold_miss(self, tmp_path):
        workload, cold = self._populate(tmp_path)
        for name in _records(tmp_path):
            victim = tmp_path / name
            record = pickle.loads(victim.read_bytes())
            record["schema"] = persist.PERSIST_SCHEMA + 999
            victim.write_bytes(pickle.dumps(record))

        warm, stats = _run_with_store(workload, tmp_path)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert stats["schema_dropped"] > 0
        assert stats["replayed_entries"] == 0

    def test_empty_record_file_is_cold_miss(self, tmp_path):
        workload, cold = self._populate(tmp_path)
        for name in _records(tmp_path):
            (tmp_path / name).write_bytes(b"")
        warm, stats = _run_with_store(workload, tmp_path)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert stats["corrupt_dropped"] > 0

    def test_concurrent_writers_race_safely(self, tmp_path):
        """Many writers racing on the same keys: atomic rename means
        the loser's whole record wins or loses, never interleaves — a
        reader sees either a fully valid record or a miss."""
        store_a = persist.PersistStore(str(tmp_path))
        store_b = persist.PersistStore(str(tmp_path))
        digest = persist.digest("race", 1)
        errors = []

        def writer(store, payload):
            try:
                for _ in range(50):
                    store.put("entry", digest, payload)
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(store_a, ["a"] * 64)),
            threading.Thread(target=writer, args=(store_b, ["b"] * 64)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # No temp-file litter, and the surviving record is fully valid.
        assert _records(tmp_path) == [f"entry-{digest}.rec"]
        reader = persist.PersistStore(str(tmp_path))
        value = reader.get("entry", digest)
        assert value in (["a"] * 64, ["b"] * 64)
        assert reader.stats()["corrupt_dropped"] == 0

    def test_leftover_tmp_files_ignored(self, tmp_path):
        workload, cold = self._populate(tmp_path)
        (tmp_path / "garbage.tmp").write_bytes(b"partial write")
        snap = tmp_path / "store.snap"
        saved = persist.save_snapshot(str(tmp_path), str(snap))
        assert saved.ok and saved.loaded == len(_records(tmp_path))
        warm, stats = _run_with_store(workload, tmp_path)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert stats["replayed_entries"] > 0


class TestFaultPoints:
    def test_persist_load_fault_drops_to_cold(self, tmp_path):
        workload = WORKLOADS_BY_NAME["binary"]
        cold, _ = _run_with_store(workload, tmp_path)
        config = dataclasses.replace(ALL_ON, faults="persist.load")
        warm, stats = _run_with_store(workload, tmp_path, config=config)
        # Every load is dropped: the run regenerates everything, with
        # statistics still byte-identical to the unfaulted cold run.
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert stats["replayed_entries"] == 0
        assert stats["corrupt_dropped"] > 0

    def test_persist_store_fault_blocks_writes(self, tmp_path):
        workload = WORKLOADS_BY_NAME["binary"]
        clean, _ = _run_with_store(workload, tmp_path / "clean")
        config = dataclasses.replace(ALL_ON, faults="persist.store")
        faulted, stats = _run_with_store(workload, tmp_path / "faulted",
                                         config=config)
        assert run_fingerprints(clean) == run_fingerprints(faulted)
        assert stats["store_skips"] > 0
        # Run-level artifacts never reached disk.
        assert not any(name.startswith(("entry-", "cont-"))
                       for name in _records(tmp_path / "faulted"))

    def test_non_persist_faults_disable_run_artifacts(self, tmp_path):
        """Armed specializer faults make replay nondeterministic, so the
        run must not bind to the store at all."""
        config = dataclasses.replace(ALL_ON,
                                     faults="specializer.entry:once")
        assert not persist.run_eligible(config)
        assert persist.run_eligible(ALL_ON)
        assert persist.run_eligible(
            dataclasses.replace(ALL_ON, faults="persist.load"))
        assert not persist.run_eligible(
            dataclasses.replace(ALL_ON, check_annotations=True))


class TestStoreApi:
    def test_get_returns_fresh_object_each_call(self, tmp_path):
        store = persist.PersistStore(str(tmp_path))
        digest = persist.digest("fresh", 1)
        store.put("entry", digest, {"mutable": [1, 2]})
        first = store.get("entry", digest)
        first["mutable"].append(3)
        second = store.get("entry", digest)
        assert second == {"mutable": [1, 2]}

    def test_resolve_persist_dir_precedence(self, monkeypatch):
        monkeypatch.delenv(persist.ENV_PERSIST_DIR, raising=False)
        assert persist.resolve_persist_dir("explicit") == "explicit"
        assert persist.resolve_persist_dir() == \
            persist.DEFAULT_PERSIST_DIR
        monkeypatch.setenv(persist.ENV_PERSIST_DIR, "/from/env")
        assert persist.resolve_persist_dir() == "/from/env"
        assert persist.resolve_persist_dir("explicit") == "explicit"

    def test_memo_schema_is_seven(self):
        from repro.evalharness.memo import _SCHEMA
        assert _SCHEMA == 7

    def test_memo_key_ignores_resilience_knobs(self, monkeypatch):
        """Schema 7 keys only knobs that can change a RunResult: the
        breaker threshold, cooldown and worker count leave memo keys
        alone, while the codegen source limit still changes them."""
        from repro.evalharness.memo import memo_key
        from repro.machine.costs import ALPHA_21164
        from repro.machine.pycodegen import reset_source_limit_cache
        from repro.runtime.overhead import DEFAULT_OVERHEAD
        from repro.serve import knobs
        workload = WORKLOADS_BY_NAME["binary"]

        def key():
            return memo_key(workload, ALL_ON, ALPHA_21164,
                            DEFAULT_OVERHEAD)

        monkeypatch.delenv(knobs.ENV_BREAKER_THRESHOLD, raising=False)
        monkeypatch.delenv(knobs.ENV_BREAKER_COOLDOWN, raising=False)
        monkeypatch.delenv(knobs.ENV_SERVE_PROCS, raising=False)
        monkeypatch.delenv("REPRO_PYCODEGEN_SOURCE_LIMIT", raising=False)
        reset_source_limit_cache()
        base = key()
        monkeypatch.setenv(knobs.ENV_BREAKER_THRESHOLD, "9")
        monkeypatch.setenv(knobs.ENV_BREAKER_COOLDOWN, "2.5")
        monkeypatch.setenv(knobs.ENV_SERVE_PROCS, "7")
        assert key() == base
        monkeypatch.setenv("REPRO_PYCODEGEN_SOURCE_LIMIT", "10")
        reset_source_limit_cache()
        try:
            assert key() != base
        finally:
            monkeypatch.delenv("REPRO_PYCODEGEN_SOURCE_LIMIT")
            reset_source_limit_cache()
        assert key() == base


class TestCrashConsistency:
    """Atomic tmp-file + rename + fsync: kills never tear the store."""

    def _populate(self, tmp_path):
        workload = WORKLOADS_BY_NAME["binary"]
        cold, _ = _run_with_store(workload, tmp_path)
        return workload, cold

    def test_truncated_tmp_files_load_clean(self, tmp_path):
        """An interrupted writer's half-written tmp files are inert:
        a cold open neither executes nor trips over them."""
        workload, cold = self._populate(tmp_path)
        (tmp_path / ".entry-deadbeef.tmp").write_bytes(b"\x80\x04half a")
        (tmp_path / ".cont-cafe.tmp").write_bytes(b"")
        scan = persist.verify_store(str(tmp_path))
        assert scan["corrupt"] == 0
        assert scan["tmp_files"] == 2
        assert scan["ok"] == scan["records"]
        warm, stats = _run_with_store(workload, tmp_path)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert stats["corrupt_dropped"] == 0
        assert stats["replayed_entries"] > 0

    def test_partial_rename_to_wrong_digest_is_cold_miss(self, tmp_path):
        """A record surfacing under the wrong final name (the torn tail
        of a botched rename/copy) must read as corrupt, not as the
        artifact its filename claims."""
        workload, cold = self._populate(tmp_path)
        names = _records(tmp_path)
        donor = (tmp_path / names[0]).read_bytes()
        kind = names[0].split("-", 1)[0]
        wrong = tmp_path / f"{kind}-{'0' * 64}.rec"
        wrong.write_bytes(donor)
        store = persist.PersistStore(str(tmp_path))
        assert store.get(kind, "0" * 64) is None
        assert store.stats()["corrupt_dropped"] > 0
        warm, _ = _run_with_store(workload, tmp_path)
        assert run_fingerprints(cold) == run_fingerprints(warm)

    def test_sigkilled_writer_leaves_store_loadable(self, tmp_path):
        """SIGKILL a real writer subprocess mid-store, repeatedly; the
        survivors must verify clean and replay, with zero corrupt
        records ever decoded as valid."""
        import signal
        import subprocess
        import sys
        import time as _time

        script = (
            "import sys\n"
            "from repro.runtime import persist\n"
            "store = persist.PersistStore(sys.argv[1])\n"
            "blob = list(range(50000))\n"
            "i = 0\n"
            "while True:\n"
            "    store.put('entry', persist.digest('kill', i), blob)\n"
            "    i += 1\n"
        )
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src_dir)
        for round_no in range(3):
            proc = subprocess.Popen([sys.executable, "-c", script,
                                     str(tmp_path)], env=env)
            _time.sleep(0.6 + 0.15 * round_no)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            scan = persist.verify_store(str(tmp_path))
            assert scan["corrupt"] == 0, scan
            assert scan["schema"] == 0, scan
            assert scan["ok"] == scan["records"]
        # Survivors decode to exactly the payload that was written.
        store = persist.PersistStore(str(tmp_path))
        replayed = 0
        for name in _records(tmp_path):
            digest_ = name.split("-", 1)[1].removesuffix(".rec")
            value = store.get("entry", digest_)
            if value is not None:
                assert value == list(range(50000))
                replayed += 1
        assert replayed == store.stats()["hits"]
        assert store.stats()["corrupt_dropped"] == 0

    def test_fsync_fault_aborts_install(self, tmp_path):
        """An injected fsync failure must abort the install entirely:
        no record file appears, and the writer reports a skip."""
        from repro.faults import FaultRegistry
        store = persist.PersistStore(str(tmp_path))
        registry = FaultRegistry.from_spec("persist.fsync")
        digest_ = persist.digest("fsync", 1)
        assert store.put("entry", digest_, ["payload"],
                         faults=registry) is False
        assert store.stats()["store_skips"] > 0
        assert _records(tmp_path) == []
        assert not any(name.endswith(".tmp")
                       for name in os.listdir(tmp_path))
        clean = persist.PersistStore(str(tmp_path))
        assert clean.put("entry", digest_, ["payload"]) is True
        assert _records(tmp_path) == [f"entry-{digest_}.rec"]

    def test_fsync_fault_through_a_run(self, tmp_path):
        """persist.fsync is a registered, run-eligible fault point:
        a faulted run keeps its artifacts out of the store but stays
        byte-identical to a clean run."""
        workload = WORKLOADS_BY_NAME["binary"]
        clean, _ = _run_with_store(workload, tmp_path / "clean")
        config = dataclasses.replace(ALL_ON, faults="persist.fsync")
        assert persist.run_eligible(config)
        faulted, stats = _run_with_store(workload, tmp_path / "faulted",
                                         config=config)
        assert run_fingerprints(clean) == run_fingerprints(faulted)
        assert stats["store_skips"] > 0
        assert not any(name.startswith(("entry-", "cont-"))
                       for name in _records(tmp_path / "faulted"))

    def test_verify_store_flags_corruption(self, tmp_path):
        workload, _ = self._populate(tmp_path)
        names = _records(tmp_path)
        victim = tmp_path / names[0]
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        scan = persist.verify_store(str(tmp_path))
        assert scan["corrupt"] == 1
        assert scan["ok"] == len(names) - 1
        assert scan["records"] == len(names)
