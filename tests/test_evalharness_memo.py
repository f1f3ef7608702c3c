"""Memoized + parallel eval-harness: cache correctness and pool/serial
equivalence.

The memo directory may only ever make runs faster, never different: a
warm run is byte-identical to the cold one, and every damaged entry
(flipped bytes, truncation, an empty file, another key's file, a
writer killed mid-write) reads as a miss and is recomputed — never
served, never raised.  A write that fails is skipped, and the run it
would have stored still returns.
"""

import dataclasses
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.config import ALL_ON
from repro.errors import SpecializationError
from repro.evalharness import memo as memo_module
from repro.evalharness.memo import Memoizer, memo_key, resolve_memo_dir
from repro.evalharness.parallel import (
    resolve_jobs,
    run_ablations,
    run_configs,
)
from repro.evalharness.runner import resolve_backend, run_workload
from repro.machine import ALPHA_21164
from repro.runtime.overhead import DEFAULT_OVERHEAD
from repro.workloads import WORKLOADS_BY_NAME
from tests.helpers import run_fingerprints

DOT = WORKLOADS_BY_NAME["dotproduct"]
BINARY = WORKLOADS_BY_NAME["binary"]
MIPSI = WORKLOADS_BY_NAME["mipsi"]


def _result_fields(result):
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
    }
    fields["workload"] = result.workload.name
    return fields


class TestMemoizer:
    def test_roundtrip(self, tmp_path):
        memo = Memoizer(str(tmp_path))
        cold = run_workload(DOT, memo=memo)
        warm = run_workload(DOT, memo=memo)
        assert warm.workload is DOT
        assert _result_fields(cold) == _result_fields(warm)
        assert warm.region_metrics()[0].asymptotic_speedup == \
            cold.region_metrics()[0].asymptotic_speedup

    def test_key_sensitivity(self):
        base = memo_key(DOT, ALL_ON, ALPHA_21164, DEFAULT_OVERHEAD)
        assert base == memo_key(DOT, ALL_ON, ALPHA_21164,
                                DEFAULT_OVERHEAD)
        assert base != memo_key(
            DOT, ALL_ON.without("strength_reduction"), ALPHA_21164,
            DEFAULT_OVERHEAD,
        )
        assert base != memo_key(
            DOT, ALL_ON, ALPHA_21164.with_overrides(int_mul=9),
            DEFAULT_OVERHEAD,
        )
        assert base != memo_key(BINARY, ALL_ON, ALPHA_21164,
                                DEFAULT_OVERHEAD)

    def test_backend_not_in_key(self, tmp_path):
        """Both backends produce byte-identical stats, so a result
        computed under one backend must be served to the other."""
        memo = Memoizer(str(tmp_path))
        cold = run_workload(DOT, memo=memo, backend="threaded")
        warm = run_workload(DOT, memo=memo, backend="reference")
        assert _result_fields(cold) == _result_fields(warm)

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        memo = Memoizer(str(tmp_path))
        run_workload(DOT, memo=memo)
        [entry] = [p for p in os.listdir(tmp_path)
                   if p.endswith(".pkl")]
        with open(tmp_path / entry, "wb") as fh:
            fh.write(b"not a pickle")
        result = run_workload(DOT, memo=memo)
        assert result.workload is DOT

    def test_specialization_error_memoized(self, tmp_path):
        memo = Memoizer(str(tmp_path))
        config = ALL_ON.without("static_loads")
        mipsi = WORKLOADS_BY_NAME["mipsi"]
        with pytest.raises(SpecializationError):
            run_workload(mipsi, config, memo=memo)
        # Warm path raises straight from the cache marker.
        with pytest.raises(SpecializationError):
            run_workload(mipsi, config, memo=memo)

    def test_memo_dir_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMO_DIR", raising=False)
        assert resolve_memo_dir(None) == ".repro_memo"
        assert resolve_memo_dir("/x/y") == "/x/y"
        monkeypatch.setenv("REPRO_MEMO_DIR", "/from/env")
        assert resolve_memo_dir(None) == "/from/env"

    def test_get_returns_fresh_object_each_call(self, tmp_path):
        memo = Memoizer(str(tmp_path))
        run_workload(DOT, memo=memo)
        [key] = _keys(tmp_path)
        first = memo.get(key)
        first.static_region_cycles.clear()
        assert memo.get(key).static_region_cycles

    def test_memo_schema_is_eleven(self):
        assert memo_module._SCHEMA == 11


def _keys(directory) -> list[str]:
    return sorted(name[:-len(".pkl")] for name in os.listdir(directory)
                  if name.endswith(".pkl"))


def _populate(directory, workload=BINARY, backend="threaded"):
    """A cold run stored into ``directory``: (memo, result, key)."""
    memo = Memoizer(str(directory))
    cold = run_workload(workload, memo=memo, backend=backend)
    [key] = _keys(directory)
    return memo, cold, key


def _flip(raw: bytes, at: int) -> bytes:
    damaged = bytearray(raw)
    damaged[at] ^= 0xFF
    return bytes(damaged)


class TestWarmColdIdentity:
    @pytest.mark.parametrize("name,backend", [
        ("binary", "threaded"),
        ("binary", "reference"),
        ("mipsi", "threaded"),
    ])
    def test_warm_run_byte_identical(self, tmp_path, name, backend):
        workload = WORKLOADS_BY_NAME[name]
        memo, cold, _ = _populate(tmp_path, workload, backend)
        warm = run_workload(workload, memo=memo, backend=backend)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert memo.stats() == {"directory": str(tmp_path), "hits": 1,
                                "misses": 1, "corrupt_drops": 0,
                                "write_skips": 0}

    def test_cold_run_populates_the_directory(self, tmp_path):
        _populate(tmp_path)
        assert Memoizer(str(tmp_path)).scan() == {
            "entries": 1, "ok": 1, "corrupt": 0, "stale": 0,
            "tmp_files": 0}


class TestEntryIntegrity:
    """Every damaged entry is a counted miss, recomputed byte-identical
    to the clean run and stored afresh."""

    def _recomputed(self, tmp_path, damage):
        memo, cold, key = _populate(tmp_path)
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(damage(path.read_bytes()))
        warm = run_workload(BINARY, memo=memo)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert Memoizer(str(tmp_path)).scan()["ok"] == 1
        return memo.stats()

    def test_flipped_byte_is_a_miss(self, tmp_path):
        stats = self._recomputed(tmp_path,
                                 lambda raw: _flip(raw, len(raw) // 2))
        assert stats["hits"] == 0 and stats["corrupt_drops"] == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        stats = self._recomputed(tmp_path, lambda raw: raw[:len(raw) // 3])
        assert stats["hits"] == 0 and stats["corrupt_drops"] == 1

    def test_empty_entry_file_is_a_miss(self, tmp_path):
        stats = self._recomputed(tmp_path, lambda raw: b"")
        assert stats["hits"] == 0 and stats["corrupt_drops"] == 1

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        """A sound entry of another schema is stale, not corrupt."""
        memo, cold, key = _populate(tmp_path)
        path = tmp_path / f"{key}.pkl"
        payload = pickle.loads(path.read_bytes()[memo_module._HEAD:])
        memo._write(key, dict(payload, schema=memo_module._SCHEMA - 1))
        assert Memoizer(str(tmp_path)).scan()["stale"] == 1
        warm = run_workload(BINARY, memo=memo)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        stats = memo.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert stats["corrupt_drops"] == 0

    def test_entry_under_another_key_is_a_miss(self, tmp_path):
        """An entry surfacing under the wrong name (the torn tail of a
        botched copy) must read as corrupt, not as the run its filename
        claims."""
        memo, _, key = _populate(tmp_path)
        other = "0" * 64
        (tmp_path / f"{other}.pkl").write_bytes(
            (tmp_path / f"{key}.pkl").read_bytes())
        assert memo.get(other) is None
        assert memo.stats()["corrupt_drops"] == 1
        assert Memoizer(str(tmp_path)).scan()["corrupt"] == 1

    def test_seeded_corruption_is_always_a_miss(self, tmp_path):
        """Flip, truncate or overwrite one byte of a dotproduct entry,
        3,000 times: every lookup is a counted miss, never a result and
        never an exception, and the recomputed run matches the clean
        one."""
        memo, cold, key = _populate(tmp_path, DOT)
        clean = run_fingerprints(cold)
        path = tmp_path / f"{key}.pkl"
        raw = path.read_bytes()
        rng = random.Random(1)
        rounds = 3000
        for index in range(rounds):
            at = rng.randrange(len(raw))
            kind = rng.choice(("flip", "truncate", "overwrite"))
            if kind == "flip":
                damaged = _flip(raw, at)
            elif kind == "truncate":
                damaged = raw[:at]
            else:
                damaged = bytearray(raw)
                damaged[at] = (raw[at] + rng.randrange(1, 256)) % 256
                damaged = bytes(damaged)
            path.write_bytes(damaged)
            assert memo.get(key) is None, (index, kind, at)
            if index % 100 == 0:
                recomputed = run_workload(DOT, memo=memo)
                assert run_fingerprints(recomputed) == clean
                assert path.read_bytes() == raw
        stats = memo.stats()
        assert stats["hits"] == 0
        assert stats["corrupt_drops"] == rounds + rounds // 100

    def test_concurrent_writers_race_safely(self, tmp_path):
        """Writers racing on one key: atomic rename means a whole entry
        wins or loses, never interleaves, so a reader sees a complete
        result or a miss."""
        results = [run_workload(BINARY), run_workload(DOT)]
        expected = {run_fingerprints(result) for result in results}
        key = "f" * 64
        writers = [Memoizer(str(tmp_path)) for _ in results]
        reader = Memoizer(str(tmp_path))
        seen: list = []
        errors: list = []
        done = threading.Event()

        def write(memo, result):
            try:
                for _ in range(50):
                    memo.put(key, result)
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        def read():
            while not done.is_set():
                found = reader.get(key)
                if found is not None:
                    seen.append(run_fingerprints(found))

        threads = [threading.Thread(target=write, args=pair)
                   for pair in zip(writers, results)]
        watcher = threading.Thread(target=read)
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done.set()
        watcher.join()
        assert not errors
        assert set(seen) <= expected
        assert reader.stats()["corrupt_drops"] == 0
        # No temp-file litter, and the surviving entry is whole.
        assert os.listdir(tmp_path) == [f"{key}.pkl"]
        assert run_fingerprints(reader.get(key)) in expected

    def test_leftover_tmp_files_ignored(self, tmp_path):
        """A temp file is never served, not even one holding a whole
        entry: its key stays a plain miss, and the real entry beside it
        still hits."""
        memo, cold, key = _populate(tmp_path)
        other = "0" * 64
        (tmp_path / "garbage.tmp").write_bytes(b"partial write")
        (tmp_path / f"{other}.pkl.tmp").write_bytes(
            (tmp_path / f"{key}.pkl").read_bytes())
        assert memo.get(other) is None
        warm = run_workload(BINARY, memo=memo)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert memo.stats() == {"directory": str(tmp_path), "hits": 1,
                                "misses": 2, "corrupt_drops": 0,
                                "write_skips": 0}


class TestCrashConsistency:
    def test_sigkilled_writer_leaves_directory_loadable(self, tmp_path):
        """SIGKILL a real writer mid-write, repeatedly: every entry that
        survives scans clean and serves the run that was written."""
        script = (
            "import sys\n"
            "from repro.evalharness.memo import Memoizer\n"
            "from repro.evalharness.runner import run_workload\n"
            "from repro.workloads import WORKLOADS_BY_NAME\n"
            "result = run_workload(WORKLOADS_BY_NAME['binary'])\n"
            "memo = Memoizer(sys.argv[1])\n"
            "i = 0\n"
            "while True:\n"
            "    memo.put(f'{i % 64:064x}', result)\n"
            "    if i == 0:\n"
            "        print('ready', flush=True)\n"
            "    i += 1\n"
        )
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src_dir)
        for round_no in range(3):
            proc = subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path)], env=env,
                stdout=subprocess.PIPE)
            try:
                assert proc.stdout.readline().strip() == b"ready"
                time.sleep(0.1 + 0.1 * round_no)
            finally:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)
                proc.stdout.close()
            scan = Memoizer(str(tmp_path)).scan()
            assert scan["corrupt"] == 0 and scan["stale"] == 0, scan
            assert scan["ok"] == scan["entries"] > 0, scan
        expected = run_fingerprints(run_workload(BINARY))
        memo = Memoizer(str(tmp_path))
        keys = _keys(tmp_path)
        for key in keys:
            assert run_fingerprints(memo.get(key)) == expected
        assert memo.stats()["hits"] == len(keys)
        assert memo.stats()["corrupt_drops"] == 0

    def test_truncated_tmp_files_load_clean(self, tmp_path):
        """An interrupted writer's half-written temp files are inert: a
        scan only counts them, and a warm run neither trips over them
        nor reads them."""
        memo, cold, _ = _populate(tmp_path)
        (tmp_path / "tmpdeadbeef.tmp").write_bytes(b"\x80\x04half a")
        (tmp_path / "tmpcafe.tmp").write_bytes(b"")
        scan = Memoizer(str(tmp_path)).scan()
        assert scan["tmp_files"] == 2
        assert scan["corrupt"] == 0 and scan["ok"] == scan["entries"] == 1
        warm = run_workload(BINARY, memo=memo)
        assert run_fingerprints(cold) == run_fingerprints(warm)
        assert memo.stats()["hits"] == 1
        assert memo.stats()["corrupt_drops"] == 0

    def test_scan_flags_corruption(self, tmp_path):
        _populate(tmp_path, BINARY)
        _populate(tmp_path / "dot", DOT)
        [key] = _keys(tmp_path / "dot")
        os.replace(tmp_path / "dot" / f"{key}.pkl",
                   tmp_path / f"{key}.pkl")
        victim = tmp_path / f"{key}.pkl"
        raw = victim.read_bytes()
        victim.write_bytes(_flip(raw, len(raw) // 2))
        scan = Memoizer(str(tmp_path)).scan()
        assert scan["entries"] == 2
        assert scan["corrupt"] == 1 and scan["ok"] == 1


class TestWriteFailures:
    def test_failed_write_returns_the_verified_run(self, tmp_path):
        """A memo directory that cannot be created (its parent is a
        regular file) costs the cache, never the run."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        memo = Memoizer(str(blocker / "memo"))
        result = run_workload(DOT, memo=memo)
        assert run_fingerprints(result) == run_fingerprints(
            run_workload(DOT))
        with pytest.raises(SpecializationError):
            run_workload(MIPSI, ALL_ON.without("static_loads"), memo=memo)
        assert memo.stats()["write_skips"] == 2
        assert memo.stats()["misses"] == 2

    def test_failed_replace_leaves_no_tmp_file(self, tmp_path):
        """A rename that fails (a directory squats on the entry's name)
        is skipped and its temp file removed."""
        key = memo_key(DOT, ALL_ON, ALPHA_21164, DEFAULT_OVERHEAD)
        os.mkdir(tmp_path / f"{key}.pkl")
        memo = Memoizer(str(tmp_path))
        run_workload(DOT, memo=memo)
        assert memo.stats()["write_skips"] == 1
        assert memo.stats()["misses"] == 1
        assert os.listdir(tmp_path) == [f"{key}.pkl"]


class TestParallel:
    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_pool_matches_serial(self, tmp_path):
        tasks = [(DOT.name, ALL_ON), (BINARY.name, ALL_ON)]
        serial = run_configs(tasks, jobs=1)
        pooled = run_configs(tasks, jobs=2,
                             memo=Memoizer(str(tmp_path)))
        for a, b in zip(serial, pooled):
            assert _result_fields(a) == _result_fields(b)

    def test_ablation_worker_fallback(self, tmp_path):
        memo = Memoizer(str(tmp_path))
        [(result, starred)] = run_ablations(
            [("mipsi", "static_loads")], jobs=1, memo=memo
        )
        assert starred is True
        assert not result.config.static_loads
        assert not result.config.complete_loop_unrolling

    def test_progress_callback(self):
        seen = []
        run_configs([(DOT.name, ALL_ON)], jobs=1,
                    progress=lambda name, cfg: seen.append(name))
        assert seen == [DOT.name]


class TestBackendResolution:
    def test_default_is_threaded(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "threaded"
        assert resolve_backend("reference") == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert resolve_backend(None) == "reference"
        with pytest.raises(ValueError):
            resolve_backend("jit")
