"""Tests for the disk store's size cap + LRU sweep and the ``repro
cache`` CLI subcommand."""

from __future__ import annotations

import errno
import os
import pickle
import tempfile
import time

import pytest

from repro.cli import main
from repro.engine import MISS, DiskStore, SweepCache, SweepEngine
from repro.engine.cache import ENTRY_MAGIC
from repro.generators import time_uniform_stream
from repro.core import analyze_stream, occupancy_method
from repro.utils.errors import EngineError

#: An entry's header: magic, 2-byte format version, BLAKE2b-256 digest.
ENTRY_HEADER_SIZE = len(ENTRY_MAGIC) + 2 + 32


def key(i: int) -> str:
    return f"{i:02x}" * 32


def put_sized(store: DiskStore, k: str, size: int) -> None:
    store.put(k, b"x" * size)


class TestDiskEviction:
    def test_cap_validated(self, tmp_path):
        with pytest.raises(EngineError):
            DiskStore(tmp_path, max_bytes=0)

    def test_uncapped_store_never_evicts(self, tmp_path):
        store = DiskStore(tmp_path)
        for i in range(20):
            put_sized(store, key(i), 512)
        assert store.stats()["entries"] == 20
        assert store.stats()["max_bytes"] is None

    def test_oldest_entries_swept_once_over_cap(self, tmp_path):
        store = DiskStore(tmp_path, max_bytes=4096)
        for i in range(8):
            put_sized(store, key(i), 1024)
            time.sleep(0.01)  # distinct mtimes on coarse filesystems
        stats = store.stats()
        assert stats["bytes"] <= 4096
        # The newest entries survive; the oldest were swept.
        assert store.get(key(7)) is not MISS
        assert store.get(key(0)) is MISS

    def test_get_refreshes_recency(self, tmp_path):
        store = DiskStore(tmp_path, max_bytes=3 * 1024 + 512)
        for i in range(3):
            put_sized(store, key(i), 1024)
            time.sleep(0.01)
        assert store.get(key(0)) is not MISS  # touch: 0 is now most recent
        time.sleep(0.01)
        put_sized(store, key(3), 1024)  # over cap -> sweep LRU (which is 1)
        assert store.get(key(0)) is not MISS
        assert store.get(key(1)) is MISS

    def test_clear_empties_the_store(self, tmp_path):
        store = DiskStore(tmp_path, max_bytes=1 << 20)
        for i in range(5):
            put_sized(store, key(i), 128)
        assert store.clear() == 5
        assert store.stats() == {
            "entries": 0, "bytes": 0, "max_bytes": 1 << 20, "put_errors": 0
        }
        assert store.get(key(0)) is MISS

    def test_capped_engine_sweep_stays_correct(self, tmp_path):
        # A cap small enough to evict mid-sweep must never corrupt
        # results: evictions only cost recomputation.
        stream = time_uniform_stream(10, 5, 4000.0, seed=3)
        capped = SweepEngine(
            cache=SweepCache.build(
                memory=False, disk_dir=tmp_path, disk_max_bytes=8 * 1024
            )
        )
        reference = occupancy_method(
            stream, num_deltas=8, engine=SweepEngine(cache=None)
        )
        result = occupancy_method(stream, num_deltas=8, engine=capped)
        rerun = occupancy_method(stream, num_deltas=8, engine=capped)
        for r in (result, rerun):
            assert r.gamma == reference.gamma
            assert [p.scores for p in r.points] == [
                p.scores for p in reference.points
            ]
        assert DiskStore(tmp_path).stats()["bytes"] <= 8 * 1024

    def test_env_var_caps_default_engine(self, tmp_path, monkeypatch):
        from repro.engine import engine_from_env

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "123456")
        engine = engine_from_env()
        disk = engine.cache.stores[-1]
        assert isinstance(disk, DiskStore)
        assert disk.max_bytes == 123456
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
        with pytest.raises(EngineError):
            engine_from_env()


class TestCacheCli:
    def test_stats_and_clear(self, tmp_path, capsys):
        from repro.engine import incremental_stats
        from repro.engine.incremental import IncrementalScanSession
        from repro.generators import time_uniform_stream
        from repro.temporal import CountingCollector

        store = DiskStore(tmp_path)
        for i in range(3):
            put_sized(store, key(i), 64)
        # One recorded scan in this process's series store.
        IncrementalScanSession(
            time_uniform_stream(8, 2, 400.0, seed=1), delta=10.0
        ).scan(CountingCollector())
        inc = incremental_stats()
        assert inc["checkpoint_bytes"] > 0
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 3" in out
        assert "size cap: none" in out
        assert (
            f"incremental checkpoints: {inc['checkpoints']} states, "
            f"{inc['checkpoint_bytes']} bytes" in out
        )
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 3" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out
        assert "incremental checkpoints: 0 states, 0 bytes" in out

    def test_env_var_default_dir_and_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        put_sized(DiskStore(tmp_path), key(1), 64)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "4096 bytes" in out

    def test_missing_dir_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "cache directory" in capsys.readouterr().err

    def test_nonexistent_dir_is_not_created(self, tmp_path, capsys):
        # Regression: a typo'd --cache-dir used to be mkdir'd and
        # reported as a convincing empty store.
        missing = tmp_path / "typo"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()

    def test_malformed_cap_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        # Regression: a bad REPRO_CACHE_MAX_BYTES used to escape as a raw
        # ValueError traceback instead of the clean error-exit contract.
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 2
        assert "REPRO_CACHE_MAX_BYTES" in capsys.readouterr().err

    def test_analyze_honors_cap_env_var(self, tmp_path, capsys, monkeypatch):
        # Regression: `repro analyze` built its disk store without the
        # documented cap, so the main cache-writing path never evicted.
        from repro.linkstream import write_tsv

        events = tmp_path / "events.tsv"
        write_tsv(time_uniform_stream(10, 6, 5000.0, seed=0), events)
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "6000")
        args = [
            "analyze", str(events), "--num-deltas", "10",
            "--cache-dir", str(cache_dir),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert DiskStore(cache_dir).stats()["bytes"] <= 6000
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "junk")
        assert main(args) == 2
        assert "REPRO_CACHE_MAX_BYTES" in capsys.readouterr().err


class TestWeightedEviction:
    """Per-measure eviction weights: cheap-to-recompute entries go first."""

    def test_weighted_entry_roundtrips(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(key(1), {"x": 1}, weight=4.0)
        assert store.get(key(1)) == {"x": 1}
        # The weight is encoded in the entry's file name (no unpickling
        # needed at sweep time).
        assert list(tmp_path.glob("??/*~w4*.pkl"))

    def test_reput_under_new_weight_replaces_the_variant(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(key(1), "old", weight=4.0)
        store.put(key(1), "new")  # default weight 1.0
        assert store.get(key(1)) == "new"
        assert store.stats()["entries"] == 1
        assert not list(tmp_path.glob("??/*~w*.pkl"))

    def test_lighter_tiers_evict_before_heavier_even_when_newer(self, tmp_path):
        store = DiskStore(tmp_path, max_bytes=4 * 1024 + 512)
        store.put(key(0), b"x" * 1024, weight=4.0)  # heavy, oldest
        time.sleep(0.01)
        for i in range(1, 5):
            store.put(key(i), b"x" * 1024, weight=0.25)
            time.sleep(0.01)
        # Over cap: the light tier is drained (oldest light first); the
        # heavy entry survives despite being the least recently used.
        assert store.get(key(0)) is not MISS
        assert store.get(key(1)) is MISS

    def test_lru_still_applies_within_a_weight_tier(self, tmp_path):
        store = DiskStore(tmp_path, max_bytes=3 * 1024 + 512)
        for i in range(3):
            store.put(key(i), b"x" * 1024, weight=2.0)
            time.sleep(0.01)
        assert store.get(key(0)) is not MISS  # refresh: 0 most recent
        time.sleep(0.01)
        store.put(key(3), b"x" * 1024, weight=2.0)  # over cap
        assert store.get(key(0)) is not MISS
        assert store.get(key(1)) is MISS

    def test_engine_writes_per_measure_weights(self, tmp_path):
        # metrics (0.25) and trips (4.0) results land in the store under
        # their measures' eviction classes.
        stream = time_uniform_stream(10, 5, 4000.0, seed=3)
        engine = SweepEngine(
            cache=SweepCache.build(memory=False, disk_dir=tmp_path)
        )
        occupancy_method(
            stream,
            deltas=[100.0, 1000.0],
            measures=("metrics", "trips:max_samples=16"),
            engine=engine,
        )
        weighted = [p.name for p in tmp_path.glob("??/*~w*.pkl")]
        assert any("~w0.25" in name for name in weighted)  # metrics
        assert any("~w4" in name for name in weighted)  # trips


class TestEntryIntegrity:
    """Damaged, foreign and tampered entries are misses, and the sweep
    that misses recomputes the point and overwrites the entry."""

    @staticmethod
    def _sweep(engine):
        stream = time_uniform_stream(8, 4, 3000.0, seed=5)
        return occupancy_method(stream, num_deltas=4, engine=engine)

    def _damage_then_recompute(self, tmp_path, damage):
        reference = self._sweep(SweepEngine(cache=None))
        store = DiskStore(tmp_path)
        self._sweep(SweepEngine(cache=SweepCache([store])))
        entries = sorted(tmp_path.glob("??/*.pkl"))
        assert entries
        target = entries[0]
        damage(target)
        cache = SweepCache([DiskStore(tmp_path)])
        result = self._sweep(SweepEngine(cache=cache))
        assert cache.stats()["misses"] == 1
        assert result.gamma == reference.gamma
        assert [p.scores for p in result.points] == [
            p.scores for p in reference.points
        ]
        # The miss recomputed the point and overwrote the entry.
        assert target.read_bytes().startswith(ENTRY_MAGIC)
        warm = SweepCache([DiskStore(tmp_path)])
        self._sweep(SweepEngine(cache=warm))
        assert warm.stats()["misses"] == 0

    def test_truncated_entry_is_a_miss(self, tmp_path):
        def truncate(path):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])

        self._damage_then_recompute(tmp_path, truncate)

    def test_foreign_pickle_is_a_miss(self, tmp_path):
        def replace_with_plain_pickle(path):
            with open(path, "wb") as handle:
                pickle.dump({"not": "a sweep point"}, handle)

        self._damage_then_recompute(tmp_path, replace_with_plain_pickle)

    def test_flipped_payload_byte_is_a_miss(self, tmp_path):
        def flip_a_payload_byte(path):
            # The last payload bit whose flip still unpickles: silent
            # corruption that only the checksum can catch.
            data = path.read_bytes()
            for at in range(len(data) - 1, ENTRY_HEADER_SIZE - 1, -1):
                flipped = bytearray(data)
                flipped[at] ^= 0x01
                try:
                    pickle.loads(bytes(flipped[ENTRY_HEADER_SIZE:]))
                except Exception:
                    continue
                path.write_bytes(bytes(flipped))
                return
            raise AssertionError("no silently loadable bit flip found")

        self._damage_then_recompute(tmp_path, flip_a_payload_byte)

    def test_wrong_version_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(key(1), [1, 2, 3])
        path = next(tmp_path.glob("??/*.pkl"))
        data = bytearray(path.read_bytes())
        data[len(ENTRY_MAGIC) + 1] ^= 0x01  # low byte of the version
        path.write_bytes(bytes(data))
        assert store.get(key(1)) is MISS
        store.put(key(1), [1, 2, 3])
        assert store.get(key(1)) == [1, 2, 3]

    def test_unpicklable_value_leaves_no_temp_file(self, tmp_path):
        store = DiskStore(tmp_path)
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            store.put(key(2), lambda: None)
        assert not list(tmp_path.rglob("*.tmp"))
        assert store.get(key(2)) is MISS


class TestFailedWrites:
    """A cache that cannot store a value (disk full, unwritable directory)
    drops the write: the finished analysis still returns its result."""

    @staticmethod
    def _no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    def test_disk_full_analysis_succeeds_bit_identical(self, tmp_path, monkeypatch):
        stream = time_uniform_stream(8, 4, 3000.0, seed=5)
        reference = analyze_stream(
            stream, validate=False, num_deltas=6, engine=SweepEngine(cache=None)
        )
        cache = SweepCache.build(disk_dir=tmp_path)
        disk = cache.stores[-1]
        monkeypatch.setattr(tempfile, "mkstemp", self._no_space)
        report = analyze_stream(
            stream, validate=False, num_deltas=6, engine=SweepEngine(cache=cache)
        )
        assert report.gamma == reference.gamma
        assert [p.scores for p in report.saturation.points] == [
            p.scores for p in reference.saturation.points
        ]
        assert report.to_text() == reference.to_text()
        stats = disk.stats()
        assert stats["put_errors"] == len(report.saturation.points)
        assert stats["entries"] == 0

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        store = DiskStore(tmp_path, max_bytes=1 << 20)
        monkeypatch.setattr(os, "replace", self._no_space)
        store.put(key(1), b"x" * 64)
        assert store.get(key(1)) is MISS
        assert store.stats()["put_errors"] == 1
        assert not list(tmp_path.glob("??/*.tmp"))
        monkeypatch.undo()
        # The byte estimate skipped the failed write: a later put that
        # fits is not evicted.
        store.put(key(2), b"x" * 64)
        assert store.get(key(2)) == b"x" * 64
        assert store.stats() == {
            "entries": 1,
            "bytes": DiskStore(tmp_path).stats()["bytes"],
            "max_bytes": 1 << 20,
            "put_errors": 1,
        }

    def test_interrupt_still_propagates(self, tmp_path, monkeypatch):
        store = DiskStore(tmp_path)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            store.put(key(1), b"x")
        assert not list(tmp_path.glob("??/*.tmp"))
        assert store.stats()["put_errors"] == 0
