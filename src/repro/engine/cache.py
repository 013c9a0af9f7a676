"""Content-addressed caching of per-Δ sweep results.

Sweeps recompute aggressively without help: a refinement round revisits
the same stream, a stability analysis re-evaluates the full stream once
per call, cross-method comparisons re-run identical (Δ, stream) pairs,
and interactive sessions repeat whole sweeps verbatim.  Every one of
those evaluations is a pure function of ``(stream content, task
parameters)`` — so the cache keys on exactly that: the stream's
:meth:`~repro.linkstream.stream.LinkStream.fingerprint` plus the task's
own parameter token (see :meth:`DeltaTask.cache_key`).

Two stores are provided.  :class:`MemoryStore` is a bounded LRU map for
within-process reuse; :class:`DiskStore` pickles results under a cache
directory (atomic writes; versioned, checksummed entries, so corrupt or
foreign ones are misses) so warm re-runs survive across processes.
:class:`SweepCache` layers them: reads check memory first and promote
disk hits, writes go to every layer.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.utils.errors import EngineError

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()

#: :class:`DiskStore` entry header: magic, format version (bump it when
#: the entry layout changes), then the payload's BLAKE2b digest.
ENTRY_MAGIC = b"RPRC"
ENTRY_VERSION = 1
_DIGEST_SIZE = 32
_HEADER = ENTRY_MAGIC + ENTRY_VERSION.to_bytes(2, "big")
_HEADER_SIZE = len(_HEADER) + _DIGEST_SIZE


def _digest(payload) -> bytes:
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()


class CacheStore(ABC):
    """One storage layer of a :class:`SweepCache`."""

    @abstractmethod
    def get(self, key: str) -> Any:
        """The stored value, or :data:`MISS`."""

    @abstractmethod
    def put(self, key: str, value: Any, *, weight: float = 1.0) -> None:
        """Store a value.  ``weight`` ranks how expensive the value is
        to recompute (its eviction class); stores without eviction are
        free to ignore it."""


class MemoryStore(CacheStore):
    """Bounded in-process LRU store (the default cache layer).

    Thread-safe: the process-wide default engine is shared by every
    engine-less sweep call, so concurrent callers may hit one store.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise EngineError("max_entries must be a positive integer")
        self._max_entries = max_entries
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Any:
        with self._lock:
            if key not in self._entries:
                return MISS
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key: str, value: Any, *, weight: float = 1.0) -> None:
        # ``weight`` is an eviction-cost hint for capped persistent
        # stores; the in-memory layer is entry-bounded plain LRU.
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskStore(CacheStore):
    """Pickle-per-entry store under a cache directory.

    Entries are named by their (hex) cache key, written atomically via a
    temporary file, and sharded into 256 subdirectories by key prefix so
    huge caches stay filesystem-friendly.  Each entry is a short header —
    the magic :data:`ENTRY_MAGIC`, the format :data:`ENTRY_VERSION` and
    a BLAKE2b checksum of the payload — followed by the pickled value.
    A wrong magic or version, a checksum mismatch, a truncated file or
    an unreadable pickle is a miss, so a damaged (or foreign, or
    older-format) entry only costs a recomputation, whose ``put``
    overwrites it.  The checksum guards against corruption, not against
    a hostile writer: anyone who can write the cache directory can
    write a valid entry, and loading an entry unpickles it, so share a
    cache directory only with writers you trust.

    ``max_bytes`` caps the store's total size: when the cap is exceeded
    after a write, entries are deleted until the store fits again.
    Eviction order is **weight-tiered LRU**: every entry carries an
    eviction weight (``put(..., weight=...)`` — how expensive the value
    is to recompute; the sweep engine passes each measure's
    ``cache_weight``), lighter tiers are swept before heavier ones, and
    within a tier the least-recently-*used* entries go first.  A cheap
    snapshot-metrics point therefore ages out long before an expensive
    trip-sample result of the same vintage.  Recency is tracked through
    each entry file's mtime — refreshed on every hit — so a warm working
    set survives while stale sweeps age out; the weight is encoded in
    the entry's file name (``<key>~w<weight>.pkl`` for non-default
    weights), so the sweep never has to unpickle anything.  The sweep is
    best-effort and safe under concurrent processes: a racing deletion
    only costs a recomputation.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise EngineError("max_bytes must be a positive byte count")
        self._root = Path(directory)
        self._root.mkdir(parents=True, exist_ok=True)
        self._max_bytes = max_bytes
        #: Running size estimate, lazily initialized by a scan on the
        #: first capped write and corrected at every eviction sweep, so
        #: a put costs one stat-free addition in the common case.
        self._approx_bytes: int | None = None
        self._size_lock = threading.Lock()
        #: Writes dropped on an ``OSError`` by this instance (see put).
        self._put_errors = 0

    @property
    def directory(self) -> Path:
        return self._root

    @property
    def max_bytes(self) -> int | None:
        return self._max_bytes

    def _path(self, key: str, weight: float = 1.0) -> Path:
        name = f"{key}.pkl" if weight == 1.0 else f"{key}~w{weight:g}.pkl"
        return self._root / key[:2] / name

    def _variants(self, key: str) -> list[Path]:
        """Every on-disk file holding this key, whatever its weight."""
        parent = self._root / key[:2]
        found = []
        plain = parent / f"{key}.pkl"
        if plain.exists():
            found.append(plain)
        found.extend(parent.glob(f"{key}~w*.pkl"))
        return found

    @staticmethod
    def _entry_weight(path: Path) -> float:
        """Eviction weight encoded in an entry's file name (1.0 default)."""
        stem = path.stem
        __, sep, tag = stem.rpartition("~w")
        if not sep:
            return 1.0
        try:
            return float(tag)
        except ValueError:
            return 1.0

    def _entries(self) -> list[Path]:
        return list(self._root.glob("??/*.pkl"))

    def get(self, key: str) -> Any:
        path = self._path(key)
        if not path.exists():
            weighted = self._variants(key)
            if not weighted:
                return MISS
            path = weighted[0]
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return MISS
        header = len(_HEADER)
        payload = memoryview(data)[_HEADER_SIZE:]
        if (
            len(data) < _HEADER_SIZE
            or data[:header] != _HEADER
            or data[header:_HEADER_SIZE] != _digest(payload)
        ):
            return MISS
        try:
            value = pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            return MISS
        try:
            # Mark the entry recently used, so the LRU sweep spares it.
            os.utime(path)
        except OSError:
            pass
        return value

    def put(self, key: str, value: Any, *, weight: float = 1.0) -> None:
        """Write an entry atomically.

        A failed write (a full disk, a read-only or vanished directory:
        any ``OSError``) leaves no file behind, is counted in
        :meth:`stats` as ``put_errors`` and is otherwise dropped: the
        caller already holds the value, and a cache that cannot store
        it only costs a later recomputation.
        """
        path = self._path(key, weight)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            stale = [p for p in self._variants(key) if p != path]
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(_HEADER)
                handle.write(_digest(payload))
                handle.write(payload)
            written = os.path.getsize(tmp_name)
            # An overwrite replaces an existing entry: account the delta,
            # not the full size, or re-puts would inflate the estimate and
            # trigger spurious eviction sweeps.
            replaced = self._safe_size(path) if self._max_bytes is not None else 0
            os.replace(tmp_name, path)
            tmp_name = None
        except OSError:
            with self._size_lock:
                self._put_errors += 1
            return
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        # One key, one file: a re-put under a different weight replaces
        # the old variant instead of duplicating the entry.
        removed = 0
        for old in stale:
            size = self._safe_size(old) if self._max_bytes is not None else 0
            try:
                old.unlink()
            except OSError:
                continue
            removed += size
        if self._max_bytes is not None:
            self._account_and_evict(written - replaced - removed)

    def _account_and_evict(self, delta_bytes: int) -> None:
        """Fold a write's size delta into the running estimate; sweep
        entries — lightest weight first, LRU within a weight — when the
        store outgrows the cap."""
        with self._size_lock:
            if self._approx_bytes is None:
                self._approx_bytes = sum(
                    self._safe_size(p) for p in self._entries()
                )
            else:
                self._approx_bytes += delta_bytes
            if self._approx_bytes <= self._max_bytes:
                return
            # Exact sweep: stat everything; cheap-to-recompute tiers are
            # drained (oldest first) before any dearer entry goes.
            entries = []
            for path in self._entries():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append(
                    (self._entry_weight(path), stat.st_mtime, stat.st_size, path)
                )
            entries.sort(key=lambda item: (item[0], item[1]))
            total = sum(size for (_, _, size, _) in entries)
            while entries and total > self._max_bytes:
                _, _, size, path = entries.pop(0)
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
            self._approx_bytes = total

    @staticmethod
    def _safe_size(path: Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def stats(self) -> dict[str, int | None]:
        """Entry count and total bytes currently on disk (plus the cap),
        and the writes this instance dropped on an ``OSError``."""
        entries = self._entries()
        return {
            "entries": len(entries),
            "bytes": sum(self._safe_size(p) for p in entries),
            "max_bytes": self._max_bytes,
            "put_errors": self._put_errors,
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        with self._size_lock:
            self._approx_bytes = 0
        return removed


class SweepCache:
    """Layered result cache with hit/miss accounting.

    Parameters
    ----------
    stores:
        Storage layers, fastest first.  Reads probe them in order and
        copy hits into the earlier (faster) layers; writes go to all.
    """

    def __init__(self, stores: list[CacheStore] | None = None) -> None:
        if stores is None:
            stores = [MemoryStore()]
        if not stores:
            raise EngineError("a SweepCache needs at least one store")
        self._stores = list(stores)
        self._stats_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @classmethod
    def build(
        cls,
        *,
        memory: bool = True,
        max_entries: int = 1024,
        disk_dir: str | os.PathLike | None = None,
        disk_max_bytes: int | None = None,
    ) -> "SweepCache":
        """The common layerings in one call: memory, disk, or both.

        ``disk_max_bytes`` caps the disk layer (LRU eviction); ignored
        without ``disk_dir``.
        """
        stores: list[CacheStore] = []
        if memory:
            stores.append(MemoryStore(max_entries))
        if disk_dir is not None:
            stores.append(DiskStore(disk_dir, max_bytes=disk_max_bytes))
        return cls(stores)

    @property
    def stores(self) -> list[CacheStore]:
        return list(self._stores)

    def get(self, key: str) -> Any:
        for depth, store in enumerate(self._stores):
            value = store.get(key)
            if value is not MISS:
                with self._stats_lock:
                    self.hits += 1
                for earlier in self._stores[:depth]:
                    earlier.put(key, value)
                return value
        with self._stats_lock:
            self.misses += 1
        return MISS

    def put(self, key: str, value: Any, *, weight: float = 1.0) -> None:
        for store in self._stores:
            store.put(key, value, weight=weight)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:
        layers = ", ".join(type(s).__name__ for s in self._stores)
        return f"SweepCache([{layers}], hits={self.hits}, misses={self.misses})"
