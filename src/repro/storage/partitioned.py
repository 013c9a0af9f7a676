"""Time-partitioned on-disk storage (the out-of-core backend).

Layout (redvox-style: structured filenames → index entries →
glob-recoverable):

.. code-block:: text

    <dataset-dir>/
      manifest.json                      # index + stream metadata
      bucket-00000/
        part-000000_<t0>_<t1>.npz        # sorted u/v/t columns
        part-000001_<t0>_<t1>.npz
      bucket-00001/
        ...

Events are cut into partitions along the (time-major) canonical sort
order, never splitting a run of equal timestamps, so each partition is
a contiguous row range ``[lo, hi)`` of the global columns and covers a
disjoint time span.  ``manifest.json`` is built once at ingest: per
partition it records the time span, event count, node range, and a
content hash; the hashes are chained into a ``manifest_digest`` and the
stream-level fingerprint (computed from the full columns at ingest,
bit-identical to the in-memory fingerprint) keys every engine cache
exactly as if the stream had been built in memory.

Loads are lazy: opening a dataset reads only the manifest, and
``slice_time`` prunes the partition list *before* any event bytes are
read, so a task whose windows span k partitions opens exactly those k
files (``STORAGE_COUNTS`` proves it).  Partition files store raw
little-endian columns (``np.savez``, uncompressed — they gzip well at
rest and load with zero decode work).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.storage.base import STORAGE_COUNTS, StreamStorage
from repro.storage.columnar import (
    ColumnarStorage,
    freeze_columns,
    time_slice_bounds,
)
from repro.utils.errors import StorageError

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-catalog-v1"

#: Target events per partition file (``partition_events=`` overrides).
DEFAULT_PARTITION_EVENTS = 262_144

#: Partitions per directory bucket (keeps directories listing-friendly).
BUCKET_SIZE = 64

#: At most this many prefix fingerprints are recorded on the chain.
CHAIN_MAX = 16


# -- structured filenames -------------------------------------------------


def _encode_time(value: float) -> str:
    """Filesystem-safe time field: ``-`` becomes ``m`` (minus)."""
    return str(value).replace("-", "m")


def _decode_time(text: str, kind: str) -> float:
    raw = text.replace("m", "-")
    return int(raw) if kind == "i" else float(raw)


def bucket_dirname(index: int) -> str:
    return f"bucket-{index // BUCKET_SIZE:05d}"


def partition_filename(index: int, t_min: float, t_max: float) -> str:
    return f"part-{index:06d}_{_encode_time(t_min)}_{_encode_time(t_max)}.npz"


def parse_partition_filename(name: str, kind: str) -> tuple[int, float, float]:
    """Recover ``(index, t_min, t_max)`` from a partition filename."""
    stem = name
    if not (stem.startswith("part-") and stem.endswith(".npz")):
        raise StorageError(f"not a partition filename: {name!r}")
    fields = stem[len("part-") : -len(".npz")].split("_")
    if len(fields) != 3:
        raise StorageError(f"malformed partition filename: {name!r}")
    try:
        return (
            int(fields[0]),
            _decode_time(fields[1], kind),
            _decode_time(fields[2], kind),
        )
    except ValueError:
        raise StorageError(f"malformed partition filename: {name!r}") from None


# -- partition planning and hashing ---------------------------------------


def plan_partition_cuts(
    t: np.ndarray, target_events: int
) -> list[tuple[int, int]]:
    """Cut the (ascending) timestamp column into ``[lo, hi)`` ranges.

    Each range holds about ``target_events`` rows; a cut is pushed past
    any run of equal timestamps so no timestamp is split across files —
    which keeps per-partition time spans disjoint and makes partition
    pruning by span exact.
    """
    if target_events <= 0:
        raise StorageError(f"target_events must be positive, got {target_events}")
    n = int(t.size)
    cuts: list[tuple[int, int]] = []
    lo = 0
    while lo < n:
        hi = min(lo + target_events, n)
        while hi < n and t[hi] == t[hi - 1]:
            hi += 1
        cuts.append((lo, hi))
        lo = hi
    return cuts


def chain_boundaries(
    cuts: list[tuple[int, int]], limit: int = CHAIN_MAX
) -> list[int]:
    """Event counts (partition cut points, final cut excluded) at which
    prefix fingerprints are recorded, at most ``limit`` of them, evenly
    spaced across the partition sequence."""
    interior = [hi for _, hi in cuts[:-1]]
    if len(interior) <= limit:
        return interior
    step = len(interior) / limit
    picked = sorted({interior[int(i * step)] for i in range(limit)})
    return picked


def partition_content_hash(
    u: np.ndarray, v: np.ndarray, t: np.ndarray
) -> str:
    """Content hash of one partition's columns.

    Hashes the decoded array bytes (not the ``.npz`` container, whose
    zip metadata embeds wall-clock timestamps) so the hash is a pure
    function of the events.
    """
    digest = hashlib.sha256()
    digest.update(f"p1|{t.dtype.str}|{t.size}|".encode())
    digest.update(u.tobytes())
    digest.update(v.tobytes())
    digest.update(t.tobytes())
    return digest.hexdigest()


def chain_manifest_digest(partition_hashes: list[str]) -> str:
    """Fold the per-partition content hashes into one chained digest."""
    digest = hashlib.sha256()
    digest.update(b"chain1")
    for partition_hash in partition_hashes:
        digest.update(partition_hash.encode())
    return digest.hexdigest()


class PartitionedStorage(StreamStorage):
    """Lazy storage over a partitioned dataset directory.

    Instances are cheap handles: the manifest dict plus the subset of
    partition index entries still in play after ``slice_time`` pruning,
    and optional active time bounds.  Event bytes are read only when
    :meth:`columns` (or a streaming :meth:`to_events`) needs them, and
    the concatenated result is cached per instance.  Pickling ships the
    handle, never the cached columns — process-pool workers reopen the
    partition files lazily on their side of the fence.
    """

    __slots__ = (
        "_root",
        "_manifest",
        "_entries",
        "_start",
        "_end",
        "_half_open",
        "_verify",
        "_cached",
        "_num_distinct",
    )

    def __init__(
        self,
        root: str,
        manifest: dict,
        *,
        entries: tuple[dict, ...] | None = None,
        start: float | None = None,
        end: float | None = None,
        half_open: bool = True,
        verify: bool = False,
    ) -> None:
        self._root = str(root)
        self._manifest = manifest
        self._entries = (
            tuple(manifest["partitions"]) if entries is None else entries
        )
        self._start = start
        self._end = end
        self._half_open = half_open
        self._verify = verify
        self._cached: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._num_distinct: int | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, *, verify: bool = False) -> "PartitionedStorage":
        """Open a dataset directory by reading its manifest."""
        manifest_path = os.path.join(str(path), MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except OSError as error:
            raise StorageError(
                f"cannot read catalog manifest {manifest_path}: {error}"
            ) from error
        except ValueError as error:
            raise StorageError(
                f"corrupt catalog manifest {manifest_path}: {error}"
            ) from error
        if manifest.get("format") != MANIFEST_FORMAT:
            raise StorageError(
                f"unsupported manifest format {manifest.get('format')!r} "
                f"in {manifest_path} (expected {MANIFEST_FORMAT!r})"
            )
        return cls(str(path), manifest, verify=verify)

    @classmethod
    def from_events(
        cls, u: np.ndarray, v: np.ndarray, t: np.ndarray, **kwargs: object
    ) -> "PartitionedStorage":
        """Write canonical sorted columns as a partitioned dataset.

        Keyword arguments: ``path`` (required dataset directory),
        ``directed``, ``num_nodes``, ``labels``, ``fingerprint``
        (stream-level content fingerprint computed by the caller from
        the same columns), ``chain`` (``(count, fingerprint)`` prefix
        boundaries), ``partition_events``, ``name``.
        """
        path = kwargs.pop("path", None)
        if path is None:
            raise StorageError("PartitionedStorage.from_events needs path=")
        directed = bool(kwargs.pop("directed", True))
        num_nodes = kwargs.pop("num_nodes", None)
        labels = kwargs.pop("labels", None)
        fingerprint = kwargs.pop("fingerprint", None)
        chain = tuple(kwargs.pop("chain", ()))
        partition_events = kwargs.pop("partition_events", None)
        name = kwargs.pop("name", None)
        if kwargs:
            raise StorageError(
                f"unknown PartitionedStorage options: {sorted(kwargs)}"
            )
        if partition_events is None:
            partition_events = DEFAULT_PARTITION_EVENTS

        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        t = np.ascontiguousarray(t)
        if num_nodes is None:
            num_nodes = int(max(u.max(), v.max())) + 1 if u.size else 0

        root = str(path)
        os.makedirs(root, exist_ok=True)
        cuts = plan_partition_cuts(t, int(partition_events))
        entries: list[dict] = []
        for index, (lo, hi) in enumerate(cuts):
            part_u, part_v, part_t = u[lo:hi], v[lo:hi], t[lo:hi]
            relative = os.path.join(
                bucket_dirname(index),
                partition_filename(index, part_t[0].item(), part_t[-1].item()),
            )
            absolute = os.path.join(root, relative)
            os.makedirs(os.path.dirname(absolute), exist_ok=True)
            np.savez(absolute, u=part_u, v=part_v, t=part_t)
            entries.append(
                {
                    "index": index,
                    "file": relative.replace(os.sep, "/"),
                    "events": int(hi - lo),
                    "num_timestamps": int(np.unique(part_t).size),
                    "t_min": part_t[0].item(),
                    "t_max": part_t[-1].item(),
                    "node_min": int(min(part_u.min(), part_v.min())),
                    "node_max": int(max(part_u.max(), part_v.max())),
                    "sha256": partition_content_hash(part_u, part_v, part_t),
                }
            )
        manifest = {
            "format": MANIFEST_FORMAT,
            "name": name,
            "directed": directed,
            "num_nodes": int(num_nodes),
            # Labels must be JSON-serializable (str/int/float); identity
            # labels are stored as null.
            "labels": None if labels is None else list(labels),
            "time_dtype": t.dtype.str,
            "num_events": int(t.size),
            "num_timestamps": int(np.unique(t).size),
            "t_min": t[0].item() if t.size else None,
            "t_max": t[-1].item() if t.size else None,
            "fingerprint": fingerprint,
            "chain": [[int(count), fp] for count, fp in chain],
            "partition_events": int(partition_events),
            "manifest_digest": chain_manifest_digest(
                [entry["sha256"] for entry in entries]
            ),
            "partitions": entries,
        }
        write_manifest(root, manifest)
        return cls(root, manifest)

    # -- manifest access -------------------------------------------------

    @property
    def root(self) -> str:
        """Dataset directory this storage reads from."""
        return self._root

    @property
    def manifest(self) -> dict:
        """The parsed ``manifest.json`` (shared, do not mutate)."""
        return self._manifest

    @property
    def is_sliced(self) -> bool:
        """Whether active time bounds restrict this handle."""
        return self._start is not None or self._end is not None

    @property
    def num_partitions(self) -> int:
        """Partitions still in play (after any pruning)."""
        return len(self._entries)

    # -- metadata --------------------------------------------------------

    @property
    def num_events(self) -> int:
        if not self.is_sliced:
            return int(self._manifest["num_events"])
        return int(self.columns()[2].size)

    @property
    def time_dtype(self) -> np.dtype:
        return np.dtype(self._manifest["time_dtype"])

    def time_range(self) -> tuple[float, float] | None:
        if not self.is_sliced:
            if self._manifest["t_min"] is None:
                return None
            return self._manifest["t_min"], self._manifest["t_max"]
        t = self.columns()[2]
        if not t.size:
            return None
        return t[0].item(), t[-1].item()

    def num_timestamps(self) -> int:
        if not self.is_sliced:
            return int(self._manifest["num_timestamps"])
        if self._num_distinct is None:
            self._num_distinct = int(np.unique(self.columns()[2]).size)
        return self._num_distinct

    def fingerprint_chain(self) -> tuple[tuple[int, str], ...]:
        if self.is_sliced:
            return ()
        return tuple(
            (int(count), str(fp)) for count, fp in self._manifest["chain"]
        )

    # -- partition IO ----------------------------------------------------

    def _load_partition(
        self, entry: dict
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        path = os.path.join(self._root, entry["file"])
        if not os.path.exists(path):
            raise StorageError(f"missing partition file: {path}")
        try:
            with np.load(path) as archive:
                u = np.ascontiguousarray(archive["u"], dtype=np.int64)
                v = np.ascontiguousarray(archive["v"], dtype=np.int64)
                t = np.ascontiguousarray(archive["t"])
        except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile) as error:
            raise StorageError(
                f"corrupt partition file: {path} ({error})"
            ) from error
        if not (u.shape == v.shape == t.shape) or t.size != entry["events"]:
            raise StorageError(
                f"corrupt partition file: {path} "
                f"(expected {entry['events']} events, got {t.size})"
            )
        if self._verify and partition_content_hash(u, v, t) != entry["sha256"]:
            raise StorageError(
                f"corrupt partition file: {path} (content hash mismatch)"
            )
        STORAGE_COUNTS["partitions_opened"] += 1
        return freeze_columns(u, v, t)

    def _trim(
        self, u: np.ndarray, v: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply the active time bounds to one partition's columns."""
        if not self.is_sliced:
            return u, v, t
        start = -np.inf if self._start is None else self._start
        end = np.inf if self._end is None else self._end
        lo, hi = time_slice_bounds(t, start, end, half_open=self._half_open)
        return u[lo:hi], v[lo:hi], t[lo:hi]

    # -- data access -----------------------------------------------------

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._cached is None:
            STORAGE_COUNTS["materializations"] += 1
            parts = [
                self._trim(*self._load_partition(entry))
                for entry in self._entries
            ]
            parts = [p for p in parts if p[2].size]
            if parts:
                u = np.concatenate([p[0] for p in parts])
                v = np.concatenate([p[1] for p in parts])
                t = np.concatenate([p[2] for p in parts])
            else:
                u = np.empty(0, dtype=np.int64)
                v = np.empty(0, dtype=np.int64)
                t = np.empty(0, dtype=self.time_dtype)
            self._cached = freeze_columns(u, v, t)
        return self._cached

    def to_events(self) -> Iterator[tuple[int, int, float]]:
        """Stream events partition by partition (bounded memory)."""
        if self._cached is not None:
            yield from super().to_events()
            return
        for entry in self._entries:
            u, v, t = self._trim(*self._load_partition(entry))
            for i in range(t.size):
                yield int(u[i]), int(v[i]), t[i].item()

    # -- derived storages ------------------------------------------------

    def _overlaps(self, entry: dict, start: float, end: float, half_open: bool) -> bool:
        if entry["t_max"] < start:
            return False
        if half_open:
            return entry["t_min"] < end
        return entry["t_min"] <= end

    def slice_time(
        self, start: float, end: float, *, half_open: bool = True
    ) -> StreamStorage:
        STORAGE_COUNTS["slice_time"] += 1
        if self.is_sliced:
            # Re-slicing a slice: fall back to the materialized columns
            # (the first slice already pruned the partition list).
            u, v, t = self.columns()
            lo, hi = time_slice_bounds(t, start, end, half_open=half_open)
            return ColumnarStorage(u[lo:hi], v[lo:hi], t[lo:hi])
        kept = tuple(
            entry
            for entry in self._entries
            if self._overlaps(entry, start, end, half_open)
        )
        STORAGE_COUNTS["partitions_pruned"] += len(self._entries) - len(kept)
        return PartitionedStorage(
            self._root,
            self._manifest,
            entries=kept,
            start=start,
            end=end,
            half_open=half_open,
            verify=self._verify,
        )

    # -- pickling (ship the handle, not the bytes) -----------------------

    def __getstate__(self) -> dict:
        return {
            "root": self._root,
            "manifest": self._manifest,
            "entries": self._entries,
            "start": self._start,
            "end": self._end,
            "half_open": self._half_open,
            "verify": self._verify,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(  # type: ignore[misc]
            state["root"],
            state["manifest"],
            entries=state["entries"],
            start=state["start"],
            end=state["end"],
            half_open=state["half_open"],
            verify=state["verify"],
        )


def write_manifest(root: str, manifest: dict) -> str:
    """Write ``manifest.json`` under ``root`` (sorted keys, stable bytes)."""
    path = os.path.join(root, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
