"""The on-disk dataset catalog (``repro datasets ingest|index|list|info``).

A *catalog* is a directory of named datasets, each stored in the
time-partitioned layout of :class:`repro.storage.PartitionedStorage`:

.. code-block:: text

    <catalog-root>/
      irvine/
        manifest.json
        bucket-00000/part-000000_<t0>_<t1>.npz
        ...
      enron-2001/
        ...

The root comes from ``--root`` on the CLI or the ``REPRO_DATASETS_DIR``
environment variable.  Ingesting computes the stream's content
fingerprint from the full sorted columns — the *same* recipe (and
therefore the same hex digest) as an in-memory build — and records it
in the manifest, so opening a dataset by name yields a lazy
:class:`~repro.linkstream.LinkStream` whose engine cache keys, sweep
results, and service responses are bit-identical to loading the raw
file into memory.  Prefix fingerprints at partition cuts are recorded
as the stream's :attr:`~repro.linkstream.LinkStream.fingerprint_chain`
so incremental warm-append reuse survives the round trip through disk.

``reindex`` rebuilds a manifest from the partition files themselves
(redvox-style: the structured filenames carry index and time span, the
array bytes carry everything else) — the recovery path after manual
file surgery or a lost manifest.
"""

from __future__ import annotations

import hashlib
import os
import re
import zipfile
from collections.abc import Hashable, Iterable
from pathlib import Path

import numpy as np

from repro.linkstream.io import read_event_arrays
from repro.linkstream.stream import LinkStream
from repro.storage.partitioned import (
    DEFAULT_PARTITION_EVENTS,
    MANIFEST_NAME,
    PartitionedStorage,
    chain_boundaries,
    chain_manifest_digest,
    parse_partition_filename,
    partition_content_hash,
    plan_partition_cuts,
    write_manifest,
)
from repro.utils.errors import StorageError

CATALOG_ROOT_ENV_VAR = "REPRO_DATASETS_DIR"

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def catalog_root(root: str | Path | None = None) -> str:
    """Resolve the catalog directory (argument wins over environment)."""
    if root is not None:
        return str(root)
    env = os.environ.get(CATALOG_ROOT_ENV_VAR)
    if env:
        return env
    raise StorageError(
        "no catalog root configured: pass --root / root= or set "
        f"{CATALOG_ROOT_ENV_VAR}"
    )


def dataset_dir(name: str, root: str | Path | None = None) -> str:
    """Directory of dataset ``name`` inside the catalog."""
    if not _NAME_PATTERN.match(name):
        raise StorageError(
            f"invalid dataset name {name!r} (letters, digits, '.', '_', '-')"
        )
    return os.path.join(catalog_root(root), name)


def ingest_stream(
    stream: LinkStream,
    name: str,
    *,
    root: str | Path | None = None,
    partition_events: int | None = None,
    overwrite: bool = False,
) -> dict:
    """Write ``stream`` into the catalog as dataset ``name``.

    The stream's canonical columns are cut into partitions (about
    ``partition_events`` each, by default :data:`~repro.storage.
    partitioned.DEFAULT_PARTITION_EVENTS`; runs of equal timestamps are
    never split), each partition is
    content-hashed, and the manifest records the stream fingerprint,
    the chained partition digest, and prefix fingerprints at up to
    :data:`~repro.storage.partitioned.CHAIN_MAX` partition cuts.
    Returns the manifest dict.
    """
    target = dataset_dir(name, root)
    if os.path.exists(os.path.join(target, MANIFEST_NAME)) and not overwrite:
        raise StorageError(
            f"dataset {name!r} already exists at {target} "
            "(pass overwrite/--force to replace it)"
        )
    if partition_events is None:
        partition_events = DEFAULT_PARTITION_EVENTS
    cuts = plan_partition_cuts(stream.timestamps, partition_events)
    chain = tuple(
        (count, stream.prefix_fingerprint(count))
        for count in chain_boundaries(cuts)
    )
    labels: list[Hashable] | None = stream.labels
    if labels == list(range(stream.num_nodes)):
        # Identity labels carry no information; store null so the
        # reopened stream is `==` to the ingested one.
        labels = None
    storage = PartitionedStorage.from_events(
        stream.sources,
        stream.targets,
        stream.timestamps,
        path=target,
        directed=stream.directed,
        num_nodes=stream.num_nodes,
        labels=labels,
        fingerprint=stream.fingerprint(),
        chain=chain,
        partition_events=partition_events,
        name=name,
    )
    return storage.manifest


def ingest_file(
    path: str | Path,
    name: str,
    *,
    root: str | Path | None = None,
    fmt: str = "tsv",
    columns: str = "u v t",
    directed: bool = True,
    partition_events: int | None = None,
    chunk_events: int | None = None,
    overwrite: bool = False,
) -> dict:
    """Ingest a raw event file (tsv/csv/jsonl, ``.gz`` ok) by name.

    The file is parsed in bounded chunks
    (:func:`repro.linkstream.io.read_event_arrays`, ``chunk_events``
    each) so peak parse memory is one chunk of
    Python objects plus the packed columns.  Returns the manifest dict.
    """
    u, v, t, labels = read_event_arrays(
        path, fmt=fmt, columns=columns, chunk_events=chunk_events
    )
    stream = LinkStream(
        u, v, t, directed=directed, num_nodes=len(labels), labels=labels
    )
    return ingest_stream(
        stream,
        name,
        root=root,
        partition_events=partition_events,
        overwrite=overwrite,
    )


def open_dataset(
    name: str, *, root: str | Path | None = None, verify: bool = False
) -> LinkStream:
    """Open catalog dataset ``name`` as a lazy partition-backed stream.

    Only the manifest is read: the returned stream answers
    ``num_events``/``t_min``/``t_max``/``fingerprint()`` from metadata,
    and ``slice_time`` prunes to overlapping partitions before any
    event bytes load.  With ``verify=True`` every partition's content
    hash is checked against the manifest as it is read (corruption
    raises :class:`~repro.utils.errors.StorageError` naming the file).
    """
    storage = PartitionedStorage.open(dataset_dir(name, root), verify=verify)
    manifest = storage.manifest
    labels: Iterable[Hashable] | None = manifest["labels"]
    return LinkStream.from_storage(
        storage,
        directed=manifest["directed"],
        num_nodes=manifest["num_nodes"],
        labels=labels,
        fingerprint=manifest["fingerprint"],
    )


def list_datasets(root: str | Path | None = None) -> list[dict]:
    """Summaries of every dataset in the catalog, sorted by name."""
    base = catalog_root(root)
    if not os.path.isdir(base):
        return []
    summaries = []
    for entry in sorted(os.listdir(base)):
        if os.path.exists(os.path.join(base, entry, MANIFEST_NAME)):
            summaries.append(dataset_info(entry, root=root))
    return summaries


def dataset_info(name: str, *, root: str | Path | None = None) -> dict:
    """Manifest-level summary of one dataset (no event bytes read)."""
    storage = PartitionedStorage.open(dataset_dir(name, root))
    manifest = storage.manifest
    return {
        "name": name,
        "events": manifest["num_events"],
        "timestamps": manifest["num_timestamps"],
        "nodes": manifest["num_nodes"],
        "directed": manifest["directed"],
        "time_dtype": manifest["time_dtype"],
        "t_min": manifest["t_min"],
        "t_max": manifest["t_max"],
        "partitions": len(manifest["partitions"]),
        "fingerprint": manifest["fingerprint"],
        "manifest_digest": manifest["manifest_digest"],
    }


def reindex_dataset(name: str, *, root: str | Path | None = None) -> dict:
    """Rebuild ``manifest.json`` from the partition files on disk.

    Partition files are discovered by glob over the bucketed layout and
    ordered by the index their structured filenames carry; per-partition
    stats and content hashes are recomputed from the array bytes, and
    the stream fingerprint is recomputed by streaming the columns across
    partitions (one partition in memory at a time).  Stream-level
    metadata that bytes cannot reveal (directedness, labels, a larger
    declared node count) is carried over from the existing manifest when
    one is present.  The fingerprint chain is preserved when the rebuilt
    fingerprint matches the prior manifest (content unchanged), and
    dropped otherwise.
    """
    target = dataset_dir(name, root)
    if not os.path.isdir(target):
        raise StorageError(f"no dataset directory at {target}")
    previous: dict | None = None
    manifest_path = os.path.join(target, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        previous = PartitionedStorage.open(target).manifest

    directory = Path(target)
    found = sorted(directory.glob("bucket-*/part-*.npz"))
    if not found and previous is None:
        raise StorageError(f"no partition files under {target}")

    indexed: list[tuple[int, Path]] = []
    for file_path in found:
        index, _, _ = parse_partition_filename(file_path.name, "f")
        indexed.append((index, file_path))
    indexed.sort()

    entries: list[dict] = []
    total_events = 0
    distinct_total = 0
    previous_t_max: float | None = None
    node_hi = -1
    time_dtype: np.dtype | None = None
    t_min_overall: float | None = None
    t_max_overall: float | None = None
    for _index, file_path in indexed:
        u, v, t = _load_raw_partition(file_path)
        if time_dtype is None:
            time_dtype = t.dtype
            t_min_overall = t[0].item() if t.size else None
        elif t.dtype != time_dtype:
            raise StorageError(
                f"corrupt partition file: {file_path} "
                f"(time dtype {t.dtype.str} != {time_dtype.str})"
            )
        if t.size:
            if previous_t_max is not None and t[0].item() <= previous_t_max:
                raise StorageError(
                    f"corrupt partition file: {file_path} (time span overlaps "
                    "the previous partition)"
                )
            previous_t_max = t[-1].item()
            t_max_overall = t[-1].item()
            node_hi = max(node_hi, int(max(u.max(), v.max())))
        distinct_total += int(np.unique(t).size)
        entries.append(
            {
                "index": len(entries),
                "file": os.path.relpath(file_path, target).replace(os.sep, "/"),
                "events": int(t.size),
                "num_timestamps": int(np.unique(t).size),
                "t_min": t[0].item() if t.size else None,
                "t_max": t[-1].item() if t.size else None,
                "node_min": int(min(u.min(), v.min())) if t.size else 0,
                "node_max": int(max(u.max(), v.max())) if t.size else 0,
                "sha256": partition_content_hash(u, v, t),
            }
        )
        total_events += int(t.size)

    if time_dtype is None:
        time_dtype = np.dtype(
            previous["time_dtype"] if previous is not None else "<f8"
        )
    directed = previous["directed"] if previous is not None else True
    labels = previous["labels"] if previous is not None else None
    num_nodes = node_hi + 1
    if previous is not None:
        num_nodes = max(num_nodes, int(previous["num_nodes"]))

    fingerprint = _streaming_fingerprint(
        target,
        [entry["file"] for entry in entries],
        directed=bool(directed),
        num_nodes=num_nodes,
        time_dtype=time_dtype,
    )
    chain = []
    if previous is not None and previous.get("fingerprint") == fingerprint:
        chain = previous.get("chain", [])

    manifest = {
        "format": "repro-catalog-v1",
        "name": name,
        "directed": bool(directed),
        "num_nodes": int(num_nodes),
        "labels": labels,
        "time_dtype": time_dtype.str,
        "num_events": total_events,
        "num_timestamps": distinct_total,
        "t_min": t_min_overall,
        "t_max": t_max_overall,
        "fingerprint": fingerprint,
        "chain": chain,
        "partition_events": (
            previous["partition_events"]
            if previous is not None
            else DEFAULT_PARTITION_EVENTS
        ),
        "manifest_digest": chain_manifest_digest(
            [entry["sha256"] for entry in entries]
        ),
        "partitions": entries,
    }
    write_manifest(target, manifest)
    return manifest


def _load_raw_partition(
    file_path: Path,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load one partition's columns for reindexing (errors name the file)."""
    try:
        with np.load(file_path) as archive:
            u = np.ascontiguousarray(archive["u"], dtype=np.int64)
            v = np.ascontiguousarray(archive["v"], dtype=np.int64)
            t = np.ascontiguousarray(archive["t"])
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile) as error:
        raise StorageError(
            f"corrupt partition file: {file_path} ({error})"
        ) from error
    if not (u.shape == v.shape == t.shape) or u.ndim != 1:
        raise StorageError(
            f"corrupt partition file: {file_path} (mismatched column shapes)"
        )
    return u, v, t


def _streaming_fingerprint(
    target: str,
    files: list[str],
    *,
    directed: bool,
    num_nodes: int,
    time_dtype: np.dtype,
) -> str:
    """Stream fingerprint recomputed one partition at a time.

    Identical to :meth:`LinkStream.fingerprint`: header, then all
    source bytes, then all target bytes, then all timestamp bytes — so
    the columns are walked once per column, holding a single partition
    in memory at a time.
    """
    digest = hashlib.sha256()
    digest.update(
        f"v1|{int(directed)}|{num_nodes}|{time_dtype.str}|".encode()
    )
    for column in ("u", "v", "t"):
        for relative in files:
            u, v, t = _load_raw_partition(Path(target) / relative)
            arrays = {"u": u, "v": v, "t": t}
            digest.update(arrays[column].tobytes())
    return digest.hexdigest()
