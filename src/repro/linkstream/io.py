"""Readers for link streams, and a TSV writer.

Supported input formats:

* **TSV / CSV** — one event per line.  The default column order
  ``u v t`` matches the KONECT / SNAP dumps of the paper's four traces;
  the order is configurable via ``columns``.
* **JSON lines** — one ``{"u": ..., "v": ..., "t": ...}`` object per line,
  convenient for labeled nodes (:func:`iter_triples`,
  :func:`read_event_arrays`).

Lines starting with ``#`` or ``%`` are treated as comments in the
delimited formats (KONECT uses ``%``).

All readers and writers transparently handle gzip compression: a path
ending in ``.gz`` (e.g. ``out.contact.gz`` as KONECT distributes its
dumps) is decompressed/compressed on the fly, so full-scale traces load
without pre-extraction.
"""

from __future__ import annotations

import gzip
import json
from collections.abc import Hashable, Iterator
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.linkstream.stream import LinkStream
from repro.utils.errors import LinkStreamError

_COMMENT_PREFIXES = ("#", "%")

#: Chunk size (events) for the bounded-memory array readers used by the
#: dataset catalog's ingest path.
DEFAULT_INGEST_CHUNK_EVENTS = 65536


def _open_text(path: str | Path, mode: str) -> TextIO:
    """Open ``path`` for text reading/writing, gunzipping ``.gz`` files."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _iter_delimited_triples(
    path: str | Path, delimiter: str | None, columns: str
) -> Iterator[tuple[Hashable, Hashable, float]]:
    order = columns.split()
    if sorted(order) != ["t", "u", "v"]:
        raise LinkStreamError(f"columns must be a permutation of 'u v t', got {columns!r}")
    iu, iv, it = order.index("u"), order.index("v"), order.index("t")
    with _open_text(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            parts = line.split(delimiter)
            if len(parts) < 3:
                raise LinkStreamError(f"{path}:{lineno}: expected >= 3 fields, got {len(parts)}")
            try:
                t = float(parts[it])
            except ValueError:
                raise LinkStreamError(f"{path}:{lineno}: bad timestamp {parts[it]!r}") from None
            yield parts[iu], parts[iv], t


def _iter_jsonl_triples(
    path: str | Path,
) -> Iterator[tuple[Hashable, Hashable, float]]:
    with _open_text(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            try:
                yield record["u"], record["v"], float(record["t"])
            except KeyError as missing:
                raise LinkStreamError(f"{path}:{lineno}: missing key {missing}") from None


def iter_triples(
    path: str | Path, *, fmt: str = "tsv", columns: str = "u v t"
) -> Iterator[tuple[Hashable, Hashable, float]]:
    """Iterate ``(u_label, v_label, t)`` triples of any supported format."""
    if fmt == "tsv":
        return _iter_delimited_triples(path, None, columns)
    if fmt == "csv":
        return _iter_delimited_triples(path, ",", columns)
    if fmt == "jsonl":
        return _iter_jsonl_triples(path)
    raise LinkStreamError(f"unknown stream format {fmt!r} (tsv, csv, jsonl)")


def read_event_arrays(
    path: str | Path,
    *,
    fmt: str = "tsv",
    columns: str = "u v t",
    chunk_events: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Hashable]]:
    """Read an event file into dense index/timestamp columns, chunked.

    The catalog's ingest reader: labels are mapped to dense indices in
    first-seen order (exactly as :meth:`LinkStream.from_triples`), but
    parsed rows are flushed into numpy columns every ``chunk_events``
    events (default :data:`DEFAULT_INGEST_CHUNK_EVENTS`) so peak
    ingest memory holds one
    chunk of Python objects plus the packed columns — not a Python list
    of every event in the file.

    Returns ``(u, v, t, labels)``; feed them to ``LinkStream`` with
    ``num_nodes=len(labels)`` to get a stream identical to the
    whole-file readers' output.
    """
    if chunk_events is None:
        chunk_events = DEFAULT_INGEST_CHUNK_EVENTS
    if chunk_events <= 0:
        raise LinkStreamError(f"chunk_events must be positive, got {chunk_events}")
    labels: list[Hashable] = []
    index: dict[Hashable, int] = {}
    u_parts: list[np.ndarray] = []
    v_parts: list[np.ndarray] = []
    t_parts: list[np.ndarray] = []
    us: list[int] = []
    vs: list[int] = []
    ts: list[float] = []

    def flush() -> None:
        if us:
            u_parts.append(np.asarray(us, dtype=np.int64))
            v_parts.append(np.asarray(vs, dtype=np.int64))
            t_parts.append(np.asarray(ts, dtype=np.float64))
            us.clear()
            vs.clear()
            ts.clear()

    for lu, lv, t in iter_triples(path, fmt=fmt, columns=columns):
        for lab in (lu, lv):
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
        us.append(index[lu])
        vs.append(index[lv])
        ts.append(t)
        if len(ts) >= chunk_events:
            flush()
    flush()
    if u_parts:
        u = np.concatenate(u_parts)
        v = np.concatenate(v_parts)
        t_arr = np.concatenate(t_parts)
    else:
        u = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=np.int64)
        t_arr = np.empty(0, dtype=np.float64)
    return u, v, t_arr, labels


def _parse_delimited(
    path: str | Path,
    delimiter: str | None,
    columns: str,
    directed: bool,
) -> LinkStream:
    return LinkStream.from_triples(
        _iter_delimited_triples(path, delimiter, columns), directed=directed
    )


def read_tsv(
    path: str | Path,
    *,
    columns: str = "u v t",
    directed: bool = True,
) -> LinkStream:
    """Read a tab/whitespace-separated event file."""
    return _parse_delimited(path, None, columns, directed)


def read_csv(
    path: str | Path,
    *,
    columns: str = "u v t",
    directed: bool = True,
) -> LinkStream:
    """Read a comma-separated event file."""
    return _parse_delimited(path, ",", columns, directed)


def write_tsv(stream: LinkStream, path: str | Path, *, columns: str = "u v t") -> None:
    """Write one ``u<TAB>v<TAB>t`` line per event (order configurable)."""
    order = columns.split()
    if sorted(order) != ["t", "u", "v"]:
        raise LinkStreamError(f"columns must be a permutation of 'u v t', got {columns!r}")
    with _open_text(path, "w") as handle:
        for u, v, t in stream.events():
            fields = {"u": u, "v": v, "t": t}
            handle.write("\t".join(str(fields[c]) for c in order))
            handle.write("\n")
