"""The :class:`LinkStream` container.

Events are stored column-wise in numpy arrays (source index, target index,
timestamp), sorted by timestamp.  Node labels are kept separately so the
numeric core always works on dense indices ``0..n-1`` — the layout every
downstream algorithm (aggregation, reachability) expects.

Timestamps may be integers or floats; the paper's method works for both
discrete and continuous time (Section 2).

Since the storage refactor the arrays live behind a pluggable
:class:`repro.storage.StreamStorage` backend: ``LinkStream`` keeps the
semantics (validation, canonical sort, labels, fingerprints) and
delegates the bytes.  Streams built directly wrap an in-memory
:class:`~repro.storage.ColumnarStorage`; catalog datasets opened via
:func:`repro.datasets.catalog.open_dataset` wrap a lazy
:class:`~repro.storage.PartitionedStorage` — bit-identical either way.
"""

from __future__ import annotations

import hashlib
from collections.abc import Hashable, Iterable, Iterator

import numpy as np

from repro.storage.base import StreamStorage
from repro.storage.columnar import ColumnarStorage, freeze_columns
from repro.utils.errors import AppendOrderError, LinkStreamError


class LinkStream:
    """A finite collection of interaction triplets ``(u, v, t)``.

    Parameters
    ----------
    u, v:
        Integer node indices in ``0..num_nodes-1``, one entry per event.
    t:
        Event timestamps (int or float), one entry per event.  Events are
        re-sorted by ``(t, u, v)`` on construction.
    directed:
        Whether ``(u, v, t)`` means ``u -> v`` only.  The four traces the
        paper studies (messages, e-mails, wall posts) are directed.
    num_nodes:
        Size of the node set ``V``.  Defaults to ``max(u, v) + 1``; may be
        larger to include isolated nodes.
    labels:
        Optional external labels, ``labels[i]`` naming node ``i``.
    """

    __slots__ = (
        "_storage",
        "_directed",
        "_num_nodes",
        "_labels",
        "_label_index",
        "_distinct_t",
        "_resolution",
        "_fingerprint",
        "_summary",
        "_chain",
    )

    def __init__(
        self,
        u: Iterable[int],
        v: Iterable[int],
        t: Iterable[float],
        *,
        directed: bool = True,
        num_nodes: int | None = None,
        labels: Iterable[Hashable] | None = None,
    ) -> None:
        u_arr = np.asarray(u, dtype=np.int64)
        v_arr = np.asarray(v, dtype=np.int64)
        t_arr = np.asarray(t)
        if not (u_arr.shape == v_arr.shape == t_arr.shape) or u_arr.ndim != 1:
            raise LinkStreamError("u, v, t must be one-dimensional arrays of equal length")
        if t_arr.dtype.kind not in "iuf":
            raise LinkStreamError(f"timestamps must be numeric, got dtype {t_arr.dtype}")
        if t_arr.dtype.kind == "f":
            if not np.all(np.isfinite(t_arr)):
                raise LinkStreamError("timestamps must be finite")
            t_arr = t_arr.astype(np.float64)
        else:
            t_arr = t_arr.astype(np.int64)
        if u_arr.size:
            lo = min(u_arr.min(), v_arr.min())
            hi = max(u_arr.max(), v_arr.max())
            if lo < 0:
                raise LinkStreamError("node indices must be non-negative")
            if np.any(u_arr == v_arr):
                raise LinkStreamError("self-loops (u == v) are not valid link-stream events")
        else:
            hi = -1
        inferred = int(hi) + 1
        if num_nodes is None:
            num_nodes = inferred
        elif num_nodes < inferred:
            raise LinkStreamError(f"num_nodes={num_nodes} smaller than max index + 1 = {inferred}")

        if not directed:
            swap = u_arr > v_arr
            u_arr, v_arr = np.where(swap, v_arr, u_arr), np.where(swap, u_arr, v_arr)

        order = np.lexsort((v_arr, u_arr, t_arr))
        self._storage = ColumnarStorage(
            *freeze_columns(u_arr[order], v_arr[order], t_arr[order])
        )
        self._directed = bool(directed)
        self._num_nodes = int(num_nodes)

        if labels is not None:
            label_arr = list(labels)
            if len(label_arr) != self._num_nodes:
                raise LinkStreamError(
                    f"labels has {len(label_arr)} entries for {self._num_nodes} nodes"
                )
            if len(set(label_arr)) != len(label_arr):
                raise LinkStreamError("labels must be unique")
            self._labels = label_arr
        else:
            self._labels = None
        self._label_index = None
        # Lazy caches (distinct times, resolution, fingerprint and the
        # statistics module's stream summary): the event arrays are
        # frozen, so these never go stale.  extend() never mutates them
        # either — it builds a *new* stream (whose caches start empty),
        # so staleness cannot leak across an append.
        self._distinct_t = None
        self._resolution = None
        self._fingerprint = None
        self._summary = None
        # Prefix-fingerprint chain: ``(event_count, fingerprint)`` pairs
        # recorded by extend(), oldest first.  Content-derived streams
        # start with an empty chain.
        self._chain = ()

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[tuple[Hashable, Hashable, float]],
        *,
        directed: bool = True,
    ) -> "LinkStream":
        """Build a stream from ``(u_label, v_label, t)`` triples.

        Labels may be any hashable values; they are mapped to dense indices
        in first-seen order.
        """
        labels: list[Hashable] = []
        index: dict[Hashable, int] = {}
        us: list[int] = []
        vs: list[int] = []
        ts: list[float] = []
        for lu, lv, t in triples:
            for lab in (lu, lv):
                if lab not in index:
                    index[lab] = len(labels)
                    labels.append(lab)
            us.append(index[lu])
            vs.append(index[lv])
            ts.append(t)
        return cls(us, vs, ts, directed=directed, num_nodes=len(labels), labels=labels)

    @classmethod
    def from_storage(
        cls,
        storage: StreamStorage,
        *,
        directed: bool = True,
        num_nodes: int,
        labels: Iterable[Hashable] | None = None,
        fingerprint: str | None = None,
    ) -> "LinkStream":
        """Wrap an existing storage backend as a stream (trusted path).

        The backend's columns must already be in canonical
        ``lexsort((v, u, t))`` order with validation done (undirected
        pairs canonicalized, no self-loops) — exactly what every
        :class:`~repro.storage.StreamStorage` implementation guarantees.
        No per-event work happens here, so a lazy backend stays lazy:
        ``num_events``/``t_min``/``t_max`` answer from metadata, and the
        event bytes load only when an algorithm touches the columns.

        ``fingerprint`` pre-seeds the content hash (a catalog manifest
        records the one computed at ingest), letting engine cache keys
        be derived without materializing anything.
        """
        stream = object.__new__(cls)
        stream._storage = storage
        stream._directed = bool(directed)
        stream._num_nodes = int(num_nodes)
        if labels is not None:
            label_list = list(labels)
            if len(label_list) != stream._num_nodes:
                raise LinkStreamError(
                    f"labels has {len(label_list)} entries for "
                    f"{stream._num_nodes} nodes"
                )
            stream._labels = label_list
        else:
            stream._labels = None
        stream._label_index = None
        stream._distinct_t = None
        stream._resolution = None
        stream._fingerprint = fingerprint
        stream._summary = None
        stream._chain = tuple(storage.fingerprint_chain())
        return stream

    # -- basic accessors ---------------------------------------------------

    @property
    def storage(self) -> StreamStorage:
        """The :class:`~repro.storage.StreamStorage` backend holding the
        event columns."""
        return self._storage

    # The private column aliases below are how the rest of this class
    # (and only this class — no other module touches them) reads the
    # event arrays; they force a lazy backend to materialize.
    @property
    def _u(self) -> np.ndarray:
        return self._storage.sources

    @property
    def _v(self) -> np.ndarray:
        return self._storage.targets

    @property
    def _t(self) -> np.ndarray:
        return self._storage.timestamps

    @property
    def num_nodes(self) -> int:
        """Size of the node set ``V``."""
        return self._num_nodes

    @property
    def num_events(self) -> int:
        """Number of triplets in the stream (with multiplicity)."""
        return self._storage.num_events

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def sources(self) -> np.ndarray:
        """Read-only source index array, sorted by event time."""
        return self._u

    @property
    def targets(self) -> np.ndarray:
        """Read-only target index array, sorted by event time."""
        return self._v

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only timestamp array, ascending."""
        return self._t

    @property
    def labels(self) -> list[Hashable]:
        """External node labels (identity labels if none were given)."""
        if self._labels is None:
            return list(range(self._num_nodes))
        return list(self._labels)

    @property
    def t_min(self) -> float:
        """Earliest event time (raises on an empty stream)."""
        bounds = self._storage.time_range()
        if bounds is None:
            raise LinkStreamError("empty stream has no t_min")
        return bounds[0]

    @property
    def t_max(self) -> float:
        """Latest event time (raises on an empty stream)."""
        bounds = self._storage.time_range()
        if bounds is None:
            raise LinkStreamError("empty stream has no t_max")
        return bounds[1]

    @property
    def span(self) -> float:
        """Length ``t_max - t_min`` of the observed period."""
        return self.t_max - self.t_min

    def __len__(self) -> int:
        return self.num_events

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        bounds = self._storage.time_range()
        if bounds is not None:
            window = f", over [{bounds[0]}, {bounds[1]}]"
        else:
            window = ""
        return (
            f"LinkStream({kind}, {self.num_nodes} nodes, {self.num_events} events{window})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkStream):
            return NotImplemented
        return (
            self._directed == other._directed
            and self._num_nodes == other._num_nodes
            and self.labels == other.labels
            and np.array_equal(self._u, other._u)
            and np.array_equal(self._v, other._v)
            and np.array_equal(self._t, other._t)
        )

    def __hash__(self) -> int:  # streams are mutable-looking but frozen
        return hash((self._directed, self._num_nodes, self._t.tobytes()))

    # -- label mapping -----------------------------------------------------

    def label_of(self, index: int) -> Hashable:
        """External label of node ``index``."""
        if self._labels is None:
            return index
        return self._labels[index]

    def index_of(self, label: Hashable) -> int:
        """Dense index of the node carrying ``label``."""
        if self._labels is None:
            idx = int(label)
            if not 0 <= idx < self._num_nodes:
                raise LinkStreamError(f"unknown node label {label!r}")
            return idx
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self._labels)}
        try:
            return self._label_index[label]
        except KeyError:
            raise LinkStreamError(f"unknown node label {label!r}") from None

    def events(self) -> Iterator[tuple[Hashable, Hashable, float]]:
        """Iterate events as ``(u_label, v_label, t)`` in time order."""
        for u, v, t in zip(self._u, self._v, self._t):
            yield self.label_of(int(u)), self.label_of(int(v)), t.item()

    # -- time structure ------------------------------------------------------

    def distinct_timestamps(self) -> np.ndarray:
        """Sorted array of distinct event times (cached, read-only)."""
        if self._distinct_t is None:
            distinct = np.unique(self._t)
            distinct.setflags(write=False)
            self._distinct_t = distinct
        return self._distinct_t

    def resolution(self) -> float:
        """Smallest positive gap between distinct timestamps (cached).

        This is the finest meaningful aggregation period (the paper sweeps
        Δ from the timestamp resolution up to the full span).
        """
        if self._resolution is None:
            distinct = self.distinct_timestamps()
            if distinct.size < 2:
                raise LinkStreamError(
                    "need at least two distinct timestamps for a resolution"
                )
            self._resolution = float(np.diff(distinct).min())
        return self._resolution

    def fingerprint(self) -> str:
        """Content hash of the stream (cached).

        Covers the event arrays, their dtypes, directedness, and the node
        count — everything that determines the outcome of an aggregation
        or a sweep.  Node labels are deliberately excluded: relabeling
        does not change any measured quantity.  Used by
        :mod:`repro.engine` to key its sweep cache.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(
                f"v1|{int(self._directed)}|{self._num_nodes}|"
                f"{self._storage.time_dtype.str}|".encode()
            )
            digest.update(self._u.tobytes())
            digest.update(self._v.tobytes())
            digest.update(self._t.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # -- appending -----------------------------------------------------------

    @property
    def fingerprint_chain(self) -> tuple[tuple[int, str], ...]:
        """Prefix fingerprints recorded by :meth:`extend`.

        A tuple of ``(event_count, fingerprint)`` pairs, oldest first:
        one entry per ancestor this stream was grown from, each giving
        the content fingerprint the stream had when it held exactly
        ``event_count`` events.  Streams not built by ``extend`` have an
        empty chain.
        """
        return self._chain

    def prefix_fingerprint(self, num_events: int) -> str:
        """Fingerprint of the stream's first ``num_events`` events.

        Because appends are strictly time-increasing, the first
        ``num_events`` rows of the (time-sorted) event arrays *are* the
        historical prefix, so any prefix fingerprint is recoverable
        without re-sorting.  Boundaries recorded by :meth:`extend` are
        answered from the chain in O(1); other cuts hash the prefix
        slices directly.  The prefix is fingerprinted with *this*
        stream's node count (for chain boundaries the recorded —
        historically exact — value is returned instead).
        """
        if not 0 <= num_events <= self.num_events:
            raise LinkStreamError(
                f"prefix of {num_events} events out of range for a stream "
                f"of {self.num_events}"
            )
        if num_events == self.num_events:
            return self.fingerprint()
        for count, known in self._chain:
            if count == num_events:
                return known
        digest = hashlib.sha256()
        digest.update(
            f"v1|{int(self._directed)}|{self._num_nodes}|"
            f"{self._storage.time_dtype.str}|".encode()
        )
        digest.update(self._u[:num_events].tobytes())
        digest.update(self._v[:num_events].tobytes())
        digest.update(self._t[:num_events].tobytes())
        return digest.hexdigest()

    def extend(self, events, v=None, t=None) -> "LinkStream":
        """A new stream holding this stream's events plus an appended batch.

        Accepts either an iterable of ``(u, v, t)`` index triples
        (``stream.extend(events)``) or three parallel arrays
        (``stream.extend(u, v, t)``).  The append-only contract: every
        new timestamp must be **strictly greater** than :attr:`t_max`,
        otherwise :class:`AppendOrderError` is raised — an in-order
        append keeps the existing events a literal prefix of the new
        arrays, which is what makes prefix fingerprints, cached
        aggregations, and checkpointed scan state reusable.

        The returned stream is constructed exactly as a from-scratch
        build over the concatenated events (bit-identical arrays and
        fingerprint), and additionally records this stream's
        ``(num_events, fingerprint)`` on its :attr:`fingerprint_chain`.

        Node handling: appended indices may name new nodes only on
        unlabeled streams (``num_nodes`` grows; pre-size ``num_nodes``
        when registering a stream you intend to grow, since a node-set
        change blocks warm scan resume).  Appending float timestamps to
        an integer-time stream is rejected — it would flip the time
        dtype and with it every recorded fingerprint.
        """
        if v is None:
            rows = list(events)
            u_new = np.asarray([r[0] for r in rows], dtype=np.int64)
            v_new = np.asarray([r[1] for r in rows], dtype=np.int64)
            t_new = np.asarray([r[2] for r in rows])
        else:
            if t is None:
                raise LinkStreamError("extend needs either triples or all of u, v, t")
            u_new = np.asarray(events, dtype=np.int64)
            v_new = np.asarray(v, dtype=np.int64)
            t_new = np.asarray(t)
        if not (u_new.shape == v_new.shape == t_new.shape) or u_new.ndim != 1:
            raise LinkStreamError("appended u, v, t must be one-dimensional and equal length")

        chain_entry = (self.num_events, self.fingerprint())
        if not t_new.size:
            # Empty batch: same content, same fingerprint — but record
            # the boundary so the append lineage stays explicit.
            grown = self.copy()
            grown._chain = self._chain + (chain_entry,)
            grown._fingerprint = self._fingerprint
            return grown

        if t_new.dtype.kind not in "iuf":
            raise LinkStreamError(f"timestamps must be numeric, got dtype {t_new.dtype}")
        if t_new.dtype.kind == "f" and not np.all(np.isfinite(t_new)):
            raise LinkStreamError("timestamps must be finite")
        if self.num_events:
            if self._t.dtype.kind == "i" and t_new.dtype.kind == "f":
                raise LinkStreamError(
                    "cannot append float timestamps to an integer-time stream: "
                    "the time dtype (part of every fingerprint) would change; "
                    "rebuild the base stream with float times first"
                )
            if not np.all(t_new > self._t[-1]):
                raise AppendOrderError(
                    f"appended timestamps must all be strictly greater than "
                    f"t_max={self.t_max}; got min {np.asarray(t_new).min()}"
                )
        if u_new.size:
            hi = int(max(u_new.max(), v_new.max()))
            if hi >= self._num_nodes and self._labels is not None:
                raise LinkStreamError(
                    f"appended event names node index {hi} but the labeled "
                    f"stream has only {self._num_nodes} nodes"
                )
        if not self.num_events:
            # Empty base: delegate entirely to the constructor so the
            # time dtype comes out exactly as a from-scratch build.
            grown = LinkStream(
                u_new,
                v_new,
                t_new,
                directed=self._directed,
                num_nodes=max(self._num_nodes, int(max(u_new.max(), v_new.max())) + 1)
                if u_new.size
                else self._num_nodes,
                labels=self._labels,
            )
            grown._chain = self._chain + (chain_entry,)
            return grown
        num_nodes = self._num_nodes
        if u_new.size:
            num_nodes = max(num_nodes, int(max(u_new.max(), v_new.max())) + 1)
        grown = LinkStream(
            np.concatenate([self._u, u_new]),
            np.concatenate([self._v, v_new]),
            np.concatenate([self._t, t_new.astype(self._t.dtype)]),
            directed=self._directed,
            num_nodes=num_nodes,
            labels=self._labels,
        )
        grown._chain = self._chain + (chain_entry,)
        return grown

    # -- derived streams -----------------------------------------------------

    def restrict_time(self, start: float, end: float, *, half_open: bool = True) -> "LinkStream":
        """Sub-stream of events with ``start <= t < end`` (or ``<= end``).

        Alias of :meth:`slice_time` (kept for the historical name): the
        time-major canonical order makes the restriction a contiguous
        row range, so it is answered by the storage backend without a
        mask scan — and without loading non-overlapping partitions on
        out-of-core backends.
        """
        return self.slice_time(start, end, half_open=half_open)

    def slice_time(self, start: float, end: float, *, half_open: bool = True) -> "LinkStream":
        """Sub-stream of events with ``start <= t < end`` (or ``<= end``).

        Delegates to :meth:`StreamStorage.slice_time`: the node set,
        labels, and directedness are preserved (as ``restrict_time``
        always did), and on a :class:`~repro.storage.PartitionedStorage`
        backend only the partitions overlapping the range are ever
        loaded — this is the engine's narrow-span entry point.
        """
        sliced = self._storage.slice_time(start, end, half_open=half_open)
        return LinkStream.from_storage(
            sliced,
            directed=self._directed,
            num_nodes=self._num_nodes,
            labels=self._labels,
        )

    def restrict_nodes(self, labels: Iterable[Hashable]) -> "LinkStream":
        """Sub-stream induced by a node subset; nodes are re-indexed densely."""
        keep_idx = sorted({self.index_of(lab) for lab in labels})
        lookup = np.full(self._num_nodes, -1, dtype=np.int64)
        for new, old in enumerate(keep_idx):
            lookup[old] = new
        mask = (lookup[self._u] >= 0) & (lookup[self._v] >= 0)
        new_labels = [self.label_of(old) for old in keep_idx]
        return LinkStream(
            lookup[self._u[mask]],
            lookup[self._v[mask]],
            self._t[mask],
            directed=self._directed,
            num_nodes=len(keep_idx),
            labels=new_labels if self._labels is not None else None,
        )

    def to_undirected(self) -> "LinkStream":
        """Forget edge direction (pairs are canonicalized)."""
        if not self._directed:
            return self
        return LinkStream(
            self._u,
            self._v,
            self._t,
            directed=False,
            num_nodes=self._num_nodes,
            labels=self._labels,
        )

    def shift_time(self, offset: float) -> "LinkStream":
        """Translate all timestamps by ``offset``."""
        return self._replace_events(self._u, self._v, self._t + offset)

    def scale_time(self, factor: float) -> "LinkStream":
        """Multiply all timestamps by a positive ``factor``."""
        if factor <= 0:
            raise LinkStreamError("time scale factor must be positive")
        return self._replace_events(self._u, self._v, self._t * factor)

    def copy(self) -> "LinkStream":
        return self._replace_events(self._u, self._v, self._t)

    def _replace_events(self, u: np.ndarray, v: np.ndarray, t: np.ndarray) -> "LinkStream":
        return LinkStream(
            u,
            v,
            t,
            directed=self._directed,
            num_nodes=self._num_nodes,
            labels=self._labels,
        )
