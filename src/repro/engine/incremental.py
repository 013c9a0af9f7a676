"""Warm-append reuse: the store behind zero-recompute incremental sweeps.

An append-only :meth:`~repro.linkstream.stream.LinkStream.extend` keeps
the old events a literal prefix of the new stream, and the chained
fingerprint makes every such prefix *recognizable* — the grown stream
knows the exact fingerprints of its ancestors.  This module turns that
recognition into reuse for the two expensive stages of a sweep point:

* **Aggregation** — the prefix's cached series splices with the
  re-windowed suffix (:func:`~repro.graphseries.aggregation.
  aggregate_prefix_extended`) instead of re-windowing every event.
* **The backward scan** — a prior scan's checkpoint record
  (:class:`~repro.temporal.reachability.CheckpointRecorder`) lets the
  new scan run backward from the new end only until it reaches a
  *settled boundary*: a checkpointed window whose incoming scan state is
  bit-identical to the cached one.  Everything below it — typically the
  whole prefix outside the appended suffix — is spliced from the cached
  per-span consumer contributions instead of being rescanned.

Both reuses are exact: the spliced series and the assembled consumers
are bit-identical to from-scratch computation (property-tested across
sharding and straddling-window appends), which is why cache
keys never distinguish warm from cold evaluation.

The store is process-global and bounded by one byte budget
(``REPRO_INCREMENTAL_MAX_BYTES``, default 512 MiB, LRU over streams),
which also caps a single scan's checkpoint record.  Reuse is always on:
every scan records, offline analyses included.  A checkpoint keeps only
its finite cells (a packed bitmask plus narrow keys), so a cold sweep of
the four paper replicas keeps ~20 MB of records, and a long-lived
service process keeps them warm across appends.  ``REPRO_INCREMENTAL_MAX_BYTES=0`` stores no checkpoints (every
resume finds nothing to settle on); results are identical either way.

Keys are content-derived: ``(stream fingerprint, Δ, origin)`` addresses
a stream entry, and ``(include_self, shard, consumer tokens)`` a scan
record within it.  A record is only ever replayed for the same measure
stack (the consumer tokens pin collector construction parameters), the
same destination partition (``shard``), and an unchanged node count, so
a stale or foreign record cannot be spliced into a result.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np

from repro.graphseries.aggregation import (
    aggregate_cached,
    aggregate_prefix_extended,
    lookup_memoized_series,
    memoize_series,
    window_index,
)
from repro.graphseries.series import GraphSeries
from repro.linkstream.stream import LinkStream
from repro.temporal.reachability import (
    CheckpointRecorder,
    ResumePlan,
    ScanJob,
    ScanResult,
    consumer_list,
    scan_series,
)
from repro.utils.errors import AggregationError, EngineError

#: Default byte budget for the process-global incremental store.
INCREMENTAL_MAX_BYTES = 512 * 1024 * 1024

#: Observability counters: ``records`` counts scan records committed,
#: ``resumes`` counts scans that ran with a resume plan attached,
#: ``splices`` counts series built by prefix splicing.  Monotone, for
#: benches and tests (never read by any computation).
INCREMENTAL_COUNTS = {"records": 0, "resumes": 0, "splices": 0}

_STORE: "OrderedDict[tuple, _StreamEntry]" = OrderedDict()
_STORE_LOCK = threading.Lock()


def _max_bytes() -> int:
    raw = os.environ.get("REPRO_INCREMENTAL_MAX_BYTES")
    if raw is None:
        return INCREMENTAL_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise EngineError(
            f"REPRO_INCREMENTAL_MAX_BYTES must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise EngineError(
            f"REPRO_INCREMENTAL_MAX_BYTES must be >= 0, got {value}"
        )
    return value


def _approx_nbytes(obj, depth: int = 3) -> int:
    """Rough recursive byte count of the numpy payload hanging off ``obj``.

    Budget accounting only — walks ndarray attributes (and lists/tuples/
    dicts of them) a few levels deep; scalars and bookkeeping count as
    zero.  Over- or under-counting by a constant factor only shifts the
    effective LRU budget, never correctness.
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth <= 0 or obj is None or isinstance(obj, (int, float, str, bytes)):
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(_approx_nbytes(item, depth - 1) for item in obj)
    if isinstance(obj, dict):
        return sum(_approx_nbytes(item, depth - 1) for item in obj.values())
    total = 0
    slots = getattr(type(obj), "__slots__", None)
    names = (
        list(slots)
        if slots is not None
        else list(getattr(obj, "__dict__", ()))
    )
    for name in names:
        total += _approx_nbytes(getattr(obj, name, None), depth - 1)
    return total


class _ScanRecord:
    """One scan's reusable state: checkpoints plus per-span contributions."""

    __slots__ = (
        "checkpoints", "spans", "span_trips", "checkpoint_bytes", "nbytes"
    )

    def __init__(self, checkpoints, spans, span_trips) -> None:
        self.checkpoints = tuple(checkpoints)
        self.spans = tuple(spans)
        self.span_trips = tuple(span_trips)
        self.checkpoint_bytes = sum(c.nbytes for c in self.checkpoints)
        self.nbytes = self.checkpoint_bytes + _approx_nbytes(self.spans)


class _StreamEntry:
    """Everything cached for one ``(fingerprint, Δ, origin)``."""

    __slots__ = ("series", "num_nodes", "num_events", "scans", "nbytes")

    def __init__(
        self, series: GraphSeries, num_events: int
    ) -> None:
        self.series = series
        self.num_nodes = int(series.num_nodes)
        self.num_events = int(num_events)
        self.scans: dict[tuple, _ScanRecord] = {}
        self.nbytes = 0
        self.refresh_nbytes()

    def refresh_nbytes(self) -> None:
        series_bytes = (
            self.series.edge_steps.nbytes
            + self.series.edge_sources.nbytes
            + self.series.edge_targets.nbytes
        )
        self.nbytes = series_bytes + sum(
            record.nbytes for record in self.scans.values()
        )


def _evict_locked() -> None:
    budget = _max_bytes()
    total = sum(entry.nbytes for entry in _STORE.values())
    while total > budget and len(_STORE) > 1:
        _key, entry = _STORE.popitem(last=False)
        total -= entry.nbytes


def incremental_stats() -> dict:
    """Snapshot of the store: entry/record/checkpoint counts, bytes, and
    counters.  ``nbytes`` is everything the budget counts (series,
    checkpoint states and consumer spans); ``checkpoint_bytes`` is the
    checkpoint states alone."""
    with _STORE_LOCK:
        records = [r for e in _STORE.values() for r in e.scans.values()]
        return {
            "streams": len(_STORE),
            "scan_records": len(records),
            "checkpoints": sum(len(r.checkpoints) for r in records),
            "checkpoint_bytes": sum(r.checkpoint_bytes for r in records),
            "nbytes": sum(e.nbytes for e in _STORE.values()),
            "max_bytes": _max_bytes(),
            "counts": dict(INCREMENTAL_COUNTS),
        }


def clear_incremental_store() -> None:
    """Drop every cached series and scan record (counters persist)."""
    with _STORE_LOCK:
        _STORE.clear()


class IncrementalScanSession:
    """One (stream, Δ) evaluation's view of the incremental store.

    Binds a stream, an aggregation geometry, and a scan identity
    (``include_self``, destination ``shard``, the measure stack's
    ``consumer_tokens``), then serves the two reusable stages:

    * :meth:`series` — the aggregated series, spliced from a cached
      ancestor prefix when one is warm.
    * :meth:`scan` — the backward scan, resumed from a cached ancestor
      record's settled boundary when one is warm; the scan it runs (warm
      or cold) is recorded for the *next* append.

    ``shard`` is ``None`` for an unrestricted scan or ``(shard_index,
    num_shards)`` for the engine's strided destination partition; when a
    shard is given, :meth:`scan` must be called with the matching
    ``targets`` — the shard tuple is what keys the record, so mismatched
    targets would splice wrong columns.  ``consumer_tokens`` must pin
    every consumer's construction parameters in list order (the engine
    passes each measure's ``(name, collector_token())``).

    Everything degrades gracefully: a spent byte budget, unknown ancestry,
    changed node count, or consumers without ``segment_handoff`` all
    fall back to plain cold evaluation with identical results.
    """

    def __init__(
        self,
        stream: LinkStream,
        *,
        delta: float,
        origin: float | None = None,
        include_self: bool = False,
        shard: tuple[int, int] | None = None,
        consumer_tokens: tuple = (),
    ) -> None:
        self._stream = stream
        self._delta = float(delta)
        self._origin = origin
        self._include_self = bool(include_self)
        self._shard = (
            None if shard is None else (int(shard[0]), int(shard[1]))
        )
        self._consumer_tokens = tuple(consumer_tokens)
        canonical = origin
        if canonical is not None and float(canonical) == stream.t_min:
            canonical = None
        self._origin_token = (
            None if canonical is None else repr(float(canonical))
        )
        self._base_key = (
            stream.fingerprint(),
            repr(self._delta),
            self._origin_token,
        )
        self._scan_key = (
            self._include_self,
            self._shard,
            self._consumer_tokens,
        )
        self._series: GraphSeries | None = None

    # -- ancestry ---------------------------------------------------------

    def _ancestor_keys(self):
        """Ancestor ``(base_key, append_point)`` pairs, largest prefix first.

        The chain records ``(event_count, fingerprint)`` per extend;
        reversing it probes the most recent (longest) ancestor first, so
        a warm hit reuses the maximal prefix.
        """
        for count, fingerprint in reversed(self._stream.fingerprint_chain):
            yield (
                (fingerprint, repr(self._delta), self._origin_token),
                int(count),
            )

    def _effective_origin(self) -> float:
        return (
            float(self._origin)
            if self._origin is not None
            else float(self._stream.t_min)
        )

    def _suffix_limit(self, append_point: int, num_steps: int) -> int:
        """First window the append at ``append_point`` could have changed.

        Checkpoints strictly below it are settle candidates.  An append
        point at the stream end (only empty batches since) leaves every
        window eligible.
        """
        if append_point >= self._stream.num_events:
            return int(num_steps)
        t_first = self._stream.timestamps[append_point : append_point + 1]
        return int(
            window_index(t_first, self._delta, self._effective_origin())[0]
        )

    # -- the aggregation stage --------------------------------------------

    def series(self) -> GraphSeries:
        """The stream aggregated at Δ, spliced from a warm prefix if any."""
        if self._series is not None:
            return self._series
        series = lookup_memoized_series(
            self._stream, self._delta, origin=self._origin
        )
        if series is None:
            series = self._splice_series()
            if series is not None:
                memoize_series(
                    self._stream, self._delta, series, origin=self._origin
                )
        if series is None:
            series = aggregate_cached(
                self._stream, self._delta, origin=self._origin
            )
        with _STORE_LOCK:
            self._touch_entry_locked(series)
            _evict_locked()
        self._series = series
        return series

    def _splice_series(self) -> GraphSeries | None:
        parent: GraphSeries | None = None
        append_point = 0
        with _STORE_LOCK:
            for key, count in self._ancestor_keys():
                entry = _STORE.get(key)
                if entry is None or entry.num_nodes != self._stream.num_nodes:
                    continue
                if not 0 < count < self._stream.num_events:
                    continue
                if count != entry.num_events:
                    continue
                _STORE.move_to_end(key)
                parent, append_point = entry.series, count
                break
        if parent is None:
            return None
        try:
            series = aggregate_prefix_extended(
                self._stream,
                self._delta,
                prefix_series=parent,
                prefix_events=append_point,
                origin=self._origin,
            )
        except AggregationError:
            return None
        INCREMENTAL_COUNTS["splices"] += 1
        return series

    # -- the scan stage ---------------------------------------------------

    def scan(
        self,
        consumers,
        *,
        targets: np.ndarray | None = None,
    ) -> ScanResult:
        """Run the backward scan, resuming from a warm record when possible.

        Feeds ``consumers`` exactly as ``scan_series(series, consumers)``
        would — same trips, same accumulator state, same trip order —
        and commits this scan's own checkpoint record for future
        appends.  Returns the :class:`~repro.temporal.reachability.
        ScanResult`.
        """
        return self.run(self.scan_job(consumers), targets=targets)

    def scan_job(self, consumers) -> ScanJob:
        """The scan :meth:`scan` would run, as a
        :class:`~repro.temporal.reachability.ScanJob`: the series, the
        consumers, a recorder for this scan's record and the resume plan
        of a warm ancestor record (none when a consumer lacks
        ``segment_handoff``).  Run it alone (:meth:`run`) or in a stack
        (:func:`~repro.temporal.reachability.scan_stack`), then
        :meth:`commit` it."""
        series = self.series()
        items = consumer_list(consumers)
        if not all(hasattr(item, "segment_handoff") for item in items):
            return ScanJob(series, items)
        return ScanJob(
            series,
            items,
            CheckpointRecorder(max_bytes=_max_bytes()),
            self._resume_plan(series),
        )

    def run(
        self, job: ScanJob, *, targets: np.ndarray | None = None
    ) -> ScanResult:
        """Scan ``job`` alone (restricted to ``targets``) and commit it."""
        result = scan_series(
            job.series,
            job.collector,
            include_self=self._include_self,
            targets=targets,
            checkpoints=job.checkpoints,
            resume=job.resume,
        )
        self.commit(job)
        return result

    def commit(self, job: ScanJob) -> None:
        """Store a finished scan's checkpoint record for future appends."""
        if job.checkpoints is None:
            return
        if job.resume is not None:
            INCREMENTAL_COUNTS["resumes"] += 1
        self._commit_scan(job.series, job.checkpoints)

    def _resume_plan(self, series: GraphSeries) -> ResumePlan | None:
        with _STORE_LOCK:
            # A record for this very stream (re-analysis, or an empty
            # append preserving the fingerprint): every window settles.
            entry = _STORE.get(self._base_key)
            if entry is not None and entry.num_nodes == series.num_nodes:
                record = entry.scans.get(self._scan_key)
                if record is not None and record.checkpoints:
                    _STORE.move_to_end(self._base_key)
                    return ResumePlan(
                        record.checkpoints,
                        record.spans,
                        record.span_trips,
                        limit=int(series.num_steps),
                    )
            for key, count in self._ancestor_keys():
                entry = _STORE.get(key)
                if entry is None or entry.num_nodes != series.num_nodes:
                    continue
                record = entry.scans.get(self._scan_key)
                if record is None or not record.checkpoints:
                    continue
                if count <= 0:
                    continue
                _STORE.move_to_end(key)
                plan = ResumePlan(
                    record.checkpoints,
                    record.spans,
                    record.span_trips,
                    limit=self._suffix_limit(count, series.num_steps),
                )
                if len(plan):
                    return plan
        return None

    def _commit_scan(
        self, series: GraphSeries, recorder: CheckpointRecorder
    ) -> None:
        record = _ScanRecord(
            recorder.checkpoints, recorder.spans, recorder.span_trips
        )
        with _STORE_LOCK:
            entry = self._touch_entry_locked(series)
            entry.scans[self._scan_key] = record
            entry.refresh_nbytes()
            INCREMENTAL_COUNTS["records"] += 1
            _evict_locked()

    def _touch_entry_locked(self, series: GraphSeries) -> _StreamEntry:
        entry = _STORE.get(self._base_key)
        if entry is None:
            entry = _StreamEntry(series, self._stream.num_events)
            _STORE[self._base_key] = entry
        _STORE.move_to_end(self._base_key)
        return entry
