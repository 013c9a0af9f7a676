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
measure stacks and straddling-window appends), which is why cache
keys never distinguish warm from cold evaluation.

Both live in the one per-process series store of
:mod:`repro.graphseries.aggregation`: this module splices from an
ancestor's entry and attaches each scan's record to its stream's entry,
under that store's key (``(stream fingerprint, Δ, origin)``), LRU and
byte budget (``REPRO_INCREMENTAL_MAX_BYTES``, default 512 MiB), which
also caps a single scan's checkpoint record.  Reuse is always on: every
scan records, offline analyses included.  A checkpoint keeps only its
finite cells (a packed bitmask plus narrow keys), so a cold sweep of the
four paper replicas keeps ~20 MB of records, and a long-lived service
process keeps them warm across appends.
``REPRO_INCREMENTAL_MAX_BYTES=0`` stores no checkpoints (every resume
finds nothing to settle on); results are identical either way.

Within an entry, ``(include_self, consumer tokens)`` keys a scan record.
A record is only ever replayed for the same measure stack (the consumer
tokens pin collector construction parameters) and an unchanged node
count, so a stale or foreign record cannot be spliced into a result.
"""

from __future__ import annotations

import numpy as np

from repro.graphseries.aggregation import (
    aggregate_cached,
    aggregate_prefix_extended,
    clear_aggregate_cache,
    series_key,
    store_get,
    store_max_bytes,
    store_put,
    store_snapshot,
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
from repro.utils.errors import AggregationError

#: Observability counters: ``records`` counts scan records committed,
#: ``resumes`` counts scans that ran with a resume plan attached,
#: ``splices`` counts series built by prefix splicing.  Monotone, for
#: benches and tests (never read by any computation).
INCREMENTAL_COUNTS = {"records": 0, "resumes": 0, "splices": 0}


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


def incremental_stats() -> dict:
    """Snapshot of the series store: entry/record/checkpoint counts,
    bytes, and counters.  ``nbytes`` is everything the budget counts
    (series, checkpoint states and consumer spans); ``checkpoint_bytes``
    is the checkpoint states alone."""
    nbytes, per_entry = store_snapshot()
    records = [record for entry in per_entry for record in entry]
    return {
        "streams": len(per_entry),
        "scan_records": len(records),
        "checkpoints": sum(len(r.checkpoints) for r in records),
        "checkpoint_bytes": sum(r.checkpoint_bytes for r in records),
        "nbytes": nbytes,
        "max_bytes": store_max_bytes(),
        "counts": dict(INCREMENTAL_COUNTS),
    }


#: The scan records live in the one series store, so clearing one clears
#: the other.
clear_incremental_store = clear_aggregate_cache


def aggregate_sessions(sessions) -> None:
    """Give every session its series, aggregating the cold ones together.

    A session with a store entry or a warm ancestor keeps that path
    (:meth:`IncrementalScanSession.warm_series`).  The rest are grouped
    by stream content and origin, and each group's Δ grid goes through
    one :func:`~repro.graphseries.aggregation.aggregate_cached` call: one
    pair sort of the stream for every Δ it misses.  Each session keeps
    the series that call returns, so an entry evicted under a small
    budget is not aggregated again.  A group that cannot aggregate (an
    empty stream, a bad Δ or origin) is left alone: each of its sessions
    then raises its own error when asked for its series.
    """
    groups: dict[tuple, list[IncrementalScanSession]] = {}
    for session in sessions:
        if session.warm_series() is None:
            key = (session._key[0], session._key[2])
            groups.setdefault(key, []).append(session)
    for group in groups.values():
        lead = group[0]
        try:
            built = aggregate_cached(
                lead._stream,
                [session._delta for session in group],
                origin=lead._origin,
            )
        except AggregationError:
            continue
        for session, series in zip(group, built):
            session._series = series


class IncrementalScanSession:
    """One (stream, Δ) evaluation's view of the series store.

    Binds a stream, an aggregation geometry, and a scan identity
    (``include_self`` and the measure stack's ``consumer_tokens``), then
    serves the two reusable stages:

    * :meth:`series` — the aggregated series, spliced from a cached
      ancestor prefix when one is warm.
    * :meth:`scan` — the backward scan, resumed from a cached ancestor
      record's settled boundary when one is warm; the scan it runs (warm
      or cold) is recorded for the *next* append.

    ``consumer_tokens`` must pin every consumer's construction
    parameters in list order (the engine passes each measure's
    ``(name, collector_token())``).

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
        consumer_tokens: tuple = (),
    ) -> None:
        self._stream = stream
        self._delta = float(delta)
        self._origin = origin
        self._include_self = bool(include_self)
        self._consumer_tokens = tuple(consumer_tokens)
        self._key = series_key(stream, self._delta, origin)
        self._scan_key = (self._include_self, self._consumer_tokens)
        self._series: GraphSeries | None = None

    # -- ancestry ---------------------------------------------------------

    def _ancestor_keys(self):
        """Ancestor ``(key, append_point)`` pairs, largest prefix first.

        The chain records ``(event_count, fingerprint)`` per extend;
        reversing it probes the most recent (longest) ancestor first, so
        a warm hit reuses the maximal prefix.  An ancestor keys as this
        stream does, with its own fingerprint.
        """
        for count, fingerprint in reversed(self._stream.fingerprint_chain):
            yield (fingerprint, *self._key[1:]), int(count)

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
        """The stream aggregated at Δ: its store entry, else spliced from
        a warm ancestor's entry, else :func:`aggregate_cached`."""
        if self.warm_series() is None:
            self._series = aggregate_cached(
                self._stream, [self._delta], origin=self._origin
            )[0]
        return self._series

    def warm_series(self) -> GraphSeries | None:
        """The series without aggregating: the stream's store entry, else
        spliced from a warm ancestor's entry, else ``None``."""
        if self._series is None:
            entry = store_get(self._key)
            self._series = entry.series if entry is not None else self._splice()
        return self._series

    def _splice(self) -> GraphSeries | None:
        num_events = self._stream.num_events
        for key, count in self._ancestor_keys():
            if not 0 < count < num_events:
                continue
            entry = store_get(key)
            if (
                entry is None
                or entry.num_events != count
                or entry.series.num_nodes != self._stream.num_nodes
            ):
                continue
            try:
                series = aggregate_prefix_extended(
                    self._stream,
                    self._delta,
                    prefix_series=entry.series,
                    prefix_events=count,
                    origin=self._origin,
                )
            except AggregationError:
                return None
            INCREMENTAL_COUNTS["splices"] += 1
            return store_put(self._key, series, num_events).series
        return None

    # -- the scan stage ---------------------------------------------------

    def scan(self, consumers) -> ScanResult:
        """Run the backward scan, resuming from a warm record when possible.

        Feeds ``consumers`` exactly as ``scan_series(series, consumers)``
        would — same trips, same accumulator state, same trip order —
        and commits this scan's own checkpoint record for future
        appends.  Returns the :class:`~repro.temporal.reachability.
        ScanResult`.
        """
        return self.run(self.scan_job(consumers))

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
            CheckpointRecorder(max_bytes=store_max_bytes()),
            self._resume_plan(series),
        )

    def run(self, job: ScanJob) -> ScanResult:
        """Scan ``job`` alone and commit it."""
        result = scan_series(
            job.series,
            job.collector,
            include_self=self._include_self,
            checkpoints=job.checkpoints,
            resume=job.resume,
        )
        self.commit(job)
        return result

    def commit(self, job: ScanJob) -> None:
        """Attach a finished scan's checkpoint record to the stream's
        store entry for future appends."""
        recorder = job.checkpoints
        if recorder is None:
            return
        if job.resume is not None:
            INCREMENTAL_COUNTS["resumes"] += 1
        store_put(
            self._key,
            job.series,
            self._stream.num_events,
            token=self._scan_key,
            record=_ScanRecord(
                recorder.checkpoints, recorder.spans, recorder.span_trips
            ),
        )
        INCREMENTAL_COUNTS["records"] += 1

    def _resume_plan(self, series: GraphSeries) -> ResumePlan | None:
        # This very stream first (re-analysis, or an empty append
        # preserving the fingerprint): every window settles.  Then the
        # ancestors, below the first window the append touched.
        for key, count in ((self._key, None), *self._ancestor_keys()):
            if count is not None and count <= 0:
                continue
            entry = store_get(key)
            if entry is None or entry.series.num_nodes != series.num_nodes:
                continue
            record = entry.records.get(self._scan_key)
            if record is None or not record.checkpoints:
                continue
            plan = ResumePlan(
                record.checkpoints,
                record.spans,
                record.span_trips,
                limit=(
                    int(series.num_steps) if count is None
                    else self._suffix_limit(count, series.num_steps)
                ),
            )
            if len(plan):
                return plan
        return None
