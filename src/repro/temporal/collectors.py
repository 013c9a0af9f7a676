"""Collector protocol for the reachability scan.

The backward scan discovers minimal trips in bulk (one batch per source
node per window, or one multi-source batch spanning many windows).
Collectors consume those batches; different analyses need different
materializations (full trip lists for validation, occupancy histograms
for the saturation sweep, bare counts for metrics), so the engine is
decoupled from storage via this small protocol.

Every built-in collector implements the **merge contract**: an in-place
``merge(other)`` that absorbs a sibling collector fed from a disjoint
window span of the same scan — a span the incremental splice reuses
(:mod:`repro.engine.incremental`) — and an ``empty`` property flagging
a collector that has seen no trips yet (a legitimately common state for
a span that receives nothing).  Merging the spans reproduces exactly
what one whole scan would have collected.

The scan kernel buffers the trips of many runs of windows and feeds
collectors one flattened multi-source batch at a time through
``record_batch(sources, dep, targets, arrivals, hops, durations)``:
every argument is an array parallel to ``targets``, so ``dep`` is the
departure of each trip — its int64 window for a series, its timestamp
for a stream (one shape, always, even when the batch spans a single
window).  A batch may span windows; each (window, source) pair is
contiguous and in the reference loop's order — window descending, then
source, then destination, exactly the order per-source ``record``
calls would arrive in.  A source may therefore appear more than once
in a batch, once per window it fires in.  ``record_batch`` is
optional: every built-in implements it natively (vectorized,
bit-identical to the equivalent ``record`` calls), and consumers
without it are fed through :func:`record_batch_fallback`, which
re-slices the batch into per-(window, source) ``record`` calls with a
scalar departure — so third-party collectors keep working unchanged.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.temporal.trips import TripSet
from repro.utils.errors import ValidationError


class TripCollector(Protocol):
    """Anything that can consume minimal-trip batches from the scan."""

    def record(
        self,
        source: int,
        dep: float,
        targets: np.ndarray,
        arrivals: np.ndarray,
        hops: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        """Consume one batch of minimal trips departing ``source`` at ``dep``."""
        ...


def record_batch_fallback(
    collector,
    sources: np.ndarray,
    dep: np.ndarray,
    targets: np.ndarray,
    arrivals: np.ndarray,
    hops: np.ndarray,
    durations: np.ndarray,
) -> None:
    """Feed a multi-source batch to a ``record``-only collector.

    The adapter behind the scan kernel's consumer feed: slices the
    flattened batch back into one ``record`` call per (window, source)
    pair, in the order the rows arrive (window descending, then source
    — the reference loop's emission order).  Each pair is contiguous,
    so every change of source *or* departure is a call boundary (a
    source firing in two consecutive windows is two calls), and each
    call gets the scalar departure the reference loop passes (a Python
    ``int`` window, or the stream's ``int``/``float`` timestamp): a
    collector that never heard of ``record_batch`` sees byte-for-byte
    the same call sequence
    (:func:`repro.temporal.bruteforce.reference_scan`).
    """
    if not sources.size:
        return
    starts = np.flatnonzero(
        np.concatenate(
            [[True], (sources[1:] != sources[:-1]) | (dep[1:] != dep[:-1])]
        )
    )
    ends = np.append(starts[1:], sources.size)
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        collector.record(
            int(sources[lo]),
            dep[lo].item(),
            targets[lo:hi],
            arrivals[lo:hi],
            hops[lo:hi],
            durations[lo:hi],
        )


def _mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a ``uint64`` array (wraps mod 2**64)."""
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def trip_priorities(
    u: np.ndarray,
    v: np.ndarray,
    dep: np.ndarray,
    arr: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """Deterministic pseudo-random ``uint64`` priority per trip.

    A pure function of the trip identity ``(u, v, dep, arr)`` and the
    seed — independent of scan order, merge order, and platform — so
    "keep the ``k`` smallest priorities" is a well-defined sample of a
    trip *set*: taking the bottom-k of a union equals unioning bottom-k
    sketches, which is exactly what merging needs to stay
    bit-identical.  Time values are hashed through their ``float64`` bit
    pattern (window indices are integers, exact far beyond any feasible
    series length).
    """
    h = _mix64(u.astype(np.uint64) + np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    h = _mix64(h ^ v.astype(np.uint64))
    h = _mix64(h ^ np.asarray(dep, dtype=np.float64).view(np.uint64))
    h = _mix64(h ^ np.asarray(arr, dtype=np.float64).view(np.uint64))
    return h


class TripListCollector:
    """Materializes minimal trips into a :class:`TripSet`.

    Parameters
    ----------
    max_trips:
        Optional cap on the number of *retained* trips.  ``None`` (the
        default) keeps every trip.  With a cap, the collector keeps the
        ``max_trips`` trips with the smallest :func:`trip_priorities`
        values — a reservoir-style uniform sample that is a pure
        function of the trip set, so capped collectors fed from disjoint
        parts of a scan :meth:`merge` back into exactly the sample one
        whole capped scan retains.  Exact totals (trip count, hop
        and duration sums) keep counting *all* trips regardless of the
        cap.
    seed:
        Priority seed for the capped sample (part of the sample's
        identity; ignored without a cap).
    """

    def __init__(self, *, max_trips: int | None = None, seed: int = 0) -> None:
        if max_trips is not None and max_trips < 1:
            raise ValidationError("max_trips must be a positive integer")
        self._max_trips = max_trips
        self._seed = int(seed)
        self._u: list[np.ndarray] = []
        self._v: list[np.ndarray] = []
        self._dep: list[np.ndarray] = []
        self._arr: list[np.ndarray] = []
        self._hops: list[np.ndarray] = []
        self._dur: list[np.ndarray] = []
        self._retained = 0
        self.num_recorded = 0
        self.hops_total = 0
        self.duration_total = 0

    @property
    def max_trips(self) -> int | None:
        return self._max_trips

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def empty(self) -> bool:
        """Whether the collector has seen no trips yet (merge contract)."""
        return not self.num_recorded

    def record(
        self,
        source: int,
        dep: float,
        targets: np.ndarray,
        arrivals: np.ndarray,
        hops: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        count = targets.size
        if not count:
            return
        self.num_recorded += count
        self.hops_total += int(hops.sum())
        self.duration_total += durations.sum().item()
        self._u.append(np.full(count, source, dtype=np.int64))
        self._v.append(targets.copy())
        self._dep.append(np.full(count, dep))
        self._arr.append(arrivals.copy())
        self._hops.append(hops.copy())
        self._dur.append(durations.copy())
        self._retained += count
        self._maybe_compact()

    def record_batch(
        self,
        sources: np.ndarray,
        dep: np.ndarray,
        targets: np.ndarray,
        arrivals: np.ndarray,
        hops: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        """Consume one multi-source batch (the scan kernel's feed).

        ``dep`` holds each trip's departure, parallel to ``sources``.
        Appends the whole batch as one chunk.  Bit-identical to the
        per-source :meth:`record` calls of :func:`record_batch_fallback`:
        the rows arrive in the same order with the same values (a scalar
        departure fills the same column dtype), the retained set is a
        pure function of the trip multiset (the bottom-``max_trips``
        priority sketch), so batch boundaries never show in
        :meth:`trips`, and the totals are integer sums — except
        ``duration_total`` on float stream timestamps, which is summed
        per batch.
        """
        count = targets.size
        if not count:
            return
        self.num_recorded += count
        self.hops_total += int(hops.sum())
        self.duration_total += durations.sum().item()
        self._u.append(sources.astype(np.int64, copy=True))
        self._v.append(targets.copy())
        self._dep.append(dep.copy())
        self._arr.append(arrivals.copy())
        self._hops.append(hops.copy())
        self._dur.append(durations.copy())
        self._retained += count
        self._maybe_compact()

    def _maybe_compact(self, *, force: bool = False) -> None:
        """Shrink the retained rows back to the bottom-``max_trips`` of
        the priority order (total order: priority, then trip identity,
        so the retained set never depends on arrival order)."""
        cap = self._max_trips
        if cap is None or not self._retained:
            return
        if not force and self._retained <= max(2 * cap, cap + 256):
            return
        u = np.concatenate(self._u)
        v = np.concatenate(self._v)
        dep = np.concatenate(self._dep)
        arr = np.concatenate(self._arr)
        hops = np.concatenate(self._hops)
        dur = np.concatenate(self._dur)
        if u.size > cap:
            priority = trip_priorities(u, v, dep, arr, seed=self._seed)
            order = np.lexsort((arr, dep, v, u, priority))[:cap]
            u, v, dep, arr, hops, dur = (
                u[order], v[order], dep[order], arr[order], hops[order], dur[order]
            )
        self._u, self._v, self._dep = [u], [v], [dep]
        self._arr, self._hops, self._dur = [arr], [hops], [dur]
        self._retained = u.size

    def merge(self, other: "TripListCollector") -> "TripListCollector":
        """Absorb another collector's batches (in-place; returns ``self``).

        Used to reassemble a scan from spliced window spans: each span
        sees a disjoint subset of the trips, so concatenating batch
        lists loses nothing.  Batch
        order follows merge order, not global scan order.  Capped
        collectors must share ``max_trips`` and ``seed``; the merged
        retained set is the bottom-``max_trips`` of the union —
        identical to one whole capped collection.
        """
        if not isinstance(other, TripListCollector):
            raise ValidationError(
                f"cannot merge TripListCollector with {type(other).__name__}"
            )
        if (self._max_trips, self._seed) != (other._max_trips, other._seed):
            raise ValidationError(
                "cannot merge trip collectors with different caps or seeds: "
                f"({self._max_trips}, {self._seed}) vs "
                f"({other._max_trips}, {other._seed})"
            )
        self._u.extend(other._u)
        self._v.extend(other._v)
        self._dep.extend(other._dep)
        self._arr.extend(other._arr)
        self._hops.extend(other._hops)
        self._dur.extend(other._dur)
        self._retained += other._retained
        self.num_recorded += other.num_recorded
        self.hops_total += other.hops_total
        self.duration_total += other.duration_total
        self._maybe_compact()
        return self

    def segment_handoff(self) -> "TripListCollector":
        """Freeze this collector as a scan segment; return its successor.

        The **checkpoint contract** behind incremental scan resume: at a
        checkpointed window boundary the scan swaps in the returned
        fresh collector (same cap and seed — the sample identity) and
        keeps feeding *it*, leaving ``self`` holding exactly the trips
        of one contiguous window span.  Cached spans are later spliced
        into a resumed scan's collectors via :meth:`merge`, which reads
        but never mutates the absorbed side — so a cached segment stays
        pristine across any number of reuses.
        """
        return TripListCollector(max_trips=self._max_trips, seed=self._seed)

    def trips(self) -> TripSet:
        """Assemble the retained batches into one :class:`TripSet`."""
        self._maybe_compact(force=True)
        if not self._u or not self._retained:
            empty = np.empty(0, dtype=np.int64)
            return TripSet(empty, empty.copy(), np.empty(0), np.empty(0), empty.copy(), np.empty(0))
        return TripSet(
            np.concatenate(self._u),
            np.concatenate(self._v),
            np.concatenate(self._dep),
            np.concatenate(self._arr),
            np.concatenate(self._hops),
            np.concatenate(self._dur),
        )


class CountingCollector:
    """Counts trips and tracks hop/duration extrema without storing them."""

    def __init__(self) -> None:
        self.num_trips = 0
        self.max_hops = 0
        self.max_duration = 0.0

    @property
    def empty(self) -> bool:
        """Whether the collector has seen no trips yet (merge contract)."""
        return not self.num_trips

    def record(
        self,
        source: int,
        dep: float,
        targets: np.ndarray,
        arrivals: np.ndarray,
        hops: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        if not targets.size:
            return
        self.num_trips += targets.size
        self.max_hops = max(self.max_hops, int(hops.max()))
        self.max_duration = max(self.max_duration, float(durations.max()))

    def record_batch(
        self,
        sources: np.ndarray,
        dep: np.ndarray,
        targets: np.ndarray,
        arrivals: np.ndarray,
        hops: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        """Consume one multi-source batch (the scan kernel's feed;
        ``dep`` is the per-trip departure array, unused here).

        Counts and maxima are order-free, so one batch fold is trivially
        identical to the per-source calls.
        """
        if not targets.size:
            return
        self.num_trips += targets.size
        self.max_hops = max(self.max_hops, int(hops.max()))
        self.max_duration = max(self.max_duration, float(durations.max()))

    def merge(self, other: "CountingCollector") -> "CountingCollector":
        """Absorb another collector's tallies (in-place; returns ``self``)."""
        self.num_trips += other.num_trips
        self.max_hops = max(self.max_hops, other.max_hops)
        self.max_duration = max(self.max_duration, other.max_duration)
        return self

    def segment_handoff(self) -> "CountingCollector":
        """Freeze this collector as a scan segment; return its successor
        (see :meth:`TripListCollector.segment_handoff`).  Counts and
        maxima are order-free folds, so a fresh collector is all the
        successor needs."""
        return CountingCollector()


class ChainCollector:
    """Fans every batch out to several collectors.

    :func:`~repro.temporal.reachability.scan_series` accepts a sequence
    of consumers directly (the fused measure pipeline), which is the
    preferred spelling; this wrapper remains for callers that need a
    single collector-shaped object (e.g. :func:`scan_stream` pipelines
    built around one collector slot).

    The chain satisfies the same merge contract as its children:
    :meth:`merge` zips two equal-shape chains together (child ``i``
    absorbs the other chain's child ``i``), and :attr:`empty` reports
    whether every child is empty — so a chained consumer splices and
    merges exactly like a bare collector.
    """

    def __init__(self, *collectors: TripCollector) -> None:
        self._collectors = collectors

    @property
    def collectors(self) -> tuple:
        """The wrapped collectors, in fan-out order."""
        return self._collectors

    @property
    def empty(self) -> bool:
        """Whether every wrapped collector is empty (merge contract).

        An empty chain (no children) is vacuously empty.  Children must
        expose ``empty`` themselves — all built-in collectors do.
        """
        return all(collector.empty for collector in self._collectors)

    def record(
        self,
        source: int,
        dep: float,
        targets: np.ndarray,
        arrivals: np.ndarray,
        hops: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        for collector in self._collectors:
            collector.record(source, dep, targets, arrivals, hops, durations)

    def record_batch(
        self,
        sources: np.ndarray,
        dep: np.ndarray,
        targets: np.ndarray,
        arrivals: np.ndarray,
        hops: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        """Fan one multi-source batch (``dep`` per trip, parallel to
        ``sources``) out to every child — natively when the child
        implements ``record_batch``, through
        :func:`record_batch_fallback` (per-(window, source) ``record``
        calls with a scalar departure, in the reference order)
        otherwise."""
        for collector in self._collectors:
            record_batch = getattr(collector, "record_batch", None)
            if record_batch is not None:
                record_batch(sources, dep, targets, arrivals, hops, durations)
            else:
                record_batch_fallback(
                    collector, sources, dep, targets, arrivals, hops, durations
                )

    def merge(self, other: "ChainCollector") -> "ChainCollector":
        """Absorb another chain child-by-child (in-place; returns ``self``).

        The chains must have the same length; child ``i`` merges the
        other chain's child ``i`` via its own ``merge``, which also
        enforces the children's type compatibility.
        """
        if not isinstance(other, ChainCollector):
            raise ValidationError(
                f"cannot merge ChainCollector with {type(other).__name__}"
            )
        if len(self._collectors) != len(other._collectors):
            raise ValidationError(
                f"cannot merge chains of {len(self._collectors)} and "
                f"{len(other._collectors)} collectors"
            )
        for mine, theirs in zip(self._collectors, other._collectors):
            mine.merge(theirs)
        return self

    def segment_handoff(self) -> "ChainCollector":
        """Freeze this chain as a scan segment; return a successor chain
        of the children's own handoffs (see
        :meth:`TripListCollector.segment_handoff`).  Every child must
        support the checkpoint contract itself."""
        successors = []
        for collector in self._collectors:
            handoff = getattr(collector, "segment_handoff", None)
            if handoff is None:
                raise ValidationError(
                    f"{type(collector).__name__} does not support "
                    "segment_handoff; cannot checkpoint a chain around it"
                )
            successors.append(handoff())
        return ChainCollector(*successors)
