"""Occupancy-rate collection for aggregated graph series.

Bridges the temporal engine to the statistics layer: an
:class:`OccupancyCollector` consumes minimal-trip batches from the
backward scan and accumulates their occupancy rates
``hops(P) / time(P)`` (Definition 7), either exactly or in a fixed
histogram (with the atom at occupancy 1 always kept exact, since the
paper tracks precisely the growth of that mass beyond the saturation
scale).
"""

from __future__ import annotations

import numpy as np

from repro.core.distribution import OccupancyDistribution
from repro.graphseries.aggregation import aggregate_cached
from repro.graphseries.series import GraphSeries
from repro.linkstream.stream import LinkStream
from repro.temporal.reachability import scan_series
from repro.utils.errors import ValidationError


class OccupancyCollector:
    """Accumulates occupancy rates of minimal trips from a backward scan.

    Parameters
    ----------
    bins:
        Number of equal-width histogram bins on ``(0, 1)``.  Ignored in
        exact mode.
    exact:
        Keep every distinct ``hops/duration`` value exactly.  Slower and
        memory-hungry on large series; intended for small studies and for
        validating the histogram resolution (see the ablation bench).
    """

    def __init__(self, *, bins: int = 4096, exact: bool = False) -> None:
        if bins < 2:
            raise ValidationError("need at least two histogram bins")
        self._bins = bins
        self._exact = exact
        self._counts = np.zeros(bins, dtype=np.int64)
        #: Bin of each entry of ``_counts`` once :meth:`segment_handoff`
        #: froze this collector to its nonzero bins; ``None`` while dense.
        self._index: np.ndarray | None = None
        self._ones = 0
        self._chunks: list[np.ndarray] = []
        self._num_trips = 0

    @property
    def num_trips(self) -> int:
        return self._num_trips

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
        if np.any(durations <= 0):
            # scan_stream's Definition-4 convention (arr - dep) gives direct
            # hops duration 0; occupancy rates are only defined on series
            # durations (arr - dep + 1 >= 1).  Fail loudly instead of
            # silently emitting inf.
            raise ValidationError(
                "minimal trip with non-positive duration: occupancy rates "
                "require series durations (arr - dep + 1); feed this "
                "collector from scan_series, not scan_stream"
            )
        occ = hops / durations
        self._num_trips += occ.size
        if self._exact:
            self._chunks.append(occ)
            return
        exact_one = hops == durations
        self._ones += int(exact_one.sum())
        interior = occ[~exact_one]
        if interior.size:
            idx = np.minimum((interior * self._bins).astype(np.int64), self._bins - 1)
            self._thaw()
            np.add.at(self._counts, idx, 1)

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

        Every per-trip quantity here (the ``hops/durations`` division,
        the exact atom at 1, the bin index) is elementwise and every
        tally an integer count, so folding the flattened batch is
        bit-identical to the per-source :meth:`record` calls — in exact
        mode the chunk list concatenates to the same value sequence
        (rows arrive in window-then-source-then-destination order).
        """
        if not targets.size:
            return
        self.record(-1, -1, targets, arrivals, hops, durations)

    def merge(self, other: "OccupancyCollector") -> "OccupancyCollector":
        """Absorb another collector's mass (in-place; returns ``self``).

        Collectors fed from disjoint window spans of one scan (which the
        incremental splice reassembles) sum back — histogram counts and
        the exact atom at 1 are integer tallies, exact-mode chunks are
        disjoint trip subsets — to precisely the accumulator one whole
        scan would have produced, so the merged :meth:`distribution` is
        bit-identical to it.  ``other`` is read, never mutated.
        """
        if not isinstance(other, OccupancyCollector):
            raise ValidationError(
                f"cannot merge OccupancyCollector with {type(other).__name__}"
            )
        if self._exact != other._exact:
            raise ValidationError(
                "cannot merge exact and histogram occupancy collectors"
            )
        if self._exact:
            # Exact mode accumulates chunks only; bin counts are unused
            # (and may legitimately differ in size between collectors).
            self._chunks.extend(other._chunks)
        else:
            if self._bins != other._bins:
                raise ValidationError(
                    f"cannot merge histograms with {self._bins} and "
                    f"{other._bins} bins"
                )
            self._thaw()
            if other._index is None:
                self._counts += other._counts
            else:
                self._counts[other._index] += other._counts
            self._ones += other._ones
        self._num_trips += other._num_trips
        return self

    def segment_handoff(self) -> "OccupancyCollector":
        """Freeze this collector as a scan segment; return its successor.

        The checkpoint contract of incremental scan resume (see
        :meth:`TripListCollector.segment_handoff
        <repro.temporal.collectors.TripListCollector.segment_handoff>`):
        all occupancy tallies are order-free integer folds, so the
        successor is simply a fresh collector with the same histogram
        geometry, and cached segments splice back via :meth:`merge`.

        The frozen span keeps only its nonzero bins (bin indices plus
        counts): a span covers a few windows, so it touches a few dozen
        of the thousands of bins, and the series store holds many
        spans.
        """
        if not self._exact and self._index is None:
            self._index = np.flatnonzero(self._counts)
            self._counts = self._counts[self._index]
        return OccupancyCollector(bins=self._bins, exact=self._exact)

    def _thaw(self) -> None:
        """Expand frozen nonzero bins back to the dense histogram."""
        if self._index is not None:
            self._counts = self._dense_counts()
            self._index = None

    def _dense_counts(self) -> np.ndarray:
        if self._index is None:
            return self._counts
        counts = np.zeros(self._bins, dtype=np.int64)
        counts[self._index] = self._counts
        return counts

    @property
    def empty(self) -> bool:
        """Whether the collector holds no trips yet.

        A legitimately common state: a window span that receives zero
        trips, or a freshly built merge accumulator.
        Empty collectors record and :meth:`merge` like any other; only
        :meth:`distribution` — final assembly — requires mass.
        """
        return not self._num_trips

    def distribution(self) -> OccupancyDistribution:
        """Assemble the collected rates into a distribution.

        Raises :class:`ValidationError` when the collector — after all
        merges — holds no trips at all: a distribution needs mass.  Call
        this only at final assembly; partial collectors may legitimately
        be :attr:`empty`.
        """
        if not self._num_trips:
            raise ValidationError(
                "no minimal trips collected (empty series, or partial "
                "collectors merged into an empty total?)"
            )
        if self._exact:
            values = np.concatenate(self._chunks)
            return OccupancyDistribution(values)
        return OccupancyDistribution.from_histogram(
            self._dense_counts(), ones_count=self._ones
        )


def series_occupancy(
    series: GraphSeries,
    *,
    bins: int = 4096,
    exact: bool = False,
    include_self: bool = False,
) -> tuple[OccupancyDistribution, int]:
    """Occupancy-rate distribution of all minimal trips of a series.

    Returns ``(distribution, num_trips)``.
    """
    collector = OccupancyCollector(bins=bins, exact=exact)
    scan_series(series, collector, include_self=include_self)
    return collector.distribution(), collector.num_trips


def stream_occupancy_at(
    stream: LinkStream,
    delta: float,
    *,
    origin: float | None = None,
    bins: int = 4096,
    exact: bool = False,
    include_self: bool = False,
) -> tuple[OccupancyDistribution, GraphSeries, int]:
    """Aggregate at Δ and compute the occupancy distribution in one shot.

    Returns ``(distribution, series, num_trips)``.  Aggregation goes
    through :func:`~repro.graphseries.aggregation.aggregate_cached`, so
    an interactive call at some Δ reads the series a sweep stored in the
    per-process series store (and vice versa).
    """
    series = aggregate_cached(stream, [delta], origin=origin)[0]
    distribution, num_trips = series_occupancy(
        series, bins=bins, exact=exact, include_self=include_self
    )
    return distribution, series, num_trips
