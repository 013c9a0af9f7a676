"""Information-loss validation of an aggregation period (Section 8).

Two measures quantify how much propagation structure a given Δ destroys,
validating the saturation scale returned by the occupancy method:

* **Shortest transitions lost** — a shortest transition (Definition 6)
  is a two-hop minimal trip of the original stream; it survives
  aggregation iff its two hops land in different windows.  The lost
  fraction is the paper's pessimistic loss measure (Figure 8 left:
  ~48 % lost at γ for Irvine).
* **Elongation factor** (Definition 8) — how much longer the minimal
  trips of the aggregated series are, relative to the fastest stream
  trip available inside the same absolute time window (Figure 8 right:
  mean < 1.5 at γ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphseries.aggregation import aggregate_cached
from repro.linkstream.stream import LinkStream
from repro.temporal.collectors import TripListCollector
from repro.temporal.reachability import scan_series, scan_stream
from repro.temporal.trips import PairTripIndex, TripSet
from repro.utils.errors import ValidationError
from repro.utils.rng import ensure_rng


def stream_minimal_trips(stream: LinkStream) -> TripSet:
    """All minimal trips of the original link stream."""
    collector = TripListCollector()
    scan_stream(stream, collector)
    return collector.trips()


def shortest_transitions(stream: LinkStream, trips: TripSet | None = None) -> TripSet:
    """The stream's shortest transitions: minimal trips of exactly 2 hops.

    These are the key units of propagation (Definition 6): losing one
    means the aggregated series no longer knows whether the two links
    could chain.
    """
    if trips is None:
        trips = stream_minimal_trips(stream)
    return trips.select(trips.hops == 2)


def transitions_lost_fraction(
    transitions: TripSet,
    delta: float,
    *,
    origin: float,
) -> float:
    """Fraction of shortest transitions whose two hops share a window.

    A transition's hops occur exactly at its departure and arrival times
    (both are realized by the 2-hop path), so it is lost at scale Δ iff
    those two instants aggregate into the same window — the loss of
    link-order information the paper identifies as the essential damage.
    """
    if not len(transitions):
        raise ValidationError("stream has no shortest transitions")
    window_dep = np.floor((transitions.dep - origin) / delta).astype(np.int64)
    window_arr = np.floor((transitions.arr - origin) / delta).astype(np.int64)
    return float(np.mean(window_dep == window_arr))


@dataclass(frozen=True)
class TransitionLossCurve:
    """Lost-transition fractions over a Δ grid (Figure 8 left)."""

    deltas: np.ndarray
    lost_fractions: np.ndarray
    num_transitions: int

    def lost_at(self, delta: float) -> float:
        """Lost fraction at the grid point nearest to ``delta``."""
        idx = int(np.argmin(np.abs(self.deltas - delta)))
        return float(self.lost_fractions[idx])


def transition_loss_curve(
    stream: LinkStream,
    deltas: np.ndarray,
    *,
    origin: float | None = None,
) -> TransitionLossCurve:
    """Compute the lost-transition fraction for every Δ in the grid.

    The stream's transitions are computed once; each Δ is then a single
    vectorized pass.
    """
    if origin is None:
        origin = stream.t_min
    transitions = shortest_transitions(stream)
    if not len(transitions):
        raise ValidationError("stream has no shortest transitions to lose")
    deltas = np.asarray(deltas, dtype=np.float64)
    fractions = np.array(
        [
            transitions_lost_fraction(transitions, float(d), origin=origin)
            for d in deltas
        ]
    )
    return TransitionLossCurve(deltas, fractions, len(transitions))


@dataclass(frozen=True)
class ElongationPoint:
    """Elongation summary of one aggregation period."""

    delta: float
    mean_factor: float
    median_factor: float
    num_trips_measured: int
    num_trips_skipped: int


def elongation_at(
    stream: LinkStream,
    delta: float,
    *,
    stream_index: PairTripIndex | None = None,
    origin: float | None = None,
    max_trips: int | None = 200_000,
    seed: int | np.random.Generator | None = 0,
) -> ElongationPoint:
    """Mean elongation factor of the series ``G_Δ`` (Definition 8).

    For every minimal trip ``(u, v, dep, arr)`` of the aggregated series
    with ``dep != arr``, the factor is
    ``(arr - dep + 1)·Δ / timeL`` where ``timeL`` is the minimum duration
    of the stream's minimal trips of the pair inside the absolute window
    spanned by the series trip.  ``max_trips`` bounds the per-Δ cost by
    uniform subsampling (measured trips are an unbiased sample).
    """
    if origin is None:
        origin = stream.t_min
    if stream_index is None:
        stream_index = PairTripIndex(stream_minimal_trips(stream), stream.num_nodes)
    # The cached aggregation typically hits: validation at gamma follows
    # a sweep that already materialized the series at gamma.
    series = aggregate_cached(stream, [delta], origin=origin)[0]
    collector = TripListCollector()
    scan_series(series, collector)
    trips = collector.trips()
    multi = trips.select(trips.dep != trips.arr)
    total = len(multi)
    if not total:
        return ElongationPoint(delta, float("nan"), float("nan"), 0, 0)
    if max_trips is not None and total > max_trips:
        rng = ensure_rng(seed)
        chosen = rng.choice(total, size=max_trips, replace=False)
        multi = multi.select(np.isin(np.arange(total), chosen))
    factors = []
    skipped = 0
    for u, v, dep, arr, dur in zip(multi.u, multi.v, multi.dep, multi.arr, multi.durations):
        window_start = origin + float(dep) * delta
        window_end = origin + (float(arr) + 1.0) * delta
        best = stream_index.min_duration_in_window(int(u), int(v), window_start, window_end)
        if best is None or best <= 0:
            # A zero-duration stream trip inside the window would imply a
            # one-window series trip, contradicting dep != arr; treat
            # defensively as unmeasurable.
            skipped += 1
            continue
        factors.append(float(dur) * delta / best)
    if not factors:
        return ElongationPoint(delta, float("nan"), float("nan"), 0, skipped)
    factors_arr = np.asarray(factors)
    return ElongationPoint(
        delta=delta,
        mean_factor=float(factors_arr.mean()),
        median_factor=float(np.median(factors_arr)),
        num_trips_measured=factors_arr.size,
        num_trips_skipped=skipped,
    )


@dataclass(frozen=True)
class ElongationCurve:
    """Elongation summaries over a Δ grid (Figure 8 right)."""

    points: list[ElongationPoint]

    @property
    def deltas(self) -> np.ndarray:
        return np.array([p.delta for p in self.points])

    @property
    def mean_factors(self) -> np.ndarray:
        return np.array([p.mean_factor for p in self.points])


def elongation_curve(
    stream: LinkStream,
    deltas: np.ndarray,
    *,
    origin: float | None = None,
    max_trips: int | None = 200_000,
    seed: int | np.random.Generator | None = 0,
) -> ElongationCurve:
    """Mean elongation factor for every Δ in the grid.

    The stream's minimal-trip index is built once and shared.
    """
    index = PairTripIndex(stream_minimal_trips(stream), stream.num_nodes)
    points = [
        elongation_at(
            stream,
            float(d),
            stream_index=index,
            origin=origin,
            max_trips=max_trips,
            seed=seed,
        )
        for d in np.asarray(deltas, dtype=np.float64)
    ]
    return ElongationCurve(points)
