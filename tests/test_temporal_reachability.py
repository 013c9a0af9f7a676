"""Unit tests for the backward reachability scan on known instances."""

import numpy as np
import pytest

from repro.core.occupancy import OccupancyCollector, series_occupancy
from repro.generators import time_uniform_stream
from repro.graphseries import GraphSeries, aggregate
from repro.linkstream import LinkStream
from repro.temporal import (
    CountingCollector,
    DistanceTotals,
    TripListCollector,
    scan_series,
    scan_stream,
    series_distance_stats,
)
from repro.utils.errors import ValidationError


def series_trips(series):
    collector = TripListCollector()
    scan_series(series, collector)
    return sorted(collector.trips().as_tuples())


class TestChain:
    """Stream 0->1 (t=1), 1->2 (t=3), 2->3 (t=5)."""

    def test_series_per_timestamp(self, chain_stream):
        series = aggregate(chain_stream, 1.0)  # steps 0,2,4 carry the edges
        trips = series_trips(series)
        # Direct trips: (0,1,0,0), (1,2,2,2), (2,3,4,4)
        assert (0, 1, 0, 0, 1) in trips
        assert (1, 2, 2, 2, 1) in trips
        assert (2, 3, 4, 4, 1) in trips
        # Chained minimal trips with exact hop counts.
        assert (0, 2, 0, 2, 2) in trips
        assert (0, 3, 0, 4, 3) in trips
        assert (1, 3, 2, 4, 2) in trips
        assert len(trips) == 6

    def test_direction_respected(self, chain_stream):
        series = aggregate(chain_stream, 1.0)
        trips = series_trips(series)
        assert not any(t[0] == 3 for t in trips)  # nothing departs node 3

    def test_full_aggregation_only_single_links(self, chain_stream):
        series = aggregate(chain_stream, chain_stream.span + 1)
        trips = series_trips(series)
        # One window: every edge is a 1-hop trip with occupancy 1; no chains.
        assert trips == [
            (0, 1, 0, 0, 1),
            (1, 2, 0, 0, 1),
            (2, 3, 0, 0, 1),
        ]

    def test_same_window_links_do_not_chain(self, chain_stream):
        # Delta=5 puts events 1,3,5 into windows 0,0,0 -> no 2-hop trips.
        series = aggregate(chain_stream, 5.0)
        trips = series_trips(series)
        assert all(t[4] == 1 for t in trips)


class TestUndirected:
    def test_both_directions_usable(self):
        stream = LinkStream([0, 1], [1, 2], [1, 2], directed=False)
        series = aggregate(stream, 1.0)
        trips = series_trips(series)
        assert (0, 2, 0, 1, 2) in trips  # 0-1 then 1-2
        assert (2, 1, 1, 1, 1) in trips  # reverse direction of edge (1,2)

    def test_cycle_not_reported_without_include_self(self):
        stream = LinkStream([0, 1], [1, 0], [1, 2], directed=True)
        series = aggregate(stream, 1.0)
        trips = series_trips(series)
        assert not any(t[0] == t[1] for t in trips)

    def test_cycle_reported_with_include_self(self):
        stream = LinkStream([0, 1], [1, 0], [1, 2], directed=True)
        series = aggregate(stream, 1.0)
        collector = TripListCollector()
        scan_series(series, collector, include_self=True)
        trips = sorted(collector.trips().as_tuples())
        assert (0, 0, 0, 1, 2) in trips


class TestTieBreaking:
    def test_min_hops_among_equal_arrival_routes(self):
        # Two routes 0 -> 3 both arriving at step 4: 0->2@1 then 2->3@5
        # (2 hops) and 0->1@1 then 1->?@...: use parallel relays.
        stream = LinkStream([0, 0, 1, 2], [1, 2, 2, 3], [1, 1, 3, 5])
        series = aggregate(stream, 1.0)
        trips = {(t[0], t[1], t[2], t[3]): t[4] for t in series_trips(series)}
        # Routes: 0->2@0 -> 3@4 (2 hops) and 0->1@0 -> 2@2 -> 3@4 (3 hops).
        assert trips[(0, 3, 0, 4)] == 2

    def test_tie_update_propagates_to_earlier_departures(self):
        # From node 0, a 3-hop route departs at step 2 and a 2-hop route
        # departs at step 1, both arriving at step 4.  The minimal trip
        # (0,3,2,4) keeps 3 hops, but node 5 hopping to 0 at step 0 must
        # see the 2-hop continuation: trip (5,3,0,4) has 1+2 = 3 hops.
        stream = LinkStream(
            [5, 0, 0, 1, 2, 4],
            [0, 4, 1, 2, 3, 3],
            [0, 1, 2, 3, 4, 4],
        )
        series = aggregate(stream, 1.0)
        trips = {(t[0], t[1], t[2], t[3]): t[4] for t in series_trips(series)}
        assert trips[(0, 3, 2, 4)] == 3
        assert (0, 3, 1, 4) not in trips  # dominated by the dep-2 trip
        assert trips[(5, 3, 0, 4)] == 3  # uses the 2-hop continuation

    def test_later_departure_with_fewer_hops_is_separate_trip(self):
        # 0->1->2 over [1,4]; direct 0->2 at 6: both minimal (Pareto).
        stream = LinkStream([0, 1, 0], [1, 2, 2], [1, 4, 6])
        series = aggregate(stream, 1.0)
        trips = series_trips(series)
        assert (0, 2, 0, 3, 2) in trips
        assert (0, 2, 5, 5, 1) in trips


class TestStreamScan:
    def test_durations_use_stream_convention(self, chain_stream):
        collector = TripListCollector()
        scan_stream(chain_stream, collector)
        trips = collector.trips()
        lookup = {
            (int(u), int(v), d, a): dur
            for u, v, d, a, dur in zip(trips.u, trips.v, trips.dep, trips.arr, trips.durations)
        }
        assert lookup[(0, 1, 1, 1)] == 0  # single event: zero duration
        assert lookup[(0, 3, 1, 5)] == 4

    def test_simultaneous_events_do_not_chain(self):
        stream = LinkStream([0, 1], [1, 2], [5, 5])
        collector = TripListCollector()
        scan_stream(stream, collector)
        trips = collector.trips()
        assert not any((u, v) == (0, 2) for u, v in zip(trips.u, trips.v))

    def test_float_timestamps(self):
        stream = LinkStream([0, 1], [1, 2], [0.5, 1.25])
        collector = TripListCollector()
        scan_stream(stream, collector)
        trips = sorted(collector.trips().as_tuples())
        assert (0, 2, 0.5, 1.25, 2) in trips


class TestCollectors:
    def test_counting_collector_matches_list(self, medium_stream):
        series = aggregate(medium_stream, 50.0)
        listing = TripListCollector()
        counting = CountingCollector()
        scan_series(series, listing)
        result = scan_series(series, counting)
        assert counting.num_trips == len(listing.trips())
        assert result.num_trips == counting.num_trips

    def test_scan_without_collector_still_counts(self, medium_stream):
        series = aggregate(medium_stream, 50.0)
        collector = TripListCollector()
        scan_series(series, collector)
        assert scan_series(series).num_trips == len(collector.trips())


class TestDistances:
    def test_single_edge_distances(self):
        stream = LinkStream([0], [1], [0], num_nodes=2)
        series = aggregate(stream, 1.0)
        stats = series_distance_stats(series)
        # One window; only (0 -> 1, depart step 0): distance 1 step, 1 hop.
        assert stats.reachable_count == 1
        assert stats.mean_distance_steps == pytest.approx(1.0)
        assert stats.mean_distance_hops == pytest.approx(1.0)

    def test_unreachable_pairs_excluded(self):
        stream = LinkStream([0], [1], [0], num_nodes=3)
        series = aggregate(stream, 1.0)
        stats = series_distance_stats(series)
        assert stats.reachable_count == 1
        assert stats.reachable_fraction == pytest.approx(1 / 6)

    def test_empty_window_runs_counted(self):
        # Edge at t=0 and t=10; delta=1 -> 11 windows; departures 0..10
        # all reach 1 via some edge... only via edges at steps 0 and 10.
        stream = LinkStream([0, 0], [1, 1], [0, 10], num_nodes=2)
        series = aggregate(stream, 1.0)
        stats = series_distance_stats(series)
        # Departing at step t <= 10 arrives at step 0 if t == 0 else step 10.
        # d_time = 1 for t=0; 10-t+1 for 1<=t<=10 -> values 1,10,9,...,1.
        expected = (1 + sum(range(1, 11))) / 11
        assert stats.reachable_count == 11
        assert stats.mean_distance_steps == pytest.approx(expected)

    def test_distance_totals_ride_a_shared_scan(self, medium_stream):
        # The accumulator is an ordinary scan consumer: feeding it next
        # to a trip collector changes neither the trips nor the stats.
        series = aggregate(medium_stream, 50.0)
        alone = series_distance_stats(series)
        totals = DistanceTotals()
        collector = TripListCollector()
        fused = scan_series(series, [collector, totals])
        assert totals.stats(series.num_nodes, series.num_steps) == alone
        assert fused.num_trips == len(collector.trips())

    def test_distance_shards_merge_to_full_scan(self, medium_stream):
        series = aggregate(medium_stream, 50.0)
        reference = series_distance_stats(series)
        merged = DistanceTotals()
        for i in range(3):
            shard = DistanceTotals()
            scan_series(
                series, shard, targets=np.arange(i, series.num_nodes, 3)
            )
            merged.merge(shard)
        assert merged.stats(series.num_nodes, series.num_steps) == reference


class TestScanTargets:
    @pytest.fixture(scope="class")
    def series(self):
        return aggregate(time_uniform_stream(12, 6, 5000.0, seed=0), 500.0)

    def test_disjoint_targets_partition_the_trip_set(self, series):
        full = scan_series(series)
        subset_trips = [
            scan_series(
                series, targets=np.arange(i, series.num_nodes, 3)
            ).num_trips
            for i in range(3)
        ]
        assert sum(subset_trips) == full.num_trips
        assert all(count > 0 for count in subset_trips)

    def test_full_target_set_matches_unrestricted(self, series):
        collector_full = TripListCollector()
        scan_series(series, collector_full)
        collector_all = TripListCollector()
        scan_series(
            collector=collector_all,
            series=series,
            targets=np.arange(series.num_nodes),
        )
        full = collector_full.trips()
        restricted = collector_all.trips()
        assert full.v.tolist() == restricted.v.tolist()
        assert full.durations.tolist() == restricted.durations.tolist()

    def test_restricted_scan_only_reports_chosen_destinations(self, series):
        targets = np.array([0, 5, 7])
        collector = TripListCollector()
        scan_series(series, collector, targets=targets)
        assert set(collector.trips().v.tolist()) <= set(targets.tolist())

    def test_empty_targets_rejected(self, series):
        with pytest.raises(ValidationError):
            scan_series(series, targets=np.array([], dtype=np.int64))

    def test_out_of_range_targets_rejected(self, series):
        with pytest.raises(ValidationError):
            scan_series(series, targets=[series.num_nodes])
        with pytest.raises(ValidationError):
            scan_series(series, targets=[-1])

    def test_distance_totals_compose_with_targets(self, series):
        # Distance statistics used to be incompatible with a target
        # restriction (the hard-wired compute_distances flag); as a
        # collector-style consumer they restrict and merge like every
        # other one.
        reference = DistanceTotals()
        scan_series(series, reference)
        merged = DistanceTotals()
        for i in range(3):
            part = DistanceTotals()
            scan_series(series, part, targets=np.arange(i, series.num_nodes, 3))
            merged.merge(part)
        assert merged.stats(series.num_nodes, series.num_steps) == (
            reference.stats(series.num_nodes, series.num_steps)
        )

    def test_multi_collector_scan_feeds_all_consumers_once(self, series):
        # One pass, many measures: a fused consumer set sees exactly what
        # dedicated single-consumer scans see.
        occupancy_alone, num_trips = series_occupancy(series)
        totals_alone = DistanceTotals()
        scan_series(series, totals_alone)

        occupancy = OccupancyCollector()
        totals = DistanceTotals()
        counting = CountingCollector()
        result = scan_series(series, [occupancy, totals, counting])
        assert counting.num_trips == num_trips == occupancy.num_trips
        assert result.num_trips == num_trips
        fused_distribution = occupancy.distribution()
        assert fused_distribution.values.tolist() == occupancy_alone.values.tolist()
        assert fused_distribution.weights.tolist() == occupancy_alone.weights.tolist()
        assert totals.stats(series.num_nodes, series.num_steps) == (
            totals_alone.stats(series.num_nodes, series.num_steps)
        )

    def test_unknown_consumer_rejected(self, series):
        with pytest.raises(ValidationError, match="neither a trip collector"):
            scan_series(series, object())
