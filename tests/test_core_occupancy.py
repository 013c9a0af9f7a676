"""Unit tests for occupancy collection (Definition 7 in practice)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import series_occupancy, stream_occupancy_at
from repro.core.occupancy import OccupancyCollector
from repro.generators import time_uniform_stream
from repro.graphseries import aggregate
from repro.linkstream import LinkStream
from repro.temporal.collectors import CountingCollector, TripListCollector
from repro.temporal.reachability import DistanceTotals, scan_series
from repro.utils.errors import ValidationError


class TestCollector:
    def test_rejects_single_bin(self):
        with pytest.raises(ValidationError):
            OccupancyCollector(bins=1)

    def test_empty_collection_rejected(self):
        collector = OccupancyCollector()
        with pytest.raises(ValidationError):
            collector.distribution()

    def test_zero_duration_trips_rejected(self):
        """Regression: ``hops / durations`` used to emit ``inf`` silently.

        ``scan_stream`` uses the Definition-4 duration convention
        ``arr - dep``, so a direct hop has duration 0; feeding its trips
        to an occupancy collector must fail loudly, in both modes.
        """
        from repro.temporal.reachability import scan_stream

        stream = LinkStream([0, 1], [1, 2], [10, 20], num_nodes=3)
        for kwargs in ({}, {"exact": True}):
            collector = OccupancyCollector(**kwargs)
            with pytest.raises(ValidationError, match="duration"):
                scan_stream(stream, collector)

    def test_zero_duration_batch_rejected_directly(self):
        collector = OccupancyCollector()
        with pytest.raises(ValidationError, match="duration"):
            collector.record(
                0,
                0.0,
                np.array([1, 2]),
                np.array([0.0, 5.0]),
                np.array([1, 2]),
                np.array([0.0, 5.0]),  # direct hop: arr - dep == 0
            )
        assert collector.num_trips == 0  # nothing was accumulated

    def test_exact_equals_histogram_for_coarse_values(self):
        """With few distinct occupancy values, fine histograms agree with
        exact collection on every statistic we use."""
        rng = np.random.default_rng(0)
        n, m = 20, 300
        u = rng.integers(0, n, m)
        v = (u + 1 + rng.integers(0, n - 1, m)) % n
        stream = LinkStream(u, v, rng.integers(0, 2000, m), num_nodes=n)
        series = aggregate(stream, 50.0)
        exact, count_e = series_occupancy(series, exact=True)
        hist, count_h = series_occupancy(series, bins=8192)
        assert count_e == count_h
        assert hist.mk_proximity() == pytest.approx(exact.mk_proximity(), abs=2e-3)
        assert hist.std() == pytest.approx(exact.std(), abs=2e-3)
        assert hist.mass_at(1.0) == pytest.approx(exact.mass_at(1.0))


class TestSeriesOccupancy:
    def test_single_window_all_ones(self, figure1_stream):
        series = aggregate(figure1_stream, figure1_stream.span + 1)
        dist, count = series_occupancy(series)
        assert dist.mass_at(1.0) == pytest.approx(1.0)
        assert count == series.num_edges_total * 2  # undirected: both directions

    def test_chain_occupancies(self, chain_stream):
        # Windows at steps 0,2,4: trip 0->3 has 3 hops over 5 windows.
        series = aggregate(chain_stream, 1.0)
        dist, count = series_occupancy(series, exact=True)
        assert count == 6
        # 0.6: trip 0->3 (3 hops over 5 windows); 2/3: trips 0->2 and
        # 1->3 (2 hops over 3 windows); 1.0: the three direct edges.
        assert sorted(dist.values.tolist()) == pytest.approx([0.6, 2 / 3, 1.0])
        assert dist.weights.tolist() == pytest.approx([1 / 6, 2 / 6, 3 / 6])

    def test_occupancy_at_one_fraction_grows_with_delta(self, medium_stream):
        """Beyond saturation the mass at occupancy 1 must grow (the
        phenomenon behind Figure 3)."""
        small, __ = series_occupancy(aggregate(medium_stream, 20.0))
        large, __ = series_occupancy(aggregate(medium_stream, 2000.0))
        assert large.mass_at(1.0) > small.mass_at(1.0)


class TestStreamOccupancyAt:
    def test_returns_consistent_triple(self, medium_stream):
        dist, series, count = stream_occupancy_at(medium_stream, 100.0)
        assert series.delta == 100.0
        assert count == int(dist.total_weight)
        assert 0 < dist.mean() <= 1


class TestCollectorMerges:
    @pytest.fixture(scope="class")
    def series(self):
        return aggregate(time_uniform_stream(12, 6, 5000.0, seed=0), 500.0)

    @staticmethod
    def subset_collector(series, targets, **kwargs):
        collector = OccupancyCollector(**kwargs)
        scan_series(series, collector, targets=targets)
        return collector

    def test_target_subsets_merge_bit_identically(self, series):
        reference, num_trips = series_occupancy(series)
        parts = [
            self.subset_collector(series, np.arange(i, series.num_nodes, 4))
            for i in range(4)
        ]
        merged = OccupancyCollector()
        for part in parts:
            merged.merge(part)
        assert merged.num_trips == num_trips
        distribution = merged.distribution()
        assert distribution.values.tolist() == reference.values.tolist()
        assert distribution.weights.tolist() == reference.weights.tolist()
        assert distribution.total_weight == reference.total_weight

    def test_exact_mode_target_subsets_merge_bit_identically(self, series):
        reference, __ = series_occupancy(series, exact=True)
        merged = OccupancyCollector(exact=True)
        for i in range(3):
            merged.merge(
                self.subset_collector(
                    series, np.arange(i, series.num_nodes, 3), exact=True
                )
            )
        distribution = merged.distribution()
        assert distribution.values.tolist() == reference.values.tolist()
        assert distribution.weights.tolist() == reference.weights.tolist()

    def test_frozen_span_keeps_only_nonzero_bins(self):
        # segment_handoff freezes a checkpoint span as (bin index, count)
        # pairs; it still merges and assembles exactly like the dense one.
        values = np.array([0.25, 0.25, 0.5, 1.0])
        span = OccupancyCollector(bins=64)
        span.record(
            0, 0.0, np.arange(4), values, np.ones(4, dtype=np.int64), 1.0 / values
        )
        reference = span.distribution()
        successor = span.segment_handoff()
        assert successor.empty and successor is not span
        assert span._counts.size == 2  # bins 16 and 32; 1.0 is the atom
        for assembled in (span, OccupancyCollector(bins=64).merge(span)):
            distribution = assembled.distribution()
            assert distribution.values.tolist() == reference.values.tolist()
            assert distribution.weights.tolist() == reference.weights.tolist()
        # A frozen collector that merges more mass expands back to dense.
        span.merge(OccupancyCollector(bins=64).merge(span))
        assert span.num_trips == 8
        assert span.distribution().values.tolist() == reference.values.tolist()

    def test_empty_collectors_merge_and_only_final_assembly_fails(self):
        # A destination subset can legitimately receive zero trips: the
        # empty collector must merge like any other, and only a merged
        # total of zero may fail — at final assembly.
        empty_a = OccupancyCollector()
        empty_b = OccupancyCollector()
        assert empty_a.empty
        merged = OccupancyCollector().merge(empty_a).merge(empty_b)
        assert merged.empty
        with pytest.raises(ValidationError, match="no minimal trips"):
            merged.distribution()
        # Empty + loaded merges keep the loaded mass bit-identical.
        loaded = OccupancyCollector()
        values = np.array([0.25, 1.0])
        loaded.record(
            0, 0.0, np.arange(2), values, np.ones(2, dtype=np.int64), 1.0 / values
        )
        combined = OccupancyCollector().merge(empty_a).merge(loaded)
        assert not combined.empty
        assert combined.num_trips == 2
        reference = loaded.distribution()
        assert combined.distribution().values.tolist() == reference.values.tolist()
        # Exact mode: same contract.
        combined_exact = OccupancyCollector(exact=True).merge(
            OccupancyCollector(exact=True)
        )
        assert combined_exact.empty
        with pytest.raises(ValidationError, match="no minimal trips"):
            combined_exact.distribution()

    def test_empty_destination_subset_comes_back_mergeable(self):
        # Node 2 never receives an edge: its collector is empty but the
        # partition still reassembles the full distribution.
        stream = LinkStream([0, 0], [1, 1], [0, 10], num_nodes=3, directed=True)
        series = aggregate(stream, 1.0)
        reference, num_trips = series_occupancy(series)
        parts = [
            self.subset_collector(series, np.array([node]))
            for node in range(series.num_nodes)
        ]
        assert parts[2].empty  # no trips arrive at node 2
        merged = OccupancyCollector()
        for part in parts:
            merged.merge(part)
        assert merged.num_trips == num_trips
        assert merged.distribution().values.tolist() == reference.values.tolist()

    @settings(max_examples=25, deadline=None)
    @given(
        splits=st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
            min_size=2,
            max_size=4,
        )
    )
    def test_occupancy_merge_is_associative(self, splits):
        """((a + b) + c) and (a + (b + c)) build the same distribution."""

        def collector_for(values):
            collector = OccupancyCollector(bins=16)
            arr = np.asarray(values)
            collector.record(
                0,
                0.0,
                np.arange(arr.size),
                arr,  # arrivals: unused by the collector
                np.ones(arr.size, dtype=np.int64),
                1.0 / arr,  # durations chosen so hops/durations == values
            )
            return collector

        left = collector_for(splits[0])
        for chunk in splits[1:]:
            left.merge(collector_for(chunk))
        right_tail = collector_for(splits[-1])
        for chunk in reversed(splits[1:-1]):
            right_tail = collector_for(chunk).merge(right_tail)
        right = collector_for(splits[0]).merge(right_tail)
        assert left.num_trips == right.num_trips
        assert left.distribution().values.tolist() == right.distribution().values.tolist()
        assert left.distribution().weights.tolist() == right.distribution().weights.tolist()

    @settings(max_examples=25, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.integers(1, 5),  # trips in the batch
                st.integers(1, 9),  # hop count
                st.integers(1, 20),  # duration
            ),
            min_size=2,
            max_size=6,
        ),
        split=st.integers(1, 5),
    )
    def test_counting_and_triplist_merge_match_single_collector(self, batches, split):
        split = min(split, len(batches) - 1)

        def record_into(counting, trip_list, batch):
            count, hops, duration = batch
            targets = np.arange(1, count + 1)
            arrivals = np.full(count, float(duration))
            hop_arr = np.full(count, hops, dtype=np.int64)
            durations = np.full(count, float(duration))
            counting.record(0, 0.0, targets, arrivals, hop_arr, durations)
            trip_list.record(0, 0.0, targets, arrivals, hop_arr, durations)

        whole_count, whole_trips = CountingCollector(), TripListCollector()
        for batch in batches:
            record_into(whole_count, whole_trips, batch)

        parts = [(CountingCollector(), TripListCollector()) for _ in range(2)]
        for i, batch in enumerate(batches):
            record_into(*parts[0 if i < split else 1], batch)
        merged_count = parts[0][0].merge(parts[1][0])
        merged_trips = parts[0][1].merge(parts[1][1])

        assert merged_count.num_trips == whole_count.num_trips
        assert merged_count.max_hops == whole_count.max_hops
        assert merged_count.max_duration == whole_count.max_duration
        assert len(merged_trips.trips()) == len(whole_trips.trips())
        assert (
            sorted(merged_trips.trips().durations.tolist())
            == sorted(whole_trips.trips().durations.tolist())
        )

    def test_mismatched_merges_rejected(self):
        with pytest.raises(ValidationError):
            OccupancyCollector(bins=16).merge(OccupancyCollector(bins=32))
        with pytest.raises(ValidationError):
            OccupancyCollector(exact=True).merge(OccupancyCollector(exact=False))
        with pytest.raises(ValidationError):
            OccupancyCollector().merge(CountingCollector())
        with pytest.raises(ValidationError):
            DistanceTotals().merge(CountingCollector())

    def test_exact_mode_merge_ignores_bin_counts(self):
        # Bins are meaningless in exact mode; differing sizes must not
        # crash the merge (regression: raw numpy broadcast error).
        a = OccupancyCollector(exact=True, bins=16)
        b = OccupancyCollector(exact=True, bins=32)
        values = np.array([0.5, 1.0])
        for collector in (a, b):
            collector.record(
                0,
                0.0,
                np.arange(2),
                values,
                np.ones(2, dtype=np.int64),
                1.0 / values,
            )
        merged = a.merge(b)
        assert merged.num_trips == 4
        assert merged.distribution().total_weight == 4
