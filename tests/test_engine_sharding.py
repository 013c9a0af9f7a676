"""Tests for within-Δ sharding: the targets-restricted scan, collector
merges, shard tasks, the scheduler's shard policy, and cache isolation.

The contract: sharding is invisible in the results — every backend and
every shard policy returns γ, per-Δ scores, trip counts, and
distributions **bit-identical** to the unsharded serial reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import occupancy_method
from repro.core.distribution import OccupancyDistribution
from repro.core.occupancy import OccupancyCollector, series_occupancy, series_occupancy_shard
from repro.engine import (
    AUTO_SHARDS,
    AnalysisShardTask,
    AnalysisTask,
    ClassicalMeasure,
    MetricsMeasure,
    OccupancyMeasure,
    ProcessBackend,
    SweepCache,
    SweepEngine,
    ThreadBackend,
    normalize_shards,
    plan_shard_expansion,
)
from repro.generators import time_uniform_stream, two_mode_stream_by_rho
from repro.graphseries import aggregate
from repro.linkstream import LinkStream
from repro.temporal.collectors import CountingCollector, TripListCollector
from repro.temporal.reachability import SCAN_COUNTS, DistanceTotals, scan_series
from repro.utils.errors import EngineError, ValidationError


@pytest.fixture(scope="module")
def stream() -> LinkStream:
    return time_uniform_stream(12, 6, 5000.0, seed=0)


@pytest.fixture(scope="module")
def series(stream):
    return aggregate(stream, 500.0)


def occupancy_task(delta: float, **measure_kwargs) -> AnalysisTask:
    return AnalysisTask(
        delta=delta, measures=(OccupancyMeasure(**measure_kwargs),)
    )


def assert_identical_sweeps(a, b):
    assert a.gamma == b.gamma
    assert a.deltas.tolist() == b.deltas.tolist()
    for pa, pb in zip(a.points, b.points):
        assert pa.scores == pb.scores
        assert pa.num_trips == pb.num_trips
        assert pa.num_windows == pb.num_windows
        assert pa.num_nonempty_windows == pb.num_nonempty_windows
        assert pa.distribution.values.tolist() == pb.distribution.values.tolist()
        assert pa.distribution.weights.tolist() == pb.distribution.weights.tolist()


class TestScanTargets:
    def test_disjoint_targets_partition_the_trip_set(self, series):
        full = scan_series(series)
        shard_trips = [
            scan_series(
                series, targets=np.arange(i, series.num_nodes, 3)
            ).num_trips
            for i in range(3)
        ]
        assert sum(shard_trips) == full.num_trips
        assert all(count > 0 for count in shard_trips)

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
        # collector-style measure they now shard like everything else.
        reference = DistanceTotals()
        scan_series(series, reference)
        merged = DistanceTotals()
        for i in range(3):
            shard = DistanceTotals()
            scan_series(series, shard, targets=np.arange(i, series.num_nodes, 3))
            merged.merge(shard)
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


class TestCollectorMerges:
    def test_occupancy_shards_merge_bit_identically(self, series):
        reference, num_trips = series_occupancy(series)
        shards = [
            series_occupancy_shard(series, np.arange(i, series.num_nodes, 4))
            for i in range(4)
        ]
        merged = OccupancyCollector()
        for shard in shards:
            merged.merge(shard)
        assert merged.num_trips == num_trips
        distribution = merged.distribution()
        assert distribution.values.tolist() == reference.values.tolist()
        assert distribution.weights.tolist() == reference.weights.tolist()
        assert distribution.total_weight == reference.total_weight

    def test_exact_mode_shards_merge_bit_identically(self, series):
        reference, __ = series_occupancy(series, exact=True)
        merged = OccupancyCollector(exact=True)
        for i in range(3):
            merged.merge(
                series_occupancy_shard(
                    series, np.arange(i, series.num_nodes, 3), exact=True
                )
            )
        distribution = merged.distribution()
        assert distribution.values.tolist() == reference.values.tolist()
        assert distribution.weights.tolist() == reference.weights.tolist()

    def test_empty_shards_merge_and_only_final_assembly_fails(self):
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

    def test_empty_destination_shard_comes_back_mergeable(self):
        # Node 2 never receives an edge: its shard is empty but the
        # partition still reassembles the full distribution.
        stream = LinkStream([0, 0], [1, 1], [0, 10], num_nodes=3, directed=True)
        series = aggregate(stream, 1.0)
        reference, num_trips = series_occupancy(series)
        shards = [
            series_occupancy_shard(series, np.array([node]))
            for node in range(series.num_nodes)
        ]
        assert shards[2].empty  # no trips arrive at node 2
        merged = OccupancyCollector()
        for shard in shards:
            merged.merge(shard)
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

    def test_sum_of_histograms_matches_single_histogram(self):
        rng = np.random.default_rng(5)
        shards = [rng.integers(0, 50, size=32) for _ in range(3)]
        ones = [3, 0, 7]
        pooled = OccupancyDistribution.sum_of_histograms(shards, ones_counts=ones)
        single = OccupancyDistribution.from_histogram(
            sum(shards), ones_count=float(sum(ones))
        )
        assert pooled.values.tolist() == single.values.tolist()
        assert pooled.weights.tolist() == single.weights.tolist()

    def test_sum_of_histograms_rejects_mixed_resolutions(self):
        with pytest.raises(ValidationError):
            OccupancyDistribution.sum_of_histograms(
                [np.ones(8, dtype=np.int64), np.ones(16, dtype=np.int64)]
            )

    def test_sum_of_histograms_rejects_corrupt_counts(self):
        # Float counts from a lossy round-trip must not be silently
        # floored; negative counts are never valid.
        with pytest.raises(ValidationError, match="integral"):
            OccupancyDistribution.sum_of_histograms([np.array([1.0, 2.4])])
        with pytest.raises(ValidationError, match="non-negative"):
            OccupancyDistribution.sum_of_histograms([np.array([1, -2])])
        # Integer-valued floats (a clean serialization round-trip) pass.
        pooled = OccupancyDistribution.sum_of_histograms([np.array([1.0, 2.0])])
        assert pooled.total_weight == 3
        # ones_counts get the same scrutiny as bin counts.
        with pytest.raises(ValidationError, match="one entry per"):
            OccupancyDistribution.sum_of_histograms(
                [np.ones(4)], ones_counts=[1, 2]
            )
        with pytest.raises(ValidationError, match="non-negative integers"):
            OccupancyDistribution.sum_of_histograms([np.ones(4)], ones_counts=[-1])


class TestShardTasks:
    def test_shard_then_merge_equals_evaluate(self, stream):
        task = occupancy_task(500.0, methods=("mk", "std"))
        direct = task.evaluate(stream)["occupancy"]
        pieces = task.shard(3)
        assert [p.shard_index for p in pieces] == [0, 1, 2]
        merged = task.merge_shards([p.evaluate(stream) for p in pieces])["occupancy"]
        assert merged.scores == direct.scores
        assert merged.num_trips == direct.num_trips
        assert merged.num_windows == direct.num_windows
        assert (
            merged.distribution.values.tolist()
            == direct.distribution.values.tolist()
        )

    def test_fused_task_shards_every_measure(self, stream):
        task = AnalysisTask(
            delta=500.0, measures=(OccupancyMeasure(), ClassicalMeasure())
        )
        direct = task.evaluate(stream)
        pieces = task.shard(4)
        merged = task.merge_shards([p.evaluate(stream) for p in pieces])
        assert merged["occupancy"].scores == direct["occupancy"].scores
        assert merged["classical"].distances == direct["classical"].distances
        assert merged["classical"].snapshot == direct["classical"].snapshot

    def test_shard_of_one_means_no_split(self):
        assert occupancy_task(10.0).shard(1) is None

    def test_scanless_tasks_do_not_shard(self):
        # Snapshot metrics never touch the scan: nothing to split.
        metrics_only = AnalysisTask(delta=10.0, measures=(MetricsMeasure(),))
        assert metrics_only.shard(4) is None
        plan = plan_shard_expansion([occupancy_task(10.0), metrics_only], 4)
        assert plan.sharded == [True, False]
        assert len(plan.subtasks) == 5

    def test_merge_rejects_incomplete_or_foreign_shards(self, stream):
        task = occupancy_task(500.0)
        pieces = task.shard(3)
        results = [p.evaluate(stream) for p in pieces]
        with pytest.raises(EngineError):
            task.merge_shards(results[:2])  # missing a shard
        with pytest.raises(EngineError):
            task.merge_shards([])
        other = occupancy_task(250.0)
        with pytest.raises(EngineError):
            other.merge_shards(results)  # wrong delta

    def test_merge_rejects_shards_missing_a_measure(self, stream):
        # Shards cached by an occupancy-only sweep cannot satisfy a
        # fused occupancy+classical merge.
        fused = AnalysisTask(
            delta=500.0, measures=(OccupancyMeasure(), ClassicalMeasure())
        )
        occupancy_only = occupancy_task(500.0)
        results = [p.evaluate(stream) for p in occupancy_only.shard(2)]
        with pytest.raises(EngineError, match="classical"):
            fused.merge_shards(results)

    def test_shard_task_validates_spec(self):
        with pytest.raises(EngineError):
            AnalysisShardTask(
                delta=10.0,
                measures=(OccupancyMeasure(),),
                shard_index=2,
                num_shards=2,
            )
        with pytest.raises(EngineError):
            AnalysisShardTask(
                delta=10.0,
                measures=(OccupancyMeasure(),),
                shard_index=0,
                num_shards=0,
            )
        with pytest.raises(EngineError):
            AnalysisShardTask(delta=10.0, measures=(), shard_index=0, num_shards=1)


class TestShardCacheKeys:
    def test_shard_spec_isolates_cache_keys(self):
        fingerprint = "f" * 64
        full = occupancy_task(10.0)
        keys = set(full.result_keys(fingerprint))
        for num_shards in (2, 3):
            for task in full.shard(num_shards):
                keys.add(task.cache_key(fingerprint))
        assert len(keys) == 1 + 2 + 3  # measure key + every shard, all distinct

    def test_shard_layouts_do_not_collide_in_a_live_cache(self, stream):
        engine = SweepEngine(cache=SweepCache.build())
        deltas = [50.0, 500.0]
        two = occupancy_method(stream, deltas=deltas, engine=engine, shards=2)
        three = occupancy_method(stream, deltas=deltas, engine=engine, shards=3)
        plain = occupancy_method(
            stream, deltas=deltas, engine=SweepEngine(cache=None)
        )
        assert_identical_sweeps(plain, two)
        assert_identical_sweeps(plain, three)

    def test_shard_entries_shared_across_scoring_methods(self, stream):
        # Shard results are raw collectors; scoring happens at merge
        # time, so a re-sweep under a different selection statistic must
        # reuse every shard entry and only re-score.
        engine = SweepEngine(cache=SweepCache.build())
        occupancy_method(stream, deltas=[50.0, 500.0], engine=engine, shards=2)
        assert engine.cache.misses == 2 + 4  # measure keys + shard keys
        occupancy_method(
            stream, deltas=[50.0, 500.0], method="std", engine=engine, shards=2
        )
        assert engine.cache.misses == 6 + 2  # only the new measure keys missed
        assert engine.cache.hits >= 4  # every shard scan was reused

    def test_merged_points_warm_the_unsharded_key(self, stream, monkeypatch):
        calls = {"full": 0}
        from repro.temporal.reachability import scan_series as real_scan

        def counting(series, collector=None, **kwargs):
            if kwargs.get("targets") is None:
                calls["full"] += 1
            return real_scan(series, collector, **kwargs)

        monkeypatch.setattr("repro.engine.incremental.scan_series", counting)
        engine = SweepEngine(cache=SweepCache.build())
        sharded = occupancy_method(stream, deltas=[50.0, 500.0], engine=engine, shards=2)
        assert calls["full"] == 0  # the sharded path never runs a full scan
        scans = SCAN_COUNTS["series"]
        rerun = occupancy_method(stream, deltas=[50.0, 500.0], engine=engine)
        assert calls["full"] == 0  # merged points were cached per measure
        assert SCAN_COUNTS["series"] == scans  # the rerun scans nothing
        assert_identical_sweeps(sharded, rerun)


class TestShardedSweeps:
    @pytest.fixture(scope="class")
    def streams(self):
        return [
            time_uniform_stream(10, 5, 4000.0, seed=1),
            two_mode_stream_by_rho(8, 30, 3, 6000.0, 0.5, seed=2),
        ]

    def test_serial_backend_sharded_matches_unsharded(self, streams):
        for stream in streams:
            plain = occupancy_method(stream, engine=SweepEngine(cache=None))
            sharded = occupancy_method(
                stream, engine=SweepEngine(cache=None), shards=3
            )
            assert_identical_sweeps(plain, sharded)

    def test_thread_backend_sharded_matches_unsharded(self, streams):
        with SweepEngine(ThreadBackend(jobs=4), cache=None) as engine:
            for stream in streams:
                plain = occupancy_method(stream, engine=SweepEngine(cache=None))
                sharded = occupancy_method(stream, engine=engine, shards=4)
                assert_identical_sweeps(plain, sharded)

    def test_process_backend_sharded_matches_unsharded(self, streams):
        with SweepEngine(ProcessBackend(jobs=2), cache=None) as engine:
            for stream in streams:
                plain = occupancy_method(stream, engine=SweepEngine(cache=None))
                sharded = occupancy_method(stream, engine=engine, shards=2)
                assert_identical_sweeps(plain, sharded)

    def test_exact_mode_sharded_matches_unsharded(self, stream):
        plain = occupancy_method(
            stream, deltas=[50.0, 500.0], exact=True, engine=SweepEngine(cache=None)
        )
        sharded = occupancy_method(
            stream,
            deltas=[50.0, 500.0],
            exact=True,
            engine=SweepEngine(cache=None),
            shards=3,
        )
        assert_identical_sweeps(plain, sharded)

    def test_more_shards_than_nodes_is_capped(self, stream):
        plain = occupancy_method(
            stream, deltas=[50.0, 500.0], engine=SweepEngine(cache=None)
        )
        sharded = occupancy_method(
            stream,
            deltas=[50.0, 500.0],
            engine=SweepEngine(cache=None),
            shards=10 * stream.num_nodes,
        )
        assert_identical_sweeps(plain, sharded)


class TestShardPolicy:
    def test_normalize_accepts_auto_ints_and_strings(self):
        assert normalize_shards(None) == AUTO_SHARDS
        assert normalize_shards("auto") == AUTO_SHARDS
        assert normalize_shards(" AUTO ") == AUTO_SHARDS
        assert normalize_shards(4) == 4
        assert normalize_shards("4") == 4

    @pytest.mark.parametrize("bad", ["bogus", "0", 0, -1, 2.5, True])
    def test_normalize_rejects_nonsense(self, bad):
        with pytest.raises(EngineError):
            normalize_shards(bad)

    def test_auto_shards_only_small_plans(self, stream):
        engine = SweepEngine(ThreadBackend(jobs=8), cache=SweepCache.build())
        # 2 tasks < 8 workers: each Δ splits into 4 shards -> the cache
        # sees 2 measure-key probes plus 8 shard-key probes.
        occupancy_method(stream, deltas=[50.0, 500.0], engine=engine)
        assert engine.cache.misses == 2 + 8
        engine.close()

    def test_auto_never_shards_large_plans(self, stream):
        engine = SweepEngine(ThreadBackend(jobs=2), cache=SweepCache.build())
        occupancy_method(stream, num_deltas=8, engine=engine)
        assert engine.cache.misses == 8  # one probe per Δ, no shard keys
        engine.close()

    def test_serial_auto_never_shards(self, stream):
        engine = SweepEngine(cache=SweepCache.build())
        occupancy_method(stream, deltas=[50.0, 500.0], engine=engine)
        assert engine.cache.misses == 2

    def test_env_var_sets_default_policy(self, monkeypatch):
        from repro.engine import engine_from_env

        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert engine_from_env().shards == 3
        monkeypatch.setenv("REPRO_SHARDS", "junk")
        with pytest.raises(EngineError):
            engine_from_env()

    def test_concurrent_shards_aggregate_once_per_delta(self, stream, monkeypatch):
        # The per-process series memo must hold under the exact load
        # auto-sharding creates: all shards of one Δ starting at once.
        import threading

        import repro.graphseries.aggregation as agg_mod

        calls = []
        real = agg_mod.aggregate

        def counting(s, delta, *, origin=None):
            calls.append(delta)
            return real(s, delta, origin=origin)

        monkeypatch.setattr(agg_mod, "aggregate", counting)
        agg_mod.clear_aggregate_cache()
        task = occupancy_task(123.0)
        pieces = task.shard(4)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def evaluate(i):
            barrier.wait()
            results[i] = pieces[i].evaluate(stream)

        threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert calls == [123.0]  # one aggregation served all four shards
        merged = task.merge_shards(results)["occupancy"]
        assert merged.scores == task.evaluate(stream)["occupancy"].scores

    def test_warm_sharded_run_reports_cached_progress(self, stream):
        import io

        from repro.engine import StderrProgress

        buffer = io.StringIO()
        engine = SweepEngine(
            ThreadBackend(jobs=8),
            cache=SweepCache.build(),
            progress=StderrProgress(buffer),
        )
        occupancy_method(stream, deltas=[50.0, 500.0], engine=engine)
        cold = buffer.getvalue()
        assert "sweep 8/8" in cold  # sharded path reports executed subtasks
        occupancy_method(stream, deltas=[50.0, 500.0], engine=engine)
        warm = buffer.getvalue()[len(cold):]
        assert "(2 cached)" in warm  # whole-point hits, at task granularity
        seen = len(buffer.getvalue())
        # Mixed warm/cold: 2 whole-point hits + 1 new Δ sharded 3 ways
        # (3 tasks, 8 workers) -> 5 units, 2 of them cached.
        occupancy_method(stream, deltas=[50.0, 500.0, 5000.0], engine=engine)
        mixed = buffer.getvalue()[seen:]
        assert "sweep 5/5" in mixed
        assert "(2 cached)" in mixed
        engine.close()

    def test_run_override_beats_engine_policy(self, stream):
        engine = SweepEngine(ThreadBackend(jobs=8), cache=SweepCache.build(), shards=1)
        occupancy_method(stream, deltas=[50.0, 500.0], engine=engine)
        assert engine.cache.misses == 2  # engine policy: never shard
        # An explicit per-call policy wins over the engine's: fresh Δs
        # probe 2 measure keys and 4 shard keys despite engine shards=1.
        occupancy_method(stream, deltas=[60.0, 600.0], engine=engine, shards=2)
        assert engine.cache.misses == 2 + 2 + 4
        engine.close()
