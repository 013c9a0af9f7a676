"""Incremental append: extend contract, warm reuse, bit-identity.

Covers the append-only :meth:`LinkStream.extend` contract (ordering,
dtype, and node-set guards; the chained prefix fingerprint), the
memo-staleness regression (a grown stream never inherits its base's
memoized statistics), the checkpoint/resume scan machinery behind
:class:`IncrementalScanSession`, blocked-column per-pair reachability
against the brute-force oracle, and the headline property: extend +
analyze is bit-identical to from-scratch analysis, including
straddling-window and empty appends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import incremental
from repro.engine.incremental import IncrementalScanSession
from repro.engine.measures import ClassicalMeasure, OccupancyMeasure
from repro.engine.tasks import AnalysisTask
from repro.generators import time_uniform_stream
from repro.graphseries import GraphSeries, aggregate
from repro.graphseries.aggregation import (
    AGGREGATION_COUNTS,
    aggregate_cached,
    aggregate_prefix_extended,
    clear_aggregate_cache,
    window_index,
)
from repro.linkstream import LinkStream
from repro.temporal import (
    CheckpointRecorder,
    CountingCollector,
    DistanceTotals,
    EarliestArrivalAccumulator,
    ResumePlan,
    SCAN_WINDOWS,
    ScanCheckpoint,
    TripListCollector,
    blocked_pair_reachability,
    bruteforce_pair_reachability,
    reference_scan,
    scan_series,
)
from repro.utils.errors import (
    AppendOrderError,
    LinkStreamError,
    ValidationError,
)
from tests.strategies import link_streams


@pytest.fixture(autouse=True)
def fresh_stores():
    """Every test starts from cold process-global stores."""
    incremental.clear_incremental_store()
    clear_aggregate_cache()
    yield
    incremental.clear_incremental_store()
    clear_aggregate_cache()


def small_stream(seed=3, n=12, m=200, span=2000.0, directed=True):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    keep = u != v
    t = np.sort(rng.uniform(0.0, span, int(keep.sum())))
    return LinkStream(u[keep], v[keep], t, directed=directed, num_nodes=n)


def append_batch(stream, seed=4, m=30, span=300.0):
    rng = np.random.default_rng(seed)
    n = stream.num_nodes
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    keep = u != v
    t0 = float(stream.t_max)
    t = np.sort(rng.uniform(t0 + 1e-9, t0 + span, int(keep.sum())))
    return u[keep], v[keep], t


def scratch_equivalent(grown):
    """The same events built from scratch (no chain, fresh fingerprint)."""
    return LinkStream(
        grown.sources.copy(),
        grown.targets.copy(),
        grown.timestamps.copy(),
        directed=grown.directed,
        num_nodes=grown.num_nodes,
    )


class TestExtendContract:
    def test_extend_matches_from_scratch(self):
        base = small_stream()
        u, v, t = append_batch(base)
        grown = base.extend(u, v, t)
        scratch = scratch_equivalent(grown)
        assert grown.fingerprint() == scratch.fingerprint()
        assert np.array_equal(grown.timestamps, scratch.timestamps)
        assert grown.num_events == base.num_events + u.size

    def test_triples_mode_matches_array_mode(self):
        base = small_stream()
        u, v, t = append_batch(base)
        by_arrays = base.extend(u, v, t)
        by_triples = base.extend(list(zip(u.tolist(), v.tolist(), t.tolist())))
        assert by_arrays.fingerprint() == by_triples.fingerprint()

    def test_out_of_order_append_rejected_by_name(self):
        base = small_stream()
        with pytest.raises(AppendOrderError):
            base.extend([(0, 1, float(base.t_max))])  # equal, not greater
        with pytest.raises(AppendOrderError):
            base.extend([(0, 1, float(base.t_min))])

    def test_partially_ordered_batch_rejected_atomically(self):
        base = small_stream()
        t0 = float(base.t_max)
        with pytest.raises(AppendOrderError):
            base.extend([(0, 1, t0 + 1.0), (1, 2, t0 - 1.0)])
        # Nothing about the base changed.
        assert base.fingerprint() == scratch_equivalent(base).fingerprint()

    def test_empty_batch_keeps_fingerprint_and_records_boundary(self):
        base = small_stream()
        grown = base.extend([])
        assert grown.fingerprint() == base.fingerprint()
        assert grown.fingerprint_chain[-1] == (
            base.num_events,
            base.fingerprint(),
        )

    def test_chain_records_every_ancestor(self):
        base = small_stream()
        u, v, t = append_batch(base, seed=5)
        first = base.extend(u, v, t)
        u2, v2, t2 = append_batch(first, seed=6)
        second = first.extend(u2, v2, t2)
        counts = [entry[0] for entry in second.fingerprint_chain]
        prints = [entry[1] for entry in second.fingerprint_chain]
        assert counts == [base.num_events, first.num_events]
        assert prints == [base.fingerprint(), first.fingerprint()]

    def test_prefix_fingerprint_matches_ancestor_and_scratch(self):
        base = small_stream()
        u, v, t = append_batch(base)
        grown = base.extend(u, v, t)
        # Chain hit: served without rehashing, but it must be the true hash.
        assert grown.prefix_fingerprint(base.num_events) == base.fingerprint()
        # Arbitrary prefix: recomputed over the event arrays.
        k = base.num_events // 2
        prefix = LinkStream(
            base.sources[:k].copy(),
            base.targets[:k].copy(),
            base.timestamps[:k].copy(),
            directed=base.directed,
            num_nodes=base.num_nodes,
        )
        assert grown.prefix_fingerprint(k) == prefix.fingerprint()
        assert grown.prefix_fingerprint(grown.num_events) == grown.fingerprint()

    def test_float_append_on_integer_time_stream_rejected(self):
        base = time_uniform_stream(8, 1, 500.0, seed=1)
        assert base.timestamps.dtype.kind == "i"
        with pytest.raises(LinkStreamError, match="integer-time"):
            base.extend([(0, 1, float(base.t_max) + 0.5)])

    def test_nan_timestamp_rejected_loudly(self):
        base = small_stream()
        with pytest.raises(LinkStreamError, match="finite"):
            base.extend([(0, 1, float("nan"))])

    def test_labeled_stream_rejects_new_nodes(self):
        base = LinkStream(
            [0, 1, 0],
            [1, 2, 2],
            [1.0, 2.0, 3.0],
            labels=["a", "b", "c"],
        )
        with pytest.raises(LinkStreamError, match="labeled"):
            base.extend([(0, base.num_nodes, 9.0)])

    def test_unlabeled_stream_grows_node_set(self):
        base = small_stream(n=5)
        grown = base.extend([(0, 7, float(base.t_max) + 1.0)])
        assert grown.num_nodes == 8


class TestMemoStalenessRegression:
    """A grown stream must never serve its base's memoized values."""

    def test_resolution_and_distinct_timestamps_recomputed(self):
        base = small_stream()
        # Warm every memo on the base.
        base_resolution = base.resolution()
        base_distinct = base.distinct_timestamps()
        base.fingerprint()
        t0 = float(base.t_max)
        # An appended event much closer in time than any existing pair.
        grown = base.extend([(0, 1, t0 + 1e-7), (1, 2, t0 + 1.5e-7)])
        scratch = scratch_equivalent(grown)
        assert grown.resolution() == scratch.resolution()
        assert grown.resolution() < base_resolution
        assert np.array_equal(
            grown.distinct_timestamps(), scratch.distinct_timestamps()
        )
        # The base's own memos are untouched.
        assert base.resolution() == base_resolution
        assert np.array_equal(base.distinct_timestamps(), base_distinct)

    def test_aggregate_cached_keys_on_content_not_object(self):
        base = small_stream()
        delta = 100.0
        series_base = aggregate_cached(base, delta)
        u, v, t = append_batch(base)
        grown = base.extend(u, v, t)
        series_grown = aggregate_cached(grown, delta)
        assert series_grown.num_steps >= series_base.num_steps
        fresh = aggregate(scratch_equivalent(grown), delta)
        assert np.array_equal(series_grown.edge_steps, fresh.edge_steps)
        assert np.array_equal(series_grown.edge_sources, fresh.edge_sources)
        assert np.array_equal(series_grown.edge_targets, fresh.edge_targets)
        # The base's cached series still serves the base.
        again = aggregate_cached(base, delta)
        assert again is series_base

    def test_empty_extend_hits_the_same_cache_entry(self):
        base = small_stream()
        delta = 100.0
        series_base = aggregate_cached(base, delta)
        grown = base.extend([])
        assert aggregate_cached(grown, delta) is series_base


class TestPrefixSplicedAggregation:
    def test_splice_is_bit_identical_and_counted(self):
        base = small_stream()
        u, v, t = append_batch(base)
        grown = base.extend(u, v, t)
        for delta in (30.0, 170.0, 1500.0):
            prefix = aggregate(base, delta, origin=float(base.t_min))
            before = AGGREGATION_COUNTS["incremental"]
            spliced = aggregate_prefix_extended(
                grown,
                delta,
                prefix_series=prefix,
                prefix_events=base.num_events,
            )
            assert AGGREGATION_COUNTS["incremental"] == before + 1
            fresh = aggregate(grown, delta)
            assert np.array_equal(spliced.edge_steps, fresh.edge_steps)
            assert np.array_equal(spliced.edge_sources, fresh.edge_sources)
            assert np.array_equal(spliced.edge_targets, fresh.edge_targets)
            assert spliced.num_steps == fresh.num_steps


def _consumer_set():
    return [
        DistanceTotals(),
        TripListCollector(max_trips=64, seed=11),
        CountingCollector(),
        EarliestArrivalAccumulator(),
    ]


def _consumer_state(consumers):
    totals, trips, counting, acc = consumers
    trip_set = trips.trips()
    return (
        (totals.dist_sum, totals.hops_sum, totals.count_sum),
        (
            trip_set.u.tolist(),
            trip_set.v.tolist(),
            trip_set.dep.tolist(),
            trip_set.arr.tolist(),
            trip_set.hops.tolist(),
        ),
        counting.num_trips,
        (
            acc.reach_steps.tolist(),
            acc.dist_sum.tolist(),
            acc.hops_sum.tolist(),
        ),
    )


class TestCheckpointResume:
    def test_recorded_scan_equals_plain_scan(self):
        series = aggregate(small_stream(), 40.0)
        recorder = CheckpointRecorder()
        recorded = _consumer_set()
        result = scan_series(series, recorded, checkpoints=recorder)
        plain = _consumer_set()
        baseline = scan_series(series, plain)
        assert result.num_trips == baseline.num_trips
        assert _consumer_state(recorded) == _consumer_state(plain)
        assert len(recorder.checkpoints) == len(recorder.spans)
        assert recorder.checkpoints, "a dense series must checkpoint"

    def test_resume_requires_segment_support(self):
        series = aggregate(small_stream(), 40.0)

        class Opaque:  # repro: ignore[collector-contract] -- deliberately non-conforming
            def record(self, *args, **kwargs):
                pass

        with pytest.raises(ValidationError, match="segment_handoff"):
            scan_series(series, Opaque(), checkpoints=CheckpointRecorder())

    def test_resume_plan_validates_span_alignment(self):
        series = aggregate(small_stream(), 40.0)
        recorder = CheckpointRecorder()
        scan_series(series, _consumer_set(), checkpoints=recorder)
        with pytest.raises(ValidationError):
            ResumePlan(
                recorder.checkpoints,
                recorder.spans[:-1],
                recorder.span_trips,
                limit=series.num_steps,
            )

    def test_zero_budget_recorder_captures_nothing(self):
        series = aggregate(small_stream(), 40.0)
        recorder = CheckpointRecorder(max_bytes=0)
        consumers = _consumer_set()
        result = scan_series(series, consumers, checkpoints=recorder)
        plain = _consumer_set()
        baseline = scan_series(series, plain)
        assert not recorder.checkpoints
        assert result.num_trips == baseline.num_trips
        assert _consumer_state(consumers) == _consumer_state(plain)


def _grown_pair(delta=100.0):
    """A base series, the series of the base plus an append (with more
    nonempty windows, so its packed keys use a different ``K``), and the
    first window the append touches (checkpoints below it are settle
    candidates)."""
    stream = small_stream(m=600, span=6000.0)
    u, v, t = append_batch(stream, m=40, span=300.0)
    origin = float(stream.t_min)
    base = aggregate(stream, delta, origin=origin)
    grown = aggregate(stream.extend(u, v, t), delta, origin=origin)
    limit = int(window_index(t[:1], delta, origin)[0])
    return base, grown, limit


def _resumed_scan(series, plan):
    """Resume ``series`` against ``plan``; returns (settled, consumers)."""
    consumers = _consumer_set()
    before = SCAN_WINDOWS["series"]
    scan_series(series, consumers, resume=plan)
    scanned = SCAN_WINDOWS["series"] - before
    return scanned < series.nonempty_steps().size, consumers


def _fresh_state(series):
    consumers = _consumer_set()
    scan_series(series, consumers)
    return _consumer_state(consumers)


class TestPackedCheckpoints:
    def test_base_checkpoint_settles_grown_series_across_K(self):
        base, grown, limit = _grown_pair()
        windows = base.nonempty_steps().size
        assert grown.nonempty_steps().size > windows
        recorder = CheckpointRecorder()
        scan_series(base, _consumer_set(), checkpoints=recorder)
        assert {c.K for c in recorder.checkpoints} == {windows + 2}
        plan = ResumePlan(
            recorder.checkpoints, recorder.spans, recorder.span_trips,
            limit=limit,
        )
        settled, consumers = _resumed_scan(grown, plan)
        assert settled
        assert _consumer_state(consumers) == _fresh_state(grown)

    @pytest.mark.parametrize("grow", [False, True], ids=["same-K", "cross-K"])
    def test_one_hop_difference_does_not_settle(self, grow):
        base, grown, limit = _grown_pair()
        series = grown if grow else base
        recorder = CheckpointRecorder()
        scan_series(base, _consumer_set(), checkpoints=recorder)
        last = recorder.checkpoints[-1]

        def resume_against(ckpt):
            # The deepest checkpoint alone is a complete reusable tail.
            plan = ResumePlan(
                [ckpt], recorder.spans[-1:], recorder.span_trips[-1:],
                limit=limit if grow else base.num_steps,
            )
            return _resumed_scan(series, plan)

        assert resume_against(last)[0]
        P = np.array(last.P)
        A, H = P // last.K, P % last.K
        cell = np.flatnonzero((A < last.table.size) & (H + 1 < last.K))[0]
        P.flat[cell] += 1  # one more hop, same arrival
        tampered = ScanCheckpoint(
            last.window, last.last_processed, P, last.table
        )
        assert np.array_equal(tampered.A, last.A)
        assert not np.array_equal(tampered.H, last.H)
        settled, consumers = resume_against(tampered)
        assert not settled
        assert _consumer_state(consumers) == _fresh_state(series)

    def test_checkpoint_bytes_are_packed_bytes(self):
        series = aggregate(small_stream(), 40.0)
        cell_bytes = series.num_nodes * series.num_nodes * 8
        recorder = CheckpointRecorder()
        scan_series(series, _consumer_set(), checkpoints=recorder)
        assert len(recorder.checkpoints) > 2
        for ckpt in recorder.checkpoints:
            assert ckpt.nbytes == ckpt.P.nbytes == cell_bytes
            assert not ckpt.P.flags.writeable
        assert recorder.nbytes == len(recorder.checkpoints) * cell_bytes
        bounded = CheckpointRecorder(max_bytes=2 * cell_bytes)
        scan_series(series, _consumer_set(), checkpoints=bounded)
        assert len(bounded.checkpoints) == 2
        assert bounded.nbytes == 2 * cell_bytes


class TestBlockedPairReachability:
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("block_cols", [1, 3, 7, 64])
    def test_matches_bruteforce_oracle(self, directed, block_cols):
        series = aggregate(small_stream(n=7, m=120, directed=directed), 90.0)
        got = blocked_pair_reachability(series, block_cols=block_cols)
        expected = bruteforce_pair_reachability(series)
        for got_matrix, expected_matrix in zip(got, expected):
            assert np.array_equal(got_matrix, expected_matrix)

    @pytest.mark.parametrize(
        "scan", [scan_series, reference_scan], ids=["batched", "legacy"]
    )
    def test_row_the_scan_never_touches(self, scan):
        # Node 4 is only ever a hop target, so the scan never updates
        # its row: finish must fold it to nothing, and fold every other
        # row's pending run [0, row_hi] exactly as the oracle counts —
        # fed in batches (observe_rows) by the run kernel, and row by
        # row (observe_row) by the per-source reference loop.
        step = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
        u = np.array([0, 1, 2, 3, 0, 2], dtype=np.int64)
        v = np.array([1, 2, 4, 4, 3, 0], dtype=np.int64)
        series = GraphSeries(5, 7, step, u, v, directed=True)
        accumulator = EarliestArrivalAccumulator()
        scan(series, accumulator)
        expected = bruteforce_pair_reachability(series)
        off_diagonal = ~np.eye(5, dtype=bool)
        got = (
            accumulator.reach_steps, accumulator.dist_sum,
            accumulator.hops_sum,
        )
        for got_matrix, expected_matrix in zip(got, expected):
            assert not got_matrix[4].any()
            assert np.array_equal(
                got_matrix[off_diagonal], expected_matrix[off_diagonal]
            )
        assert expected[0][0, 4] > 0  # the untouched column is reached

    @pytest.mark.parametrize("directed", [True, False])
    def test_target_restriction_folds_its_columns(self, directed):
        series = aggregate(small_stream(n=7, m=120, directed=directed), 90.0)
        cols = np.array([1, 4, 6], dtype=np.int64)
        accumulator = EarliestArrivalAccumulator()
        scan_series(series, accumulator, targets=cols)
        expected = bruteforce_pair_reachability(series)
        got = (
            accumulator.reach_steps, accumulator.dist_sum,
            accumulator.hops_sum,
        )
        diagonal = cols[None, :] == np.arange(7)[:, None]
        for got_matrix, expected_matrix in zip(got, expected):
            assert got_matrix.shape == (7, cols.size)
            want = expected_matrix[:, cols]
            assert np.array_equal(got_matrix[~diagonal], want[~diagonal])
            assert want[~diagonal].any()

    def test_invalid_block_width_rejected(self):
        series = aggregate(small_stream(n=6, m=60), 200.0)
        with pytest.raises(ValidationError):
            blocked_pair_reachability(series, block_cols=0)


class TestIncrementalSession:
    def test_warm_append_rescans_fewer_windows(self):
        base = small_stream(m=600, span=6000.0)
        u, v, t = append_batch(base, m=40, span=300.0)
        grown = base.extend(u, v, t)
        delta = 100.0
        cold_session = IncrementalScanSession(base, delta=delta)
        cold_session.scan(_consumer_set())

        def windows(run):
            before = dict(SCAN_WINDOWS)
            run()
            return sum(SCAN_WINDOWS[k] - before[k] for k in SCAN_WINDOWS)

        warm_consumers = _consumer_set()
        warm_session = IncrementalScanSession(grown, delta=delta)
        warm_windows = windows(lambda: warm_session.scan(warm_consumers))

        incremental.clear_incremental_store()
        clear_aggregate_cache()
        cold_consumers = _consumer_set()
        rebuilt = IncrementalScanSession(grown, delta=delta)
        cold_windows = windows(lambda: rebuilt.scan(cold_consumers))

        assert warm_windows < cold_windows
        assert _consumer_state(warm_consumers) == _consumer_state(cold_consumers)

    def test_counters_track_splice_resume_record(self):
        base = small_stream(m=400, span=4000.0)
        u, v, t = append_batch(base, m=30)
        grown = base.extend(u, v, t)
        session = IncrementalScanSession(base, delta=80.0)
        session.series()
        session.scan(_consumer_set())
        before = dict(incremental.INCREMENTAL_COUNTS)
        warm = IncrementalScanSession(grown, delta=80.0)
        warm.series()
        warm.scan(_consumer_set())
        after = incremental.INCREMENTAL_COUNTS
        assert after["splices"] == before["splices"] + 1
        assert after["resumes"] == before["resumes"] + 1
        assert after["records"] == before["records"] + 1

    def test_disabled_store_records_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        session = IncrementalScanSession(small_stream(), delta=100.0)
        session.scan(_consumer_set())
        stats = incremental.incremental_stats()
        assert stats["streams"] == 0
        assert stats["scan_records"] == 0

    def test_byte_budget_bounds_the_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL_MAX_BYTES", "1")
        for seed in range(4):
            session = IncrementalScanSession(
                small_stream(seed=seed), delta=100.0
            )
            session.scan(_consumer_set())
        stats = incremental.incremental_stats()
        # Eviction always keeps the most recent entry, nothing more.
        assert stats["streams"] == 1

    def test_analysis_task_warm_equals_cold(self):
        base = small_stream(m=500, span=5000.0)
        u, v, t = append_batch(base, m=50)
        grown = base.extend(u, v, t)
        task = AnalysisTask(
            delta=120.0, measures=(OccupancyMeasure(), ClassicalMeasure())
        )
        task.evaluate(base)
        warm = task.evaluate(grown)
        incremental.clear_incremental_store()
        clear_aggregate_cache()
        cold = task.evaluate(grown)
        assert repr(warm) == repr(cold)


@st.composite
def append_scenarios(draw):
    """A base stream plus a strictly-later append batch (may be empty)."""
    base = draw(link_streams(min_events=2, max_events=12, max_time=16))
    batch_size = draw(st.integers(0, 6))
    n = base.num_nodes
    events = []
    t_last = int(base.t_max)
    for _ in range(batch_size):
        t_last = t_last + draw(st.integers(1, 3))
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1).filter(lambda x, u=u: x != u))
        events.append((u, v, t_last))
    return base, events


@settings(max_examples=50, deadline=None)
@given(
    scenario=append_scenarios(),
    delta=st.sampled_from([1.0, 2.0, 5.0]),
)
def test_extend_analyze_bit_identical_to_from_scratch(scenario, delta):
    """The headline property: warm append-then-analyze == from-scratch.

    Random base x random append batch (possibly empty, possibly landing
    in the base's last window) x Δ grid: recording a
    scan on the base, extending, and resuming must be bit-identical to a
    cold scan of the rebuilt stream — same trips in the same order, same
    accumulator matrices, same spliced series.
    """
    base, events = scenario
    incremental.clear_incremental_store()
    clear_aggregate_cache()
    warm_base = IncrementalScanSession(base, delta=delta)
    warm_base.series()
    warm_base.scan(_consumer_set())
    grown = base.extend(events)
    warm = IncrementalScanSession(grown, delta=delta)
    warm_series = warm.series()
    warm_consumers = _consumer_set()
    warm.scan(warm_consumers)

    scratch = scratch_equivalent(grown)
    cold_series = aggregate(scratch, delta)
    assert np.array_equal(warm_series.edge_steps, cold_series.edge_steps)
    assert np.array_equal(warm_series.edge_sources, cold_series.edge_sources)
    assert np.array_equal(warm_series.edge_targets, cold_series.edge_targets)
    cold_consumers = _consumer_set()
    scan_series(cold_series, cold_consumers)
    assert _consumer_state(warm_consumers) == _consumer_state(cold_consumers)
