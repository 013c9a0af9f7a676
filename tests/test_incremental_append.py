"""Incremental append: extend contract, warm reuse, bit-identity.

Covers the append-only :meth:`LinkStream.extend` contract (ordering,
dtype, and node-set guards; the chained prefix fingerprint), the
memo-staleness regression (a grown stream never inherits its base's
memoized statistics), the checkpoint/resume scan machinery behind
:class:`IncrementalScanSession`, per-pair reachability of scans planned
in blocks of any width against the brute-force oracle, and the headline property: extend +
analyze is bit-identical to from-scratch analysis, including
straddling-window and empty appends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import incremental
from repro.graphseries import aggregation as agg_mod
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
from repro.temporal import reachability
from repro.temporal import (
    CheckpointRecorder,
    CountingCollector,
    DistanceTotals,
    EarliestArrivalAccumulator,
    ResumePlan,
    SCAN_WINDOWS,
    ScanCheckpoint,
    TripListCollector,
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
        series_base = aggregate_cached(base, [delta])[0]
        u, v, t = append_batch(base)
        grown = base.extend(u, v, t)
        fresh = aggregate(scratch_equivalent(grown), delta)
        before = dict(AGGREGATION_COUNTS)
        # The grown stream's series is spliced from the parent's entry
        # (one splice, no aggregation) but never served by it.
        series_grown = IncrementalScanSession(grown, delta=delta).series()
        assert AGGREGATION_COUNTS == {
            "aggregate": before["aggregate"],
            "incremental": before["incremental"] + 1,
        }
        assert series_grown is not series_base
        assert series_grown.num_steps >= series_base.num_steps
        assert series_grown.num_edges_total > series_base.num_edges_total
        assert np.array_equal(series_grown.edge_steps, fresh.edge_steps)
        assert np.array_equal(series_grown.edge_sources, fresh.edge_sources)
        assert np.array_equal(series_grown.edge_targets, fresh.edge_targets)
        # Each stream's own entry serves it, with no further work.
        assert aggregate_cached(grown, [delta])[0] is series_grown
        again = aggregate_cached(base, [delta])[0]
        assert again is series_base
        assert AGGREGATION_COUNTS == {
            "aggregate": before["aggregate"],
            "incremental": before["incremental"] + 1,
        }

    def test_empty_extend_hits_the_same_cache_entry(self):
        base = small_stream()
        delta = 100.0
        series_base = aggregate_cached(base, [delta])[0]
        grown = base.extend([])
        assert aggregate_cached(grown, [delta])[0] is series_base


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


def _trip_lists(collector):
    trip_set = collector.trips()
    return [
        column.tolist()
        for column in (
            trip_set.u, trip_set.v, trip_set.dep, trip_set.arr, trip_set.hops
        )
    ]


def _consumer_state(consumers):
    totals, trips, counting, acc = consumers
    return (
        (totals.dist_sum, totals.hops_sum, totals.count_sum),
        _trip_lists(trips),
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


def _grown_pair(delta=100.0, spare_nodes=0):
    """A base series, the series of the base plus an append (with more
    nonempty windows, so its packed keys use a different ``K``), and the
    first window the append touches (checkpoints below it are settle
    candidates).  ``spare_nodes`` adds nodes no event touches, whose
    cells stay infinite in every state."""
    stream = small_stream(m=600, span=6000.0)
    u, v, t = append_batch(stream, m=40, span=300.0)
    if spare_nodes:
        stream = LinkStream(
            stream.sources, stream.targets, stream.timestamps,
            num_nodes=stream.num_nodes + spare_nodes,
        )
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
        n = series.num_nodes
        K = series.nonempty_steps().size + 2
        dtype = np.min_scalar_type(K * K - 1)
        assert dtype.itemsize < 8
        mask_bytes = -(-n * n // 8)
        recorder = CheckpointRecorder()
        scan_series(series, _consumer_set(), checkpoints=recorder)
        checkpoints = recorder.checkpoints
        assert len(checkpoints) > 2
        costs = []
        for ckpt in checkpoints:
            assert ckpt.shape == (n, n)
            assert ckpt.keys.dtype == dtype
            assert ckpt.mask.nbytes == mask_bytes
            assert ckpt.nbytes == mask_bytes + ckpt.finite * dtype.itemsize
            assert not ckpt.mask.flags.writeable
            assert not ckpt.keys.flags.writeable
            costs.append(ckpt.nbytes)
        assert 0 < checkpoints[0].finite < n * n
        assert recorder.nbytes == sum(costs)
        # Finite cells never become infinite as the scan goes back, so
        # captures cost no less than the ones before them and a budget
        # keeps exactly the first captures that fit.
        assert costs == sorted(costs)
        budget = costs[0] + costs[1] + costs[2] - 1
        bounded = CheckpointRecorder(max_bytes=budget)
        scan_series(series, _consumer_set(), checkpoints=bounded)
        assert [c.window for c in bounded.checkpoints] == [
            c.window for c in checkpoints[:2]
        ]
        assert bounded.nbytes == costs[0] + costs[1]


def _snapshots(series):
    """Every window's incoming ``(last_processed, A, H)`` from the
    reference loop, keyed by window."""
    snapshots = {}
    reference_scan(series, snapshots=snapshots)
    return snapshots


def _same_snapshot(a, b):
    return a[0] == b[0] and np.array_equal(a[1], b[1]) and np.array_equal(
        a[2], b[2]
    )


class _UnpackSpy:
    """Counts :func:`_unpack_rows` calls while delegating to it."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = reachability._unpack_rows

        def spy(*args):
            self.calls += 1
            return original(*args)

        monkeypatch.setattr(reachability, "_unpack_rows", spy)


class TestCheckpointContract:
    @pytest.mark.parametrize("delta", [15.0, 40.0, 100.0, 700.0])
    def test_checkpoints_sit_at_power_of_two_iterations(self, delta):
        series = aggregate(small_stream(), delta)
        windows = series.nonempty_steps()[::-1]  # scan order
        W = windows.size
        recorder = CheckpointRecorder()
        scan_series(series, _consumer_set(), checkpoints=recorder)
        expected = [int(windows[1 << k]) for k in range((W - 1).bit_length())]
        assert [c.window for c in recorder.checkpoints] == expected
        assert len(recorder.checkpoints) == int(np.log2(W - 1)) + 1

    def test_narrow_dtype_decodes_to_reference_snapshots(self):
        series = aggregate(small_stream(m=600, span=6000.0), 100.0)
        K = series.nonempty_steps().size + 2
        recorder = CheckpointRecorder()
        scan_series(series, _consumer_set(), checkpoints=recorder)
        snapshots = _snapshots(series)
        for ckpt in recorder.checkpoints:
            assert ckpt.keys.dtype == np.min_scalar_type(K * K - 1)
            assert _same_snapshot(
                (ckpt.last_processed, ckpt.A, ckpt.H), snapshots[ckpt.window]
            )

    def test_huge_step_series_records_and_settles(self):
        # Window indices near 2**32 decode from one-byte checkpoint keys;
        # the append's reach (4 -> 5) is superseded at top - 4, so the
        # grown scan settles at the iteration-4 checkpoint across K.
        top = 1 << 32
        base = GraphSeries(
            6, top - 1,
            np.array([top - 6, top - 5, top - 4, top - 3, top - 2]),
            np.array([0, 2, 4, 1, 0]), np.array([2, 3, 5, 2, 1]),
            directed=True,
        )
        grown = GraphSeries(
            6, top,
            np.append(base.edge_steps, top - 1),
            np.append(base.edge_sources, 4), np.append(base.edge_targets, 5),
            directed=True,
        )
        recorder = CheckpointRecorder()
        scan_series(base, _consumer_set(), checkpoints=recorder)
        assert [c.window for c in recorder.checkpoints] == [
            top - 3, top - 4, top - 6
        ]
        assert {c.keys.dtype for c in recorder.checkpoints} == {
            np.dtype(np.uint8)
        }
        snapshots = _snapshots(base)
        for ckpt in recorder.checkpoints:
            assert _same_snapshot(
                (ckpt.last_processed, ckpt.A, ckpt.H), snapshots[ckpt.window]
            )
        plan = ResumePlan(
            recorder.checkpoints, recorder.spans, recorder.span_trips,
            limit=top - 1,
        )
        before = SCAN_WINDOWS["series"]
        consumers = _consumer_set()
        scan_series(grown, consumers, resume=plan)
        assert SCAN_WINDOWS["series"] - before == 5
        assert _consumer_state(consumers) == _fresh_state(grown)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 50),
        size=st.integers(1, 80),
        span=st.sampled_from([50.0, 300.0, 1200.0]),
    )
    def test_resume_overscans_at_most_twice_the_settle_depth(
        self, seed, size, span
    ):
        delta = 100.0
        stream = small_stream(m=600, span=6000.0)
        u, v, t = append_batch(stream, seed=seed, m=size, span=span)
        if not t.size:
            return
        origin = float(stream.t_min)
        base = aggregate(stream, delta, origin=origin)
        grown = aggregate(stream.extend(u, v, t), delta, origin=origin)
        limit = int(window_index(t[:1], delta, origin)[0])
        # d*: the first base iteration whose incoming state the grown
        # scan reaches unchanged.
        base_snaps, grown_snaps = _snapshots(base), _snapshots(grown)
        settle_depth = None
        for depth, window in enumerate(base.nonempty_steps()[::-1].tolist()):
            if window < limit and window in base_snaps and _same_snapshot(
                base_snaps[window], grown_snaps[window]
            ):
                settle_depth = depth
                break
        recorder = CheckpointRecorder()
        scan_series(base, _consumer_set(), checkpoints=recorder)
        plan = ResumePlan(
            recorder.checkpoints, recorder.spans, recorder.span_trips,
            limit=limit,
        )
        before = SCAN_WINDOWS["series"]
        consumers = _consumer_set()
        scan_series(grown, consumers, resume=plan)
        visited = SCAN_WINDOWS["series"] - before
        grown_windows = grown.nonempty_steps()
        if settle_depth is None:
            assert visited == grown_windows.size
        else:
            at_or_above = int(np.count_nonzero(grown_windows >= limit))
            assert visited <= at_or_above + 2 * settle_depth
        assert _consumer_state(consumers) == _fresh_state(grown)

    @pytest.mark.parametrize("grow", [False, True], ids=["same-K", "cross-K"])
    def test_finite_count_mismatch_rejects_before_any_decode(
        self, grow, monkeypatch
    ):
        base, grown, limit = _grown_pair(spare_nodes=1)
        series = grown if grow else base
        recorder = CheckpointRecorder()
        # Trip collectors only: accumulators decode the rows they watch.
        scan_series(
            base, [CountingCollector(), TripListCollector()],
            checkpoints=recorder,
        )
        last = recorder.checkpoints[-1]
        a_inf, K = last.table.size, last.K
        P = np.array(last.P)
        cell = np.flatnonzero(P < a_inf * K)[0]
        P.flat[cell] = a_inf * K + K - 1  # one finite cell made infinite
        tampered = ScanCheckpoint(last.window, last.last_processed, P, last.table)
        assert tampered.finite == last.finite - 1
        fresh = [CountingCollector(), TripListCollector()]
        scan_series(series, fresh)

        def resume_against(ckpt):
            spy = _UnpackSpy(monkeypatch)
            plan = ResumePlan(
                [ckpt], recorder.spans[-1:], recorder.span_trips[-1:],
                limit=limit if grow else base.num_steps,
            )
            consumers = [CountingCollector(), TripListCollector()]
            before = SCAN_WINDOWS["series"]
            scan_series(series, consumers, resume=plan)
            scanned = SCAN_WINDOWS["series"] - before
            monkeypatch.undo()
            assert consumers[0].num_trips == fresh[0].num_trips
            assert _trip_lists(consumers[1]) == _trip_lists(fresh[1])
            return scanned < series.nonempty_steps().size, spy.calls

        # The untampered checkpoint settles (decoding across K only).
        assert resume_against(last) == (True, 2 if grow else 0)
        assert resume_against(tampered) == (False, 0)
        # One finite cell moved to the infinite position next to it
        # keeps the count and the key sequence but not the mask, so it
        # too is rejected before any decode.
        moved = np.array(last.P).reshape(-1)
        finite = moved < a_inf * K
        cell = np.flatnonzero(finite[:-1] & ~finite[1:])[0]
        moved[[cell, cell + 1]] = moved[[cell + 1, cell]]
        moved = moved.reshape(last.shape)
        shifted = ScanCheckpoint(last.window, last.last_processed, moved, last.table)
        assert shifted.finite == last.finite
        assert np.array_equal(shifted.keys, last.keys)
        assert not np.array_equal(shifted.mask, last.mask)
        assert resume_against(shifted) == (False, 0)
        # The one-hop tamper keeps the count and the mask, so it takes
        # the key compare (a decode across K) and is still rejected.
        hop = np.array(last.P)
        A, H = hop // K, hop % K
        hop.flat[np.flatnonzero((A < a_inf) & (H + 1 < K))[0]] += 1
        one_hop = ScanCheckpoint(last.window, last.last_processed, hop, last.table)
        assert one_hop.finite == last.finite
        settled, calls = resume_against(one_hop)
        assert not settled
        assert calls == (2 if grow else 0)


class TestBlockedPairReachability:
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("plan_block", [1, 3, 7, 64])
    def test_matches_bruteforce_oracle(self, directed, plan_block, monkeypatch):
        # The scan plans its runs in blocks of plan_block windows (a run
        # never spans two blocks, and the row buffer flushes at each
        # block change); the per-pair totals must not depend on it.
        series = aggregate(small_stream(n=7, m=120, directed=directed), 90.0)
        assert series.nonempty_steps().size > 7  # 1, 3 and 7 split the scan
        monkeypatch.setattr(reachability, "LAST_PLAN_BLOCK", plan_block)
        accumulator = EarliestArrivalAccumulator()
        scan_series(series, accumulator)
        expected = bruteforce_pair_reachability(series)
        off_diagonal = ~np.eye(7, dtype=bool)
        got = (
            accumulator.reach_steps, accumulator.dist_sum,
            accumulator.hops_sum,
        )
        for got_matrix, expected_matrix in zip(got, expected):
            assert np.array_equal(
                got_matrix[off_diagonal], expected_matrix[off_diagonal]
            )


class TestEarliestArrivalAccumulator:
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

    def test_zero_budget_stores_no_checkpoints(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL_MAX_BYTES", "0")
        stream = small_stream()
        consumers = _consumer_set()
        IncrementalScanSession(stream, delta=100.0).scan(consumers)
        stats = incremental.incremental_stats()
        assert stats["checkpoints"] == 0
        assert stats["checkpoint_bytes"] == 0
        assert _consumer_state(consumers) == _fresh_state(
            aggregate(stream, 100.0)
        )

    def test_stats_split_checkpoint_states_from_spans(self):
        series = aggregate(small_stream(), 100.0)
        recorder = CheckpointRecorder()
        scan_series(series, _consumer_set(), checkpoints=recorder)
        IncrementalScanSession(small_stream(), delta=100.0).scan(
            _consumer_set()
        )
        stats = incremental.incremental_stats()
        assert stats["checkpoints"] == len(recorder.checkpoints) > 0
        assert stats["checkpoint_bytes"] == recorder.nbytes > 0
        assert stats["nbytes"] > stats["checkpoint_bytes"]

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


class TestSeriesStore:
    """The one per-process store: series and scan records together."""

    @staticmethod
    def _entry_sum():
        entries = list(agg_mod._STORE.values())
        for entry in entries:
            series = entry.series
            assert entry.nbytes == (
                series.edge_steps.nbytes
                + series.edge_sources.nbytes
                + series.edge_targets.nbytes
                + sum(r.nbytes for r in entry.records.values())
            )
        return sum(entry.nbytes for entry in entries)

    def test_sweep_then_one_shots_and_other_measures_never_reaggregate(self):
        from repro.core.classical import classical_sweep
        from repro.core.occupancy import stream_occupancy_at
        from repro.core.saturation import occupancy_method
        from repro.engine import SweepCache, SweepEngine

        stream = small_stream(m=300, span=3000.0)
        before = AGGREGATION_COUNTS["aggregate"]
        with SweepEngine("serial", cache=SweepCache()) as engine:
            result = occupancy_method(stream, num_deltas=28, engine=engine)
        deltas = result.deltas
        assert deltas.size == 28
        assert AGGREGATION_COUNTS["aggregate"] == before + 28

        # Another measure set on a fresh result cache: every series is
        # read from the store.
        before = AGGREGATION_COUNTS["aggregate"]
        with SweepEngine("serial", cache=SweepCache()) as engine:
            classical_sweep(
                stream, deltas, compute_distances=False, engine=engine
            )
        assert AGGREGATION_COUNTS["aggregate"] == before

        # The one-shot helper at every grid Δ, origin spelled out or not.
        for delta in deltas:
            stream_occupancy_at(stream, float(delta))
            stream_occupancy_at(stream, float(delta), origin=stream.t_min)
        assert AGGREGATION_COUNTS["aggregate"] == before

    def test_sweep_aggregates_its_cold_grid_in_one_call(self, monkeypatch):
        from repro.engine import SweepEngine
        from repro.engine.tasks import plan_measure_sweep

        calls = []
        real = incremental.aggregate_cached

        def counting(stream, deltas, *, origin=None):
            calls.append(len(deltas))
            return real(stream, deltas, origin=origin)

        monkeypatch.setattr(incremental, "aggregate_cached", counting)
        stream = small_stream(m=300, span=3000.0)
        tasks = plan_measure_sweep(np.geomspace(20.0, 2000.0, 8), "occupancy")

        def sweep(on, plan=tasks):
            with SweepEngine("serial", cache=None) as engine:
                return repr(engine.run(on, plan))

        before = AGGREGATION_COUNTS["aggregate"]
        cold = sweep(stream)
        assert calls == [8]
        assert AGGREGATION_COUNTS["aggregate"] == before + 8
        # Stored series are read from the store, not re-aggregated.
        assert sweep(stream) == cold and calls == [8]
        # A grown stream splices every Δ from its parent's entries.
        splices = incremental.INCREMENTAL_COUNTS["splices"]
        grown = stream.extend(*append_batch(stream))
        sweep(grown)
        assert calls == [8]
        assert incremental.INCREMENTAL_COUNTS["splices"] == splices + 8
        # Spanned tasks, each slicing the stream, still share one call.
        span = (float(stream.t_min), float(stream.t_min) + 1500.0)
        spanned = plan_measure_sweep(
            np.geomspace(20.0, 2000.0, 8), "occupancy", span=span
        )
        sweep(stream, spanned)
        assert calls == [8, 8]
        # A budget that keeps one entry evicts the grid as it is put;
        # each task still uses the series the call built for it.
        clear_aggregate_cache()
        monkeypatch.setenv("REPRO_INCREMENTAL_MAX_BYTES", "1")
        before = AGGREGATION_COUNTS["aggregate"]
        assert sweep(stream) == cold
        assert calls == [8, 8, 8]
        assert AGGREGATION_COUNTS["aggregate"] == before + 8

    def test_running_total_tracks_puts_records_evictions_and_clears(
        self, monkeypatch
    ):
        streams = [small_stream(seed=seed) for seed in range(5)]

        def put_both(stream):
            IncrementalScanSession(stream, delta=100.0).scan(_consumer_set())
            assert agg_mod._STORE_BYTES == self._entry_sum()
            aggregate_cached(stream, [250.0])
            assert agg_mod._STORE_BYTES == self._entry_sum()

        put_both(streams[0])
        pair = agg_mod._STORE_BYTES
        assert len(agg_mod._STORE) == 2 and pair > 0
        # Room for about two streams' entries, not for all five.
        budget = int(2.5 * pair)
        monkeypatch.setenv("REPRO_INCREMENTAL_MAX_BYTES", str(budget))
        for stream in streams[1:]:
            put_both(stream)
            assert agg_mod._STORE_BYTES <= budget
        # Committing again for the same scan identity replaces the record.
        last = agg_mod.series_key(streams[-1], 100.0)
        records = agg_mod.store_get(last).records
        assert len(records) == 1
        IncrementalScanSession(streams[-1], delta=100.0).scan(_consumer_set())
        assert len(records) == 1
        assert agg_mod._STORE_BYTES == self._entry_sum() <= budget

        # The oldest entries went whole: series and records together.
        first = agg_mod.series_key(streams[0], 100.0)
        assert agg_mod.store_get(first) is None
        stats = incremental.incremental_stats()
        assert stats["streams"] == len(agg_mod._STORE) < 2 * len(streams)
        assert stats["scan_records"] == sum(
            len(entry.records) for entry in agg_mod._STORE.values()
        )
        assert stats["nbytes"] == agg_mod._STORE_BYTES
        before = dict(AGGREGATION_COUNTS)
        IncrementalScanSession(streams[0], delta=100.0).series()
        assert AGGREGATION_COUNTS["aggregate"] == before["aggregate"] + 1

        # One store, so either name clears series and records alike.
        assert incremental.clear_incremental_store is clear_aggregate_cache
        incremental.clear_incremental_store()
        assert agg_mod._STORE_BYTES == self._entry_sum() == 0
        assert incremental.incremental_stats()["streams"] == 0

    def test_running_total_holds_under_concurrent_writers(self, monkeypatch):
        import sys
        import threading
        from types import SimpleNamespace

        stream = small_stream()
        series = aggregate(stream, 100.0)
        keys = [("fp%d" % i, repr(100.0), None) for i in range(8)]
        record_bytes = (100, 250, 400)
        # A budget of a few entries, so writers evict each other's.
        monkeypatch.setenv("REPRO_INCREMENTAL_MAX_BYTES", "20000")
        errors = []

        def writer(offset):
            try:
                for i in range(3000):
                    key = keys[(i * 3 + offset) % len(keys)]
                    nbytes = record_bytes[(i + offset) % len(record_bytes)]
                    agg_mod.store_put(
                        key,
                        series,
                        stream.num_events,
                        token=(offset % 2,),
                        record=SimpleNamespace(nbytes=nbytes),
                    )
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert agg_mod._STORE_BYTES == self._entry_sum() > 0


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
