"""Run kernel vs the per-source reference loop.

The run kernel behind :func:`scan_series` and :func:`scan_stream` must
be *bit-identical* to the per-source reference loop
(:func:`repro.temporal.bruteforce.reference_scan`) — trips, collector
states, accumulator outputs, call logs and checkpoint states — on every
input: directed and undirected series, int and float streams,
``include_self``, and any chunking of the window working set or bound
of the row buffer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.occupancy import OccupancyCollector
from repro.generators import time_uniform_stream
from repro.graphseries import GraphSeries, aggregate
from repro.linkstream import LinkStream
from repro.temporal import (
    SCAN_BATCHES,
    SCAN_ROWS,
    SCAN_WINDOWS,
    CheckpointRecorder,
    CountingCollector,
    ResumePlan,
    TripListCollector,
    reference_scan,
    scan_series,
    scan_stream,
)
from repro.temporal import reachability
from repro.temporal.reachability import (
    DistanceTotals,
    EarliestArrivalAccumulator,
)
from tests.strategies import link_streams


def _scan_state(series, *, reference=False, include_self=False):
    """Run one scan (the run kernel, or the reference loop) and snapshot
    every consumer's observable state."""
    trips = TripListCollector()
    counts = CountingCollector()
    occ = OccupancyCollector(bins=16, exact=True)
    totals = DistanceTotals()
    pairwise = EarliestArrivalAccumulator()
    (reference_scan if reference else scan_series)(
        series,
        [trips, counts, occ, totals, pairwise],
        include_self=include_self,
    )
    t = trips.trips()
    occ_values = (
        np.concatenate(occ._chunks) if occ._chunks else np.empty(0)
    )
    return {
        "trips": (t.u, t.v, t.dep, t.arr, t.hops, t.durations),
        "trip_totals": (
            trips.num_recorded,
            trips.hops_total,
            trips.duration_total,
        ),
        "counts": (counts.num_trips, counts.max_hops, counts.max_duration),
        "occ": (occ.num_trips, occ_values),
        "totals": (
            totals.S,
            totals.C,
            totals.SH,
            totals.dist_sum,
            totals.hops_sum,
            totals.count_sum,
        ),
        "pairwise": (
            pairwise.reach_steps,
            pairwise.dist_sum,
            pairwise.hops_sum,
        ),
    }


def _assert_identical(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        for left, right in zip(state_a[key], state_b[key]):
            if isinstance(left, np.ndarray):
                assert np.array_equal(left, right), key
            else:
                assert left == right, key


class RecordLog:
    """A ``record``-only collector logging every call, argument types
    included (the third-party consumer shape the fallback adapter
    serves), with the merge and checkpoint contracts so it can ride
    checkpointed and resumed scans."""

    def __init__(self):
        self.calls = []

    def record(self, source, dep, targets, arrivals, hops, durations):
        self.calls.append(
            (
                type(source), source, type(dep), dep,
                targets.tolist(), arrivals.tolist(), hops.tolist(),
                durations.tolist(),
            )
        )

    def merge(self, other):
        self.calls.extend(other.calls)
        return self

    def segment_handoff(self):
        return RecordLog()

    @property
    def empty(self):
        return not self.calls


class BatchTally:
    """A ``record_batch`` collector counting deliveries into a shared
    tally (its checkpoint successors count into the same one)."""

    def __init__(self, tally):
        self.tally = tally

    def record(self, source, dep, targets, arrivals, hops, durations):
        pass  # the reference loop's per-source feed: not a flush

    def record_batch(self, sources, dep, targets, arrivals, hops, durations):
        self.tally[0] += 1

    def merge(self, other):
        return self

    def segment_handoff(self):
        return BatchTally(self.tally)

    @property
    def empty(self):
        return True  # the tally is shared, never per collector


class TestKernelBitIdentity:
    @settings(max_examples=80, deadline=None)
    @given(
        stream=link_streams(),
        delta=st.sampled_from([1.0, 2.0, 3.0, 5.0]),
        include_self=st.booleans(),
    )
    def test_batched_matches_legacy(self, stream, delta, include_self):
        series = aggregate(stream, delta)
        _assert_identical(
            _scan_state(series, include_self=include_self),
            _scan_state(series, reference=True, include_self=include_self),
        )

    def test_chunking_never_changes_results(self, monkeypatch):
        # Chunks hold whole (independent) sources, so any cell budget —
        # down to one forcing a chunk per source — is bit-identical.
        stream = time_uniform_stream(60, 1, 300.0, seed=11)
        series = aggregate(stream, 4.0)
        oracle = _scan_state(series, reference=True)
        for cells in (1, 64, 1 << 20):
            monkeypatch.setattr(reachability, "BATCH_CELL_BUDGET", cells)
            _assert_identical(_scan_state(series), oracle)

    def test_huge_step_series_runs_on_the_run_kernel(self):
        # num_steps near 2**32 would overflow keys packed over window
        # indices; rank steps pack over the three nonempty windows.
        top = 1 << 32
        step = np.array([top - 3, top - 2, top - 1], dtype=np.int64)
        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        series = GraphSeries(5, top, step, u, v, directed=True)
        windows = SCAN_WINDOWS["series"]
        state = _scan_state(series)
        assert SCAN_WINDOWS["series"] == windows + 3
        assert state["trips"][3].tolist() == [top - 1, top - 2, top - 1,
                                               top - 3, top - 2, top - 1]
        _assert_identical(state, _scan_state(series, reference=True))


def _stream_calls(stream, scan, include_self=False):
    """Call log, trips and trip count of one stream scan."""
    log, trips = RecordLog(), TripListCollector()
    result = scan(stream, [log, trips], include_self=include_self)
    t = trips.trips()
    return {
        "result": result,
        "calls": log.calls,
        "trips": [
            (a.dtype.str, a.tolist())
            for a in (t.u, t.v, t.dep, t.arr, t.hops, t.durations)
        ],
        "totals": (trips.num_recorded, trips.hops_total),
    }


class TestStreamScan:
    @settings(max_examples=120, deadline=None)
    @given(
        stream=st.one_of(link_streams(), link_streams(float_time=True)),
        include_self=st.booleans(),
    )
    def test_stream_scan_matches_reference_call_for_call(
        self, stream, include_self
    ):
        # In order, not sorted: the rank series' trips reach record-only
        # collectors in the reference loop's calls, and TripSet rows in
        # its order, with its dtypes (float timestamps stay float).
        assert _stream_calls(
            stream, scan_stream, include_self
        ) == _stream_calls(stream, reference_scan, include_self)

    def test_record_only_collector_keeps_float_departures(self):
        # A record-only collector on a float stream gets each call's
        # departure as the reference loop passes it: a float, never an
        # int cut from it.
        stream = LinkStream(
            [0, 1, 2, 0, 1], [1, 2, 3, 2, 3], [0.1, 0.1, 0.35, 0.7, 1.25]
        )
        got = _stream_calls(stream, scan_stream)["calls"]
        assert got == _stream_calls(stream, reference_scan)["calls"]
        assert {call[2] for call in got} == {float}
        assert [call[3] for call in got][:2] == [1.25, 0.7]

    def test_empty_and_duplicate_events(self):
        empty = LinkStream([], [], [], num_nodes=3)
        assert scan_stream(empty).num_steps == 0
        repeated = LinkStream([0, 0, 1, 1], [1, 1, 2, 2], [5, 5, 5, 9])
        assert _stream_calls(repeated, scan_stream) == _stream_calls(
            repeated, reference_scan
        )


class TestKernelPlumbing:
    def test_row_tallies_count_both_kernels(self):
        stream = time_uniform_stream(30, 1, 100.0, seed=9)
        series = aggregate(stream, 2.0)
        rows = SCAN_ROWS["series"]
        batches = SCAN_BATCHES["series"]
        _scan_state(series)
        grew = SCAN_ROWS["series"] - rows
        # One row update per (window, source) pair, as the reference
        # loop's per-source iterations.
        pairs = sum(
            np.unique(u if series.directed else np.concatenate([u, v])).size
            for _, u, v in series.edge_groups()
        )
        assert grew == pairs > 0
        # The run kernel commits rows in multi-source batches, so it
        # needs strictly fewer commits than rows on a stream with
        # co-windowed sources.
        assert SCAN_BATCHES["series"] - batches < grew

    @pytest.mark.parametrize("cells", [None, 24])
    def test_row_only_accumulator_sees_the_legacy_calls(
        self, cells, monkeypatch
    ):
        # Within a window the run kernel lays segments out by size, so
        # the per-row adapter must put the rows back in source order:
        # an observe_row-only accumulator sees the reference loop's
        # exact calls.
        if cells is not None:
            monkeypatch.setattr(reachability, "BATCH_CELL_BUDGET", cells)
        stream = time_uniform_stream(12, 2, 60.0, seed=4)
        series = aggregate(stream, 6.0)
        via_kernel, via_reference = RowLog(), RowLog()
        scan_series(series, via_kernel)
        reference_scan(series, via_reference)
        assert len(via_reference.calls) > series.nonempty_steps().size
        assert via_kernel.calls == via_reference.calls

    def test_record_only_collector_works_under_batched_kernel(self):
        # Third-party registry collectors may only implement the
        # per-source record(); the fallback adapter must segment batches
        # back into per-source calls, preserving call order and the
        # scalar int arguments.
        stream = time_uniform_stream(25, 1, 80.0, seed=3)
        series = aggregate(stream, 2.0)
        via_kernel, via_reference = RecordLog(), RecordLog()
        scan_series(series, via_kernel)
        reference_scan(series, via_reference)
        assert via_kernel.calls
        assert via_kernel.calls == via_reference.calls


class RowLog:
    """An ``observe_row``-only accumulator logging every call (the
    third-party shape the per-row adapter serves)."""

    def __init__(self):
        self.calls = []

    def observe_row(self, source, step, old_A, old_H, new_A, new_H, self_col):
        self.calls.append(
            (
                type(source), source, step, old_A.tolist(), old_H.tolist(),
                new_A.tolist(), new_H.tolist(), self_col,
            )
        )

    def close_run(self, t_low, t_high):
        self.calls.append(("close", t_low, t_high))


def _series(num_nodes, num_steps, edges, directed=True):
    step, u, v = (np.array(col, dtype=np.int64) for col in zip(*edges))
    return GraphSeries(num_nodes, num_steps, step, u, v, directed=directed)


def _trip_list(series, scan=scan_series):
    trips = TripListCollector()
    scan(series, trips)
    t = trips.trips()
    return list(zip(t.u.tolist(), t.v.tolist(), t.dep.tolist(), t.arr.tolist()))


def _commits(series):
    """(windows, commits, trips) of one run-kernel scan; the trips must
    match the reference loop's."""
    windows, batches = SCAN_WINDOWS["series"], SCAN_BATCHES["series"]
    trips = _trip_list(series)
    assert trips == _trip_list(series, reference_scan)
    return (
        SCAN_WINDOWS["series"] - windows,
        SCAN_BATCHES["series"] - batches,
        trips,
    )


class TestRunKernel:
    def test_window_reading_a_later_write_commits_separately(self):
        # Window 1 (scanned first) writes row 1; window 0 reads row 1 as
        # its hop target, so it must see window 1's update: two runs.
        series = _series(3, 2, [(1, 1, 2), (0, 0, 1)])
        windows, commits, trips = _commits(series)
        assert (windows, commits) == (2, 2)
        assert (0, 2, 0, 1) in trips  # 0 -> 1 -> 2 chains across windows

    def test_window_rewriting_a_later_row_commits_separately(self):
        # Both windows write row 0 (source of both): the earlier window
        # must read the later one's update of its own row.
        series = _series(3, 2, [(1, 0, 1), (0, 0, 2)])
        windows, commits, _ = _commits(series)
        assert (windows, commits) == (2, 2)

    def test_conflict_free_pair_commits_once(self):
        # Window 1 touches rows {2, 3}, window 0 rows {0, 1}: one run.
        series = _series(4, 2, [(1, 2, 3), (0, 0, 1)])
        windows, commits, trips = _commits(series)
        assert (windows, commits) == (2, 1)
        assert trips == [(2, 3, 1, 1), (0, 1, 0, 0)]

    def test_reading_an_earlier_windows_target_is_no_conflict(self):
        # Window 0 writes row 1, which window 1 (scanned first) only
        # reads: window 1 must see the pre-run row, which it does.
        series = _series(3, 2, [(1, 0, 1), (0, 1, 2)])
        windows, commits, _ = _commits(series)
        assert (windows, commits) == (2, 1)

    def test_fallback_splits_a_source_firing_in_consecutive_windows(self):
        # Source 0 fires in windows 1 and 0.  The buffered feed delivers
        # both windows in one batch, so the record-only adapter must cut
        # on the departure too: two calls, each with its own dep.
        series = _series(3, 2, [(1, 0, 1), (0, 0, 2)])
        via_kernel, via_reference = RecordLog(), RecordLog()
        scan_series(series, via_kernel)
        reference_scan(series, via_reference)
        assert [call[1:4] for call in via_kernel.calls] == [
            (0, int, 1), (0, int, 0),
        ]
        assert via_kernel.calls == via_reference.calls

    @pytest.mark.parametrize("bound", ["cell", "rows", "default"])
    def test_row_buffer_bound_never_changes_the_feed(self, bound, monkeypatch):
        # Flushes at any row-buffer bound — one cell (a flush per
        # commit), a few rows, the default — crossed with chunk budgets
        # that put flushes mid-run, at block changes and inside the
        # chunked path, reach every collector in the reference loop's
        # call order, between checkpoint captures too.
        stream = time_uniform_stream(25, 1, 80.0, seed=3)
        series = aggregate(stream, 2.0)
        cells = {"cell": 1, "rows": 3 * series.num_nodes, "default": None}

        def observe(scan=scan_series, **kwargs):
            log, trips, tally = RecordLog(), TripListCollector(), [0]
            scan(series, [log, trips, BatchTally(tally)], **kwargs)
            t = trips.trips()
            feed = (log.calls, [a.tolist() for a in (t.u, t.v, t.dep)])
            return feed, tally[0]

        oracle, _ = observe(reference_scan)
        assert oracle[0]
        default_flushes = observe(checkpoints=CheckpointRecorder())[1]
        if cells[bound] is not None:
            monkeypatch.setattr(reachability, "ROW_BUFFER_CELLS", cells[bound])
        for budget in (1, 24, reachability.BATCH_CELL_BUDGET):
            monkeypatch.setattr(reachability, "BATCH_CELL_BUDGET", budget)
            feed, flushes = observe(checkpoints=CheckpointRecorder())
            assert feed == oracle, budget
            if bound != "default":
                # The patched bound is live: it flushes more often.
                assert flushes > default_flushes

    def test_accumulators_run_one_window_per_commit(self):
        series = _series(4, 2, [(1, 2, 3), (0, 0, 1)])
        batches = SCAN_BATCHES["series"]
        scan_series(series, DistanceTotals())
        assert SCAN_BATCHES["series"] - batches == 2

    def test_checkpoint_positions_cut_runs(self):
        # Four conflict-free windows; a recorder wants iterations 1, 2
        # (powers of two), so the runs are [0], [1], [2, 3].
        series = _series(
            8, 4, [(3, 0, 1), (2, 2, 3), (1, 4, 5), (0, 6, 7)]
        )
        batches = SCAN_BATCHES["series"]
        scan_series(
            series, TripListCollector(), checkpoints=CheckpointRecorder(),
        )
        assert SCAN_BATCHES["series"] - batches == 3


@st.composite
def window_series(draw):
    """Tiny-node, many-window series plus an append: ``(base, grown,
    limit)`` where ``grown`` adds edges from window ``limit`` on (the
    base's last window included, so appends may straddle it)."""
    n = draw(st.integers(3, 12))
    directed = draw(st.booleans())
    num_steps = draw(st.integers(2, 60))
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_steps - 1),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
            ).filter(lambda e: e[1] != e[2]),
            min_size=1,
            max_size=70,
        )
    )
    if not directed:
        raw = [(k, min(a, b), max(a, b)) for k, a, b in raw]
    edges = sorted(set(raw))
    # Appends are short: the base keeps all but the last few windows.
    cut = draw(st.integers(max(1, num_steps - 6), num_steps))
    late = draw(st.sets(st.integers(0, len(edges) - 1), max_size=4))
    base = [
        e for i, e in enumerate(edges)
        if e[0] < cut and not (e[0] == cut - 1 and i in late)
    ]
    added = [e[0] for e in edges if e not in base]
    limit = min(added) if added else num_steps
    grown = _series(n, num_steps, edges, directed)
    base_series = (
        _series(n, cut, base, directed)
        if base
        else GraphSeries(n, cut, [], [], [], directed=directed)
    )
    return base_series, grown, limit


def _snapshot(result, consumers):
    """Results of one scan: trip count, call log, trips and totals."""
    t = consumers[1].trips()
    state = {
        "num_trips": result.num_trips,
        "calls": consumers[0].calls,
        "trips": [
            (a.dtype.str, a.tolist())
            for a in (t.u, t.v, t.dep, t.arr, t.hops, t.durations)
        ],
    }
    if len(consumers) > 2:
        d = consumers[2]
        state["totals"] = (d.dist_sum, d.hops_sum, d.count_sum)
    return state


def _consumers(totals):
    return [RecordLog(), TripListCollector()] + (
        [DistanceTotals()] if totals else []
    )


def _observe(series, *, include_self, totals, record, resume_from=None):
    """Scan on the run kernel, optionally with a checkpoint recorder and
    optionally resuming a recorded base scan; returns the results and
    the recorder."""
    recorder = CheckpointRecorder() if record else None
    resume = None
    if resume_from is not None:
        base, limit = resume_from
        base_recorder = CheckpointRecorder()
        scan_series(
            base, _consumers(totals), include_self=include_self,
            checkpoints=base_recorder,
        )
        resume = ResumePlan(
            base_recorder.checkpoints, base_recorder.spans,
            base_recorder.span_trips, limit=limit,
        )
    consumers = _consumers(totals)
    result = scan_series(
        series, consumers, include_self=include_self,
        checkpoints=recorder, resume=resume,
    )
    return _snapshot(result, consumers), recorder


def _assert_record(recorder, snapshots, deps):
    """Every checkpoint holds the reference loop's incoming state at its
    window, and every span the trips departing from its window down to
    the next checkpoint's."""
    windows = [c.window for c in recorder.checkpoints]
    for ckpt in recorder.checkpoints:
        last, A, H = snapshots[ckpt.window]
        assert ckpt.last_processed == last
        assert np.array_equal(ckpt.A, A) and np.array_equal(ckpt.H, H)
    assert recorder.span_trips == [
        int(((deps <= hi) & (deps > lo)).sum())
        for hi, lo in zip(windows, windows[1:] + [-1])
    ]


class TestRunKernelProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        data=window_series(),
        include_self=st.booleans(),
        totals=st.booleans(),
        record=st.booleans(),
        cells=st.sampled_from([None, 1, 24]),
        flush_cells=st.sampled_from([None, 1, 40]),
    )
    def test_run_kernel_matches_legacy_call_for_call(
        self, data, include_self, totals, record, cells, flush_cells,
    ):
        base, grown, limit = data
        consumers = _consumers(totals)
        snapshots = {}
        oracle = _snapshot(
            reference_scan(
                grown, consumers, include_self=include_self,
                snapshots=snapshots,
            ),
            consumers,
        )
        deps = consumers[1].trips().dep
        kwargs = dict(include_self=include_self, totals=totals, record=record)
        with pytest.MonkeyPatch.context() as mp:
            if cells is not None:
                mp.setattr(reachability, "BATCH_CELL_BUDGET", cells)
            if flush_cells is not None:
                mp.setattr(reachability, "ROW_BUFFER_CELLS", flush_cells)
            # A resumed record adopts the base scan's checkpoint tail,
            # which holds the same states as a from-scratch record.
            for resume_from in (None, (base, limit)):
                state, recorder = _observe(
                    grown, resume_from=resume_from, **kwargs
                )
                assert state == oracle
                if record:
                    _assert_record(recorder, snapshots, deps)
