"""Batched vs legacy scan-kernel equivalence.

The batched kernel (PR 8) must be *bit-identical* to the legacy
per-source loop — trips, collector states and accumulator outputs — on
every input: directed and undirected series, destination-restricted
scans, ``include_self``, and any chunking of the window working set.
The legacy kernel is the in-tree oracle; these tests are the contract
that lets both share one cache namespace (no EVAL_VERSION bump).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.occupancy import OccupancyCollector
from repro.generators import time_uniform_stream
from repro.graphseries import GraphSeries, aggregate
from repro.temporal import (
    SCAN_BATCHES,
    SCAN_ROWS,
    SCAN_WINDOWS,
    CheckpointRecorder,
    CountingCollector,
    ResumePlan,
    TripListCollector,
    scan_series,
)
from repro.temporal import reachability
from repro.temporal.reachability import (
    DistanceTotals,
    EarliestArrivalAccumulator,
)
from repro.utils.errors import ValidationError
from tests.strategies import link_streams


def _scan_state(series, *, kernel, targets=None, include_self=False):
    """Run one scan and snapshot every consumer's observable state."""
    trips = TripListCollector()
    counts = CountingCollector()
    occ = OccupancyCollector(bins=16, exact=True)
    totals = DistanceTotals()
    pairwise = EarliestArrivalAccumulator()
    scan_series(
        series,
        [trips, counts, occ, totals, pairwise],
        include_self=include_self,
        targets=targets,
        kernel=kernel,
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


def _targets_for(mode, num_nodes):
    if mode == 0:
        return None
    if mode == 1:
        return np.arange(max(1, num_nodes // 2), dtype=np.int64)
    return np.array([num_nodes - 1], dtype=np.int64)


class RecordLog:
    """A ``record``-only collector logging every call, argument types
    included (the third-party consumer shape the fallback adapter
    serves), with the shard and checkpoint contracts so it can ride
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
        pass  # the legacy kernel's per-source feed: not a flush

    def record_batch(self, sources, dep, targets, arrivals, hops, durations):
        self.tally[0] += 1

    def merge(self, other):
        return self

    def segment_handoff(self):
        return BatchTally(self.tally)

    @property
    def empty(self):
        return True  # the tally is shared, never per shard


class TestKernelBitIdentity:
    @settings(max_examples=80, deadline=None)
    @given(
        stream=link_streams(),
        delta=st.sampled_from([1.0, 2.0, 3.0, 5.0]),
        include_self=st.booleans(),
        target_mode=st.integers(0, 2),
    )
    def test_batched_matches_legacy(
        self, stream, delta, include_self, target_mode
    ):
        series = aggregate(stream, delta)
        targets = _targets_for(target_mode, series.num_nodes)
        batched = _scan_state(
            series, kernel="batched", targets=targets, include_self=include_self
        )
        legacy = _scan_state(
            series, kernel="legacy", targets=targets, include_self=include_self
        )
        _assert_identical(batched, legacy)

    def test_chunking_never_changes_results(self, monkeypatch):
        # Chunks hold whole (independent) sources, so any cell budget —
        # down to one forcing a chunk per source — is bit-identical.
        stream = time_uniform_stream(60, 1, 300.0, seed=11)
        series = aggregate(stream, 4.0)
        legacy = _scan_state(series, kernel="legacy")
        for cells in (1, 64, 1 << 20):
            monkeypatch.setenv("REPRO_SCAN_BATCH_CELLS", str(cells))
            _assert_identical(_scan_state(series, kernel="batched"), legacy)

    def test_packed_key_overflow_falls_back_to_legacy(self):
        # num_steps near 2**32 makes a_inf * K overflow the int64
        # packing headroom; the scan must detect this up front and run
        # the (bit-identical) legacy kernel instead, tallied as legacy.
        from repro.graphseries import GraphSeries

        top = 1 << 32
        step = np.array([top - 3, top - 2, top - 1], dtype=np.int64)
        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        series = GraphSeries(5, top, step, u, v, directed=True)
        windows = dict(SCAN_WINDOWS)
        batched = _scan_state(series, kernel="batched")
        assert SCAN_WINDOWS["batched"] == windows["batched"]
        assert SCAN_WINDOWS["legacy"] == windows["legacy"] + 3
        _assert_identical(batched, _scan_state(series, kernel="legacy"))

    def test_env_kernel_selection(self, monkeypatch):
        stream = time_uniform_stream(20, 1, 60.0, seed=5)
        series = aggregate(stream, 3.0)
        monkeypatch.setenv("REPRO_SCAN_KERNEL", "legacy")
        before = SCAN_WINDOWS["legacy"]
        _scan_state(series, kernel=None)
        assert SCAN_WINDOWS["legacy"] > before

    def test_explicit_kernel_overrides_env(self, monkeypatch):
        stream = time_uniform_stream(20, 1, 60.0, seed=5)
        series = aggregate(stream, 3.0)
        monkeypatch.setenv("REPRO_SCAN_KERNEL", "legacy")
        before = SCAN_WINDOWS["batched"]
        _scan_state(series, kernel="batched")
        assert SCAN_WINDOWS["batched"] > before


class TestKernelPlumbing:
    def test_unknown_kernel_rejected(self, chain_stream):
        series = aggregate(chain_stream, 2.0)
        with pytest.raises(ValidationError):
            scan_series(series, TripListCollector(), kernel="simd")

    def test_unknown_env_kernel_rejected(self, chain_stream, monkeypatch):
        series = aggregate(chain_stream, 2.0)
        monkeypatch.setenv("REPRO_SCAN_KERNEL", "turbo")
        with pytest.raises(ValidationError):
            scan_series(series, TripListCollector())

    @pytest.mark.parametrize("bad", ["0", "-3", "many"])
    def test_bad_cell_budget_rejected(self, chain_stream, monkeypatch, bad):
        series = aggregate(chain_stream, 2.0)
        monkeypatch.setenv("REPRO_SCAN_BATCH_CELLS", bad)
        with pytest.raises(ValidationError):
            scan_series(series, TripListCollector(), kernel="batched")

    def test_row_tallies_count_both_kernels(self):
        stream = time_uniform_stream(30, 1, 100.0, seed=9)
        series = aggregate(stream, 2.0)
        rows = dict(SCAN_ROWS)
        batches = dict(SCAN_BATCHES)
        _scan_state(series, kernel="batched")
        _scan_state(series, kernel="legacy")
        grew_b = SCAN_ROWS["batched"] - rows["batched"]
        grew_l = SCAN_ROWS["legacy"] - rows["legacy"]
        # Same scan, same touched rows, under either kernel.
        assert grew_b == grew_l > 0
        # The batched kernel commits rows in multi-source batches, so it
        # needs strictly fewer commits than the legacy one-row-per-batch
        # loop on a stream with co-windowed sources.
        assert SCAN_BATCHES["batched"] - batches["batched"] < grew_b
        assert SCAN_BATCHES["legacy"] - batches["legacy"] == grew_l

    @pytest.mark.parametrize("cells", [None, 24])
    def test_row_only_accumulator_sees_the_legacy_calls(
        self, cells, monkeypatch
    ):
        # Within a window the run kernel lays segments out by size, so
        # the per-row adapter must put the rows back in source order:
        # an observe_row-only accumulator sees legacy's exact calls.
        if cells is not None:
            monkeypatch.setenv("REPRO_SCAN_BATCH_CELLS", str(cells))
        stream = time_uniform_stream(12, 2, 60.0, seed=4)
        series = aggregate(stream, 6.0)
        logs = {}
        for kernel in ("batched", "legacy"):
            logs[kernel] = RowLog()
            scan_series(series, logs[kernel], kernel=kernel)
        assert len(logs["legacy"].calls) > series.nonempty_steps().size
        assert logs["batched"].calls == logs["legacy"].calls

    def test_record_only_collector_works_under_batched_kernel(self):
        # Third-party registry collectors may only implement the
        # per-source record(); the fallback adapter must segment batches
        # back into per-source calls, preserving call order and the
        # scalar int arguments.
        stream = time_uniform_stream(25, 1, 80.0, seed=3)
        series = aggregate(stream, 2.0)
        via_batched = RecordLog()
        via_legacy = RecordLog()
        scan_series(series, via_batched, kernel="batched")
        scan_series(series, via_legacy, kernel="legacy")
        assert via_batched.calls
        assert via_batched.calls == via_legacy.calls


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


def _commits(series, kernel="batched"):
    """(windows, commits, trips) of one batched scan, plus its trips."""
    windows, batches = SCAN_WINDOWS[kernel], SCAN_BATCHES[kernel]
    trips = TripListCollector()
    scan_series(series, trips, kernel=kernel)
    t = trips.trips()
    return (
        SCAN_WINDOWS[kernel] - windows,
        SCAN_BATCHES[kernel] - batches,
        list(zip(t.u.tolist(), t.v.tolist(), t.dep.tolist(), t.arr.tolist())),
    )


class TestRunKernel:
    def test_window_reading_a_later_write_commits_separately(self):
        # Window 1 (scanned first) writes row 1; window 0 reads row 1 as
        # its hop target, so it must see window 1's update: two runs.
        series = _series(3, 2, [(1, 1, 2), (0, 0, 1)])
        windows, commits, trips = _commits(series)
        assert (windows, commits) == (2, 2)
        assert (0, 2, 0, 1) in trips  # 0 -> 1 -> 2 chains across windows
        assert trips == _commits(series, "legacy")[2]

    def test_window_rewriting_a_later_row_commits_separately(self):
        # Both windows write row 0 (source of both): the earlier window
        # must read the later one's update of its own row.
        series = _series(3, 2, [(1, 0, 1), (0, 0, 2)])
        windows, commits, trips = _commits(series)
        assert (windows, commits) == (2, 2)
        assert trips == _commits(series, "legacy")[2]

    def test_conflict_free_pair_commits_once(self):
        # Window 1 touches rows {2, 3}, window 0 rows {0, 1}: one run.
        series = _series(4, 2, [(1, 2, 3), (0, 0, 1)])
        windows, commits, trips = _commits(series)
        assert (windows, commits) == (2, 1)
        assert trips == [(2, 3, 1, 1), (0, 1, 0, 0)]
        assert trips == _commits(series, "legacy")[2]

    def test_reading_an_earlier_windows_target_is_no_conflict(self):
        # Window 0 writes row 1, which window 1 (scanned first) only
        # reads: window 1 must see the pre-run row, which it does.
        series = _series(3, 2, [(1, 0, 1), (0, 1, 2)])
        windows, commits, trips = _commits(series)
        assert (windows, commits) == (2, 1)
        assert trips == _commits(series, "legacy")[2]

    def test_fallback_splits_a_source_firing_in_consecutive_windows(self):
        # Source 0 fires in windows 1 and 0.  The buffered feed delivers
        # both windows in one batch, so the record-only adapter must cut
        # on the departure too: two calls, each with its own dep.
        series = _series(3, 2, [(1, 0, 1), (0, 0, 2)])
        via_batched, via_legacy = RecordLog(), RecordLog()
        scan_series(series, via_batched, kernel="batched")
        scan_series(series, via_legacy, kernel="legacy")
        assert [call[1:4] for call in via_batched.calls] == [
            (0, int, 1), (0, int, 0),
        ]
        assert via_batched.calls == via_legacy.calls

    @pytest.mark.parametrize("bound", ["cell", "rows", "default"])
    def test_row_buffer_bound_never_changes_the_feed(self, bound, monkeypatch):
        # Flushes at any row-buffer bound — one cell (a flush per
        # commit), a few rows, the default — crossed with chunk budgets
        # that put flushes mid-run, at block changes and inside the
        # chunked path, reach every collector in the legacy call order,
        # between checkpoint captures too.
        stream = time_uniform_stream(25, 1, 80.0, seed=3)
        series = aggregate(stream, 2.0)
        cells = {"cell": 1, "rows": 3 * series.num_nodes, "default": None}

        def observe(kernel):
            log, trips, tally = RecordLog(), TripListCollector(), [0]
            scan_series(
                series, [log, trips, BatchTally(tally)], kernel=kernel,
                checkpoints=CheckpointRecorder(),
            )
            t = trips.trips()
            feed = (log.calls, [a.tolist() for a in (t.u, t.v, t.dep)])
            return feed, tally[0]

        oracle, _ = observe("legacy")
        assert oracle[0]
        default_flushes = observe("batched")[1]
        if cells[bound] is not None:
            monkeypatch.setattr(reachability, "ROW_BUFFER_CELLS", cells[bound])
        for budget in (1, 24, None):
            if budget is None:
                monkeypatch.delenv("REPRO_SCAN_BATCH_CELLS", raising=False)
            else:
                monkeypatch.setenv("REPRO_SCAN_BATCH_CELLS", str(budget))
            feed, flushes = observe("batched")
            assert feed == oracle, budget
            if bound != "default":
                # The patched bound is live: it flushes more often.
                assert flushes > default_flushes

    def test_accumulators_run_one_window_per_commit(self):
        series = _series(4, 2, [(1, 2, 3), (0, 0, 1)])
        batches = SCAN_BATCHES["batched"]
        scan_series(series, DistanceTotals(), kernel="batched")
        assert SCAN_BATCHES["batched"] - batches == 2

    def test_checkpoint_positions_cut_runs(self):
        # Four conflict-free windows; a recorder wants iterations 1, 2
        # (powers of two), so the runs are [0], [1], [2, 3].
        series = _series(
            8, 4, [(3, 0, 1), (2, 2, 3), (1, 4, 5), (0, 6, 7)]
        )
        batches = SCAN_BATCHES["batched"]
        scan_series(
            series, TripListCollector(), kernel="batched",
            checkpoints=CheckpointRecorder(),
        )
        assert SCAN_BATCHES["batched"] - batches == 3


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


def _observe(
    series, kernel, *, targets, include_self, totals, record=True,
    resume_from=None,
):
    """Scan, optionally with a checkpoint recorder and optionally
    resuming a recorded base scan; snapshot the call log, the trips and
    the checkpoints."""
    log, trips = RecordLog(), TripListCollector()
    consumers = [log, trips] + ([DistanceTotals()] if totals else [])
    recorder = CheckpointRecorder() if record else None
    resume = None
    if resume_from is not None:
        base, limit = resume_from
        base_recorder = CheckpointRecorder()
        scan_series(
            base,
            [RecordLog(), TripListCollector()]
            + ([DistanceTotals()] if totals else []),
            include_self=include_self, targets=targets, kernel=kernel,
            checkpoints=base_recorder,
        )
        resume = ResumePlan(
            base_recorder.checkpoints, base_recorder.spans,
            base_recorder.span_trips, limit=limit,
        )
    result = scan_series(
        series, consumers, include_self=include_self, targets=targets,
        kernel=kernel, checkpoints=recorder, resume=resume,
    )
    t = trips.trips()
    state = {
        "num_trips": result.num_trips,
        "calls": log.calls,
        "trips": [
            (a.dtype.str, a.tolist())
            for a in (t.u, t.v, t.dep, t.arr, t.hops, t.durations)
        ],
        "checkpoints": [
            (c.window, c.last_processed, c.A.tolist(), c.H.tolist())
            for c in (recorder.checkpoints if record else ())
        ],
        "span_trips": recorder.span_trips if record else None,
    }
    if totals:
        d = consumers[2]
        state["totals"] = (d.dist_sum, d.hops_sum, d.count_sum)
    return state


class TestRunKernelProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        data=window_series(),
        include_self=st.booleans(),
        target_mode=st.integers(0, 2),
        totals=st.booleans(),
        record=st.booleans(),
        cells=st.sampled_from([None, 1, 24]),
        flush_cells=st.sampled_from([None, 1, 40]),
    )
    def test_run_kernel_matches_legacy_call_for_call(
        self, data, include_self, target_mode, totals, record, cells,
        flush_cells,
    ):
        base, grown, limit = data
        targets = _targets_for(target_mode, grown.num_nodes)
        kwargs = dict(
            targets=targets, include_self=include_self, totals=totals,
            record=record,
        )
        oracle = _observe(grown, "legacy", **kwargs)
        oracle_resumed = _observe(
            grown, "legacy", resume_from=(base, limit), **kwargs
        )
        # A resumed record adopts the base scan's checkpoint tail, so
        # only its results (not its record) match a from-scratch scan.
        recording = ("checkpoints", "span_trips")
        for key in oracle.keys() - set(recording):
            assert oracle_resumed[key] == oracle[key], key
        with pytest.MonkeyPatch.context() as mp:
            if cells is not None:
                mp.setenv("REPRO_SCAN_BATCH_CELLS", str(cells))
            if flush_cells is not None:
                mp.setattr(reachability, "ROW_BUFFER_CELLS", flush_cells)
            assert _observe(grown, "batched", **kwargs) == oracle
            resumed = _observe(
                grown, "batched", resume_from=(base, limit), **kwargs
            )
        assert resumed == oracle_resumed
