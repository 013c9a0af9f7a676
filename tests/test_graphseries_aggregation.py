"""Unit tests for the aggregation engines (Definition 1 and variants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphseries import (
    aggregate,
    aggregate_adaptive,
    aggregate_cached,
    clear_aggregate_cache,
    window_index,
)
from repro.graphseries.aggregation import (
    AGGREGATION_COUNTS,
    aggregate_prefix_extended,
)
from repro.linkstream import LinkStream
from repro.utils.errors import AggregationError
from tests.strategies import link_streams


class TestWindowIndex:
    def test_half_open_windows(self):
        idx = window_index(np.array([0.0, 4.9, 5.0, 9.9, 10.0]), 5.0, 0.0)
        assert idx.tolist() == [0, 0, 1, 1, 2]

    def test_origin_shift(self):
        idx = window_index(np.array([10.0, 14.0]), 5.0, 10.0)
        assert idx.tolist() == [0, 0]

    def test_bad_delta(self):
        with pytest.raises(AggregationError):
            window_index(np.array([0.0]), 0.0, 0.0)


class TestDisjointAggregation:
    def test_definition1(self, chain_stream):
        # Events at 1, 3, 5; delta=2 starting at 1 -> windows [1,3) [3,5) [5,7).
        series = aggregate(chain_stream, 2.0)
        assert series.num_steps == 3
        assert [s for s, __, __ in series.edge_groups()] == [0, 1, 2]

    def test_deduplicates_within_window(self):
        stream = LinkStream([0, 0, 0], [1, 1, 1], [0, 1, 2])
        series = aggregate(stream, 10.0)
        assert series.num_edges_total == 1

    def test_keeps_pair_across_windows(self):
        stream = LinkStream([0, 0], [1, 1], [0, 15])
        series = aggregate(stream, 10.0)
        assert series.num_edges_total == 2

    def test_whole_span_gives_single_graph(self, figure1_stream):
        series = aggregate(figure1_stream, figure1_stream.span + 1)
        assert series.num_steps == 1

    def test_empty_stream_rejected(self):
        with pytest.raises(AggregationError):
            aggregate(LinkStream([], [], []), 1.0)

    def test_nonpositive_delta_rejected(self, chain_stream):
        with pytest.raises(AggregationError):
            aggregate(chain_stream, 0.0)

    def test_origin_after_first_event_rejected(self, chain_stream):
        with pytest.raises(AggregationError):
            aggregate(chain_stream, 1.0, origin=2.0)

    def test_undirected_stream_gives_undirected_series(self):
        stream = LinkStream([1, 0], [0, 2], [0, 1], directed=False)
        series = aggregate(stream, 10.0)
        assert not series.directed
        assert series.num_edges_total == 2

    def test_directed_pairs_not_merged(self):
        stream = LinkStream([0, 1], [1, 0], [0, 1], directed=True)
        series = aggregate(stream, 10.0)
        assert series.num_edges_total == 2

    def test_geometry_recorded(self, chain_stream):
        series = aggregate(chain_stream, 2.0)
        assert series.delta == 2.0
        assert series.origin == chain_stream.t_min


class TestAdaptiveAggregation:
    def test_boundaries_cover_span(self, medium_stream):
        series, boundaries = aggregate_adaptive(medium_stream)
        assert boundaries[0] == medium_stream.t_min
        assert boundaries[-1] > medium_stream.t_max
        assert series.num_steps == boundaries.size - 1

    def test_bad_tolerance_rejected(self, medium_stream):
        with pytest.raises(AggregationError):
            aggregate_adaptive(medium_stream, growth_tolerance=1.5)

    def test_produces_multiple_windows_on_bursty_stream(self):
        rng = np.random.default_rng(0)
        # Two dense bursts separated by silence.
        t = np.concatenate([rng.integers(0, 100, 200), rng.integers(5000, 5100, 200)])
        u = rng.integers(0, 10, 400)
        v = (u + 1 + rng.integers(0, 9, 400)) % 10
        stream = LinkStream(u, v, t, num_nodes=10)
        series, boundaries = aggregate_adaptive(stream, probe=50.0)
        assert series.num_steps >= 2

    def test_terminal_boundary_uses_stream_resolution(self):
        """Regression: the last half-open window used to close at
        ``t_max + 1.0`` — a full second, absurd for a float-time stream
        whose events are milliseconds apart."""
        t = np.arange(400) * 0.004  # 4 ms resolution
        u = np.arange(400) % 7
        v = (u + 1) % 7
        stream = LinkStream(u, v, t, num_nodes=7)
        __, boundaries = aggregate_adaptive(stream, probe=0.1)
        assert boundaries[-1] == pytest.approx(stream.t_max + 0.004)
        assert boundaries[-1] > stream.t_max  # still half-open: event inside

    def test_terminal_boundary_integer_stream_unchanged(self, medium_stream):
        __, boundaries = aggregate_adaptive(medium_stream)
        assert boundaries[-1] == medium_stream.t_max + medium_stream.resolution()

    def test_single_timestamp_stream_falls_back_to_unit_pad(self):
        # No resolution exists with one distinct timestamp; the terminal
        # boundary degrades to the old one-unit pad.
        stream = LinkStream([0, 1], [1, 2], [5, 5], num_nodes=3)
        __, boundaries = aggregate_adaptive(stream, probe=1.0)
        assert boundaries[-1] == 6.0


class TestDedupOverflow:
    """Regression: the old composite dedup key ``(step*n + u)*n + v`` wrapped
    int64 once ``num_steps * n**2`` crossed 2**63, silently merging distinct
    rows whose keys collided mod 2**64."""

    # With n = 2**21 nodes, rows (step=0, u=0, v=1) and (step=2**22, u=0,
    # v=1) have composite keys 1 and 2**64 + 1, which are identical mod
    # 2**64 — the old code deduplicated them into one row.
    N = 2 ** 21
    STEP = 2 ** 22

    def test_dedup_keeps_colliding_rows(self):
        # One pair, two events STEP windows apart: the row builder sorts
        # by the two pair columns, so no packed key can merge the rows.
        stream = LinkStream([0, 0], [1, 1], [0, self.STEP], num_nodes=self.N)
        series = aggregate(stream, 1.0)
        assert series.num_steps == self.STEP + 1
        assert series.edge_steps.tolist() == [0, self.STEP]
        assert series.edge_sources.tolist() == [0, 0]
        assert series.edge_targets.tolist() == [1, 1]

    def test_dedup_still_removes_true_duplicates(self):
        stream = LinkStream([1, 0, 1], [2, 1, 2], [3, 0, 3])
        series = aggregate(stream, 1.0)
        rows = zip(
            series.edge_steps.tolist(),
            series.edge_sources.tolist(),
            series.edge_targets.tolist(),
        )
        assert list(rows) == [(0, 0, 1), (3, 1, 2)]

    def test_series_accepts_colliding_distinct_rows(self):
        from repro.graphseries.series import GraphSeries

        # The old duplicate check in GraphSeries.__init__ used the same
        # packed key and rejected these distinct rows as duplicates.
        series = GraphSeries(
            self.N,
            self.STEP + 1,
            np.array([0, self.STEP], dtype=np.int64),
            np.array([0, 0], dtype=np.int64),
            np.array([1, 1], dtype=np.int64),
        )
        assert series.num_edges_total == 2

    def test_series_still_rejects_true_duplicates(self):
        from repro.graphseries.series import GraphSeries

        with pytest.raises(AggregationError):
            GraphSeries(
                self.N,
                self.STEP + 1,
                np.array([5, 5], dtype=np.int64),
                np.array([0, 0], dtype=np.int64),
                np.array([1, 1], dtype=np.int64),
            )


class TestSeriesMemo:
    def test_concurrent_callers_aggregate_once(self, monkeypatch):
        # The per-process series memo must hold when several threads ask
        # for one Δ at once (daemon runners analysing one stream): the
        # first aggregates, the others wait for its series.
        import threading

        import repro.graphseries.aggregation as agg_mod
        from repro.generators import time_uniform_stream

        stream = time_uniform_stream(12, 6, 5000.0, seed=0)
        calls = []
        real = agg_mod._aggregate_grid

        def counting(s, deltas, origin):
            calls.extend(deltas)
            return real(s, deltas, origin)

        monkeypatch.setattr(agg_mod, "_aggregate_grid", counting)
        agg_mod.clear_aggregate_cache()
        barrier = threading.Barrier(4)
        results = [None] * 4

        def fetch(i):
            barrier.wait()
            results[i] = agg_mod.aggregate_cached(stream, [123.0])[0]

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert calls == [123.0]  # one aggregation served all four callers
        assert all(series is results[0] for series in results)

    def test_overlapping_grids_aggregate_each_delta_once(self, monkeypatch):
        # Each thread asks for the grid in another rotation: every Δ is
        # built by one caller while the others wait for its series.
        import sys
        import threading

        import repro.graphseries.aggregation as agg_mod
        from repro.generators import time_uniform_stream

        stream = time_uniform_stream(12, 6, 5000.0, seed=0)
        deltas = [17.0, 50.0, 123.0, 400.0, 1500.0]
        calls = []
        lock = threading.Lock()
        real = agg_mod._aggregate_grid

        def counting(s, grid, origin):
            with lock:
                calls.extend(grid)
            return real(s, grid, origin)

        monkeypatch.setattr(agg_mod, "_aggregate_grid", counting)
        agg_mod.clear_aggregate_cache()
        workers = 6
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def fetch(i):
            grid = deltas[i % 5 :] + deltas[: i % 5]
            barrier.wait()
            results[i] = dict(zip(grid, agg_mod.aggregate_cached(stream, grid)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=fetch, args=(i,), daemon=True)
                for i in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            agg_mod.clear_aggregate_cache()
        assert not any(t.is_alive() for t in threads)
        assert sorted(calls) == deltas  # each Δ built once, by one caller
        for delta in deltas:
            assert all(r[delta] is results[0][delta] for r in results)


def _reference_rows(stream, delta, origin):
    """The rows of Definition 1 as a sorted set of ``(window, u, v)``."""
    resolved = stream.t_min if origin is None else origin
    steps = window_index(stream.timestamps, delta, resolved).tolist()
    u, v = stream.sources.tolist(), stream.targets.tolist()
    if not stream.directed:
        u, v = [min(a, b) for a, b in zip(u, v)], [max(a, b) for a, b in zip(u, v)]
    return sorted(set(zip(steps, u, v)))


def _rows(series):
    return list(
        zip(
            series.edge_steps.tolist(),
            series.edge_sources.tolist(),
            series.edge_targets.tolist(),
        )
    )


@st.composite
def _grid_cases(draw):
    """A stream (int or float times, either direction, with repeated
    events), an origin (default, the first event spelled out, or
    earlier) and a Δ grid reaching below the resolution and above the
    span."""
    base = draw(link_streams(max_events=24, float_time=draw(st.booleans())))
    repeats = draw(st.integers(0, base.num_events))
    stream = LinkStream(
        np.concatenate([base.sources, base.sources[:repeats]]),
        np.concatenate([base.targets, base.targets[:repeats]]),
        np.concatenate([base.timestamps, base.timestamps[:repeats]]),
        directed=base.directed,
        num_nodes=base.num_nodes,
    )
    origin = draw(
        st.sampled_from([None, "t_min", 0.05, 0.3, 1.0, 7.0])
    )
    if origin == "t_min":
        origin = float(stream.t_min)
    elif origin is not None:
        origin = float(stream.t_min) - origin
    unit = stream.resolution() if stream.distinct_timestamps().size > 1 else 1.0
    span = max(stream.span, unit)
    deltas = draw(
        st.lists(
            st.sampled_from(
                [unit / 3, unit, 1.5 * unit, span / 4, span / 2, span, 1.3 * span, 5 * span]
            )
            | st.floats(unit / 4, 2 * span),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    warm = draw(st.lists(st.sampled_from(deltas), max_size=3, unique=True))
    return stream, origin, deltas, warm


class TestGridBuilder:
    """Every Δ of a grid built through the store equals Definition 1."""

    @settings(max_examples=150, deadline=None)
    @given(case=_grid_cases())
    def test_grid_matches_set_reference(self, case):
        stream, origin, deltas, warm = case
        clear_aggregate_cache()
        try:
            # Some Δ already stored: the grid serves those and builds the
            # rest from one pair sort, one count per series built.
            for delta in warm:
                aggregate_cached(stream, [delta], origin=origin)
            before = AGGREGATION_COUNTS["aggregate"]
            grid = aggregate_cached(stream, deltas, origin=origin)
            assert AGGREGATION_COUNTS["aggregate"] == before + len(deltas) - len(warm)
        finally:
            clear_aggregate_cache()
        resolved = float(stream.t_min) if origin is None else origin
        for delta, series in zip(deltas, grid, strict=True):
            reference = _reference_rows(stream, delta, origin)
            assert _rows(series) == reference
            assert series.num_steps == reference[-1][0] + 1
            assert series.delta == delta and series.origin == resolved
            assert series.directed == stream.directed
            assert series.num_nodes == stream.num_nodes
            for array in (series.edge_steps, series.edge_sources, series.edge_targets):
                assert array.dtype == np.int64

    @settings(max_examples=150, deadline=None)
    @given(case=_grid_cases(), data=st.data())
    def test_prefix_splice_matches_full_build(self, case, data):
        stream, origin, deltas, __ = case
        times = stream.distinct_timestamps()
        if times.size < 2:
            return
        cut = data.draw(st.integers(1, times.size - 1))
        prefix_events = int(np.searchsorted(stream.timestamps, times[cut]))
        base = LinkStream(
            stream.sources[:prefix_events],
            stream.targets[:prefix_events],
            stream.timestamps[:prefix_events],
            directed=stream.directed,
            num_nodes=stream.num_nodes,
        )
        grown = base.extend(
            stream.sources[prefix_events:],
            stream.targets[prefix_events:],
            stream.timestamps[prefix_events:],
        )
        for delta in deltas:
            spliced = aggregate_prefix_extended(
                grown,
                delta,
                prefix_series=aggregate(base, delta, origin=origin),
                prefix_events=prefix_events,
                origin=origin,
            )
            full = aggregate(grown, delta, origin=origin)
            assert _rows(spliced) == _rows(full) == _reference_rows(grown, delta, origin)
            assert spliced.num_steps == full.num_steps
