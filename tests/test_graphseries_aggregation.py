"""Unit tests for the aggregation engines (Definition 1 and variants)."""

import numpy as np
import pytest

from repro.graphseries import (
    aggregate,
    aggregate_adaptive,
    window_index,
)
from repro.linkstream import LinkStream
from repro.utils.errors import AggregationError


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
        from repro.graphseries.aggregation import _dedup_rows

        step = np.array([0, self.STEP], dtype=np.int64)
        u = np.array([0, 0], dtype=np.int64)
        v = np.array([1, 1], dtype=np.int64)
        ds, du, dv = _dedup_rows(step.copy(), u.copy(), v.copy())
        assert ds.tolist() == [0, self.STEP]
        assert du.tolist() == [0, 0]
        assert dv.tolist() == [1, 1]

    def test_dedup_still_removes_true_duplicates(self):
        from repro.graphseries.aggregation import _dedup_rows

        step = np.array([3, 0, 3], dtype=np.int64)
        u = np.array([1, 0, 1], dtype=np.int64)
        v = np.array([2, 1, 2], dtype=np.int64)
        ds, du, dv = _dedup_rows(step, u, v)
        assert list(zip(ds.tolist(), du.tolist(), dv.tolist())) == [
            (0, 0, 1),
            (3, 1, 2),
        ]

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
        real = agg_mod.aggregate

        def counting(s, delta, *, origin=None):
            calls.append(delta)
            return real(s, delta, origin=origin)

        monkeypatch.setattr(agg_mod, "aggregate", counting)
        agg_mod.clear_aggregate_cache()
        barrier = threading.Barrier(4)
        results = [None] * 4

        def fetch(i):
            barrier.wait()
            results[i] = agg_mod.aggregate_cached(stream, 123.0)

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert calls == [123.0]  # one aggregation served all four callers
        assert all(series is results[0] for series in results)
