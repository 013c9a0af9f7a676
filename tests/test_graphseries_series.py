"""Unit tests for GraphSeries."""

import numpy as np
import pytest

from repro.graphseries import GraphSeries, Snapshot
from repro.utils.errors import AggregationError


@pytest.fixture
def small_series() -> GraphSeries:
    # Steps: 0 has edges (0,1),(1,2); 2 has (2,3); step 1 and 3 empty.
    return GraphSeries(4, 4, [0, 0, 2], [0, 1, 2], [1, 2, 3], delta=10.0, origin=0.0)


class TestConstruction:
    def test_rejects_duplicate_rows(self):
        with pytest.raises(AggregationError):
            GraphSeries(3, 2, [0, 0], [0, 0], [1, 1])

    def test_rejects_out_of_range_step(self):
        with pytest.raises(AggregationError):
            GraphSeries(3, 2, [5], [0], [1])

    def test_rejects_self_loop(self):
        with pytest.raises(AggregationError):
            GraphSeries(3, 2, [0], [1], [1])

    def test_rejects_zero_steps(self):
        with pytest.raises(AggregationError):
            GraphSeries(3, 0, [], [], [])

    def test_undirected_duplicate_after_canonicalization(self):
        with pytest.raises(AggregationError):
            GraphSeries(3, 1, [0, 0], [0, 1], [1, 0], directed=False)

    @pytest.mark.parametrize(
        "rows",
        [
            ([1, 1], [0, 0], [2, 2]),  # duplicate row
            ([0], [2], [2]),  # self-loop
            ([-1], [0], [1]),  # step below range
            ([2], [0], [1]),  # step past num_steps
            ([0], [-1], [1]),  # endpoint below range
            ([0], [0], [3]),  # endpoint past num_nodes
        ],
    )
    def test_public_constructor_checks_every_row(self, rows):
        # Aggregation builds series through a private constructor that
        # trusts its rows; the public one must keep every check.
        with pytest.raises(AggregationError):
            GraphSeries(3, 2, *rows)

    def test_from_snapshots(self):
        snaps = [Snapshot(3, [0], [1]), Snapshot(3, [], []), Snapshot(3, [1], [2])]
        series = GraphSeries.from_snapshots(snaps)
        assert series.num_steps == 3
        assert series.num_edges_total == 2

    def test_from_snapshots_rejects_mixed_nodes(self):
        with pytest.raises(AggregationError):
            GraphSeries.from_snapshots([Snapshot(3, [], []), Snapshot(4, [], [])])


class TestAccess:
    def test_nonempty_steps(self, small_series):
        assert small_series.nonempty_steps().tolist() == [0, 2]

    def test_snapshot_materialization(self, small_series):
        snap = small_series.snapshot(0)
        assert snap.num_edges == 2
        empty = small_series.snapshot(1)
        assert empty.num_edges == 0

    def test_snapshot_out_of_range(self, small_series):
        with pytest.raises(AggregationError):
            small_series.snapshot(4)

    def test_snapshots_iterates_all_steps(self, small_series):
        snaps = list(small_series.snapshots())
        assert len(snaps) == 4
        assert [s.num_edges for s in snaps] == [2, 0, 1, 0]

    def test_edge_groups_forward_and_reverse(self, small_series):
        forward = [step for step, __, __ in small_series.edge_groups()]
        reverse = [step for step, __, __ in small_series.edge_groups(reverse=True)]
        assert forward == [0, 2]
        assert reverse == [2, 0]

    def test_edge_group_contents(self, small_series):
        groups = {step: (u.tolist(), v.tolist()) for step, u, v in small_series.edge_groups()}
        assert groups[0] == ([0, 1], [1, 2])
        assert groups[2] == ([2], [3])

    def test_window_bounds(self, small_series):
        assert small_series.window_bounds(1) == (10.0, 20.0)

    def test_window_bounds_requires_geometry(self):
        series = GraphSeries(2, 1, [0], [0], [1])
        with pytest.raises(AggregationError):
            series.window_bounds(0)

    def test_len_and_repr(self, small_series):
        assert len(small_series) == 4
        assert "4 steps" in repr(small_series)
