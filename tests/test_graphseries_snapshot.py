"""Unit tests for Snapshot."""

import numpy as np
import pytest

from repro.graphseries import Snapshot
from repro.graphseries.metrics import component_sizes
from repro.utils.errors import AggregationError


class TestConstruction:
    def test_basic(self):
        snap = Snapshot(4, [0, 1], [1, 2])
        assert snap.num_edges == 2
        assert snap.num_nodes == 4

    def test_self_loop_rejected(self):
        with pytest.raises(AggregationError):
            Snapshot(3, [1], [1])

    def test_out_of_range_rejected(self):
        with pytest.raises(AggregationError):
            Snapshot(2, [0], [5])

    def test_undirected_canonical(self):
        snap = Snapshot(3, [2], [0], directed=False)
        assert list(snap.edges()) == [(0, 2)]

    def test_empty(self):
        snap = Snapshot(3, [], [])
        assert snap.num_edges == 0
        assert snap.density() == 0.0


class TestQueries:
    def test_has_edge_directed(self):
        snap = Snapshot(3, [0], [1], directed=True)
        assert snap.has_edge(0, 1)
        assert not snap.has_edge(1, 0)

    def test_has_edge_undirected(self):
        snap = Snapshot(3, [0], [1], directed=False)
        assert snap.has_edge(0, 1)
        assert snap.has_edge(1, 0)

    def test_successors(self):
        snap = Snapshot(4, [0, 0, 1], [2, 1, 3])
        assert snap.successors(0) == [1, 2]
        assert snap.successors(3) == []

    def test_degree_counts(self):
        snap = Snapshot(3, [0, 1], [1, 2])
        assert snap.degree_counts().tolist() == [1, 2, 1]

    def test_density_directed_vs_undirected(self):
        directed = Snapshot(3, [0], [1], directed=True)
        undirected = Snapshot(3, [0], [1], directed=False)
        assert directed.density() == pytest.approx(1 / 6)
        assert undirected.density() == pytest.approx(1 / 3)

    def test_non_isolated_count(self):
        snap = Snapshot(5, [0], [3])
        assert snap.non_isolated_count() == 2

    def test_to_networkx(self):
        nx = pytest.importorskip("networkx")
        snap = Snapshot(3, [0, 1], [1, 2], directed=True)
        graph = snap.to_networkx()
        assert isinstance(graph, nx.DiGraph)
        assert graph.number_of_edges() == 2
        assert graph.number_of_nodes() == 3


def snapshot_component_sizes(snap: Snapshot) -> list[int]:
    """The snapshot's component sizes, descending (isolated nodes are
    not reported)."""
    sizes = component_sizes(snap.num_nodes, snap.edge_sources, snap.edge_targets)
    return sorted(sizes.tolist(), reverse=True)


class TestComponents:
    def test_components_ignore_direction(self):
        snap = Snapshot(4, [0, 2], [1, 3], directed=True)
        assert snapshot_component_sizes(snap) == [2, 2]

    def test_triangle_plus_isolated(self):
        snap = Snapshot(5, [0, 1, 2], [1, 2, 0])
        assert snapshot_component_sizes(snap) == [3]
