"""Unit tests for Δ-grid construction."""

import numpy as np
import pytest

from repro.core import log_delta_grid, refine_grid
from repro.linkstream import LinkStream
from repro.utils.errors import SweepError


@pytest.fixture
def stream():
    return LinkStream([0, 1, 2, 0], [1, 2, 3, 2], [0, 10, 100, 1000])


class TestLogGrid:
    def test_spans_resolution_to_span(self, stream):
        grid = log_delta_grid(stream, num=10)
        assert grid[0] == pytest.approx(stream.resolution())
        assert grid[-1] == pytest.approx(stream.span)
        assert np.all(np.diff(grid) > 0)

    def test_custom_bounds(self, stream):
        grid = log_delta_grid(stream, num=5, min_delta=2.0, max_delta=50.0)
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(50.0)

    def test_rejects_tiny_grid(self, stream):
        with pytest.raises(SweepError):
            log_delta_grid(stream, num=1)

    def test_rejects_bad_bounds(self, stream):
        with pytest.raises(SweepError):
            log_delta_grid(stream, min_delta=100.0, max_delta=10.0)


class TestRefine:
    def test_inserts_points_around_best(self):
        deltas = np.array([1.0, 10.0, 100.0])
        extra = refine_grid(deltas, 1, points=4)
        assert extra.size == 4
        assert np.all((extra > 1.0) & (extra < 100.0))
        assert not np.isin(extra, deltas).any()

    def test_edge_best_index(self):
        deltas = np.array([1.0, 10.0, 100.0])
        extra = refine_grid(deltas, 0, points=3)
        assert np.all((extra >= 1.0) & (extra <= 10.0))

    def test_bad_index_rejected(self):
        with pytest.raises(SweepError):
            refine_grid(np.array([1.0, 2.0]), 5)
