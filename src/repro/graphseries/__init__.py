"""Graph-series substrate.

Aggregating a link stream on time windows yields a *series of graphs*
(Definition 1 of the paper): one snapshot per window, whose edges are the
node pairs having at least one event inside the window.  This package
provides the compact :class:`GraphSeries` container, the aggregation
engines (disjoint windows per the paper, plus the adaptive variant its
related-work section surveys), and per-series graph metrics.
"""

from repro.graphseries.aggregation import (
    aggregate,
    aggregate_adaptive,
    aggregate_cached,
    clear_aggregate_cache,
    window_index,
)
from repro.graphseries.metrics import (
    SeriesMetrics,
    series_metrics,
)
from repro.graphseries.series import GraphSeries
from repro.graphseries.snapshot import Snapshot

__all__ = [
    "Snapshot",
    "GraphSeries",
    "aggregate",
    "aggregate_cached",
    "clear_aggregate_cache",
    "aggregate_adaptive",
    "window_index",
    "series_metrics",
    "SeriesMetrics",
]
