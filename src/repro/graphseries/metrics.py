"""Per-series graph metrics.

These are the "classical parameters" of Section 3 of the paper (Figure 2):
density, degree, number of non-isolated vertices, size of the largest
connected component.  The paper shows they vary *smoothly* with the
aggregation period — which is why a dedicated method (occupancy) is
needed to find the saturation scale.

Snapshot means are taken over **nonempty** snapshots, matching the
magnitudes the paper reports at small Δ (a mean over the millions of
empty 1-second windows would be dominated by zeros).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphseries.series import GraphSeries


def _component_sizes_from_edges(
    num_nodes: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Sizes of connected components touched by the given edges.

    Direction is ignored (weak connectivity).  Isolated nodes are not
    reported — the caller decides whether singletons matter.
    """
    if not u.size:
        return np.empty(0, dtype=np.int64)
    involved = np.union1d(u, v)
    local = np.searchsorted(involved, np.concatenate([u, v]))
    lu, lv = local[: u.size], local[u.size :]
    parent = np.arange(involved.size, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(lu, lv):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra
    roots = np.fromiter((find(int(x)) for x in range(involved.size)), dtype=np.int64)
    counts = np.bincount(roots)
    return counts[counts > 0]


def component_sizes(num_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sizes of the weakly-connected components spanned by an edge list.

    The public face of the union-find above, for callers that hold raw
    ``(u, v)`` edge arrays (e.g. per-window iteration over a series)
    rather than a :class:`~repro.graphseries.snapshot.Snapshot`.
    Isolated nodes are not reported.
    """
    return _component_sizes_from_edges(num_nodes, u, v)


@dataclass(frozen=True)
class SeriesMetrics:
    """Means of the classical parameters over the nonempty snapshots."""

    num_steps: int
    num_nonempty_steps: int
    mean_density: float
    mean_degree: float
    mean_non_isolated: float
    mean_largest_component: float
    mean_edges: float

    def as_dict(self) -> dict[str, float]:
        return {
            "num_steps": self.num_steps,
            "num_nonempty_steps": self.num_nonempty_steps,
            "mean_density": self.mean_density,
            "mean_degree": self.mean_degree,
            "mean_non_isolated": self.mean_non_isolated,
            "mean_largest_component": self.mean_largest_component,
            "mean_edges": self.mean_edges,
        }


def series_metrics(series: GraphSeries) -> SeriesMetrics:
    """Classical parameters averaged over the nonempty snapshots of a series.

    This is the per-Δ measurement behind the top row of Figure 2.
    """
    n = series.num_nodes
    possible = n * (n - 1) if series.directed else n * (n - 1) // 2
    densities: list[float] = []
    non_isolated: list[int] = []
    largest: list[int] = []
    edges: list[int] = []
    for __, u, v in series.edge_groups():
        edges.append(u.size)
        densities.append(u.size / possible if possible else 0.0)
        non_isolated.append(int(np.union1d(u, v).size))
        sizes = _component_sizes_from_edges(n, u, v)
        largest.append(int(sizes.max()) if sizes.size else 0)
    count = len(edges)
    if not count:
        return SeriesMetrics(series.num_steps, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return SeriesMetrics(
        num_steps=series.num_steps,
        num_nonempty_steps=count,
        mean_density=float(np.mean(densities)),
        mean_degree=float(2.0 * np.mean(edges) / n) if n else 0.0,
        mean_non_isolated=float(np.mean(non_isolated)),
        mean_largest_component=float(np.mean(largest)),
        mean_edges=float(np.mean(edges)),
    )
