"""The :class:`GraphSeries` container.

A series is stored *columnar and sparse*: one deduplicated edge row
``(step, u, v)`` per (window, pair), sorted by step.  Empty windows cost
nothing, which matters because the sweep visits window lengths down to
the timestamp resolution where almost all of the ``K = T/Δ`` windows are
empty.  Snapshots are materialized on demand.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.graphseries.snapshot import Snapshot
from repro.utils.errors import AggregationError


class GraphSeries:
    """A time-ordered series of graphs ``(G_1, ..., G_K)`` on a shared node set.

    Parameters
    ----------
    num_nodes:
        Size of the shared node set ``V``.
    num_steps:
        Total number of windows ``K`` (including empty ones).
    step, u, v:
        Parallel arrays: edge ``(u, v)`` belongs to snapshot ``step``
        (0-based).  Rows must be unique per ``(step, u, v)``.
    delta:
        Window length used for aggregation, if the series came from
        aggregation with constant windows (``None`` otherwise).
    origin:
        Absolute time of the start of window 0 (``None`` if unknown).
    """

    __slots__ = ("_num_nodes", "_num_steps", "_step", "_u", "_v", "_directed", "_delta", "_origin", "_group_bounds")

    def __init__(
        self,
        num_nodes: int,
        num_steps: int,
        step: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        *,
        directed: bool = True,
        delta: float | None = None,
        origin: float | None = None,
    ) -> None:
        step = np.asarray(step, dtype=np.int64)
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if not (step.shape == u.shape == v.shape) or step.ndim != 1:
            raise AggregationError("step, u, v must be 1-d arrays of equal length")
        if num_steps < 1:
            raise AggregationError("a series needs at least one step")
        if step.size:
            if step.min() < 0 or step.max() >= num_steps:
                raise AggregationError("step index out of range")
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= num_nodes:
                raise AggregationError("edge endpoint out of range")
            if np.any(u == v):
                raise AggregationError("series snapshots cannot contain self-loops")
        if not directed:
            swap = u > v
            u, v = np.where(swap, v, u), np.where(swap, u, v)
        order = np.lexsort((v, u, step))
        step, u, v = step[order], u[order], v[order]
        if step.size > 1:
            # Compare columns directly: a packed (step * n + u) * n + v key
            # wraps int64 for large num_steps * n**2 and can then miss (or
            # invent) duplicates.  Rows are lexsorted, so duplicates are
            # adjacent.
            dup = (np.diff(step) == 0) & (np.diff(u) == 0) & (np.diff(v) == 0)
            if np.any(dup):
                raise AggregationError("duplicate (step, u, v) rows in series")
        self._assign(num_nodes, num_steps, step, u, v, directed, delta, origin)

    @classmethod
    def _from_rows(
        cls,
        num_nodes: int,
        num_steps: int,
        step: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        *,
        directed: bool,
        delta: float | None,
        origin: float | None,
    ) -> "GraphSeries":
        """A series over int64 rows that are already unique, in
        ``(step, u, v)`` order, in range, loop-free and (undirected)
        canonical: the aggregation builder's output.  Nothing is copied,
        sorted or checked; the public constructor checks everything."""
        series = cls.__new__(cls)
        series._assign(num_nodes, num_steps, step, u, v, directed, delta, origin)
        return series

    def _assign(self, num_nodes, num_steps, step, u, v, directed, delta, origin) -> None:
        self._step = step
        self._u = u
        self._v = v
        self._num_nodes = int(num_nodes)
        self._num_steps = int(num_steps)
        self._directed = bool(directed)
        self._delta = None if delta is None else float(delta)
        self._origin = None if origin is None else float(origin)
        self._group_bounds = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_snapshots(
        cls,
        snapshots: list[Snapshot],
        *,
        delta: float | None = None,
        origin: float | None = None,
    ) -> "GraphSeries":
        """Assemble a series from explicit :class:`Snapshot` objects."""
        if not snapshots:
            raise AggregationError("need at least one snapshot")
        num_nodes = snapshots[0].num_nodes
        directed = snapshots[0].directed
        for snap in snapshots:
            if snap.num_nodes != num_nodes or snap.directed != directed:
                raise AggregationError("snapshots must share node count and directedness")
        steps = np.concatenate(
            [np.full(s.num_edges, k, dtype=np.int64) for k, s in enumerate(snapshots)]
        ) if any(s.num_edges for s in snapshots) else np.empty(0, dtype=np.int64)
        us = np.concatenate([s.edge_sources for s in snapshots]) if steps.size else np.empty(0, dtype=np.int64)
        vs = np.concatenate([s.edge_targets for s in snapshots]) if steps.size else np.empty(0, dtype=np.int64)
        return cls(
            num_nodes,
            len(snapshots),
            steps,
            us,
            vs,
            directed=directed,
            delta=delta,
            origin=origin,
        )

    # -- accessors -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_steps(self) -> int:
        """Total number of windows ``K`` (empty windows included)."""
        return self._num_steps

    @property
    def num_edges_total(self) -> int:
        """``M``: the sum of edge counts over all snapshots (paper's O(nM))."""
        return self._step.size

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def delta(self) -> float | None:
        """Aggregation window length, when the series came from aggregation."""
        return self._delta

    @property
    def origin(self) -> float | None:
        """Absolute start time of window 0, when known."""
        return self._origin

    @property
    def edge_steps(self) -> np.ndarray:
        return self._step

    @property
    def edge_sources(self) -> np.ndarray:
        return self._u

    @property
    def edge_targets(self) -> np.ndarray:
        return self._v

    def __len__(self) -> int:
        return self._num_steps

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"GraphSeries({kind}, {self._num_nodes} nodes, {self._num_steps} steps, "
            f"{self.num_edges_total} edges total)"
        )

    # -- group iteration -------------------------------------------------------

    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique nonempty steps and the row offsets where each group starts."""
        if self._group_bounds is None:
            steps, starts = np.unique(self._step, return_index=True)
            self._group_bounds = (steps, starts)
        return self._group_bounds

    def nonempty_steps(self) -> np.ndarray:
        """Sorted array of window indices holding at least one edge."""
        return self._bounds()[0]

    def edge_groups(self, *, reverse: bool = False) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(step, u_array, v_array)`` per nonempty window, in step order.

        ``reverse=True`` yields latest window first — the order the
        backward reachability sweep consumes.
        """
        steps, starts = self._bounds()
        ends = np.append(starts[1:], self._step.size)
        indices = range(steps.size - 1, -1, -1) if reverse else range(steps.size)
        for i in indices:
            yield int(steps[i]), self._u[starts[i] : ends[i]], self._v[starts[i] : ends[i]]

    def snapshot(self, step: int) -> Snapshot:
        """Materialize window ``step`` as a :class:`Snapshot` (may be empty)."""
        if not 0 <= step < self._num_steps:
            raise AggregationError(f"step {step} out of range [0, {self._num_steps})")
        steps, starts = self._bounds()
        pos = np.searchsorted(steps, step)
        if pos == steps.size or steps[pos] != step:
            empty = np.empty(0, dtype=np.int64)
            return Snapshot(self._num_nodes, empty, empty, directed=self._directed)
        end = starts[pos + 1] if pos + 1 < steps.size else self._step.size
        return Snapshot(
            self._num_nodes,
            self._u[starts[pos] : end],
            self._v[starts[pos] : end],
            directed=self._directed,
        )

    def snapshots(self) -> Iterator[Snapshot]:
        """Iterate all ``K`` snapshots in order (empty ones included)."""
        for step in range(self._num_steps):
            yield self.snapshot(step)

    def window_bounds(self, step: int) -> tuple[float, float]:
        """Absolute ``[start, end)`` interval covered by window ``step``.

        Requires ``delta`` and ``origin`` (i.e. a series built by
        constant-window aggregation).
        """
        if self._delta is None or self._origin is None:
            raise AggregationError("series has no constant window geometry")
        start = self._origin + step * self._delta
        return start, start + self._delta
