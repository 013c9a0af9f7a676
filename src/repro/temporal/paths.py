"""Forward temporal-path algorithms: single-source scans and path recovery.

These complement the backward scan (which produces *all* minimal trips at
once): the forward scan answers single-(source, departure) questions and
can reconstruct an explicit minimum-hop earliest-arrival temporal path —
used by examples, and by tests as an independent implementation to check
the backward engine against.

The forward scan keeps, per node, the **Pareto frontier of (arrival,
hops) states**: arrivals increasing, hop counts strictly decreasing.  A
single earliest-arrival value per node would not suffice for hop
counts — the minimum-hop path realizing a trip may relay through a node
using one of its *later but fewer-hop* states.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.graphseries.series import GraphSeries
from repro.linkstream.stream import LinkStream
from repro.temporal.reachability import HOP_INF
from repro.utils.errors import ValidationError


def _expand_undirected(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn undirected edges into both directed hops."""
    return np.concatenate([u, v]), np.concatenate([v, u])


def _stream_groups(stream: LinkStream) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Yield ``(timestamp, u, v)`` per distinct timestamp, latest first.

    Pairs are deduplicated within each timestamp group.
    """
    t = stream.timestamps
    u = stream.sources
    v = stream.targets
    n = stream.num_nodes
    if not t.size:
        return
    # Events are already time-sorted; find group boundaries.
    boundaries = np.flatnonzero(t[1:] != t[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [t.size]])
    for i in range(starts.size - 1, -1, -1):
        lo, hi = starts[i], ends[i]
        gu, gv = u[lo:hi], v[lo:hi]
        if hi - lo > 1:
            key = gu * n + gv
            __, keep = np.unique(key, return_index=True)
            gu, gv = gu[keep], gv[keep]
        yield t[lo].item(), gu, gv


def _forward_groups(obj: GraphSeries | LinkStream):
    """Ascending ``(time, u, v)`` hop groups for a series or a stream."""
    if isinstance(obj, GraphSeries):
        for step, u, v in obj.edge_groups():
            if not obj.directed:
                u, v = _expand_undirected(u, v)
            yield step, u, v
    elif isinstance(obj, LinkStream):
        groups = list(_stream_groups(obj))
        for time_value, u, v in reversed(groups):
            if not obj.directed:
                u, v = _expand_undirected(u, v)
            yield time_value, u, v
    else:
        raise ValidationError(f"expected GraphSeries or LinkStream, got {type(obj).__name__}")


@dataclass
class _NodeStates:
    """Pareto frontier of one node: arrivals ascending, hops descending."""

    arrivals: list
    hops: list
    parents: list  # (predecessor node, hop time) per state

    def min_hops_before(self, time_value) -> int | None:
        """Fewest hops among states arriving strictly before ``time_value``."""
        idx = bisect_left(self.arrivals, time_value)
        if idx == 0:
            return None
        return self.hops[idx - 1]

    def push(self, arrival, hop_count: int, parent) -> bool:
        """Insert a state unless dominated; returns whether it was kept."""
        if self.hops and self.hops[-1] <= hop_count:
            return False  # an earlier-or-equal arrival already does better
        self.arrivals.append(arrival)
        self.hops.append(hop_count)
        self.parents.append(parent)
        return True

    def state_with_hops(self, hop_count: int) -> int:
        """Index of the (unique) state with exactly ``hop_count`` hops."""
        # hops is strictly decreasing: binary search on the negated list.
        lo, hi = 0, len(self.hops) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if self.hops[mid] == hop_count:
                return mid
            if self.hops[mid] > hop_count:
                lo = mid + 1
            else:
                hi = mid - 1
        raise ValidationError(f"no state with {hop_count} hops")


def _scan_states(
    obj: GraphSeries | LinkStream,
    source: int,
    depart_time: float,
) -> list[_NodeStates]:
    """Build every node's Pareto (arrival, hops) frontier from one departure."""
    if not isinstance(obj, (GraphSeries, LinkStream)):
        raise ValidationError(f"expected GraphSeries or LinkStream, got {type(obj).__name__}")
    n = obj.num_nodes
    states = [_NodeStates([], [], []) for __ in range(n)]
    for time_value, us, vs in _forward_groups(obj):
        if time_value < depart_time:
            continue
        # Collect the best candidate per target from pre-group states
        # (same-group hops must not chain — Remark 1).
        candidates: dict[int, tuple[int, int]] = {}
        for x, v in zip(us.tolist(), vs.tolist()):
            relay_hops = states[x].min_hops_before(time_value)
            if x == source:
                relay_hops = 0 if relay_hops is None else min(relay_hops, 0)
            if relay_hops is None:
                continue
            hop_count = relay_hops + 1
            if v not in candidates or hop_count < candidates[v][0]:
                candidates[v] = (hop_count, x)
        for v, (hop_count, x) in candidates.items():
            states[v].push(time_value, hop_count, (x, time_value))
    return states


def forward_earliest_arrival(
    obj: GraphSeries | LinkStream,
    source: int,
    depart_time: float,
    *,
    with_states: bool = False,
):
    """Earliest arrival (and min hops at that arrival) from one departure.

    Computes, for every node ``v``, the minimal arrival time among
    temporal paths leaving ``source`` at time >= ``depart_time``, and the
    minimum hop count among paths achieving exactly that arrival.  The
    source's own entry is its earliest *return* time (via a cycle),
    matching the backward engine's diagonal.

    Returns ``(arrival, hops)`` arrays (``inf`` / ``HOP_INF`` when
    unreachable); with ``with_states`` also the per-node Pareto
    frontiers.
    """
    states = _scan_states(obj, source, depart_time)
    n = obj.num_nodes
    arrival = np.full(n, np.inf)
    hops = np.full(n, HOP_INF, dtype=np.int64)
    for v in range(n):
        if states[v].arrivals:
            arrival[v] = states[v].arrivals[0]
            hops[v] = states[v].hops[0]
    if with_states:
        return arrival, hops, states
    return arrival, hops


def earliest_arrival_path(
    obj: GraphSeries | LinkStream,
    source: int,
    target: int,
    depart_time: float,
) -> list[tuple[int, int, float]] | None:
    """An explicit min-hop earliest-arrival temporal path, or ``None``.

    The returned path is a list of hops ``(u, v, time)`` with strictly
    increasing times, leaving ``source`` at >= ``depart_time`` and
    reaching ``target`` at its earliest possible arrival with the fewest
    hops possible for that arrival.
    """
    if source == target:
        raise ValidationError("source and target must differ")
    __, __, states = forward_earliest_arrival(
        obj, source, depart_time, with_states=True
    )
    if not states[target].arrivals:
        return None
    # Walk back: from the target's earliest-arrival state, repeatedly
    # jump to the predecessor's state with one fewer hop (unique on a
    # Pareto frontier), until the hop count reaches 1 (a direct hop from
    # the source).
    path: list[tuple[int, int, float]] = []
    node = target
    index = 0  # earliest-arrival state
    while True:
        frontier = states[node]
        hop_count = frontier.hops[index]
        x, t = frontier.parents[index]
        path.append((x, node, t))
        if hop_count == 1:
            break
        node = x
        index = states[node].state_with_hops(hop_count - 1)
    path.reverse()
    return path


def temporal_path_is_valid(
    obj: GraphSeries | LinkStream,
    path: list[tuple[int, int, float]],
) -> bool:
    """Check a hop list against Definitions 2/3: edges exist, endpoints
    chain, and times strictly increase."""
    if not path:
        return False
    hop_index: dict[float, set[tuple[int, int]]] = {}
    for time_value, us, vs in _forward_groups(obj):
        hop_index[time_value] = set(zip(us.tolist(), vs.tolist()))
    previous_head = None
    previous_time = None
    for u, v, t in path:
        if previous_head is not None and u != previous_head:
            return False
        if previous_time is not None and t <= previous_time:
            return False
        if (u, v) not in hop_index.get(t, set()):
            return False
        previous_head, previous_time = v, t
    return True
