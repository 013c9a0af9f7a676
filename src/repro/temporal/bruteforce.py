"""Brute-force reference implementations (test oracles).

Two independent ways to recompute what the backward engine produces:

* :func:`enumerate_temporal_paths` — exhaustive DFS over every temporal
  path (Definitions 2/3 taken literally), tractable only for toy inputs;
  the ground truth for trips, minimality and hop counts.
* :func:`bruteforce_minimal_trips` — repeated forward scans, one per
  (source, departure) pair: quadratic-ish but independent of the
  backward engine's staging logic.
* :func:`reference_scan` — the backward scan itself as a plain
  per-source loop, window by window: the oracle the run kernel
  (:func:`~repro.temporal.reachability.scan_series`,
  :func:`~repro.temporal.reachability.scan_stream`) must match call for
  call — same trips in the same order, same collector and accumulator
  state, same checkpoint states.

The test suite cross-validates these implementations on random
instances.  The same file holds the oracles for the engine's measure
layer: :func:`bruteforce_pair_reachability` recomputes the
``reachability`` measure's per-pair earliest-arrival sums from repeated
forward scans, and :func:`bruteforce_component_sizes` recomputes
connected-component sizes by plain BFS (independent of the union-find
behind the ``components`` measure).
"""

from __future__ import annotations

import numpy as np

from repro.graphseries.series import GraphSeries
from repro.linkstream.stream import LinkStream
from repro.temporal.paths import (
    _expand_undirected,
    _forward_groups,
    _stream_groups,
    forward_earliest_arrival,
)
from repro.temporal.reachability import (
    HOP_INF,
    INT_INF,
    ScanResult,
    _split_consumers,
    _target_columns,
)
from repro.temporal.trips import TripSet
from repro.utils.errors import ValidationError


def enumerate_temporal_paths(
    obj: GraphSeries | LinkStream,
    *,
    max_hops: int = 8,
) -> list[list[tuple[int, int, float]]]:
    """Every temporal path with at most ``max_hops`` hops (DFS).

    Paths are hop lists ``[(u, v, t), ...]`` with strictly increasing
    times.  Node repetition is allowed (Definition 2 constrains only the
    chaining and the times), so the count explodes quickly — keep inputs
    tiny.
    """
    groups = list(_forward_groups(obj))
    hops_by_time = [
        (time_value, list(zip(us.tolist(), vs.tolist()))) for time_value, us, vs in groups
    ]
    total_hops = sum(len(h) for __, h in hops_by_time)
    if total_hops > 64:
        raise ValidationError(
            f"{total_hops} hops is too many for exhaustive path enumeration"
        )
    paths: list[list[tuple[int, int, float]]] = []

    def extend(path: list[tuple[int, int, float]], head: int, last_time: float) -> None:
        if len(path) >= max_hops:
            return
        for time_value, hop_list in hops_by_time:
            if time_value <= last_time:
                continue
            for u, v in hop_list:
                if u == head:
                    new_path = path + [(u, v, time_value)]
                    paths.append(new_path)
                    extend(new_path, v, time_value)

    for time_value, hop_list in hops_by_time:
        for u, v in hop_list:
            start = [(u, v, time_value)]
            paths.append(start)
            extend(start, v, time_value)
    return paths


def minimal_trips_from_paths(
    paths: list[list[tuple[int, int, float]]],
    *,
    include_self: bool = False,
) -> list[tuple[int, int, float, float, int]]:
    """Reduce an exhaustive path list to minimal trips from first principles.

    Applies Definitions 5 and 7 literally: a path from ``u`` to ``v``
    realizes the trip interval ``[t_first, t_last]``; a trip is minimal
    when no other trip interval of the same pair is strictly included in
    it; its hop count is the minimum over realizing paths.

    Returns ``(u, v, dep, arr, min_hops)`` tuples sorted for comparison.
    """
    by_pair: dict[tuple[int, int], dict[tuple[float, float], int]] = {}
    for path in paths:
        u = path[0][0]
        v = path[-1][1]
        if u == v and not include_self:
            continue
        dep, arr = path[0][2], path[-1][2]
        intervals = by_pair.setdefault((u, v), {})
        key = (dep, arr)
        hops = len(path)
        if key not in intervals or hops < intervals[key]:
            intervals[key] = hops
    trips: list[tuple[int, int, float, float, int]] = []
    for (u, v), intervals in by_pair.items():
        for (dep, arr), hops in intervals.items():
            minimal = True
            for (dep2, arr2) in intervals:
                if dep2 >= dep and arr2 <= arr and (dep2, arr2) != (dep, arr):
                    minimal = False
                    break
            if minimal:
                trips.append((u, v, dep, arr, hops))
    trips.sort()
    return trips


def bruteforce_earliest_arrival(
    obj: GraphSeries | LinkStream,
    source: int,
    depart_time: float,
    *,
    max_hops: int = 8,
) -> np.ndarray:
    """Earliest arrivals from exhaustive path enumeration (toy inputs)."""
    arrival = np.full(obj.num_nodes, np.inf)
    for path in enumerate_temporal_paths(obj, max_hops=max_hops):
        if path[0][0] == source and path[0][2] >= depart_time:
            v = path[-1][1]
            arrival[v] = min(arrival[v], path[-1][2])
    return arrival


def bruteforce_minimal_trips(
    obj: GraphSeries | LinkStream,
    *,
    include_self: bool = False,
) -> TripSet:
    """All minimal trips via repeated forward scans (mid-size test oracle).

    For each source and each candidate departure time, a trip
    ``(u, v, dep, EA)`` is minimal iff departing at the *next* candidate
    time arrives strictly later; hop counts come with the forward scan.
    """
    if isinstance(obj, GraphSeries):
        depart_values = [float(s) for s in obj.nonempty_steps()]
        duration_extra = 1.0
    elif isinstance(obj, LinkStream):
        depart_values = [t.item() for t in obj.distinct_timestamps()]
        duration_extra = 0.0
    else:
        raise ValidationError(f"expected GraphSeries or LinkStream, got {type(obj).__name__}")

    n = obj.num_nodes
    rows_u, rows_v, rows_dep, rows_arr, rows_hops = [], [], [], [], []
    for source in range(n):
        later_arrival = np.full(n, np.inf)
        for dep in reversed(depart_values):
            arrival, hops = forward_earliest_arrival(obj, source, dep)
            improved = arrival < later_arrival
            if not include_self:
                improved[source] = False
            for v in np.nonzero(improved)[0]:
                rows_u.append(source)
                rows_v.append(int(v))
                rows_dep.append(dep)
                rows_arr.append(float(arrival[v]))
                rows_hops.append(int(hops[v]))
            later_arrival = arrival
    dep_arr = np.asarray(rows_dep)
    arr_arr = np.asarray(rows_arr)
    return TripSet(
        np.asarray(rows_u, dtype=np.int64),
        np.asarray(rows_v, dtype=np.int64),
        dep_arr,
        arr_arr,
        np.asarray(rows_hops, dtype=np.int64),
        arr_arr - dep_arr + duration_extra,
    )


def bruteforce_pair_reachability(
    series: GraphSeries,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair earliest-arrival sums via one forward scan per
    ``(source, departure step)`` — the oracle for the engine's
    ``reachability`` measure.

    Returns ``(reach_steps, dist_sum, hops_sum)`` as exact ``int64``
    matrices: for every ordered pair ``(u, v)`` of distinct nodes,
    ``reach_steps[u, v]`` counts the departure steps ``t`` in
    ``[0, num_steps)`` from which ``u`` reaches ``v``; ``dist_sum``
    sums the corresponding ``arrival - t + 1`` distances (window
    counts); ``hops_sum`` sums the minimum hop counts at those earliest
    arrivals.  Diagonal entries are zero (pairs of distinct nodes).
    Quadratic-ish — small series only.
    """
    if not isinstance(series, GraphSeries):
        raise ValidationError(
            f"expected a GraphSeries, got {type(series).__name__}"
        )
    n = series.num_nodes
    reach = np.zeros((n, n), dtype=np.int64)
    dist = np.zeros((n, n), dtype=np.int64)
    hops_sum = np.zeros((n, n), dtype=np.int64)
    for source in range(n):
        for t in range(series.num_steps):
            arrival, hops = forward_earliest_arrival(series, source, float(t))
            finite = np.isfinite(arrival)
            finite[source] = False
            reach[source, finite] += 1
            dist[source, finite] += (
                arrival[finite].astype(np.int64) - t + 1
            )
            hops_sum[source, finite] += hops[finite]
    return reach, dist, hops_sum


def bruteforce_component_sizes(
    num_nodes: int, u: np.ndarray, v: np.ndarray
) -> list[int]:
    """Connected-component sizes of one edge list, by plain BFS.

    Weak connectivity (direction ignored), isolated nodes not reported —
    the same convention as
    :func:`repro.graphseries.metrics.component_sizes`, computed without
    the union-find: the oracle for the ``components`` measure.  Returns
    the sizes in descending order.
    """
    adjacency: dict[int, set[int]] = {}
    for a, b in zip(u.tolist(), v.tolist()):
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    seen: set[int] = set()
    sizes: list[int] = []
    for start in adjacency:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        size = 0
        while queue:
            node = queue.pop()
            size += 1
            for neighbour in sorted(adjacency[node]):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        sizes.append(size)
    return sorted(sizes, reverse=True)


def reference_scan(
    obj: GraphSeries | LinkStream,
    collector=None,
    *,
    include_self: bool = False,
    targets: np.ndarray | None = None,
    snapshots: dict | None = None,
) -> ScanResult:
    """The backward scan as a per-source Python loop (the kernel oracle).

    Walks the nonempty windows (a stream's distinct timestamps) latest
    first and updates one source row per Python iteration, holding the
    arrival state ``A`` in real window indices (timestamps for a stream,
    float ``inf`` when they are floats) and the hop state ``H`` apart.
    All continuation reads come from a pre-window stash, so updates
    within a window never chain.  Takes the consumers, ``include_self``
    and ``targets`` of :func:`~repro.temporal.reachability.scan_series`,
    and feeds trip collectors one ``record`` per (window, source) pair
    with a scalar departure and state accumulators one ``observe_row``
    per row, with the same ``begin``/``close_run``/``finish`` hooks.
    When ``snapshots`` is a dict, each window from the second on maps to
    ``(last_processed, A, H)``: its incoming state, the reference for
    checkpoint states.
    """
    if isinstance(obj, GraphSeries):
        groups = obj.edge_groups(reverse=True)
        extra = 1
        dtype = np.int64
    elif isinstance(obj, LinkStream):
        groups = _stream_groups(obj)
        extra = 0
        dtype = np.float64 if obj.timestamps.dtype.kind == "f" else np.int64
    else:
        raise ValidationError(
            f"expected GraphSeries or LinkStream, got {type(obj).__name__}"
        )
    collectors, accumulators = _split_consumers(collector)
    if accumulators and not extra:
        raise ValidationError("state accumulators need a GraphSeries")
    n = obj.num_nodes
    cols, col_of, width = _target_columns(targets, n)
    for accumulator in accumulators:
        begin = getattr(accumulator, "begin", None)
        if begin is not None:
            begin(n, obj.num_steps, cols)
    A = np.full((n, width), np.inf if dtype is np.float64 else INT_INF, dtype=dtype)
    H = np.full((n, width), HOP_INF, dtype=np.int64)
    num_trips = 0
    num_windows = 0
    last = None
    for time_value, us, vs in groups:
        num_windows += 1
        if last is not None:
            if snapshots is not None:
                snapshots[time_value] = (last, A.copy(), H.copy())
            for accumulator in accumulators:
                accumulator.close_run(time_value + 1, last)
        last = time_value
        if not obj.directed:
            us, vs = _expand_undirected(us, vs)
        order = np.argsort(us, kind="stable")
        us, vs = us[order], vs[order]
        sources, starts = np.unique(us, return_index=True)
        ends = np.append(starts[1:], us.size)
        involved = np.unique(np.concatenate([sources, vs]))
        stash_A = A[involved].copy()
        stash_H = H[involved].copy()
        for u, lo, hi in zip(sources.tolist(), starts, ends):
            hop_targets = vs[lo:hi]
            w_pos = np.searchsorted(involved, hop_targets)
            cont_A = stash_A[w_pos]
            cont_H = stash_H[w_pos]
            if hop_targets.size == 1:
                arr = cont_A[0].copy()
                hop = cont_H[0] + 1
            else:
                arr = cont_A.min(axis=0)
                hop = np.where(cont_A == arr, cont_H, HOP_INF).min(axis=0) + 1
            # A direct hop arrives at the current window itself, always
            # earlier than any continuation (which departs at the next).
            tpos = hop_targets if col_of is None else col_of[hop_targets]
            tpos = tpos[tpos >= 0]
            arr[tpos] = time_value
            hop[tpos] = 1
            u_pos = int(np.searchsorted(involved, u))
            old_A = stash_A[u_pos]
            old_H = stash_H[u_pos]
            improved = arr < old_A
            tie_better = ~improved & (arr == old_A) & (hop < old_H)
            new_A = np.where(improved, arr, old_A)
            new_H = np.where(improved | tie_better, hop, old_H)
            A[u] = new_A
            H[u] = new_H
            self_col = u if col_of is None else int(col_of[u])
            for accumulator in accumulators:
                accumulator.observe_row(
                    u, time_value, old_A, old_H, new_A, new_H, self_col
                )
            if not include_self and self_col >= 0:
                improved[self_col] = False
            chosen = np.flatnonzero(improved)
            num_trips += chosen.size
            if collectors and chosen.size:
                arrivals = new_A[chosen]
                node_targets = chosen if cols is None else cols[chosen]
                hops = new_H[chosen]
                durations = arrivals - time_value + extra
                for trip_collector in collectors:
                    trip_collector.record(
                        u, time_value, node_targets, arrivals, hops, durations
                    )
    for accumulator in accumulators:
        if last is not None:
            accumulator.close_run(0, last)
        finish = getattr(accumulator, "finish", None)
        if finish is not None:
            finish()
    num_steps = obj.num_steps if extra else num_windows
    return ScanResult(num_trips=num_trips, num_steps=num_steps)
