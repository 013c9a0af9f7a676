"""Aggregation of link streams into graph series.

:func:`aggregate` implements Definition 1 of the paper — disjoint windows
of constant length Δ, window ``k`` covering ``[origin + kΔ, origin + (k+1)Δ)``
(0-based here; the paper indexes from 1).  The paper's exact-divisor
constraint ``Δ = T/K`` is relaxed to a half-open cover, which any Δ sweep
needs in practice.

The related-work section of the paper surveys three other window
policies, all provided here for comparison studies: overlapping windows,
cumulative windows (all starting at the beginning of the study), and
adaptive variable-length windows that close once the forming snapshot
"matures" (its density stabilizes), after Soundarajan et al.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.graphseries.series import GraphSeries
from repro.linkstream.stream import LinkStream
from repro.utils.errors import AggregationError

#: Aggregation instrumentation: how many series this process has
#: materialized from scratch (``"aggregate"``) and how many were spliced
#: from a cached prefix after an append (``"incremental"``; these do
#: *not* bump ``"aggregate"`` — the whole point is that no full
#: re-windowing happened).  Cache hits served by :func:`aggregate_cached`
#: count under neither.  The measure-fusion and incremental-append tests
#: and benches assert against these tallies; they have no behavioural
#: effect.
AGGREGATION_COUNTS = {"aggregate": 0, "incremental": 0}


def window_index(
    times: np.ndarray, delta: float, origin: float
) -> np.ndarray:
    """0-based index of the length-``delta`` window containing each time."""
    if delta <= 0:
        raise AggregationError(f"window length must be positive, got {delta}")
    return np.floor((np.asarray(times) - origin) / delta).astype(np.int64)


def _dedup_rows(
    step: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep one row per distinct ``(step, u, v)``, lexsorted.

    Deduplicates column-wise rather than through a packed composite key
    ``(step * n + u) * n + v``: that key silently wraps int64 once
    ``num_steps * n**2`` exceeds 2**63, at which point distinct rows can
    collide (dropped edges) or equal rows can land apart (surviving
    duplicates).  ``np.lexsort`` + neighbor comparison needs no products,
    so it is exact for any ``num_steps``/``num_nodes``.
    """
    if not step.size:
        return step, u, v
    order = np.lexsort((v, u, step))
    step, u, v = step[order], u[order], v[order]
    keep = np.empty(step.size, dtype=bool)
    keep[0] = True
    keep[1:] = (step[1:] != step[:-1]) | (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return step[keep], u[keep], v[keep]


def aggregate(
    stream: LinkStream,
    delta: float,
    *,
    origin: float | None = None,
) -> GraphSeries:
    """Aggregate ``stream`` on disjoint windows of length ``delta``.

    Definition 1 of the paper: snapshot ``k`` holds edge ``(u, v)`` iff
    some event ``(u, v, t)`` has ``t`` inside window ``k``.

    Parameters
    ----------
    stream:
        The link stream to aggregate.
    delta:
        Window length, in the stream's time unit.  Must be positive.
    origin:
        Absolute start of window 0; defaults to ``stream.t_min``.
    """
    if not stream.num_events:
        raise AggregationError("cannot aggregate an empty stream")
    if delta <= 0:
        raise AggregationError(f"window length must be positive, got {delta}")
    AGGREGATION_COUNTS["aggregate"] += 1
    if origin is None:
        origin = stream.t_min
    elif origin > stream.t_min:
        raise AggregationError("origin must not be after the first event")
    steps = window_index(stream.timestamps, delta, origin)
    num_steps = int(steps.max()) + 1
    if not stream.directed:
        swap = stream.sources > stream.targets
        u = np.where(swap, stream.targets, stream.sources)
        v = np.where(swap, stream.sources, stream.targets)
    else:
        u, v = stream.sources, stream.targets
    steps, u, v = _dedup_rows(steps, u.copy(), v.copy())
    return GraphSeries(
        stream.num_nodes,
        num_steps,
        steps,
        u,
        v,
        directed=stream.directed,
        delta=float(delta),
        origin=float(origin),
    )


#: Small per-process memo of aggregated series, keyed on content
#: (stream fingerprint, Δ, origin), so every consumer of the same
#: ``G_Δ`` — a sweep task, a one-shot occupancy call, a validation pass,
#: concurrent daemon requests — shares one materialization instead of re-windowing
#: the stream.  Content keys can never serve a stale series; the bound
#: keeps a long sweep from hoarding memory.
_SERIES_MEMO: OrderedDict[tuple, Any] = OrderedDict()
#: Keys currently being aggregated, so concurrent callers wanting one Δ
#: wait for the first thread's result instead of all recomputing it.
_SERIES_IN_FLIGHT: dict[tuple, threading.Event] = {}
_SERIES_MEMO_LOCK = threading.Lock()
_SERIES_MEMO_MAX = 4


def clear_aggregate_cache() -> None:
    """Drop all memoized aggregated series (in this process).

    The memo deliberately outlives individual sweeps — validation and
    one-shot helpers re-read the series a sweep just built — and is
    bounded to the :data:`_SERIES_MEMO_MAX` most recent entries, so at
    most that many aggregated series stay pinned.  Call this to release
    the memory sooner (e.g. after analyzing a very large stream in a
    long-lived process).  Pool worker processes keep their own bounded
    memos; those die with the pool.
    """
    with _SERIES_MEMO_LOCK:
        _SERIES_MEMO.clear()


def aggregate_cached(
    stream: LinkStream,
    delta: float,
    *,
    origin: float | None = None,
) -> GraphSeries:
    """:func:`aggregate`, behind the process-wide bounded series memo.

    Bit-identical to :func:`aggregate` — a :class:`GraphSeries` is
    immutable, so sharing one instance is free correctness-wise.  Use it
    anywhere a ``(stream, Δ)`` aggregation may repeat: the engine's
    fused per-Δ tasks and the one-shot
    helpers (:func:`~repro.core.occupancy.stream_occupancy_at`,
    validation, spreading fidelity) all route through here, so an
    interactive call warms the same memo a sweep reads.  Thread-safe;
    concurrent requests for one key aggregate once.
    """
    # An explicit origin equal to the default (the first event) keys the
    # same as no origin: the series are identical, and callers that
    # resolve the default themselves (validation) must still hit entries
    # warmed by callers that do not (the sweep engine).
    if origin is not None and float(origin) == stream.t_min:
        origin = None
    key = (
        stream.fingerprint(),
        repr(float(delta)),
        None if origin is None else repr(float(origin)),
    )
    with _SERIES_MEMO_LOCK:
        if key in _SERIES_MEMO:
            _SERIES_MEMO.move_to_end(key)
            return _SERIES_MEMO[key]
        pending = _SERIES_IN_FLIGHT.get(key)
        if pending is None:
            _SERIES_IN_FLIGHT[key] = threading.Event()
    if pending is not None:
        pending.wait()
        with _SERIES_MEMO_LOCK:
            series = _SERIES_MEMO.get(key)
        if series is not None:
            return series
        # The computing thread failed or the entry was evicted under
        # memory pressure; fall through and aggregate locally.
        return aggregate(stream, float(delta), origin=origin)
    try:
        series = aggregate(stream, float(delta), origin=origin)
        with _SERIES_MEMO_LOCK:
            _SERIES_MEMO[key] = series
            _SERIES_MEMO.move_to_end(key)
            while len(_SERIES_MEMO) > _SERIES_MEMO_MAX:
                _SERIES_MEMO.popitem(last=False)
        return series
    finally:
        with _SERIES_MEMO_LOCK:
            event = _SERIES_IN_FLIGHT.pop(key, None)
        if event is not None:
            event.set()


def lookup_memoized_series(
    stream: LinkStream,
    delta: float,
    *,
    origin: float | None = None,
) -> GraphSeries | None:
    """The memoized series for ``(stream, Δ, origin)``, or ``None``.

    A read-only probe of the :func:`aggregate_cached` memo that never
    aggregates on a miss — the incremental-append path uses it to decide
    between reusing a warm series and splicing one from a cached prefix.
    """
    if origin is not None and float(origin) == stream.t_min:
        origin = None
    key = (
        stream.fingerprint(),
        repr(float(delta)),
        None if origin is None else repr(float(origin)),
    )
    with _SERIES_MEMO_LOCK:
        series = _SERIES_MEMO.get(key)
        if series is not None:
            _SERIES_MEMO.move_to_end(key)
        return series


def memoize_series(
    stream: LinkStream,
    delta: float,
    series: GraphSeries,
    *,
    origin: float | None = None,
) -> None:
    """Insert a series into the :func:`aggregate_cached` memo.

    The incremental-append path materializes spliced series outside
    :func:`aggregate_cached`; registering them here under the same
    content key lets every later consumer (sweep tasks, validation
    passes) share the splice exactly as they would share a
    from-scratch aggregation.  Keys are content-derived, so a wrong
    series cannot be installed for a key without breaking the stream
    fingerprint itself.
    """
    if origin is not None and float(origin) == stream.t_min:
        origin = None
    key = (
        stream.fingerprint(),
        repr(float(delta)),
        None if origin is None else repr(float(origin)),
    )
    with _SERIES_MEMO_LOCK:
        _SERIES_MEMO[key] = series
        _SERIES_MEMO.move_to_end(key)
        while len(_SERIES_MEMO) > _SERIES_MEMO_MAX:
            _SERIES_MEMO.popitem(last=False)


def aggregate_prefix_extended(
    stream: LinkStream,
    delta: float,
    *,
    prefix_series: GraphSeries,
    prefix_events: int,
    origin: float | None = None,
) -> GraphSeries:
    """Aggregate an extended stream by splicing a cached prefix series.

    ``prefix_series`` must be the aggregation (same ``delta``/``origin``)
    of the stream's first ``prefix_events`` events — the state before an
    :meth:`~repro.linkstream.stream.LinkStream.extend`.  Appends are
    strictly time-increasing, so every window entirely before the
    *straddle window* (the window containing the first appended event)
    is unchanged: its deduplicated edge rows are taken verbatim from the
    prefix series, and only events from the straddle window onward are
    re-windowed and re-deduplicated.  The result is bit-identical to
    :func:`aggregate` on the full stream — prefix rows and suffix rows
    occupy disjoint step ranges, so their concatenation is exactly the
    full lexsorted dedup.

    Counts under ``AGGREGATION_COUNTS["incremental"]`` (not
    ``"aggregate"``).  Raises :class:`AggregationError` when the prefix
    series does not match the requested geometry (different Δ, origin,
    node count, or directedness) — callers fall back to
    :func:`aggregate`.
    """
    if delta <= 0:
        raise AggregationError(f"window length must be positive, got {delta}")
    if not 0 < prefix_events < stream.num_events:
        raise AggregationError(
            f"prefix of {prefix_events} events cannot splice a stream of "
            f"{stream.num_events}"
        )
    if origin is None:
        origin = stream.t_min
    elif origin > stream.t_min:
        raise AggregationError("origin must not be after the first event")
    if (
        prefix_series.num_nodes != stream.num_nodes
        or prefix_series.directed != stream.directed
        or prefix_series.delta != float(delta)
        or prefix_series.origin is None
        or prefix_series.origin != float(origin)
    ):
        raise AggregationError(
            "prefix series does not match the stream geometry "
            "(delta/origin/nodes/directedness)"
        )
    times = stream.timestamps
    steps_all = window_index(times, delta, origin)
    straddle = int(steps_all[prefix_events])
    # Every appended event is at or after the straddle window, and the
    # suffix boundary in the *event* arrays is where windows first reach
    # it (monotone in t) — possibly before the append point, when old
    # events share the straddle window.
    lo = int(np.searchsorted(steps_all, straddle, side="left"))
    AGGREGATION_COUNTS["incremental"] += 1
    if not stream.directed:
        swap = stream.sources[lo:] > stream.targets[lo:]
        u_suffix = np.where(swap, stream.targets[lo:], stream.sources[lo:])
        v_suffix = np.where(swap, stream.sources[lo:], stream.targets[lo:])
    else:
        u_suffix = stream.sources[lo:].copy()
        v_suffix = stream.targets[lo:].copy()
    s_suffix, u_suffix, v_suffix = _dedup_rows(
        steps_all[lo:], u_suffix, v_suffix
    )
    cut = int(np.searchsorted(prefix_series.edge_steps, straddle, side="left"))
    num_steps = int(s_suffix[-1]) + 1 if s_suffix.size else prefix_series.num_steps
    return GraphSeries(
        stream.num_nodes,
        num_steps,
        np.concatenate([prefix_series.edge_steps[:cut], s_suffix]),
        np.concatenate([prefix_series.edge_sources[:cut], u_suffix]),
        np.concatenate([prefix_series.edge_targets[:cut], v_suffix]),
        directed=stream.directed,
        delta=float(delta),
        origin=float(origin),
    )


def aggregate_overlapping(
    stream: LinkStream,
    delta: float,
    stride: float,
    *,
    origin: float | None = None,
) -> GraphSeries:
    """Aggregate on overlapping windows: window ``k`` covers
    ``[origin + k·stride, origin + k·stride + delta)``.

    With ``stride == delta`` this reduces to :func:`aggregate`.  Note that
    consecutive overlapping snapshots share events, so temporal-path
    semantics on the result double-count time; the paper's propagation
    analysis assumes disjoint windows (this variant exists for the
    window-policy comparison studies of the related work).
    """
    if not stream.num_events:
        raise AggregationError("cannot aggregate an empty stream")
    if delta <= 0 or stride <= 0:
        raise AggregationError("window length and stride must be positive")
    if stride > delta:
        raise AggregationError("stride larger than the window leaves gaps")
    if origin is None:
        origin = stream.t_min
    span_end = stream.t_max
    num_steps = int(np.floor((span_end - origin) / stride)) + 1
    x = stream.timestamps - origin
    # Event at relative time x belongs to window k iff k·stride <= x < k·stride + delta,
    # i.e. (x - delta)/stride < k <= x/stride.
    first = np.floor((x - delta) / stride).astype(np.int64) + 1
    first = np.maximum(first, 0)
    last = np.floor(x / stride).astype(np.int64)
    counts = np.maximum(last - first + 1, 0)
    steps = np.repeat(first, counts) + _ragged_offsets(counts)
    u = np.repeat(stream.sources, counts)
    v = np.repeat(stream.targets, counts)
    steps, u, v = _dedup_rows(steps, u, v)
    return GraphSeries(
        stream.num_nodes,
        num_steps,
        steps,
        u,
        v,
        directed=stream.directed,
        delta=None,
        origin=float(origin),
    )


def _ragged_offsets(counts: np.ndarray) -> np.ndarray:
    """``[0,1,..,c0-1, 0,1,..,c1-1, ...]`` for repeat-based expansion."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    ends = counts.cumsum()
    offsets = np.arange(total, dtype=np.int64)
    return offsets - np.repeat(ends - counts, counts)


def aggregate_cumulative(
    stream: LinkStream,
    delta: float,
    *,
    origin: float | None = None,
) -> GraphSeries:
    """Aggregate on growing windows all starting at the beginning of study.

    Window ``k`` covers ``[origin, origin + (k+1)·delta)`` — the
    "windows all start at the beginning of the period" policy of the
    related work ([21, 31, 14, 37] in the paper).  Snapshot ``k`` is the
    union of the first ``k+1`` disjoint snapshots.
    """
    disjoint = aggregate(stream, delta, origin=origin)
    num_steps = disjoint.num_steps
    num_nodes = disjoint.num_nodes
    # An edge first appearing in window k is present in windows k..K-1.
    key = disjoint.edge_sources * num_nodes + disjoint.edge_targets
    order = np.lexsort((disjoint.edge_steps, key))
    key_sorted = key[order]
    step_sorted = disjoint.edge_steps[order]
    first_of_pair = np.ones(key_sorted.size, dtype=bool)
    first_of_pair[1:] = key_sorted[1:] != key_sorted[:-1]
    first_step = step_sorted[first_of_pair]
    pair_key = key_sorted[first_of_pair]
    counts = (num_steps - first_step).astype(np.int64)
    steps = np.repeat(first_step, counts) + _ragged_offsets(counts)
    pairs = np.repeat(pair_key, counts)
    return GraphSeries(
        num_nodes,
        num_steps,
        steps,
        pairs // num_nodes,
        pairs % num_nodes,
        directed=stream.directed,
        delta=None,
        origin=disjoint.origin,
    )


def aggregate_adaptive(
    stream: LinkStream,
    *,
    growth_tolerance: float = 0.1,
    probe: float | None = None,
    max_window: float | None = None,
) -> tuple[GraphSeries, np.ndarray]:
    """Aggregate on variable-length windows that close when "mature".

    Implements the related-work idea of Soundarajan et al. (reference
    [39] of the paper): fix the start of the current window, extend its
    end, and close the window when the aggregated snapshot stops growing
    — here, when the number of *new* distinct pairs added during the last
    ``probe`` seconds falls below ``growth_tolerance`` times the pairs
    already collected (maturity = density convergence).

    Returns the variable-window series and the window boundary times
    (length ``num_steps + 1``).  Windows are half-open: window ``k``
    covers ``[boundaries[k], boundaries[k + 1])``, so the terminal
    boundary must lie strictly after the last event.  It is placed one
    timestamp :meth:`~repro.linkstream.stream.LinkStream.resolution`
    beyond ``t_max`` — not a hard-coded full second, which would be
    wildly off for float-time streams with sub-second resolution (for a
    degenerate stream with a single distinct timestamp, where no
    resolution exists, it falls back to ``t_max + 1``).
    """
    if not stream.num_events:
        raise AggregationError("cannot aggregate an empty stream")
    if not 0 < growth_tolerance < 1:
        raise AggregationError("growth_tolerance must be in (0, 1)")
    if probe is None:
        probe = max(stream.span / 1000.0, stream.resolution())
    if max_window is None:
        max_window = stream.span
    times = stream.timestamps
    num_nodes = stream.num_nodes
    pair_key = stream.sources * num_nodes + stream.targets

    boundaries = [float(stream.t_min)]
    steps = np.empty(stream.num_events, dtype=np.int64)
    current_step = 0
    window_start_idx = 0
    seen: set[int] = set()
    recent_new = 0
    probe_anchor = times[0]
    for i in range(stream.num_events):
        t = times[i]
        if t - probe_anchor >= probe:
            # End of a probe interval: close the window if growth stalled.
            mature = seen and recent_new <= growth_tolerance * len(seen)
            too_long = t - boundaries[-1] >= max_window
            if (mature or too_long) and i > window_start_idx:
                boundaries.append(float(t))
                current_step += 1
                window_start_idx = i
                seen.clear()
            recent_new = 0
            probe_anchor = t
        key = int(pair_key[i])
        if key not in seen:
            seen.add(key)
            recent_new += 1
        steps[i] = current_step
    # Close the last half-open window just past the final event, at the
    # stream's own time scale rather than an arbitrary full second.
    if stream.distinct_timestamps().size >= 2:
        terminal_pad = stream.resolution()
    else:
        terminal_pad = 1.0
    boundaries.append(float(stream.t_max) + terminal_pad)
    num_steps = current_step + 1
    dedup_steps, u, v = _dedup_rows(
        steps, stream.sources.copy(), stream.targets.copy()
    )
    series = GraphSeries(
        num_nodes,
        num_steps,
        dedup_steps,
        u,
        v,
        directed=stream.directed,
        delta=None,
        origin=float(stream.t_min),
    )
    return series, np.asarray(boundaries)
