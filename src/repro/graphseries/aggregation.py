"""Aggregation of link streams into graph series.

:func:`aggregate` implements Definition 1 of the paper — disjoint windows
of constant length Δ, window ``k`` covering ``[origin + kΔ, origin + (k+1)Δ)``
(0-based here; the paper indexes from 1).  The paper's exact-divisor
constraint ``Δ = T/K`` is relaxed to a half-open cover, which any Δ sweep
needs in practice.

The related-work section of the paper surveys other window policies;
the one a baseline uses is provided here: adaptive variable-length
windows that close once the forming snapshot "matures" (its density
stabilizes), after Soundarajan et al.

Every aggregation is built by one row builder (:class:`_PairSorted`):
the events are sorted **once by pair**, stably, so each pair's events
stay in time order.  A window length then keeps an event when it starts
its pair or lands in another window than its same-pair predecessor, and
one stable argsort of the kept windows yields the deduplicated rows in
``(step, u, v)`` order.  A whole Δ grid therefore costs one pair sort
per stream plus one linear pass and one nearly-sorted argsort per Δ.

Every consumer of one ``G_Δ`` reads it from one per-process **series
store** (:func:`aggregate_cached`): an LRU of :class:`SeriesEntry`
objects under one content key (:func:`series_key`), one lock and one
byte budget (``REPRO_INCREMENTAL_MAX_BYTES``, default 512 MiB).  It
takes a grid of Δ and builds every miss of the grid from one pair sort.
The incremental engine (:mod:`repro.engine.incremental`) splices a grown
stream's series from its ancestor's entry and attaches its scan records
to the entries, so the budget covers both.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.graphseries.series import GraphSeries
from repro.linkstream.stream import LinkStream
from repro.utils.errors import AggregationError, EngineError

#: Aggregation instrumentation: how many series this process has
#: materialized from scratch (``"aggregate"``: one per series built, so
#: a grid of K misses counts K although its events are pair-sorted once)
#: and how many were spliced from a cached prefix after an append
#: (``"incremental"``; these do *not* bump ``"aggregate"`` — the whole
#: point is that no full re-windowing happened).  Cache hits served by
#: :func:`aggregate_cached` count under neither.  The measure-fusion and
#: incremental-append tests and benches assert against these tallies;
#: they have no behavioural effect.
AGGREGATION_COUNTS = {"aggregate": 0, "incremental": 0}


def window_index(
    times: np.ndarray, delta: float, origin: float
) -> np.ndarray:
    """0-based index of the length-``delta`` window containing each time."""
    if delta <= 0:
        raise AggregationError(f"window length must be positive, got {delta}")
    return np.floor((np.asarray(times) - origin) / delta).astype(np.int64)


class _PairSorted:
    """Events sorted once by pair: the one row builder of every
    aggregation.

    ``np.lexsort((v, u))`` is stable and the events come in time order
    (undirected pairs already canonical), so each pair's events stay in
    time order and any window assignment that is monotone in time gives
    each pair nondecreasing windows.  Sorting by the two columns needs
    no packed ``u * n + v`` key, so nothing can wrap int64.
    """

    __slots__ = ("order", "u", "v", "first")

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        self.order = np.lexsort((v, u))
        self.u = u[self.order]
        self.v = v[self.order]
        #: Whether each event (in pair order) is its pair's first.
        self.first = np.ones(self.order.size, dtype=bool)
        self.first[1:] = (
            (self.u[1:] != self.u[:-1]) | (self.v[1:] != self.v[:-1])
        )

    def rows(
        self, steps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One row per distinct ``(step, u, v)``, in ``(step, u, v)``
        order, from each event's window given in pair order.

        An event is kept when it starts its pair or its window differs
        from its same-pair predecessor's, so each (pair, window) keeps
        exactly one event.  A stable argsort of the kept windows keeps
        pair order within a window; the kept windows are runs ascending
        per pair, which the sort exploits.
        """
        keep = self.first.copy()
        keep[1:] |= steps[1:] != steps[:-1]
        kept = np.flatnonzero(keep)
        step = steps[kept]
        rank = np.argsort(step, kind="stable")
        kept = kept[rank]
        return step[rank], self.u[kept], self.v[kept]


def _aggregate_grid(
    stream: LinkStream, deltas, origin: float | None
) -> list[GraphSeries]:
    """:func:`aggregate` at every Δ of ``deltas``, from one pair sort."""
    if not stream.num_events:
        raise AggregationError("cannot aggregate an empty stream")
    deltas = [float(delta) for delta in deltas]
    for delta in deltas:
        if delta <= 0:
            raise AggregationError(
                f"window length must be positive, got {delta}"
            )
    if origin is None:
        origin = stream.t_min
    elif origin > stream.t_min:
        raise AggregationError("origin must not be after the first event")
    pairs = _PairSorted(stream.sources, stream.targets)
    times = stream.timestamps[pairs.order]
    built = []
    for delta in deltas:
        AGGREGATION_COUNTS["aggregate"] += 1
        step, u, v = pairs.rows(window_index(times, delta, origin))
        built.append(
            GraphSeries._from_rows(
                stream.num_nodes,
                int(step[-1]) + 1,
                step,
                u,
                v,
                directed=stream.directed,
                delta=delta,
                origin=float(origin),
            )
        )
    return built


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
    return _aggregate_grid(stream, [delta], origin)[0]


#: Default byte budget of the series store.
INCREMENTAL_MAX_BYTES = 512 * 1024 * 1024


class SeriesEntry:
    """Everything the store keeps for one ``(stream, Δ, origin)``: the
    series, the stream's event count, and the scan records
    :mod:`repro.engine.incremental` attaches (opaque here; each has an
    ``nbytes``), keyed by scan identity.  ``nbytes`` is the series
    arrays plus every record."""

    __slots__ = ("series", "num_events", "records", "nbytes")

    def __init__(self, series: GraphSeries, num_events: int) -> None:
        self.series = series
        self.num_events = int(num_events)
        self.records: dict[tuple, Any] = {}
        self.nbytes = (
            series.edge_steps.nbytes
            + series.edge_sources.nbytes
            + series.edge_targets.nbytes
        )


#: The series store, LRU first: every consumer of the same ``G_Δ`` — a
#: sweep task, a one-shot occupancy call, a validation pass, concurrent
#: daemon requests, the next append's splice — shares one entry.
#: Content keys can never serve a stale series.
_STORE: OrderedDict[tuple, SeriesEntry] = OrderedDict()
_STORE_LOCK = threading.Lock()
#: Running byte total of every entry (kept equal to the sum of their
#: ``nbytes``), checked against the budget on every put.
_STORE_BYTES = 0
#: Keys currently being aggregated, so concurrent callers wanting one Δ
#: wait for the first thread's result instead of all recomputing it.
_SERIES_IN_FLIGHT: dict[tuple, threading.Event] = {}


def store_max_bytes() -> int:
    """The store's byte budget: ``REPRO_INCREMENTAL_MAX_BYTES``, by
    default 512 MiB.  It also caps a single scan's checkpoint record."""
    raw = os.environ.get("REPRO_INCREMENTAL_MAX_BYTES")
    if raw is None:
        return INCREMENTAL_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise EngineError(
            f"REPRO_INCREMENTAL_MAX_BYTES must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise EngineError(
            f"REPRO_INCREMENTAL_MAX_BYTES must be >= 0, got {value}"
        )
    return value


def series_key(
    stream: LinkStream, delta: float, origin: float | None = None
) -> tuple:
    """The store key of ``stream`` aggregated at Δ from ``origin``:
    ``(fingerprint, Δ, origin)``.

    An explicit origin equal to the default (the first event) keys the
    same as no origin: the series are identical, and callers that
    resolve the default themselves (validation) must still hit entries
    warmed by callers that do not (the sweep engine).  A stream's
    ancestors (appends keep ``t_min``) key as this tuple with their own
    fingerprint in front.
    """
    if origin is not None and float(origin) == stream.t_min:
        origin = None
    return (
        stream.fingerprint(),
        repr(float(delta)),
        None if origin is None else repr(float(origin)),
    )


def store_get(key: tuple) -> SeriesEntry | None:
    """The entry under ``key`` (now the most recently used), or ``None``."""
    with _STORE_LOCK:
        return _get_locked(key)


def _get_locked(key: tuple) -> SeriesEntry | None:
    entry = _STORE.get(key)
    if entry is not None:
        _STORE.move_to_end(key)
    return entry


def store_put(
    key: tuple,
    series: GraphSeries,
    num_events: int,
    *,
    token: tuple | None = None,
    record: Any = None,
) -> SeriesEntry:
    """Insert ``series`` under ``key`` unless an entry is there (then
    that entry stays), attach ``record`` under ``token`` if given, mark
    the entry most recently used and evict down to the budget.

    Eviction drops whole entries, series and records together, least
    recently used first, and always leaves the most recent one.
    """
    global _STORE_BYTES
    with _STORE_LOCK:
        entry = _STORE.get(key)
        if entry is None:
            entry = _STORE[key] = SeriesEntry(series, num_events)
            _STORE_BYTES += entry.nbytes
        if token is not None:
            old = entry.records.get(token)
            grown = record.nbytes - (0 if old is None else old.nbytes)
            entry.records[token] = record
            entry.nbytes += grown
            _STORE_BYTES += grown
        _STORE.move_to_end(key)
        budget = store_max_bytes()
        while _STORE_BYTES > budget and len(_STORE) > 1:
            _key, evicted = _STORE.popitem(last=False)
            _STORE_BYTES -= evicted.nbytes
        return entry


def store_snapshot() -> tuple[int, list[list]]:
    """``(nbytes, records)``: the running byte total and each entry's
    attached records (one list per entry, LRU first), read together."""
    with _STORE_LOCK:
        return _STORE_BYTES, [list(e.records.values()) for e in _STORE.values()]


def clear_aggregate_cache() -> None:
    """Drop every entry of the series store (in this process): series
    and scan records alike.

    The store deliberately outlives individual sweeps — validation,
    one-shot helpers and the next append re-read what a sweep built —
    within its byte budget (:func:`store_max_bytes`).  Call this to
    release the memory sooner (e.g. after analyzing a very large stream
    in a long-lived process).  Pool worker processes keep their own
    stores; those die with the pool.
    """
    global _STORE_BYTES
    with _STORE_LOCK:
        _STORE.clear()
        _STORE_BYTES = 0


def aggregate_cached(
    stream: LinkStream,
    deltas,
    *,
    origin: float | None = None,
) -> list[GraphSeries]:
    """:func:`aggregate` at every Δ of ``deltas``, behind the
    per-process series store; ``result[i]`` is the series at
    ``deltas[i]``.

    Store hits are served from their entries; the misses are built from
    **one pair sort** of the stream's events and each is put as its own
    entry (``AGGREGATION_COUNTS["aggregate"]`` counts one per series
    built).  A one-shot caller passes a grid of one.  Bit-identical to
    :func:`aggregate` — a :class:`GraphSeries` is immutable, so sharing
    one instance is free correctness-wise.  The engine's sweep tasks and
    the one-shot helpers (:func:`~repro.core.occupancy.
    stream_occupancy_at`, validation, spreading fidelity) all route
    through here, so an interactive call reads the series a sweep
    stored, and vice versa.  Thread-safe: concurrent requests for one
    key aggregate it once.  The returned series are the caller's even
    when a small budget evicts their entries at once.
    """
    keys = [series_key(stream, delta, origin) for delta in deltas]
    found: list[GraphSeries | None] = [None] * len(keys)
    mine: list[int] = []
    waits: list[tuple[int, threading.Event]] = []
    with _STORE_LOCK:
        for i, key in enumerate(keys):
            entry = _get_locked(key)
            if entry is not None:
                found[i] = entry.series
                continue
            pending = _SERIES_IN_FLIGHT.get(key)
            if pending is None:
                _SERIES_IN_FLIGHT[key] = threading.Event()
                mine.append(i)
            else:
                waits.append((i, pending))
    if mine:
        try:
            built = _aggregate_grid(stream, [deltas[i] for i in mine], origin)
            for i, series in zip(mine, built):
                found[i] = store_put(keys[i], series, stream.num_events).series
        finally:
            with _STORE_LOCK:
                events = [_SERIES_IN_FLIGHT.pop(keys[i], None) for i in mine]
            for event in events:
                if event is not None:
                    event.set()
    for i, pending in waits:
        pending.wait()
        entry = store_get(keys[i])
        if entry is not None:
            found[i] = entry.series
    # The computing thread failed, or its entry was evicted under memory
    # pressure: build what is still missing here.
    missing = [i for i, series in enumerate(found) if series is None]
    if missing:
        built = _aggregate_grid(stream, [deltas[i] for i in missing], origin)
        for i, series in zip(missing, built):
            found[i] = series
    return found


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
    prefix series, and only events from the straddle window onward go
    through the row builder (one pair sort of the suffix).  The result
    is bit-identical to :func:`aggregate` on the full stream — prefix
    rows and suffix rows occupy disjoint step ranges, so their
    concatenation is exactly the full build's ``(step, u, v)`` rows.

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
    pairs = _PairSorted(stream.sources[lo:], stream.targets[lo:])
    s_suffix, u_suffix, v_suffix = pairs.rows(steps_all[lo:][pairs.order])
    cut = int(np.searchsorted(prefix_series.edge_steps, straddle, side="left"))
    return GraphSeries._from_rows(
        stream.num_nodes,
        int(s_suffix[-1]) + 1,
        np.concatenate([prefix_series.edge_steps[:cut], s_suffix]),
        np.concatenate([prefix_series.edge_sources[:cut], u_suffix]),
        np.concatenate([prefix_series.edge_targets[:cut], v_suffix]),
        directed=stream.directed,
        delta=float(delta),
        origin=float(origin),
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
    pairs = _PairSorted(stream.sources, stream.targets)
    dedup_steps, u, v = pairs.rows(steps[pairs.order])
    series = GraphSeries._from_rows(
        num_nodes,
        current_step + 1,
        dedup_steps,
        u,
        v,
        directed=stream.directed,
        delta=None,
        origin=float(stream.t_min),
    )
    return series, np.asarray(boundaries)
