"""Descriptive statistics of link streams.

Section 5 of the paper interprets the saturation scale against the traces'
*activity* (messages per person per day) and Section 6 against the *mean
inter-contact time* of nodes; this module computes those quantities plus
the usual companions (activity profiles, burstiness, circadian rhythm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linkstream.stream import LinkStream
from repro.utils.errors import LinkStreamError
from repro.utils.timeunits import DAY


def node_event_counts(stream: LinkStream) -> np.ndarray:
    """Number of events each node participates in (as source or target)."""
    counts = np.zeros(stream.num_nodes, dtype=np.int64)
    np.add.at(counts, stream.sources, 1)
    np.add.at(counts, stream.targets, 1)
    return counts


def pair_event_counts(stream: LinkStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct node pairs and their event counts.

    Returns ``(u, v, count)`` arrays; for undirected streams pairs are
    canonical (``u < v``).
    """
    if not stream.num_events:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    key = stream.sources.astype(np.int64) * stream.num_nodes + stream.targets
    unique_keys, counts = np.unique(key, return_counts=True)
    return unique_keys // stream.num_nodes, unique_keys % stream.num_nodes, counts


def inter_contact_times(stream: LinkStream) -> np.ndarray:
    """Per-node gaps between consecutive events, pooled over all nodes.

    For each node, take the sorted times of the events it participates in
    and collect consecutive differences.  Nodes with fewer than two events
    contribute nothing.
    """
    if not stream.num_events:
        return np.empty(0, dtype=np.float64)
    # Duplicate each event for both endpoints, then sort by (node, time):
    # consecutive rows with the same node give the gaps.
    nodes = np.concatenate([stream.sources, stream.targets])
    times = np.concatenate([stream.timestamps, stream.timestamps]).astype(np.float64)
    order = np.lexsort((times, nodes))
    nodes = nodes[order]
    times = times[order]
    same_node = nodes[1:] == nodes[:-1]
    gaps = times[1:] - times[:-1]
    return gaps[same_node]


def mean_inter_contact_time(stream: LinkStream) -> float:
    """Mean of :func:`inter_contact_times` (the x-axis of Figure 6 left)."""
    gaps = inter_contact_times(stream)
    if not gaps.size:
        raise LinkStreamError("stream has no node with two events")
    return float(gaps.mean())


def mean_activity_per_node_per_day(stream: LinkStream) -> float:
    """Events per node per day — the paper's activity statistic.

    Section 5 reports 0.66 (Irvine), 0.12 (Facebook), 0.29 (Enron) and
    2.22 (Manufacturing) messages sent per person per day.
    """
    if stream.num_events < 2:
        raise LinkStreamError("activity needs at least two events")
    days = stream.span / DAY
    if days <= 0:
        raise LinkStreamError("stream span must be positive")
    return stream.num_events / stream.num_nodes / days


def activity_profile(
    stream: LinkStream, bin_width: float
) -> tuple[np.ndarray, np.ndarray]:
    """Event counts per time bin of width ``bin_width``.

    Returns ``(bin_starts, counts)``; bins cover ``[t_min, t_max]``.
    """
    if bin_width <= 0:
        raise LinkStreamError("bin_width must be positive")
    if not stream.num_events:
        return np.empty(0), np.empty(0, dtype=np.int64)
    start = stream.t_min
    num_bins = int(np.floor((stream.t_max - start) / bin_width)) + 1
    index = np.floor((stream.timestamps - start) / bin_width).astype(np.int64)
    index = np.clip(index, 0, num_bins - 1)
    counts = np.bincount(index, minlength=num_bins)
    return start + bin_width * np.arange(num_bins), counts


def circadian_profile(
    stream: LinkStream, *, day_length: float = DAY, bins: int = 24
) -> np.ndarray:
    """Fraction of events per phase-of-day bin (default: 24 hourly bins)."""
    if bins <= 0:
        raise LinkStreamError("bins must be positive")
    if not stream.num_events:
        return np.zeros(bins)
    phase = np.mod(stream.timestamps, day_length) / day_length
    index = np.minimum((phase * bins).astype(np.int64), bins - 1)
    counts = np.bincount(index, minlength=bins).astype(np.float64)
    return counts / counts.sum()


def burstiness(stream: LinkStream) -> float:
    """Goh–Barabási burstiness ``(σ - μ) / (σ + μ)`` of inter-contact times.

    0 for a Poisson process, positive for bursty activity (real traces),
    negative for regular activity.
    """
    gaps = inter_contact_times(stream)
    if not gaps.size:
        raise LinkStreamError("stream has no node with two events")
    return _burstiness_of(gaps)


def _burstiness_of(gaps: np.ndarray) -> float:
    """The burstiness formula over a non-empty array of gaps."""
    mu = gaps.mean()
    sigma = gaps.std()
    if sigma + mu == 0:
        return 0.0
    return float((sigma - mu) / (sigma + mu))


@dataclass(frozen=True)
class StreamSummary:
    """Headline statistics of a link stream (one row of the Section 5 table)."""

    num_nodes: int
    num_events: int
    span_seconds: float
    distinct_pairs: int
    activity_per_node_per_day: float
    mean_inter_contact_seconds: float
    burstiness: float

    def as_dict(self) -> dict[str, float]:
        return {
            "num_nodes": self.num_nodes,
            "num_events": self.num_events,
            "span_seconds": self.span_seconds,
            "distinct_pairs": self.distinct_pairs,
            "activity_per_node_per_day": self.activity_per_node_per_day,
            "mean_inter_contact_seconds": self.mean_inter_contact_seconds,
            "burstiness": self.burstiness,
        }


def stream_summary(stream: LinkStream) -> StreamSummary:
    """The stream's :class:`StreamSummary`, computed once per stream object.

    Statistics that need repeat contacts (inter-contact time,
    burstiness) come out as ``nan`` when no node has two events.

    The first call stores the summary on the stream and later calls
    return it.  It is never stale: the event arrays are frozen, and
    every derived stream (``extend``, ``copy``, ``slice_time``, ...) is
    a new object whose summary starts unset.
    """
    if stream._summary is not None:
        return stream._summary
    pair_u, __, __ = pair_event_counts(stream)
    # One gaps array feeds both repeat-contact statistics.
    gaps = inter_contact_times(stream)
    if gaps.size:
        inter_contact = float(gaps.mean())
        bursty = _burstiness_of(gaps)
    else:
        inter_contact = float("nan")
        bursty = float("nan")
    stream._summary = StreamSummary(
        num_nodes=stream.num_nodes,
        num_events=stream.num_events,
        span_seconds=float(stream.span),
        distinct_pairs=int(pair_u.size),
        activity_per_node_per_day=mean_activity_per_node_per_day(stream),
        mean_inter_contact_seconds=inter_contact,
        burstiness=bursty,
    )
    return stream._summary
