"""Whole-stream surgery operations.

These functions return new :class:`~repro.linkstream.stream.LinkStream`
objects; streams themselves are immutable.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.linkstream.stream import LinkStream
from repro.utils.errors import LinkStreamError
from repro.utils.rng import ensure_rng


def concatenate(streams: Sequence[LinkStream]) -> LinkStream:
    """Union of several streams over a shared label space.

    Nodes are matched by label; the result's node set is the union in
    first-seen order.  All inputs must agree on directedness.
    """
    if not streams:
        raise LinkStreamError("cannot concatenate an empty list of streams")
    directed = streams[0].directed
    if any(s.directed != directed for s in streams):
        raise LinkStreamError("cannot mix directed and undirected streams")

    labels: list[Hashable] = []
    index: dict[Hashable, int] = {}
    for stream in streams:
        for lab in stream.labels:
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)

    chunks_u, chunks_v, chunks_t = [], [], []
    for stream in streams:
        remap = np.array([index[lab] for lab in stream.labels], dtype=np.int64)
        if stream.num_events:
            chunks_u.append(remap[stream.sources])
            chunks_v.append(remap[stream.targets])
            chunks_t.append(np.asarray(stream.timestamps, dtype=np.float64))
    if chunks_u:
        u = np.concatenate(chunks_u)
        v = np.concatenate(chunks_v)
        t = np.concatenate(chunks_t)
    else:
        u = v = t = np.empty(0, dtype=np.int64)
    return LinkStream(u, v, t, directed=directed, num_nodes=len(labels), labels=labels)


def subsample_events(
    stream: LinkStream,
    fraction: float,
    *,
    seed: int | np.random.Generator | None = None,
) -> LinkStream:
    """Keep each event independently with probability ``fraction``."""
    if not 0.0 <= fraction <= 1.0:
        raise LinkStreamError(f"fraction must be in [0, 1], got {fraction}")
    rng = ensure_rng(seed)
    mask = rng.random(stream.num_events) < fraction
    return LinkStream(
        stream.sources[mask],
        stream.targets[mask],
        stream.timestamps[mask],
        directed=stream.directed,
        num_nodes=stream.num_nodes,
        labels=stream.labels,
    )
