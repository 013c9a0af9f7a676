"""Link-stream substrate.

A *link stream* (the paper's raw input) is a finite collection of triplets
``(u, v, t)``: nodes ``u`` and ``v`` interact at time ``t``.  This package
provides the columnar :class:`LinkStream` container, file readers and a
TSV writer, stream surgery operations and descriptive statistics.
"""

from repro.linkstream.intervals import IntervalStream
from repro.linkstream.io import (
    iter_triples,
    read_csv,
    read_event_arrays,
    read_tsv,
    write_tsv,
)
from repro.linkstream.operations import (
    concatenate,
    subsample_events,
)
from repro.linkstream.statistics import (
    activity_profile,
    burstiness,
    circadian_profile,
    inter_contact_times,
    mean_activity_per_node_per_day,
    mean_inter_contact_time,
    node_event_counts,
    pair_event_counts,
    stream_summary,
)
from repro.linkstream.stream import LinkStream

__all__ = [
    "LinkStream",
    "IntervalStream",
    "read_tsv",
    "write_tsv",
    "read_csv",
    "read_event_arrays",
    "iter_triples",
    "concatenate",
    "subsample_events",
    "node_event_counts",
    "pair_event_counts",
    "inter_contact_times",
    "mean_inter_contact_time",
    "mean_activity_per_node_per_day",
    "activity_profile",
    "circadian_profile",
    "burstiness",
    "stream_summary",
]
