"""Property-based cross-validation of the temporal engine.

Three independent implementations are compared on random instances:
the backward numpy scan (production), repeated forward scans, and
exhaustive DFS path enumeration (Definitions 2/5/7 taken literally).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphseries import aggregate
from repro.temporal import (
    TripListCollector,
    bruteforce_minimal_trips,
    check_pareto,
    enumerate_temporal_paths,
    minimal_trips_from_paths,
    scan_series,
    scan_stream,
)
from tests.strategies import link_streams


def _normalize(tuples):
    return sorted((a, b, float(c), float(d), e) for a, b, c, d, e in tuples)


def _scan_series_trips(series):
    collector = TripListCollector()
    scan_series(series, collector)
    return collector.trips()


@settings(max_examples=120, deadline=None)
@given(stream=link_streams(), delta=st.sampled_from([1.0, 2.0, 3.0, 5.0]))
def test_backward_scan_matches_forward_oracle_on_series(stream, delta):
    series = aggregate(stream, delta)
    got = _normalize(_scan_series_trips(series).as_tuples())
    expected = _normalize(bruteforce_minimal_trips(series).as_tuples())
    assert got == expected


@settings(max_examples=120, deadline=None)
@given(stream=link_streams())
def test_backward_scan_matches_forward_oracle_on_stream(stream):
    collector = TripListCollector()
    scan_stream(stream, collector)
    got = _normalize(collector.trips().as_tuples())
    expected = _normalize(bruteforce_minimal_trips(stream).as_tuples())
    assert got == expected


def _exact(trips):
    """Trips as sorted plain tuples: floats compared bit for bit."""
    columns = (trips.u, trips.v, trips.dep, trips.arr, trips.hops, trips.durations)
    return sorted(zip(*(c.tolist() for c in columns)))


@settings(max_examples=120, deadline=None)
@given(stream=link_streams(float_time=True))
def test_backward_scan_matches_forward_oracle_on_float_stream(stream):
    # Non-dyadic float timestamps with ties: the stream scan's trips,
    # durations included, equal the oracle's exactly — no tolerance.
    assert stream.timestamps.dtype.kind == "f"
    collector = TripListCollector()
    scan_stream(stream, collector)
    got = collector.trips()
    assert got.durations.dtype.kind == "f"
    assert _exact(got) == _exact(bruteforce_minimal_trips(stream))


@settings(max_examples=60, deadline=None)
@given(stream=link_streams(max_nodes=4, max_events=6, max_time=8), delta=st.sampled_from([1.0, 2.0]))
def test_backward_scan_matches_dfs_ground_truth(stream, delta):
    series = aggregate(stream, delta)
    hop_count = series.num_edges_total * (1 if series.directed else 2)
    if hop_count > 12:
        return  # keep DFS tractable
    paths = enumerate_temporal_paths(series, max_hops=series.num_steps + 1)
    truth = _normalize(minimal_trips_from_paths(paths))
    got = _normalize(_scan_series_trips(series).as_tuples())
    assert got == truth


@settings(max_examples=120, deadline=None)
@given(stream=link_streams(), delta=st.sampled_from([1.0, 2.0, 4.0]))
def test_trip_invariants(stream, delta):
    """Structural invariants of minimal trips (Definition 5 + Remark 2)."""
    series = aggregate(stream, delta)
    trips = _scan_series_trips(series)
    if not len(trips):
        return
    # Pareto staircase per pair.
    assert check_pareto(trips)
    # Durations and hop bounds: 1 <= hops <= duration (graph-series mode).
    assert np.all(trips.durations == trips.arr - trips.dep + 1)
    assert np.all(trips.hops >= 1)
    assert np.all(trips.hops <= trips.durations)
    # Occupancy in (0, 1].
    occ = trips.occupancy_rates()
    assert np.all(occ > 0) and np.all(occ <= 1)
    # No self trips by default.
    assert np.all(trips.u != trips.v)
    # Departures and arrivals land on existing windows.
    steps = set(series.nonempty_steps().tolist())
    assert set(trips.dep.astype(int).tolist()) <= steps
    assert set(trips.arr.astype(int).tolist()) <= steps


@settings(max_examples=80, deadline=None)
@given(stream=link_streams())
def test_every_event_is_a_one_hop_trip(stream):
    """Each deduplicated (pair, window) edge yields the 1-hop minimal trip."""
    series = aggregate(stream, 2.0)
    trips = _scan_series_trips(series)
    found = {
        (int(u), int(v), int(d))
        for u, v, d, a in zip(trips.u, trips.v, trips.dep, trips.arr)
        if d == a
    }
    for step, us, vs in series.edge_groups():
        for a, b in zip(us.tolist(), vs.tolist()):
            assert (a, b, step) in found
            if not series.directed:
                assert (b, a, step) in found


@settings(max_examples=60, deadline=None)
@given(stream=link_streams(), delta=st.sampled_from([2.0, 4.0]))
def test_series_reachability_never_exceeds_stream_reachability(stream, delta):
    """Aggregation only destroys temporal reachability, never creates it.

    A series temporal path hops through strictly increasing windows; each
    hop is backed by a stream event inside its window, and events in later
    windows are strictly later in time — so the hops lift to a valid
    stream temporal path.  Hence the set of connected (u, v) pairs of the
    series is a subset of the stream's.
    """
    collector = TripListCollector()
    scan_stream(stream, collector)
    stream_pairs = {(int(a), int(b)) for a, b in zip(collector.trips().u, collector.trips().v)}
    series = aggregate(stream, delta)
    series_trips = _scan_series_trips(series)
    series_pairs = {(int(a), int(b)) for a, b in zip(series_trips.u, series_trips.v)}
    assert series_pairs <= stream_pairs
