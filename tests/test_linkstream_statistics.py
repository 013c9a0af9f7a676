"""Unit tests for stream statistics."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import link_streams

from repro.datasets import ingest_stream, open_dataset
from repro.linkstream import (
    LinkStream,
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
from repro.utils.errors import LinkStreamError
from repro.utils.timeunits import DAY, HOUR


class TestNodeCounts:
    def test_counts_both_endpoints(self):
        stream = LinkStream([0, 0], [1, 2], [0, 1])
        assert node_event_counts(stream).tolist() == [2, 1, 1]

    def test_isolated_nodes_count_zero(self):
        stream = LinkStream([0], [1], [0], num_nodes=4)
        assert node_event_counts(stream).tolist() == [1, 1, 0, 0]


class TestPairCounts:
    def test_multiplicities(self):
        stream = LinkStream([0, 0, 1], [1, 1, 0], [0, 1, 2])
        u, v, c = pair_event_counts(stream)
        pairs = dict(zip(zip(u.tolist(), v.tolist()), c.tolist()))
        assert pairs == {(0, 1): 2, (1, 0): 1}

    def test_undirected_pairs_canonical(self):
        stream = LinkStream([1, 0], [0, 1], [0, 1], directed=False)
        u, v, c = pair_event_counts(stream)
        assert u.tolist() == [0] and v.tolist() == [1] and c.tolist() == [2]

    def test_empty(self):
        u, v, c = pair_event_counts(LinkStream([], [], []))
        assert u.size == 0


class TestInterContact:
    def test_gaps_per_node(self):
        # Node 1 participates at times 0, 4, 10 -> gaps 4, 6.
        stream = LinkStream([0, 1, 2], [1, 2, 1], [0, 4, 10])
        gaps = sorted(inter_contact_times(stream).tolist())
        # node0: [0] no gap; node1: 0,4,10 -> 4,6; node2: 4,10 -> 6
        assert gaps == [4, 6, 6]

    def test_mean(self):
        stream = LinkStream([0, 1, 2], [1, 2, 1], [0, 4, 10])
        assert mean_inter_contact_time(stream) == pytest.approx((4 + 6 + 6) / 3)

    def test_needs_repeat_contact(self):
        stream = LinkStream([0], [1], [0])
        with pytest.raises(LinkStreamError):
            mean_inter_contact_time(stream)


class TestActivity:
    def test_per_node_per_day(self):
        # 10 events, 5 nodes, spanning exactly 2 days -> 1 event/node/day.
        times = np.linspace(0, 2 * DAY, 10)
        stream = LinkStream([0] * 10, [1, 2, 3, 4] * 2 + [1, 2], times, num_nodes=5)
        assert mean_activity_per_node_per_day(stream) == pytest.approx(1.0)

    def test_profile_bins(self):
        stream = LinkStream([0, 0, 0], [1, 1, 1], [0, 5, 10])
        starts, counts = activity_profile(stream, 5.0)
        assert counts.tolist() == [1, 1, 1]
        assert starts.tolist() == [0, 5, 10]

    def test_profile_bad_width(self, chain_stream):
        with pytest.raises(LinkStreamError):
            activity_profile(chain_stream, 0)

    def test_circadian_profile_sums_to_one(self):
        times = np.arange(0, 3 * DAY, HOUR)
        stream = LinkStream([0] * times.size, [1] * times.size, times)
        profile = circadian_profile(stream)
        assert profile.sum() == pytest.approx(1.0)
        assert profile.size == 24

    def test_circadian_profile_flags_day_concentration(self):
        # All events at hour 14 of each day.
        times = 14 * HOUR + DAY * np.arange(10)
        stream = LinkStream([0] * 10, [1] * 10, times)
        profile = circadian_profile(stream)
        assert profile[14] == pytest.approx(1.0)


class TestBurstiness:
    def test_poisson_is_near_zero(self):
        rng = np.random.default_rng(0)
        times = np.cumsum(rng.exponential(10.0, size=4000))
        stream = LinkStream([0] * 4000, [1] * 4000, times)
        assert abs(burstiness(stream)) < 0.1

    def test_regular_is_negative(self):
        times = np.arange(100) * 10.0
        stream = LinkStream([0] * 100, [1] * 100, times)
        assert burstiness(stream) < -0.5

    def test_bursty_is_positive(self):
        rng = np.random.default_rng(1)
        gaps = rng.pareto(1.2, size=4000) + 0.01
        times = np.cumsum(gaps)
        stream = LinkStream([0] * 4000, [1] * 4000, times)
        assert burstiness(stream) > 0.3


class TestSummary:
    def test_fields(self, medium_stream):
        summary = stream_summary(medium_stream)
        assert summary.num_nodes == medium_stream.num_nodes
        assert summary.num_events == medium_stream.num_events
        assert summary.span_seconds == medium_stream.span
        assert summary.distinct_pairs > 0
        assert summary.as_dict()["num_events"] == medium_stream.num_events


def fresh_summary(stream):
    """The summary of a newly built stream with the same content (no memo)."""
    rebuilt = LinkStream(
        stream.sources,
        stream.targets,
        stream.timestamps,
        directed=stream.directed,
        num_nodes=stream.num_nodes,
    )
    return stream_summary(rebuilt)


def assert_same_summary(actual, expected):
    """Field-by-field equality, NaN equal to NaN."""
    for key, value in expected.as_dict().items():
        got = actual.as_dict()[key]
        assert got == value or (math.isnan(got) and math.isnan(value)), key


class TestSummaryMemo:
    """``stream_summary`` computes once per stream object and is never
    stale: every derived stream starts with an empty slot."""

    def test_second_call_returns_the_stored_summary(self, medium_stream, monkeypatch):
        from repro.linkstream import statistics

        first = stream_summary(medium_stream)
        monkeypatch.setattr(
            statistics,
            "inter_contact_times",
            lambda stream: pytest.fail("summary recomputed"),
        )
        assert stream_summary(medium_stream) is first

    def test_extend_with_events(self, medium_stream):
        parent = stream_summary(medium_stream)
        t = medium_stream.t_max
        grown = medium_stream.extend([(0, 1, t + 1), (2, 3, t + 7), (0, 2, t + 30)])
        assert_same_summary(stream_summary(grown), fresh_summary(grown))
        assert stream_summary(grown).num_events == parent.num_events + 3
        assert stream_summary(grown).mean_inter_contact_seconds != (
            parent.mean_inter_contact_seconds
        )

    def test_extend_with_empty_batch(self, medium_stream):
        stream_summary(medium_stream)
        grown = medium_stream.extend([])
        assert_same_summary(stream_summary(grown), fresh_summary(medium_stream))

    def test_copy(self, medium_stream):
        stream_summary(medium_stream)
        copied = medium_stream.copy()
        assert copied._summary is None
        assert_same_summary(stream_summary(copied), fresh_summary(medium_stream))

    def test_derived_streams_start_empty(self, medium_stream):
        stream_summary(medium_stream)
        half = medium_stream.t_min + medium_stream.span / 2
        sliced = medium_stream.slice_time(medium_stream.t_min, half)
        shifted = medium_stream.shift_time(10)
        for derived in (sliced, shifted):
            assert_same_summary(stream_summary(derived), fresh_summary(derived))
        assert stream_summary(sliced).num_events < medium_stream.num_events

    def test_catalog_stream(self, medium_stream, tmp_path):
        ingest_stream(medium_stream, "memo", root=str(tmp_path), partition_events=64)
        reopened = open_dataset("memo", root=str(tmp_path))
        assert reopened._summary is None
        assert_same_summary(stream_summary(reopened), fresh_summary(medium_stream))
        assert stream_summary(reopened) is stream_summary(reopened)

    def test_pickle_round_trip(self, medium_stream):
        unset = pickle.loads(pickle.dumps(medium_stream))
        assert_same_summary(stream_summary(unset), fresh_summary(medium_stream))
        stream_summary(medium_stream)
        carried = pickle.loads(pickle.dumps(medium_stream))
        assert_same_summary(stream_summary(carried), fresh_summary(medium_stream))

    @settings(max_examples=150, deadline=None)
    @given(
        stream=st.booleans().flatmap(
            lambda float_time: link_streams(min_events=2, float_time=float_time)
        )
    )
    def test_repeat_contact_fields_equal_the_public_functions(self, stream):
        assume(stream.span > 0)
        summary = stream_summary(stream)
        if not inter_contact_times(stream).size:
            assert math.isnan(summary.mean_inter_contact_seconds)
            assert math.isnan(summary.burstiness)
            with pytest.raises(LinkStreamError):
                mean_inter_contact_time(stream)
            with pytest.raises(LinkStreamError):
                burstiness(stream)
            return
        assert summary.mean_inter_contact_seconds == mean_inter_contact_time(stream)
        assert summary.burstiness == burstiness(stream)
