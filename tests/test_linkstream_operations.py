"""Unit tests for whole-stream operations."""

import numpy as np
import pytest

from repro.linkstream import (
    LinkStream,
    concatenate,
    subsample_events,
)
from repro.utils.errors import LinkStreamError


class TestConcatenate:
    def test_merges_label_spaces(self):
        first = LinkStream.from_triples([("a", "b", 1)])
        second = LinkStream.from_triples([("b", "c", 2)])
        merged = concatenate([first, second])
        assert merged.num_nodes == 3
        assert merged.num_events == 2
        assert [e[:2] for e in merged.events()] == [("a", "b"), ("b", "c")]

    def test_rejects_mixed_directedness(self):
        directed = LinkStream([0], [1], [0], directed=True)
        undirected = LinkStream([0], [1], [0], directed=False)
        with pytest.raises(LinkStreamError):
            concatenate([directed, undirected])

    def test_rejects_empty_list(self):
        with pytest.raises(LinkStreamError):
            concatenate([])

    def test_single_stream_passthrough(self, chain_stream):
        merged = concatenate([chain_stream])
        assert merged.num_events == chain_stream.num_events


class TestSubsample:
    def test_fraction_one_keeps_all(self, medium_stream):
        assert subsample_events(medium_stream, 1.0).num_events == medium_stream.num_events

    def test_fraction_zero_drops_all(self, medium_stream):
        assert subsample_events(medium_stream, 0.0).num_events == 0

    def test_fraction_half_is_roughly_half(self, medium_stream):
        sampled = subsample_events(medium_stream, 0.5, seed=1)
        ratio = sampled.num_events / medium_stream.num_events
        assert 0.3 < ratio < 0.7

    def test_bad_fraction_rejected(self, medium_stream):
        with pytest.raises(LinkStreamError):
            subsample_events(medium_stream, 1.5)

    def test_deterministic_with_seed(self, medium_stream):
        a = subsample_events(medium_stream, 0.5, seed=3)
        b = subsample_events(medium_stream, 0.5, seed=3)
        assert a == b
